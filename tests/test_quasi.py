"""The two quasi-invariance checkers and the graded dimension oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasinv.bipoly import (BiPoly, from_text, homogeneous_components,
                            normal_derivative, restrict_to_line)
from quasinv.dihedral import DihedralSystem
from quasinv.errors import ScalarKindMismatch
from quasinv.generators import full_basis
from quasinv.quasi import (CoeffVector, _orbit_class_rows, check_per_line,
                           crosscheck_checkers, grouped_conditions,
                           grouped_rows, line_derivative_coefficient,
                           line_residual, quasi_basis, quasi_dimension)
from quasinv.scalars import CycloElem, euler_phi, root_of_unity

SYS210 = DihedralSystem(4, 1, 0)


def coeffs(degree, *entries):
    return CoeffVector(degree, tuple(Fraction(e) for e in entries))


# ---------------------------------------------------------------------------
# per-line checker
# ---------------------------------------------------------------------------

def test_check_per_line_known_generator():
    p = from_text("1*z^3*zb^0 + 3*z^1*zb^2")
    assert check_per_line(SYS210, p).ok


def test_check_per_line_invariants_pass():
    for sys in (SYS210, DihedralSystem(6, 2, 1), DihedralSystem.uniform(3, 2)):
        s1, s2 = sys.invariant_generators()
        for p in (s1, s2, s1 * s2 + s2, s1 ** 2 - 3 * s2):
            assert check_per_line(sys, p).ok


def test_check_per_line_violation_detail():
    report = check_per_line(SYS210, BiPoly.monomial(1, 0))
    assert not report.ok
    assert {(v.line, v.order) for v in report.violations} == {(0, 1), (2, 1)}
    assert all(v.degree == 1 for v in report.violations)
    # reported orders stay within the line multiplicities
    for v in report.violations:
        assert 1 <= (v.order + 1) // 2 <= SYS210.multiplicity(v.line)


def test_check_per_line_zero_poly():
    assert check_per_line(SYS210, BiPoly.zero()).ok


def iterated_per_line(sys, p):
    """Reference for check_per_line: iterate the normal derivative as a
    polynomial and restrict each odd order to its line."""
    M = sys.mirrors
    violations = []
    for degree, comp in homogeneous_components(p):
        comp = comp.promote(M)
        for j in sys.lines():
            current = comp
            for order in range(1, 2 * sys.multiplicity(j)):
                current = normal_derivative(current, j, M)
                if order % 2 == 1:
                    res = restrict_to_line(current, j, M)
                    if res:
                        violations.append({
                            "line": j, "order": order, "degree": degree,
                            "residual": " + ".join(
                                f"({res[d]})*zb^{d}" for d in sorted(res))})
    violations.sort(key=lambda v: (v["degree"], v["line"], v["order"]))
    return {"ok": not violations, "violations": violations}


def random_poly(rng, max_degree, order=None):
    """Non-homogeneous polynomial with small rational (or, given an order,
    cyclotomic) coefficients."""
    out = {}
    for _ in range(6):
        d = rng.randint(0, max_degree)
        a = rng.randint(0, d)
        out[(a, d - a)] = (
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if order is None
            else CycloElem(order, [rng.randint(-3, 3) for _ in range(order)]))
    return BiPoly(out, order)


def closed_form_grid():
    rng = random.Random(2003)
    for mirrors, me, mo in ((4, 1, 0), (6, 1, 2), (8, 2, 1)):
        sys = DihedralSystem(mirrors, me, mo)
        for e in full_basis(sys).entries:
            yield sys, e.poly
    for mirrors, mult in ((7, 2), (9, 1)):
        sys = DihedralSystem.uniform(mirrors, mult)
        for d in (5, 2 * mirrors + 3):
            yield from ((sys, p) for p in quasi_basis(sys, d))
    for mirrors, me, mo in ((1, 1, 1), (2, 2, 1), (3, 2, 2), (4, 1, 0),
                            (5, 1, 1), (6, 1, 2), (7, 2, 2), (8, 2, 1),
                            (9, 1, 1), (12, 2, 2), (16, 3, 2)):
        sys = DihedralSystem(mirrors, me, mo)
        yield sys, BiPoly.zero()
        # components of degree 0..2 sit below order 3
        yield sys, BiPoly({(0, 0): 2, (1, 0): 1, (1, 1): -3, (0, 2): 5})
        for _ in range(4):
            yield sys, random_poly(rng, 12)
            yield sys, random_poly(rng, 8, order=mirrors)


def test_check_per_line_matches_iterated_derivatives():
    cases = 0
    for sys, p in closed_form_grid():
        assert check_per_line(sys, p).to_dict() == iterated_per_line(sys, p), \
            (sys, p)
        cases += 1
    assert cases >= 150


@st.composite
def system_and_poly(draw):
    mirrors = draw(st.integers(1, 10))
    me = draw(st.integers(0, 3))
    mo = me if mirrors % 2 else draw(st.integers(0, 3))
    order = draw(st.sampled_from([None, mirrors]))
    if order is None:
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    else:
        coeff = st.lists(st.integers(-4, 4), min_size=mirrors,
                         max_size=mirrors).map(
            lambda cs: CycloElem(mirrors, cs))
    exps = st.tuples(st.integers(0, 8), st.integers(0, 8))
    terms = draw(st.dictionaries(exps, coeff, max_size=6))
    return DihedralSystem(mirrors, me, mo), BiPoly(terms, order)


@settings(max_examples=60, deadline=None)
@given(system_and_poly())
def test_check_per_line_matches_iterated_property(case):
    sys, p = case
    assert check_per_line(sys, p).to_dict() == iterated_per_line(sys, p)


def test_line_derivative_coefficient_values():
    for a in range(8):
        for b in range(8):
            assert line_derivative_coefficient(1, a, b) == a - b
            for k in range(a + b + 1, a + b + 4):
                assert line_derivative_coefficient(k, a, b) == 0
    # on line j, N_j^3(z^3) = 6 zeta^(3j) and N_j^2(z zb) = -2 zeta^j
    assert line_derivative_coefficient(3, 3, 0) == 6
    assert line_derivative_coefficient(2, 1, 1) == -2


def test_line_residual_is_the_reduced_residue():
    # the residue list is empty exactly when gamma is zero, and otherwise
    # is gamma's coefficient vector without trailing zeros; int inputs stay
    # int
    rng = random.Random(23)
    for M in (1, 2, 3, 4, 5, 6, 8, 12):
        for _ in range(40):
            cyclo = rng.random() < 0.5
            terms = []
            for _ in range(rng.randint(0, 4)):
                a, b = rng.randint(0, 5), rng.randint(0, 5)
                if cyclo:
                    c = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                              for _ in range(euler_phi(M)))
                else:
                    c = (rng.randint(-3, 3),)
                terms.append((a, b, c))
            j, k = rng.randrange(M), rng.choice((1, 2, 3))
            gamma = CycloElem.from_rational(M, 0)
            for a, b, c in terms:
                gamma += CycloElem(M, c) * root_of_unity(M, j * a) * \
                    line_derivative_coefficient(k, a, b)
            residue = line_residual(M, terms, j, k)
            coeffs = list(gamma.coeffs)
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            assert residue == coeffs
            assert (not residue) == gamma.is_zero()
            if not cyclo:
                assert all(type(r) is int for r in residue)
    # N_j(z - zb) on line j of two lines is zeta^j + 1: 0 on line 1
    terms = [(1, 0, (1,)), (0, 1, (-1,))]
    assert line_residual(2, terms, 1, 1) == []
    assert line_residual(2, terms, 0, 1) == [2]


def test_check_per_line_rejects_other_cyclotomic_field():
    p = BiPoly({(1, 0): CycloElem(5, [0, 1])}, 5)
    with pytest.raises(ScalarKindMismatch):
        check_per_line(SYS210, p)


# ---------------------------------------------------------------------------
# grouped rational checker
# ---------------------------------------------------------------------------

def test_grouped_conditions_examples():
    assert grouped_conditions(SYS210, coeffs(3, 1, 0, 3, 0)) == [0, 0]
    residuals = grouped_conditions(SYS210, coeffs(5, 1, 0, 0, 0, 0, 0))
    assert residuals[0] == 5 and residuals[1] == 0
    assert grouped_conditions(SYS210, coeffs(4, 0, 0, 0, 0, 0)) == [0, 0]


def test_grouped_rows_structure():
    # (m, n) = (2, 1) on four mirrors: one level of combined classes mod 2N,
    # then one level of plain sums mod N on the even-index class
    sys = DihedralSystem(4, 2, 1)
    rows = grouped_rows(sys, 6)
    assert len(rows) == 4 + 2
    values = [6 - 2 * s for s in range(7)]
    for p in range(4):
        assert rows[p] == tuple(values[s] if s % 4 == p else 0
                                for s in range(7))
    for p in range(2):
        assert rows[4 + p] == tuple(values[s] ** 3 if s % 2 == p else 0
                                    for s in range(7))


def test_grouped_rows_alternating_for_odd_orbit():
    # larger multiplicity on the odd-index class flips signs between the two
    # residues that share a class mod N
    sys = DihedralSystem(4, 0, 1)
    rows = grouped_rows(sys, 4)
    values = [4 - 2 * s for s in range(5)]
    assert rows == [
        tuple(values[s] if s % 2 == 0 and s % 4 == 0
              else -values[s] if s % 2 == 0 else 0 for s in range(5)),
        tuple(values[s] if s % 4 == 1 else -values[s] if s % 4 == 3 else 0
              for s in range(5)),
    ]


def per_position_grouped_rows(sys, degree):
    """Reference rows: each position s tested against the residue class."""
    D = degree
    values = [D - 2 * s for s in range(D + 1)]

    def power_row(t, keep, sign=lambda s: 1):
        return tuple(sign(s) * values[s] ** (2 * t - 1) if keep(s) else 0
                     for s in range(D + 1))

    if not sys.is_even:
        M = sys.mirrors
        return [power_row(t, lambda s, p=p: s % M == p)
                for t in range(1, sys.mult_even + 1) for p in range(M)]
    N = sys.period
    m, n = sys.mult_even, sys.mult_odd
    rows = [power_row(t, lambda s, p=p: s % (2 * N) == p)
            for t in range(1, min(m, n) + 1) for p in range(2 * N)]
    for t in range(min(m, n) + 1, max(m, n) + 1):
        for p in range(N):
            sign = (lambda s: 1) if m >= n else \
                (lambda s, p=p: (-1) ** ((s - p) // N))
            rows.append(power_row(t, lambda s, p=p: s % N == p, sign))
    return rows


@pytest.mark.parametrize("mirrors,me,mo", [
    (1, 1, 1), (2, 0, 0), (2, 0, 3), (3, 2, 2), (4, 0, 1), (6, 1, 2),
    (8, 2, 1), (9, 3, 3), (16, 3, 2), (24, 4, 4)])
def test_grouped_rows_match_per_position_reference(mirrors, me, mo):
    sys = DihedralSystem(mirrors, me, mo)
    for d in range(0, 97):
        assert grouped_rows(sys, d) == per_position_grouped_rows(sys, d), d


def per_position_orbit_rows(sys, degree, orbit, t):
    """Reference rows of one orbit and level, each position tested against
    the residue class."""
    D = degree
    e = 2 * t - 1
    period = sys.period
    return [tuple((-1) ** ((s - p) // period * orbit) * (D - 2 * s) ** e
                  if s % period == p else 0 for s in range(D + 1))
            for p in range(period)]


@pytest.mark.parametrize("mirrors,me,mo", [
    (1, 2, 2), (2, 1, 3), (4, 1, 0), (6, 1, 2), (8, 2, 1), (12, 2, 2),
    (7, 2, 2), (9, 1, 1)])
def test_orbit_class_rows_match_per_position_reference(mirrors, me, mo):
    sys = DihedralSystem(mirrors, me, mo)
    for d in range(60):
        for orbit in ((0, 1) if sys.is_even else (0,)):
            for t in (1, 2):
                assert _orbit_class_rows(sys, d, orbit, t) == \
                    per_position_orbit_rows(sys, d, orbit, t), (d, orbit, t)


def test_quasi_dimension_examples():
    assert quasi_dimension(SYS210, 2) == 2
    assert quasi_dimension(SYS210, 0) == 1
    assert quasi_dimension(DihedralSystem(6, 2, 2), 0) == 1
    assert quasi_dimension(SYS210, 5) == 4


def test_quasi_basis_members_pass_per_line():
    for sys in (SYS210, DihedralSystem(4, 1, 2), DihedralSystem.uniform(3, 1)):
        for d in range(0, 9):
            basis = quasi_basis(sys, d)
            assert len(basis) == quasi_dimension(sys, d)
            for p in basis:
                assert check_per_line(sys, p).ok


def test_graded_piece_needs_nonnegative_degree():
    for graded in (quasi_dimension, quasi_basis):
        with pytest.raises(ValueError):
            graded(SYS210, -1)


def perline_dimension(sys, degree):
    """Brute-force dimension oracle straight from the definition: stack the
    per-line derivative-restriction conditions on the monomial basis, expand
    each cyclotomic condition into its rational coordinates, and take the
    exact corank.  Independent of the residue-class derivation."""
    from quasinv.bipoly import BiPoly, normal_derivative, restrict_to_line
    from quasinv.scalars import exact_rank, euler_phi

    M = sys.mirrors
    phi = euler_phi(M)
    rows = []
    for j in sys.lines():
        for t in range(1, sys.multiplicity(j) + 1):
            order = 2 * t - 1
            expanded = [[Fraction(0)] * (degree + 1) for _ in range(phi)]
            for s in range(degree + 1):
                current = BiPoly.monomial(degree - s, s)
                for _ in range(order):
                    current = normal_derivative(current, j, M)
                res = restrict_to_line(current, j, M)
                gamma = res.get(degree - order)
                if gamma is not None:
                    for idx in range(phi):
                        expanded[idx][s] = gamma.coeffs[idx]
            rows.extend(expanded)
    return degree + 1 - exact_rank(rows, ncols=degree + 1)


@pytest.mark.parametrize("mirrors,me,mo", [
    (1, 1, 1), (2, 1, 0), (2, 2, 2), (3, 1, 1), (3, 2, 2),
    (4, 1, 0), (4, 0, 2), (4, 2, 1), (6, 1, 2)])
def test_quasi_dimension_against_per_line_bruteforce(mirrors, me, mo):
    sys = DihedralSystem(mirrors, me, mo)
    for d in range(0, 9):
        assert quasi_dimension(sys, d) == perline_dimension(sys, d), d


def test_quasi_dimension_monotone_in_multiplicity():
    for d in range(0, 10):
        for base, bumped in (
                (DihedralSystem(4, 1, 0), DihedralSystem(4, 2, 0)),
                (DihedralSystem(4, 1, 0), DihedralSystem(4, 1, 1)),
                (DihedralSystem.uniform(3, 1), DihedralSystem.uniform(3, 2))):
            assert quasi_dimension(bumped, d) <= quasi_dimension(base, d)


# ---------------------------------------------------------------------------
# agreement of the two checkers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mirrors,me,mo", [
    (1, 1, 1), (1, 2, 2), (2, 1, 0), (2, 2, 1), (3, 1, 1), (3, 2, 2),
    (4, 1, 0), (4, 0, 1), (4, 2, 1), (4, 2, 2), (6, 1, 2), (6, 2, 0)])
def test_crosscheck(mirrors, me, mo):
    sys = DihedralSystem(mirrors, me, mo)
    assert crosscheck_checkers(sys, trials=40, max_degree=12, seed=42)


def test_crosscheck_needs_a_trial():
    with pytest.raises(ValueError):
        crosscheck_checkers(SYS210, trials=0, max_degree=12)


def test_agreement_when_first_failure_is_higher_order():
    # elements quasi-invariant for (m, n) = (1, 1) but not (2, 1) pass every
    # first-order condition and fail first at derivative order 3, and only
    # across the even-index lines; both checkers must localize it there
    low = DihedralSystem(4, 1, 1)
    high = DihedralSystem(4, 2, 1)
    found = False
    for d in range(4, 10):
        for p in quasi_basis(low, d):
            residuals = grouped_conditions(high, CoeffVector.from_poly(p)) \
                if not p.is_zero() else []
            if all(r == 0 for r in residuals):
                continue
            found = True
            report = check_per_line(high, p)
            assert not report.ok
            assert all(v.order == 3 for v in report.violations)
            assert all(v.line % 2 == 0 for v in report.violations)
            # the grouped system localizes the failure the same way: all
            # combined first-level sums vanish
            n_rows_level1 = high.mirrors * min(high.mult_even, high.mult_odd)
            assert all(r == 0 for r in residuals[:n_rows_level1])
            assert any(r != 0 for r in residuals[n_rows_level1:])
    assert found


def test_crosscheck_trivial_cases():
    sys = SYS210
    assert check_per_line(sys, BiPoly.zero()).ok
    assert all(r == 0 for r in
               grouped_conditions(sys, coeffs(6, 0, 0, 0, 0, 0, 0, 0)))
    # grouped and per-line agree on the known generator set
    for text in ("1*z^3*zb^0 + 3*z^1*zb^2", "1*z^5*zb^0 + -5*z^3*zb^2"):
        p = from_text(text)
        assert check_per_line(sys, p).ok
        assert all(r == 0 for r in
                   grouped_conditions(sys, CoeffVector.from_poly(p)))


# ---------------------------------------------------------------------------
# ring and group structure
# ---------------------------------------------------------------------------

def test_products_of_quasi_invariants_are_quasi_invariant():
    rng = random.Random(77)
    for sys in (SYS210, DihedralSystem(6, 1, 1)):
        pool = [p for d in range(2, 8) for p in quasi_basis(sys, d)]
        for _ in range(8):
            p, q = rng.choice(pool), rng.choice(pool)
            assert check_per_line(sys, p * q).ok


def test_group_action_preserves_quasi_invariance():
    rng = random.Random(78)
    for sys in (SYS210, DihedralSystem(4, 2, 1)):
        pool = [p for d in range(2, 8) for p in quasi_basis(sys, d)]
        elements = list(sys.elements())
        for _ in range(10):
            p = rng.choice(pool)
            g = rng.choice(elements)
            assert check_per_line(sys, sys.act(g, p)).ok


def test_sigma_powers_pass():
    for sys in (SYS210, DihedralSystem(6, 2, 1)):
        s1, s2 = sys.invariant_generators()
        for a in range(4):
            for b in range(4):
                assert check_per_line(sys, s1 ** a * s2 ** b).ok
