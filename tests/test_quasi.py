"""The two quasi-invariance checkers and the graded dimension oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasinv.bipoly import (BiPoly, from_text, normal_derivative,
                            restrict_to_line)
from quasinv import quasi
from quasinv.dihedral import DihedralSystem
from quasinv.errors import (ChainNotSaturated, NullVectorMismatch,
                            ScalarKindMismatch)
from quasinv.generators import full_basis
from quasinv.modstruct import not_in_ideal_check
from quasinv.quasi import (CoeffVector, check_per_line, crosscheck_checkers,
                           grouped_conditions, grouped_rows, order_weights,
                           quasi_basis, quasi_dimension, quasi_dimensions,
                           residue_on_line, row_classes)
from quasinv.scalars import (CycloElem, euler_phi, exact_rank, nullspace,
                             rational, reduce_into, root_of_unity)
from reference import (act, class_row, dense_nullspace, group_elements,
                       homogeneous_components, invariant_generators,
                       line_derivative_coefficient, power, quasi_null_rows,
                       rational_parts)
from reference import order_weights as reference_weights

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
        s1, s2 = invariant_generators(sys)
        for p in (s1, s2, s1 * s2 + s2, power(s1, 2) - s2.scale(3)):
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


def assert_matches_iterated(sys, p):
    """check_per_line agrees with ``iterated_per_line`` on a rational p and
    refuses a p with a cyclotomic coefficient."""
    if p.order is None:
        assert check_per_line(sys, p).to_dict() == iterated_per_line(sys, p), \
            (sys, p)
    else:
        with pytest.raises(ScalarKindMismatch):
            check_per_line(sys, p)


def random_poly(rng, max_degree, order=None):
    """Non-homogeneous polynomial with small rational (or, given an order,
    cyclotomic, which the checker refuses) coefficients."""
    out = {}
    for _ in range(6):
        d = rng.randint(0, max_degree)
        a = rng.randint(0, d)
        out[(a, d - a)] = (
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if order is None
            else CycloElem(order, [rng.randint(-3, 3) for _ in range(order)]))
    return BiPoly(out)


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
        assert_matches_iterated(sys, p)
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
    return DihedralSystem(mirrors, me, mo), BiPoly(terms)


@settings(max_examples=60, deadline=None)
@given(system_and_poly())
def test_check_per_line_matches_iterated_property(case):
    assert_matches_iterated(*case)


def test_line_derivative_coefficient_values():
    # the defining sum of the reference, on hand values
    for a in range(8):
        for b in range(8):
            assert line_derivative_coefficient(1, a, b) == a - b
            for k in range(a + b + 1, a + b + 4):
                assert line_derivative_coefficient(k, a, b) == 0
    # on line j, N_j^3(z^3) = 6 zeta^(3j) and N_j^2(z zb) = -2 zeta^j
    assert line_derivative_coefficient(3, 3, 0) == 6
    assert line_derivative_coefficient(2, 1, 1) == -2


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 32), st.lists(
    st.tuples(st.integers(0, 64), st.integers(0, 64),
              st.integers(-10**6, 10**6).filter(bool)), max_size=8),
    st.sampled_from(range(-1, 18, 2)))
def test_order_weights_recurrence_matches_the_sum(M, terms, top):
    # mixed degrees, and orders above a term's degree, where K_k reads 0
    drawn = list(order_weights(M, terms, top))
    assert [k for k, _ in drawn] == list(range(1, top + 1, 2))
    for k, weights in drawn:
        assert len({r for r, _ in weights}) == len(weights)
        assert dict(weights) == reference_weights(M, terms, k)


def line_residual(M, terms, j, k):
    """gamma = sum over the integer terms c z^a zb^b of
    c * K_k(a, b) * zeta^(j a) on one line, as the reduced residue: the
    weights of order k scattered on line j, the last that ``order_weights``
    yields for an odd k and the reference's for an even one."""
    if k % 2:
        *_, (_, weights) = order_weights(M, terms, k)
    else:
        weights = reference_weights(M, terms, k).items()
    return residue_on_line(M, weights, j)


def test_line_residual_is_the_reduced_residue():
    # the residue list is empty exactly when gamma is zero, and otherwise
    # is gamma's coefficient vector without trailing zeros, in ints
    rng = random.Random(23)
    for M in (1, 2, 3, 4, 5, 6, 8, 12):
        for _ in range(40):
            terms = [(rng.randint(0, 5), rng.randint(0, 5),
                      rng.randint(-9, 9)) for _ in range(rng.randint(0, 4))]
            j, k = rng.randrange(M), rng.choice((1, 2, 3))
            gamma = CycloElem.from_rational(M, 0)
            for a, b, c in terms:
                gamma += root_of_unity(M, j * a) * \
                    (c * line_derivative_coefficient(k, a, b))
            residue = line_residual(M, terms, j, k)
            coeffs = list(gamma.coeffs)
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            assert residue == coeffs
            assert (not residue) == gamma.is_zero()
            assert all(type(r) is int for r in residue)
    # N_j(z - zb) on line j of two lines is zeta^j + 1: 0 on line 1
    terms = [(1, 0, 1), (0, 1, -1)]
    assert line_residual(2, terms, 1, 1) == []
    assert line_residual(2, terms, 0, 1) == [2]


def test_check_per_line_rejects_other_cyclotomic_field():
    p = BiPoly({(1, 0): CycloElem(5, [0, 1])})
    with pytest.raises(ScalarKindMismatch):
        check_per_line(SYS210, p)


@st.composite
def per_line_cases(draw):
    """An arrangement with M = 1..16 and a polynomial on it: integral,
    fractional or cyclotomic coefficients (the last refused unless they are
    rational, as at M <= 2), terms of several degrees, and now and then a
    quasi-invariant component, so passes occur too."""
    M = draw(st.integers(1, 16))
    me = draw(st.integers(0, 3))
    mo = draw(st.integers(0, 3)) if M % 2 == 0 else me
    sys = DihedralSystem(M, me, mo)
    kind = draw(st.sampled_from(["integral", "fractional", "cyclotomic"]))
    small = st.integers(-4, 4)
    fraction = st.builds(Fraction, small, st.integers(1, 6))
    if kind == "integral":
        coefficient = small
    elif kind == "fractional":
        coefficient = fraction
    else:
        coefficient = st.builds(lambda v: CycloElem(M, v), st.lists(
            fraction, min_size=euler_phi(M), max_size=euler_phi(M)))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), coefficient,
        max_size=7))
    p = BiPoly(terms)
    if draw(st.booleans()):
        degree = draw(st.integers(0, 9))
        weights = draw(st.lists(small, min_size=degree + 1,
                                max_size=degree + 1))
        p = p + sum((q.scale(w) for q, w in
                     zip(quasi_basis(sys, degree), weights)), BiPoly.zero())
    return sys, p


def reference_residues(sys, p):
    """(degree, line, order, gamma) for every nonzero gamma, from field
    arithmetic: gamma = sum of c * zeta^(j a) * K_k(a, b) over the terms of
    one component."""
    M = sys.mirrors
    out = []
    for degree, comp in homogeneous_components(p):
        for j in sys.lines():
            for k in range(1, 2 * sys.multiplicity(j), 2):
                if k > degree:
                    break
                gamma = CycloElem.from_rational(M, 0)
                for (a, b), c in comp.terms.items():
                    gamma += root_of_unity(M, j * a) * \
                        (c * line_derivative_coefficient(k, a, b))
                if not gamma.is_zero():
                    out.append((degree, j, k, gamma))
    return out


@settings(max_examples=150, deadline=None)
@given(per_line_cases())
def test_per_line_kernel_matches_field_reference(case):
    # the order-major kernel against plain field arithmetic per component,
    # line and order: the residues as a set, and the rendered report; a
    # cyclotomic coefficient is refused
    sys, p = case
    if p.order is not None:
        with pytest.raises(ScalarKindMismatch):
            check_per_line(sys, p)
        return
    expected = reference_residues(sys, p)
    scales = {degree: math.lcm(*(c.denominator for c in comp.terms.values()))
              for degree, comp in homogeneous_components(p)}
    residues = set()
    for degree, j, k, gamma in expected:
        scaled = list((gamma * scales[degree]).coeffs)
        while scaled and scaled[-1] == 0:
            scaled.pop()
        residues.add((degree, j, k, tuple(scaled), scales[degree]))
    assert {(d, j, k, tuple(r), s) for d, j, k, r, s in
            quasi._nonzero_residues(sys, p)} == residues
    violations = sorted(
        ({"degree": d, "line": j, "order": k,
          "residual": f"({gamma})*zb^{d - k}"}
         for d, j, k, gamma in expected),
        key=lambda v: (v["degree"], v["line"], v["order"]))
    assert check_per_line(sys, p).to_dict() == {
        "ok": not expected, "violations": violations}


@pytest.mark.parametrize("mirrors,me,mo", [
    (4, 1, 0), (4, 0, 1), (4, 0, 0), (6, 1, 2), (8, 2, 1), (8, 3, 1),
    (12, 2, 2), (5, 2, 2), (7, 3, 3), (1, 2, 2), (2, 0, 3)])
def test_first_failing_levels_equal_the_minimum_over_all_residues(
        mirrors, me, mo):
    # the early exit reads the residues only until every orbit of positive
    # multiplicity has one; on homogeneous input its levels are the minimum
    # over the full residue list, and an orbit of multiplicity 0 never
    # appears
    sys = DihedralSystem(mirrors, me, mo)
    rng = random.Random(mirrors * 100 + me * 10 + mo)
    for _ in range(30):
        degree = rng.randint(0, 14)
        poly = CoeffVector(degree, tuple(rng.randint(-3, 3)
                                         for _ in range(degree + 1))).to_poly()
        if rng.random() < 0.3:
            # mostly quasi-invariant, so failures come at higher orders
            low = DihedralSystem(mirrors, max(me - 1, 0),
                                 max(mo - 1, 0) if mirrors % 2 == 0
                                 else max(me - 1, 0))
            poly = sum((q.scale(rng.randint(-2, 2))
                        for q in quasi_basis(low, degree)), BiPoly.zero())
        full = {}
        for _, j, k, _, _ in quasi._nonzero_residues(sys, poly):
            orbit = sys.orbit(j)
            full[orbit] = min(full.get(orbit, k), k)
        levels = quasi._first_failing_levels(sys, poly)
        assert levels == {orbit: (k + 1) // 2 for orbit, k in full.items()}
        assert all(sys.multiplicity(orbit) for orbit in levels)


def test_first_failing_levels_stop_early(monkeypatch):
    # a polynomial failing at order 1 on both orbits of (4,2,1): the levels
    # come from the first residues, and the higher orders are never read
    sys = DihedralSystem(4, 2, 1)
    poly = from_text("1*z^6*zb^0 + 1*z^1*zb^5")
    full = list(quasi._nonzero_residues(sys, poly))
    assert any(k == 3 for _, _, k, _, _ in full)
    read = []
    residues = quasi._nonzero_residues
    monkeypatch.setattr(quasi, "_nonzero_residues", lambda *args: (
        read.append(r) or r for r in residues(*args)))
    assert quasi._first_failing_levels(sys, poly) == {0: 1, 1: 1}
    assert len(read) < len(full)
    assert all(k == 1 for _, _, k, _, _ in read)


def test_first_failing_levels_draw_no_order_they_do_not_read(monkeypatch):
    # z^20 fails at order 1 on every line of (16,8,7): one order is drawn,
    # not the eight odd orders up to 2 * 8 - 1; a passing polynomial draws
    # every odd order up to min(2 * 8 - 1, degree)
    sys = DihedralSystem(16, 8, 7)
    drawn = []
    original = quasi.order_weights
    monkeypatch.setattr(quasi, "order_weights", lambda *args: (
        drawn.append(k) or (k, w) for k, w in original(*args)))

    def drawn_orders(poly):
        drawn.clear()
        quasi._first_failing_levels(sys, poly)
        return drawn

    assert drawn_orders(BiPoly.monomial(20, 0)) == [1]
    passing = [BiPoly.monomial(1, 1), BiPoly.monomial(4, 4)]
    for poly in passing + [e.poly for e in full_basis(sys).entries]:
        assert drawn_orders(poly) == \
            list(range(1, min(15, poly.degree()) + 1, 2))


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
                rows = [class_row(d, t, p, sys.period, orbit == 1)
                        for p in range(sys.period)]
                assert rows == per_position_orbit_rows(sys, d, orbit, t), \
                    (d, orbit, t)


def test_quasi_dimension_examples():
    assert quasi_dimension(SYS210, 2) == 2
    assert quasi_dimension(SYS210, 0) == 1
    assert quasi_dimension(DihedralSystem(6, 2, 2), 0) == 1
    assert quasi_dimension(SYS210, 5) == 4


# ---------------------------------------------------------------------------
# the sparse class entries against the dense rows
# ---------------------------------------------------------------------------

def dense_residuals(sys, coeffs):
    """Reference for ``grouped_conditions``: the dot product of the vector
    with every dense row of ``grouped_rows``."""
    return [sum(r * a for r, a in zip(row, coeffs.entries))
            for row in grouped_rows(sys, coeffs.degree)]


def dense_first_failure(sys, coeffs, orbit):
    """Reference for ``_first_failure_grouped``: the lowest level with a
    nonzero dot product against a dense class row of the orbit."""
    for t in range(1, sys.multiplicity(orbit) + 1):
        for p in range(sys.period):
            row = class_row(coeffs.degree, t, p, sys.period, orbit == 1)
            if sum(r * a for r, a in zip(row, coeffs.entries)):
                return t
    return None


@st.composite
def system_and_vector(draw):
    """An arrangement, M = 1..16 with multiplicities 0..3, and a vector of
    one degree: random small integers or fractions with many zeros, or an
    integer combination of the basis of a lower multiplicity, which fails
    at higher levels only."""
    M = draw(st.integers(1, 16))
    me = draw(st.integers(0, 3))
    mo = draw(st.integers(0, 3)) if M % 2 == 0 else me
    sys = DihedralSystem(M, me, mo)
    degree = draw(st.integers(0, 30))
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.integers(-5, 5),
                          st.builds(Fraction, st.integers(-5, 5),
                                    st.integers(1, 4)))
        entries = draw(st.lists(entry, min_size=degree + 1,
                                max_size=degree + 1))
        return sys, CoeffVector(degree, tuple(entries))
    low = DihedralSystem(M, max(me - 1, 0),
                         max(mo - 1, 0) if M % 2 == 0 else max(me - 1, 0))
    poly = sum((q.scale(draw(st.integers(-3, 3)))
                for q in quasi_basis(low, degree)), BiPoly.zero())
    return sys, CoeffVector.from_poly(poly, degree)


@settings(max_examples=200, deadline=None)
@given(system_and_vector())
def test_sparse_class_sums_match_dense_rows(case):
    sys, coeffs = case
    residuals = grouped_conditions(sys, coeffs)
    assert residuals == dense_residuals(sys, coeffs)
    if all(type(a) is int for a in coeffs.entries):
        assert all(type(r) is int for r in residuals)
    for orbit in ((0, 1) if sys.is_even else (0,)):
        assert quasi._first_failure_grouped(sys, coeffs, orbit) == \
            dense_first_failure(sys, coeffs, orbit)


def test_class_entries_are_the_support_of_the_dense_row():
    for D in range(0, 25):
        for t in (1, 2, 3):
            for period in (1, 2, 3, 4, 6):
                for p in range(period):
                    for alternate in (False, True):
                        args = (D, t, p, period, alternate)
                        row = class_row(*args)
                        entries = dict(quasi.class_entries(*args))
                        assert sorted(entries) == \
                            list(range(p, D + 1, period))
                        assert row == tuple(entries.get(s, 0)
                                            for s in range(D + 1))


# M = 1 and M = 2, an orbit of multiplicity 0, no conditions at all, odd
# arrangements, and the even ladder with two periods
BASIS_GRID = [(1, 1, 1), (1, 3, 3), (2, 0, 0), (2, 1, 0), (2, 0, 3),
              (2, 2, 1), (3, 2, 2), (4, 1, 0), (4, 0, 1), (4, 0, 0),
              (5, 1, 1), (6, 1, 2), (7, 2, 2), (8, 2, 1), (9, 3, 3),
              (9, 1, 1), (12, 2, 2), (16, 3, 2), (24, 4, 4)]


@pytest.mark.parametrize("mirrors,me,mo", BASIS_GRID)
def test_quasi_basis_matches_the_dense_null_space(mirrors, me, mo):
    # the tagged-column reduction of nullspace gives the vectors of one
    # whole-matrix Gauss-Jordan, entry types included, since the RREF is
    # unique
    sys = DihedralSystem(mirrors, me, mo)
    for d in range(0, 50):
        rows = grouped_rows(sys, d)
        reference = dense_nullspace(rows, d + 1)
        vectors = nullspace(rows, d + 1)
        assert vectors == reference, (sys, d)
        assert [[type(e) for e in v] for v in vectors] == \
            [[type(rational(e)) for e in v] for v in reference]
        assert quasi_basis(sys, d) == [CoeffVector(d, v).to_poly()
                                       for v in reference]


# M = 1 and M = 2, odd M, even m != n, a zero multiplicity on either orbit,
# and no conditions at all
NULL_CHAIN_GRID = [DihedralSystem.uniform(1, 2), DihedralSystem(2, 1, 0),
                   DihedralSystem(2, 2, 1), DihedralSystem.uniform(5, 1),
                   DihedralSystem.uniform(7, 2), DihedralSystem(6, 1, 2),
                   DihedralSystem(8, 2, 1), DihedralSystem(4, 0, 3),
                   DihedralSystem(6, 2, 0), DihedralSystem(4, 0, 0)]


@pytest.mark.parametrize("sys", NULL_CHAIN_GRID, ids=str)
def test_null_chain_spans_the_graded_pieces(sys):
    # at degree d the vectors found so far, moved d // 2 columns on, are
    # independent and span what the class-block Bareiss spans
    chains = [quasi._NullChain(row_classes(sys), parity) for parity in (0, 1)]
    vectors = [[], []]
    for d in range(61):
        new = chains[d % 2].new_at(d)
        assert all(type(x) is int and x for v in new for x in v.values())
        assert all(math.gcd(*v.values()) == 1 for v in new)
        vectors[d % 2] += new
        rows = [{c + d // 2: x for c, x in v.items()}
                for v in vectors[d % 2]]
        span, reference = {}, {}
        assert all(reduce_into(span, row) for row in rows), (sys, d)
        assert all(reduce_into(reference, row)
                   for row in quasi_null_rows(sys, d))
        assert len(span) == len(reference) == quasi_dimension(sys, d)
        assert not any(reduce_into(dict(reference), row) for row in rows)


def test_null_chain_fails_closed_on_a_wrong_layout(monkeypatch):
    # one flipped sign in the layout the chain shares with the oracle: the
    # dependencies it finds then miss the class sums of their degree
    layout = quasi._column_layout

    def flipped(classes):
        B, L, meets, blocks = layout(classes)
        i, e, sign = meets[1][0]
        meets[1][0] = (i, e, -sign)
        return B, L, meets, blocks

    sys = DihedralSystem(6, 1, 2)
    gens = [e.poly for e in full_basis(sys).entries]
    monkeypatch.setattr(quasi, "_column_layout", flipped)
    for parity in (0, 1):
        with pytest.raises(NullVectorMismatch):
            quasi._NullChain(row_classes(sys), parity).new_at(30)
    with pytest.raises(NullVectorMismatch):
        not_in_ideal_check(sys, *gens)


def test_quasi_basis_members_pass_per_line():
    for sys in (SYS210, DihedralSystem(4, 1, 2), DihedralSystem.uniform(3, 1)):
        for d in range(0, 9):
            basis = quasi_basis(sys, d)
            assert len(basis) == quasi_dimension(sys, d)
            for p in basis:
                assert check_per_line(sys, p).ok


def test_graded_piece_needs_nonnegative_degree():
    for graded in (quasi_dimension, quasi_dimensions, quasi_basis):
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
# the chain oracle against the per-degree rank
# ---------------------------------------------------------------------------

def dense_dimension(sys, degree):
    """The reference oracle: (degree + 1) minus the Bareiss rank of the
    dense condition rows of that degree alone."""
    return degree + 1 - exact_rank(grouped_rows(sys, degree),
                                   ncols=degree + 1)


def assert_chain_matches_dense(sys, degrees, top):
    dims = quasi_dimensions(sys, top)
    assert len(dims) == top + 1
    for d in degrees:
        assert dims[d] == quasi_dimension(sys, d) == \
            dense_dimension(sys, d), (sys, d)


@pytest.mark.parametrize("mirrors,me,mo", [
    (1, 0, 0), (1, 1, 1), (1, 3, 3), (2, 0, 0), (2, 1, 0), (2, 0, 2),
    (2, 2, 1), (2, 3, 3), (3, 1, 1), (3, 2, 2), (4, 0, 0), (4, 1, 0),
    (4, 0, 3), (4, 2, 1), (5, 3, 3), (6, 1, 2), (6, 2, 0), (7, 2, 2),
    (8, 2, 1), (9, 3, 3), (12, 2, 2), (16, 3, 2)])
def test_chain_dimensions_match_dense_rank(mirrors, me, mo):
    assert_chain_matches_dense(DihedralSystem(mirrors, me, mo),
                               range(41), 40)


def test_chain_dimensions_past_block_saturation():
    # 120 rows in 8 blocks of 15: from some degree on every block has full
    # rank, each new column is skipped, and the dimension is d + 1 - 120
    sys = DihedralSystem(16, 8, 7)
    assert len(row_classes(sys)) == 120
    saturated = (240, 241, 260, 261)
    assert_chain_matches_dense(sys, [*range(0, 240, 13), 238, *saturated],
                               261)
    dims = quasi_dimensions(sys, 261)
    assert dims[238] > 239 - 120
    assert [dims[d] for d in saturated] == [d + 1 - 120 for d in saturated]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 30))
def test_chain_dimensions_on_random_arrangements(mirrors, me, mo, top):
    if mirrors % 2:
        mo = me
    assert_chain_matches_dense(DihedralSystem(mirrors, me, mo),
                               range(top + 1), top)


@pytest.fixture
def cold_chains():
    """An empty cache of parity chains before and after the test."""
    quasi._parity_chain.cache_clear()
    yield
    quasi._parity_chain.cache_clear()


# even m != n, a zero multiplicity on either orbit, odd M, M = 1 and M = 2
KEPT_GRID = [DihedralSystem(6, 1, 2), DihedralSystem(8, 2, 1),
             DihedralSystem(4, 0, 3), DihedralSystem(6, 2, 0),
             DihedralSystem.uniform(7, 2), DihedralSystem.uniform(5, 1),
             DihedralSystem.uniform(1, 1), DihedralSystem.uniform(1, 3),
             DihedralSystem(2, 2, 1), DihedralSystem(2, 0, 2),
             DihedralSystem(2, 0, 0)]


@pytest.mark.parametrize("sys", KEPT_GRID, ids=str)
def test_kept_chains_match_dense_rank_past_saturation(cold_chains, sys):
    rows = len(row_classes(sys))
    top = 4 * rows + 9
    dims = quasi_dimensions(sys, top)
    assert dims == [dense_dimension(sys, d) for d in range(top + 1)]
    # each chain stopped full, less than halfway to the top degree
    for parity in (0, 1):
        chain = quasi._parity_chain(row_classes(sys), parity)
        assert chain.rank(top) == rows
        assert chain.parity + 2 * len(chain.ranks) <= top // 2 + 2
    assert dims[-4:] == [d + 1 - rows for d in range(top - 3, top + 1)]


@pytest.mark.parametrize("sys", [DihedralSystem(6, 1, 2),
                                 DihedralSystem.uniform(7, 2),
                                 DihedralSystem(4, 0, 3)], ids=str)
def test_kept_chains_answer_in_any_order(cold_chains, sys):
    top = 70
    down = [quasi_dimension(sys, d) for d in range(top, -1, -1)]
    up = [quasi_dimension(sys, d) for d in range(top + 1)]
    quasi._parity_chain.cache_clear()
    mixed = {d: quasi_dimension(sys, d) for d in (9, 2, 40, 1, 0, 41, 38)}
    quasi._parity_chain.cache_clear()
    dims = quasi_dimensions(sys, top)
    assert down[::-1] == up == dims
    assert mixed == {d: dims[d] for d in mixed}


def test_warm_chain_still_moves_with_the_rows(cold_chains, monkeypatch):
    sys = DihedralSystem(2, 2, 1)
    honest = quasi_dimensions(sys, 30)
    assert quasi_dimension(sys, 29) == honest[29]
    kept = quasi.row_classes
    monkeypatch.setattr(quasi, "row_classes", lambda sys: kept(sys)[:-1])
    dims = quasi_dimensions(sys, 30)
    assert dims != honest
    assert dims == [quasi_dimension(sys, d) for d in range(31)] == \
        [dense_dimension(sys, d) for d in range(31)]
    monkeypatch.setattr(quasi, "row_classes", kept)
    assert quasi_dimensions(sys, 30) == honest


def test_chain_reduces_no_column_above_the_degree_asked(cold_chains,
                                                        monkeypatch):
    # degrees 0, 2 and 4 of the even chain have the columns c = 0, +-1 and
    # +-2, and c = 0 is the zero column x = 0; the 256 rows leave the other
    # columns independent, so each of these degrees has dimension 1
    calls = []
    reduce_into = quasi.reduce_into

    def counted(basis, row):
        calls.append(row)
        return reduce_into(basis, row)

    monkeypatch.setattr(quasi, "reduce_into", counted)
    sys = DihedralSystem(32, 8, 8)
    assert quasi_dimension(sys, 4) == 1
    assert len(calls) == 4
    assert [quasi_dimension(sys, d) for d in (4, 2, 0)] == [1, 1, 1]
    assert len(calls) == 4
    assert quasi_dimension(sys, 6) == 1
    assert len(calls) == 6


def test_chain_not_full_by_its_bound_fails_closed(cold_chains, monkeypatch):
    # (4,1,0) has two rows of period 2, so its chains are full by degree
    # 2 * 4 * 1 = 8; a reduction that never inserts keeps them empty
    monkeypatch.setattr(quasi, "reduce_into", lambda basis, row: False)
    sys = DihedralSystem(4, 1, 0)
    assert quasi_dimension(sys, 6) == 7
    for _ in range(2):
        with pytest.raises(ChainNotSaturated):
            quasi_dimension(sys, 8)
        with pytest.raises(ChainNotSaturated):
            quasi_dimensions(sys, 12)


# ---------------------------------------------------------------------------
# agreement of the two checkers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mirrors,me,mo", [
    (1, 1, 1), (1, 2, 2), (2, 1, 0), (2, 2, 1), (3, 1, 1), (3, 2, 2),
    (4, 1, 0), (4, 0, 1), (4, 2, 1), (4, 2, 2), (6, 1, 2), (6, 2, 0)])
def test_crosscheck(mirrors, me, mo):
    sys = DihedralSystem(mirrors, me, mo)
    assert crosscheck_checkers(sys, trials=40, max_degree=12, seed=42)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 16), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 2**16))
def test_crosscheck_on_random_arrangements(mirrors, me, mo, seed):
    if mirrors % 2:
        mo = me
    sys = DihedralSystem(mirrors, me, mo)
    assert crosscheck_checkers(sys, trials=20, max_degree=12, seed=seed)


SYS421 = DihedralSystem(4, 2, 1)


def test_crosscheck_fails_when_the_verdicts_differ(monkeypatch):
    # a grouped checker that passes everything disagrees with the per-line
    # verdict on the first random polynomial
    monkeypatch.setattr(quasi, "_class_sum", lambda *args: 0)
    assert not crosscheck_checkers(SYS421, trials=1, max_degree=12, seed=0)


def test_crosscheck_fails_when_the_first_failing_level_differs(monkeypatch):
    # a per-line checker blind to order 1 still fails the first random
    # polynomial at order 3, so the verdicts agree; the levels do not
    original = quasi.order_weights
    monkeypatch.setattr(quasi, "order_weights", lambda *args: (
        (k, [] if k == 1 else w) for k, w in original(*args)))
    compared = []
    first_failure = quasi._first_failure_grouped
    monkeypatch.setattr(quasi, "_first_failure_grouped", lambda *args:
                        compared.append(args) or first_failure(*args))
    assert not crosscheck_checkers(SYS421, trials=1, max_degree=12, seed=0)
    assert compared


def _grouped_trial_vectors(monkeypatch):
    """The vectors that ``crosscheck_checkers`` hands the grouped checker,
    one per trial, read off the class sums taken over them."""
    seen = []
    class_sum = quasi._class_sum

    def spy(entries, D, *cls):
        if not seen or seen[-1].entries is not entries:
            seen.append(CoeffVector(D, entries))
        return class_sum(entries, D, *cls)

    monkeypatch.setattr(quasi, "_class_sum", spy)
    return seen


@pytest.mark.parametrize("mirrors,me,mo", [(4, 1, 0), (6, 1, 2), (8, 2, 1),
                                           (12, 2, 2), (5, 2, 2)])
def test_crosscheck_hands_the_grouped_checker_canonical_vectors(
        monkeypatch, mirrors, me, mo):
    seen = _grouped_trial_vectors(monkeypatch)
    assert crosscheck_checkers(DihedralSystem(mirrors, me, mo), trials=20,
                               max_degree=12, seed=3)
    assert len(seen) == 20
    for vector in seen:
        assert all(type(e) is int or
                   (type(e) is Fraction and e.denominator > 1)
                   for e in vector.entries), vector


def trial_vectors(sys, trials, max_degree, seed):
    """Reference for the trial vectors of ``crosscheck_checkers``: the same
    draws, with each passing trial summed as polynomials over the null
    vectors of ``quasi._NullChain`` up to its degree, in the order found,
    column c of the chain being the coefficient of zb^(c + degree // 2)."""
    rng = random.Random(seed)
    chains = [quasi._NullChain(row_classes(sys), parity) for parity in (0, 1)]
    out = []
    for trial in range(trials):
        degree = rng.randint(0, max_degree)
        if trial % 5 == 4:
            shift, poly = degree // 2, BiPoly.zero()
            for e in range(degree % 2, degree + 1, 2):
                for vec in chains[degree % 2].new_at(e):
                    poly = poly + BiPoly({
                        (degree - shift - c, shift + c): x
                        for c, x in vec.items()}).scale(rng.randint(-3, 3))
            out.append(CoeffVector.from_poly(poly, degree))
        else:
            out.append(CoeffVector(degree, tuple(
                rng.randint(-5, 5) for _ in range(degree + 1))))
    return out


@pytest.mark.parametrize("mirrors,me,mo", [(4, 1, 0), (8, 2, 1), (2, 0, 3),
                                           (7, 2, 2), (1, 1, 1)])
def test_crosscheck_trials_match_the_polynomial_sums(monkeypatch, mirrors,
                                                     me, mo):
    sys = DihedralSystem(mirrors, me, mo)
    seen = _grouped_trial_vectors(monkeypatch)
    assert crosscheck_checkers(sys, trials=30, max_degree=14, seed=11)
    monkeypatch.undo()
    reference = trial_vectors(sys, 30, 14, 11)
    assert seen == reference
    assert [[type(e) for e in v.entries] for v in seen] == \
        [[type(e) for e in v.entries] for v in reference]
    # the passing trials lie in Q by both checkers
    for vector in seen[4::5]:
        assert check_per_line(sys, vector.to_poly()).ok
        assert not any(grouped_conditions(sys, vector))


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
    # act(sys, g, p) lies in Q exactly when each of its rational parts does
    rng = random.Random(78)
    for sys in (SYS210, DihedralSystem(4, 2, 1)):
        pool = [p for d in range(2, 8) for p in quasi_basis(sys, d)]
        elements = list(group_elements(sys))
        for _ in range(10):
            p = rng.choice(pool)
            g = rng.choice(elements)
            for part in rational_parts(act(sys, g, p)):
                assert check_per_line(sys, part).ok
        # negative control: every image of z, a non-member, fails in a part
        for g in elements:
            assert not all(check_per_line(sys, part).ok for part in
                           rational_parts(act(sys, g, BiPoly.monomial(1, 0))))


def test_sigma_powers_pass():
    for sys in (SYS210, DihedralSystem(6, 2, 1)):
        s1, s2 = invariant_generators(sys)
        for a in range(4):
            for b in range(4):
                assert check_per_line(sys, power(s1, a) * power(s2, b)).ok
