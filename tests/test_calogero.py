"""The Calogero-Moser operator: exact application, kernel, uniqueness."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasinv.bipoly import (BiPoly, bar_conjugate, divide_by_linear,
                            from_text, normal_derivative, partial)
from quasinv import calogero
from quasinv.calogero import (L1Result, apply_L1, kernel_generator,
                              line_power_sum, uniqueness_check,
                              verify_L1_kernel)
from quasinv.dihedral import DihedralSystem
from quasinv.errors import (KernelGeneratorNotUnique, NoKernelGenerator,
                            NotDivisible, ScalarKindMismatch)
from quasinv.generators import (GeneratorSet, full_basis, invariant_chain_gens,
                                solve_qi, valid_indices)
from quasinv.quasi import coefficient_row, quasi_basis
from quasinv.scalars import CycloElem, root_of_unity, solve_affine
from reference import (act, dense_normal_form, dense_uniqueness_check,
                       group_elements, rational_parts)

SYS210 = DihedralSystem(4, 1, 0)


def test_constant_maps_to_zero():
    for sys in (SYS210, DihedralSystem(6, 2, 1), DihedralSystem.uniform(3, 2)):
        result = apply_L1(sys, BiPoly.constant(1))
        assert result.is_polynomial and result.polynomial.is_zero()


def test_degree_two_invariant_control_value():
    # L(z zb) = 4 (1 - N (m + n)) for 2N mirrors
    for N in (1, 2, 3):
        for m in range(3):
            for n in range(3):
                sys = DihedralSystem(2 * N, m, n)
                result = apply_L1(sys, BiPoly.monomial(1, 1))
                assert result.is_polynomial
                assert result.polynomial == \
                    BiPoly.constant(Fraction(4 * (1 - N * (m + n))))


def test_known_generator_annihilated():
    result = apply_L1(SYS210, from_text("1*z^3*zb^0 + 3*z^1*zb^2"))
    assert result.is_polynomial and result.polynomial.is_zero()


def test_non_quasi_invariant_gives_non_polynomial():
    result = apply_L1(SYS210, BiPoly.monomial(1, 0))
    assert not result.is_polynomial
    assert result.failing_lines == (0, 2)
    assert result.polynomial is None


def test_kernel_on_full_basis():
    gens = full_basis(SYS210)
    report = verify_L1_kernel(SYS210, gens)
    assert report.ok and len(report.entries) == 8
    # an invariant that is not a basis element is not annihilated
    res = apply_L1(SYS210, BiPoly.monomial(1, 1))
    assert res.is_polynomial and not res.polynomial.is_zero()


def test_kernel_needs_a_generator():
    with pytest.raises(ValueError):
        verify_L1_kernel(SYS210, GeneratorSet(SYS210, (), "solver"))


def test_chain_product_annihilated():
    for sys in (SYS210, DihedralSystem(4, 2, 1), DihedralSystem(6, 1, 1)):
        q3 = invariant_chain_gens(sys)[3]
        result = apply_L1(sys, q3)
        assert result.is_polynomial and result.polynomial.is_zero()


def test_quasi_invariants_always_map_to_polynomials():
    for sys in (SYS210, DihedralSystem(4, 1, 2), DihedralSystem.uniform(3, 1)):
        for d in range(2, 9):
            for p in quasi_basis(sys, d):
                result = apply_L1(sys, p)
                assert result.is_polynomial
                out = result.polynomial
                assert out.is_zero() or out.degree() == d - 2


def test_operator_commutes_with_group_action():
    # the operator takes the rational parts of act(sys, g, p) one by one,
    # and the images recombine with the powers of zeta
    rng = random.Random(56)
    for sys in (SYS210, DihedralSystem(4, 2, 1)):
        M = sys.mirrors
        pool = [p for d in range(2, 8) for p in quasi_basis(sys, d)]
        elements = list(group_elements(sys))
        for _ in range(10):
            p = rng.choice(pool)
            g = rng.choice(elements)
            parts = [apply_L1(sys, part)
                     for part in rational_parts(act(sys, g, p))]
            right = apply_L1(sys, p)
            assert right.is_polynomial
            assert all(part.is_polynomial for part in parts)
            left = sum((part.polynomial.scale(root_of_unity(M, i))
                        for i, part in enumerate(parts)), BiPoly.zero())
            assert left == act(sys, g, right.polynomial)
        # negative control: every image of z, a non-member, has a part
        # that the operator does not map to a polynomial
        for g in elements:
            assert not all(apply_L1(sys, part).is_polynomial for part in
                           rational_parts(act(sys, g, BiPoly.monomial(1, 0))))


def test_uniqueness_examples():
    assert uniqueness_check(SYS210, solve_qi(SYS210, 1))
    assert uniqueness_check(SYS210, solve_qi(SYS210, 3))
    sys = DihedralSystem(4, 1, 1)
    assert uniqueness_check(sys, solve_qi(sys, 1))


def test_uniqueness_across_systems():
    for sys in (DihedralSystem(4, 2, 0), DihedralSystem(6, 1, 0),
                DihedralSystem(6, 1, 2)):
        for i in valid_indices(sys):
            assert uniqueness_check(sys, solve_qi(sys, i))


def test_uniqueness_fails_without_a_unique_normal_form():
    # Q^(1) = 0 at (4, 1, 0), so there is no basis to solve on
    assert quasi_basis(SYS210, 1) == []
    assert not uniqueness_check(SYS210, BiPoly.monomial(1, 0))
    # Q^(2) is not empty, but none of its elements annihilated by the
    # operator has the normal form z^2 + (z zb)(...)
    assert quasi_basis(SYS210, 2)
    assert not uniqueness_check(SYS210, BiPoly.monomial(2, 0))


@pytest.mark.parametrize("sys", [
    DihedralSystem(4, 1, 0), DihedralSystem(6, 1, 2), DihedralSystem(8, 2, 1),
    DihedralSystem.uniform(5, 2)], ids=str)
def test_uniqueness_rejects_every_other_polynomial(sys):
    """Only the normal-form generator itself passes: not a multiple of it,
    not its conjugate, not a perturbation of the same degree, not zero."""
    for i in valid_indices(sys):
        first = solve_qi(sys, i)
        degree = first.degree()
        assert uniqueness_check(sys, first)
        wrong = [first.scale(Fraction(2)), bar_conjugate(first),
                 first + BiPoly.monomial(degree - 1, 1).scale(Fraction(7)),
                 BiPoly.zero()]
        for poly in wrong:
            assert not uniqueness_check(sys, poly), (i, poly)


# ---------------------------------------------------------------------------
# closed form against the line-by-line operator
# ---------------------------------------------------------------------------

def iterated_L1(sys, p):
    """Reference for apply_L1: one normal derivative and one exact division
    by the line form per line of positive multiplicity."""
    M = sys.mirrors
    total = partial(partial(p, "z"), "zb").scale(Fraction(4))
    failing = []
    for j in sys.lines():
        mult = sys.multiplicity(j)
        if mult == 0:
            continue
        numerator = normal_derivative(p, j, M)
        try:
            quotient = divide_by_linear(numerator, j, M)
        except NotDivisible:
            failing.append(j)
            continue
        total = total + quotient.scale(Fraction(4 * mult))
    if failing:
        return L1Result(polynomial=None, failing_lines=tuple(failing))
    return L1Result(polynomial=total)


def assert_same_result(sys, p):
    """apply_L1 agrees with ``iterated_L1`` on a rational p and refuses a p
    with a cyclotomic coefficient; True when it refused."""
    if p.order is not None:
        with pytest.raises(ScalarKindMismatch):
            apply_L1(sys, p)
        return True
    got, want = apply_L1(sys, p), iterated_L1(sys, p)
    assert got.failing_lines == want.failing_lines, (sys, p)
    if want.polynomial is None:
        assert got.polynomial is None, (sys, p)
    else:
        assert got.polynomial.order is want.polynomial.order is None, (sys, p)
        assert got.polynomial.terms == want.polynomial.terms, (sys, p)
    return False


GRID_SYSTEMS = ((4, 1, 0), (6, 1, 2), (8, 2, 1), (12, 2, 2), (7, 2, 2),
                (9, 1, 1), (5, 0, 0), (6, 0, 3), (1, 2, 2), (2, 1, 3))


def random_rational_poly(rng, max_degree):
    """Non-homogeneous polynomial with small rational coefficients."""
    terms = {}
    for _ in range(5):
        d = rng.randint(0, max_degree)
        a = rng.randint(0, d)
        terms[(a, d - a)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return BiPoly(terms)


def random_cyclo(rng, M):
    return CycloElem(M, [rng.randint(-3, 3) for _ in range(M)])


def operator_grid():
    rng = random.Random(2002)
    for spec in GRID_SYSTEMS:
        sys = DihedralSystem(*spec)
        M = sys.mirrors
        basis = [p for d in range(30) for p in quasi_basis(sys, d)]
        yield from ((sys, p) for p in basis)
        if sys.is_even:
            yield from ((sys, e.poly) for e in full_basis(sys).entries)
        for p in (BiPoly.constant(1), BiPoly.monomial(1, 1),
                  BiPoly.monomial(1, 0), BiPoly.zero()):
            yield sys, p
        for _ in range(10):
            yield sys, random_rational_poly(rng, 12)
        elements = list(group_elements(sys))
        for q in rng.sample(basis, min(len(basis), 12)):
            moved = act(sys, rng.choice(elements), q)
            yield sys, moved
            yield sys, q.scale(random_cyclo(rng, M))
            yield sys, moved.scale(random_cyclo(rng, M))
            yield sys, moved + BiPoly.monomial(2, 1, random_cyclo(rng, M))


def test_closed_form_matches_iterated_operator():
    cases = failing = refused = 0
    for sys, p in operator_grid():
        if assert_same_result(sys, p):
            refused += 1
        else:
            failing += not apply_L1(sys, p).is_polynomial
        cases += 1
    assert cases >= 1500 and failing >= 100 and refused >= 300


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
    exps = st.tuples(st.integers(0, 9), st.integers(0, 9))
    terms = draw(st.dictionaries(exps, coeff, max_size=6))
    return DihedralSystem(mirrors, me, mo), BiPoly(terms)


@settings(max_examples=80, deadline=None)
@given(system_and_poly())
def test_closed_form_matches_iterated_property(case):
    assert_same_result(*case)


def test_closed_form_matches_iterated_on_quasi_invariant_sums():
    # random polynomials are almost never quasi-invariant, so the property
    # test above mostly sees failing lines; sums of basis elements of
    # several degrees take the polynomial branch, and the same sums times a
    # cyclotomic scalar are refused
    rng = random.Random(56)
    for spec in ((4, 1, 0), (6, 1, 2), (7, 1, 1), (3, 2, 2)):
        sys = DihedralSystem(*spec)
        pool = [p for d in range(12) for p in quasi_basis(sys, d)]
        for _ in range(15):
            p = BiPoly.zero()
            for q in rng.sample(pool, 3):
                p = p + q.scale(Fraction(rng.randint(-4, 4)))
            assert_same_result(sys, p)
            assert_same_result(sys, p.scale(random_cyclo(rng, sys.mirrors)))
            assert apply_L1(sys, p).is_polynomial


def test_apply_rejects_other_cyclotomic_field():
    with pytest.raises(ScalarKindMismatch):
        apply_L1(SYS210, BiPoly({(1, 1): CycloElem(5, [0, 1])}))


def test_line_power_sum_matches_roots_of_unity():
    systems = [DihedralSystem(M, m, n) for M in (2, 4, 6, 8, 12)
               for m, n in ((0, 0), (1, 0), (0, 2), (2, 1), (3, 3))]
    systems += [DihedralSystem.uniform(M, m) for M in (1, 3, 5, 9)
                for m in (0, 1, 2)]
    for sys in systems:
        M = sys.mirrors
        for e in range(3 * M + 1):
            total = CycloElem(M, [0])
            for j in sys.lines():
                total = total + root_of_unity(M, j * e) * sys.multiplicity(j)
            assert total == line_power_sum(sys, e), (sys, e)


# ---------------------------------------------------------------------------
# uniqueness against the null-space formulation
# ---------------------------------------------------------------------------

def nullspace_uniqueness(sys, g):
    """Reference for uniqueness_check: weights on the ``quasi_basis`` of the
    degree, constrained by the operator images of the basis and by the
    coefficients of z^D (1) and zb^D (0), must be unique, and the weighted
    sum of the basis must be g."""
    if g.is_zero():
        return False
    degree = g.degree()
    basis = quasi_basis(sys, degree)
    if not basis:
        return False
    images = []
    for vec in basis:
        result = apply_L1(sys, vec)
        assert result.is_polynomial, (sys, vec)
        images.append(result.polynomial)
    rows = [list(r) for r in
            zip(*(coefficient_row(img, degree - 2) for img in images))]
    vectors = [coefficient_row(vec, degree) for vec in basis]
    rows += [[v[0] for v in vectors], [v[degree] for v in vectors]]
    kind, weights = solve_affine(rows, [0] * (len(rows) - 2) + [1, 0],
                                 len(basis))
    if kind != "unique":
        return False
    combined = BiPoly.zero()
    for w, vec in zip(weights, basis):
        if w:
            combined = combined + vec.scale(w)
    return combined == g


@pytest.mark.parametrize("spec", GRID_SYSTEMS, ids=str)
def test_uniqueness_matches_the_nullspace_reference(spec):
    sys = DihedralSystem(*spec)
    firsts = [solve_qi(sys, i) for i in valid_indices(sys)]
    cases = []
    for g in firsts:
        D = g.degree()
        cases += [g, g.scale(2), bar_conjugate(g),
                  g + BiPoly.monomial(D - 1, 1, 7), BiPoly.monomial(D, 0),
                  g * BiPoly.monomial(1, 1)]
    cases += [e.poly for e in full_basis(sys).entries if e.label != "q1_i"]
    verdicts = [uniqueness_check(sys, p) for p in cases]
    assert verdicts == [nullspace_uniqueness(sys, p) for p in cases]
    # a case passes exactly when it is a q1_i (z^D is one when m = n = 0)
    assert verdicts == [p in firsts for p in cases]


# ---------------------------------------------------------------------------
# the kernel by forward substitution against the dense system
# ---------------------------------------------------------------------------

# M = 1 and M = 2, odd M, an orbit of multiplicity 0, and larger periods
KERNEL_GRID = [DihedralSystem.uniform(1, 2), DihedralSystem(2, 1, 3),
               DihedralSystem(2, 2, 0), DihedralSystem.uniform(3, 1),
               DihedralSystem.uniform(7, 2), DihedralSystem(4, 1, 0),
               DihedralSystem(4, 0, 3), DihedralSystem(6, 1, 2),
               DihedralSystem(8, 2, 1), DihedralSystem(12, 2, 2),
               DihedralSystem(6, 0, 0)]


def _kernel_kind(sys, D):
    try:
        return "unique", kernel_generator(sys, D)
    except NoKernelGenerator:
        return "none", None
    except KernelGeneratorNotUnique:
        return "many", None


@pytest.mark.parametrize("sys", KERNEL_GRID, ids=str)
def test_kernel_generator_matches_the_dense_system(sys):
    """Every degree to 3M (m + n + 1) + 1, generator degrees or not, with
    the verdict of the one dense elimination; the degrees with
    s* = D - S(0) = 0 (mod P) inside 0 < s* < D are among them when some
    multiplicity is positive."""
    S0, P = line_power_sum(sys, 0), sys.period
    top = 3 * sys.mirrors * (sys.mult_even + sys.mult_odd + 1) + 1
    star_on_u = 0
    for D in range(top + 1):
        kind, poly = _kernel_kind(sys, D)
        assert (kind, poly) == dense_normal_form(sys, D), D
        star_on_u += 0 < D - S0 < D and (D - S0) % P == 0
        for g in (BiPoly.monomial(D, 0), poly):
            if g is not None:
                assert uniqueness_check(sys, g) == \
                    dense_uniqueness_check(sys, g), (D, g)
    assert star_on_u or S0 == 0


@pytest.mark.parametrize("sys", KERNEL_GRID, ids=str)
def test_kernel_generator_rebuilds_every_normal_form(sys):
    top = (sys.mult_even + sys.mult_odd) * sys.mirrors // 2
    assert line_power_sum(sys, 0) == top   # so s* = i
    for i in valid_indices(sys):
        first = solve_qi(sys, i)
        assert kernel_generator(sys, top + i) == first
        assert uniqueness_check(sys, first)
        assert dense_uniqueness_check(sys, first)


def test_kernel_generator_reports_no_normal_form():
    # (4, 1, 0): S(0) = 2 and P = 2.  Degree 0 has x_0 = x_D; Q^(1) = 0;
    # at degree 4, s* = 2 = 0 (mod P), and u breaks the row s* - 1
    for D in (0, 1, 2, 4):
        with pytest.raises(NoKernelGenerator):
            kernel_generator(SYS210, D)
        assert dense_normal_form(SYS210, D) == ("none", None)
    with pytest.raises(ValueError):
        kernel_generator(SYS210, -1)


def test_kernel_generator_reports_many_normal_forms(monkeypatch):
    # without the rows of Q, u + lambda v is in the image kernel for every
    # lambda: at (4, 1, 0) and degree 5, s* = 3 lies strictly inside
    monkeypatch.setattr(calogero, "row_classes", lambda sys: [])
    with pytest.raises(KernelGeneratorNotUnique):
        kernel_generator(SYS210, 5)
    assert not uniqueness_check(SYS210, from_text("1*z^5*zb^0"))
    # with no second vector (0 < s* < D fails at degree 2) the same
    # system is unique: u = z^2
    assert kernel_generator(SYS210, 2) == BiPoly.monomial(2, 0)


def test_kernel_generator_is_exact_at_larger_arrangements():
    for sys in (DihedralSystem(16, 3, 2), DihedralSystem.uniform(15, 3)):
        top = (sys.mult_even + sys.mult_odd) * sys.mirrors // 2
        for i in valid_indices(sys):
            assert kernel_generator(sys, top + i) == solve_qi(sys, i)
