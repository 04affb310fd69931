"""Exact scalar arithmetic: cyclotomic fields and fraction-free linear algebra."""

import math
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quasinv.dihedral import DihedralSystem
from quasinv import scalars
from quasinv.errors import OrderMismatch, ResidueNotInvertible, SingularMatrix
from quasinv.quasi import grouped_rows, quasi_dimension
from quasinv.scalars import (CycloElem, cyclotomic_polynomial,
                             det_fraction_free, euler_phi, exact_rank,
                             nullspace, rational, reduce_into,
                             residue_text, root_of_unity, solve_affine,
                             solve_exact)
from reference import dense_nullspace


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cofactor_det(rows):
    """Independent determinant oracle: recursive cofactor expansion."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for k in range(n):
        minor = [row[:k] + row[k + 1:] for row in rows[1:]]
        total += (-1) ** k * Fraction(rows[0][k]) * cofactor_det(minor)
    return total


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def dense_rank(rows, ncols=None):
    """Reference rank: Bareiss over the whole matrix, with every row cleared
    through Fraction; exact_rank reduces the rows into a sparse echelon
    basis instead."""
    rows = [[Fraction(e) for e in row] for row in rows]
    if not rows:
        return 0
    m = []
    for row in rows:
        mult = math.lcm(*(e.denominator for e in row))
        m.append([int(e * mult) for e in row])
    nrows = len(m)
    ncols = len(m[0]) if ncols is None else ncols
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, nrows):
            lead = m[i][col]
            for j in range(col + 1, ncols):
                m[i][j] = (m[i][j] * pivot - lead * m[rank][j]) // prev
            m[i][col] = 0
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def test_cyclotomic_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)           # x - 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)         # x^2 + 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)        # x^2 - x + 1


@pytest.mark.parametrize("order", range(1, 25))
def test_cyclotomic_product_identity(order):
    # the product over all divisors d of the order-d polynomials is x^M - 1
    product = [1]
    for d in range(1, order + 1):
        if order % d == 0:
            product = poly_mul(product, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (order - 1) + [1]
    assert product == expected
    assert cyclotomic_polynomial(order)[-1] == 1  # monic


@pytest.mark.parametrize("order", range(1, 65))
def test_sparse_remainder_matches_long_division(order):
    # the remainder-only reduction over the nonzero lower coefficients of
    # Phi_M against the full monic long division, on int and Fraction
    # lists of lengths from 0 to 3M: shorter than phi(M), around phi(M) and
    # M, up to 3M, all zero, and with trailing zeros included
    rng = random.Random(order)
    phi_poly = cyclotomic_polynomial(order)
    phi = euler_phi(order)
    lengths = {0, 1, phi - 1, phi, phi + 1, order - 1, order, order + 1,
               2 * order, 3 * order - 1, 3 * order,
               *(rng.randint(0, 3 * order) for _ in range(3))}
    for length in sorted(n for n in lengths if n >= 0):
        cases = [
            [rng.randint(-9, 9) for _ in range(length)],
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             for _ in range(length)],
            [0] * length,
            [Fraction(0)] * length,
            [rng.choice((0, 0, 0, rng.randint(-3, 3)))
             for _ in range(length)],
        ]
        for coeffs in cases:
            expected = scalars._poly_divmod_monic(coeffs, phi_poly)[1]
            residue = scalars.reduce_mod_cyclotomic(coeffs, order)
            assert residue == expected, (order, coeffs)
            assert len(residue) <= phi
            assert not residue or residue[-1] != 0
            if all(type(c) is int for c in coeffs):
                assert all(type(c) is int for c in residue)
    # the input list is left as it was
    coeffs = [1] * (2 * order)
    scalars.reduce_mod_cyclotomic(coeffs, order)
    assert coeffs == [1] * (2 * order)


# ---------------------------------------------------------------------------
# roots of unity and field arithmetic
# ---------------------------------------------------------------------------

def powers(x, k):
    """[x^0, x^1, ..., x^k] by repeated products of field elements."""
    out = [CycloElem.from_rational(x.order, 1)]
    for _ in range(k):
        out.append(out[-1] * x)
    return out


def test_root_of_unity_examples():
    assert root_of_unity(4, 0) == 1
    zeta = root_of_unity(4, 1)
    assert zeta * zeta == -1
    assert root_of_unity(4, 2) == -1


@pytest.mark.parametrize("order", range(1, 25))
def test_root_powers(order):
    for k in range(order):
        root_powers = powers(root_of_unity(order, k), order)
        assert root_powers[order] == 1
        for d in range(1, order):
            if (d * k) % order != 0:
                assert root_powers[d] != 1


def test_cyclo_arithmetic_examples():
    z4 = root_of_unity(4, 1)
    assert z4 * z4 == -1
    z6 = root_of_unity(6, 1)
    assert z6 * root_of_unity(6, 5) == 1
    x = CycloElem(6, [Fraction(2, 3), Fraction(5)])
    assert x * CycloElem.from_rational(6, 1).inverse() == x


def test_cyclo_division_and_errors():
    rng = random.Random(7)
    for order in (3, 4, 5, 6, 8, 12):
        phi = euler_phi(order)
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(phi)]
            a = CycloElem(order, coeffs)
            if a.is_zero():
                continue
            assert a * a.inverse() == 1
            assert (a * a) * a.inverse() == a
    with pytest.raises(ZeroDivisionError):
        CycloElem.from_rational(4, 0).inverse()
    with pytest.raises(OrderMismatch):
        root_of_unity(4, 1) + root_of_unity(6, 1)


def test_cyclo_canonical_representation():
    # zeta^M reduces to 1, and equal elements share one coefficient vector
    for order in (1, 2, 3, 4, 6, 8, 12):
        zeta = root_of_unity(order, 1)
        zeta_m = powers(zeta, order)[order]
        assert zeta_m == CycloElem.from_rational(order, 1)
        assert zeta_m.coeffs == CycloElem.from_rational(order, 1).coeffs
        assert len(zeta.coeffs) == euler_phi(order)


@pytest.mark.parametrize(
    "value", [3, 0, -7, Fraction(2, 5), Fraction(-1, 3)], ids=str)
def test_rational_cyclo_hashes_like_the_rational_it_equals(value):
    # equal objects must hash equal, or set and dict lookups miss
    for order in (1, 5, 12):
        x = CycloElem(order, [value])
        assert x == value and hash(x) == hash(value)
        assert value in {x} and x in {value}
        assert {x: "found"}[value] == "found"


# References for the field operations, kept from the earlier implementation:
# extended Euclid for the inverse and square-and-multiply for the powers of
# zeta.

def reference_inverse(a, order):
    """Extended Euclid in Q[x] against the cyclotomic polynomial."""
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def poly_divmod(num, den):
        num = list(num)
        q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
        inv_lead = 1 / den[-1]
        for k in range(len(num) - 1, len(den) - 2, -1):
            c = num[k] * inv_lead
            if c:
                q[k - len(den) + 1] = c
                for j, dj in enumerate(den):
                    num[k - len(den) + 1 + j] -= c * dj
        return trim(q), trim(num)

    r0 = [Fraction(c) for c in cyclotomic_polynomial(order)]
    r1 = trim([Fraction(c) for c in a])
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        qs1 = poly_mul(q, s1)
        s0, s1 = s1, trim([x - y for x, y in
                           zip(s0 + [Fraction(0)] * len(qs1),
                               qs1 + [Fraction(0)] * len(s0))])
    assert r1, "a nonzero residue is a unit"
    return CycloElem(order, [x / r1[0] for x in s1])


@lru_cache(maxsize=None)
def reference_root(order, k):
    """zeta^(k mod order) by square-and-multiply from zeta."""
    base = CycloElem(order, [0, 1])
    result = CycloElem.from_rational(order, 1)
    k %= order
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


@st.composite
def cyclo_elements(draw):
    order = draw(st.integers(1, 30))
    small = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    coeffs = draw(st.lists(small, min_size=euler_phi(order),
                           max_size=euler_phi(order)))
    return CycloElem(order, coeffs)


@settings(max_examples=100, deadline=None)
@given(cyclo_elements())
def test_field_operations_match_references(x):
    order = x.order
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        inv = x.inverse()
        assert inv.coeffs == reference_inverse(x.coeffs, order).coeffs
        assert x * inv == 1
    for k in range(-2 * order, 2 * order + 1):
        assert root_of_unity(order, k).coeffs == reference_root(order, k).coeffs


def test_inverse_reports_a_singular_system_as_not_invertible(monkeypatch):
    def singular(matrix, rhs):
        raise SingularMatrix("matrix is singular")

    monkeypatch.setattr(scalars, "solve_exact", singular)
    with pytest.raises(ResidueNotInvertible):
        root_of_unity(5, 2).inverse()


# ---------------------------------------------------------------------------
# residue text
# ---------------------------------------------------------------------------

_TERM = re.compile(r"(-?[0-9]+(?:/[0-9]+)?)|"
                   r"\((-?[0-9]+(?:/[0-9]+)?)\)\*zeta(?:\^([0-9]+))?")


def parse_residue_text(text):
    """The coefficients c_0, c_1, ... that ``residue_text`` printed, as
    Fractions without trailing zeros; AssertionError on any other text."""
    if text == "0":
        return []
    coeffs = []
    for term in text.split(" + "):
        match = _TERM.fullmatch(term)
        assert match, term
        constant, value, power = match.groups()
        k = 0 if constant is not None else int(power or 1)
        assert power is None or k >= 2, term
        assert k >= len(coeffs), f"{term} out of order"
        coeffs += [Fraction(0)] * (k - len(coeffs))
        coeffs.append(Fraction(constant if constant is not None else value))
        # each printed rational is in lowest terms, with a denominator above 1
        assert str(coeffs[-1]) == (constant or value) and coeffs[-1], term
    return coeffs


_DIGITS_4000 = st.integers(10 ** 3999, 10 ** 4000 - 1)
_RESIDUE_ENTRY = st.one_of(
    st.just(0), st.integers(-10 ** 6, 10 ** 6), _DIGITS_4000,
    _DIGITS_4000.map(lambda x: -x))


@st.composite
def residues_and_scales(draw):
    """An integer residue vector and a scale: 1, a divisor of every entry,
    a scale prime to every nonzero entry, or any positive integer."""
    coeffs = draw(st.lists(_RESIDUE_ENTRY, max_size=12))
    kind = draw(st.sampled_from(["one", "divisor", "coprime", "any"]))
    if kind == "one":
        return coeffs, 1
    if kind == "divisor":
        scale = draw(st.integers(1, 10 ** 6))
        return [c * scale for c in coeffs], scale
    if kind == "coprime":
        scale = draw(st.sampled_from([2, 3, 10, 97, 10 ** 9 + 7]))
        return [c * scale + (c > 0) - (c < 0) for c in coeffs], scale
    return coeffs, draw(st.integers(1, 10 ** 6))


@settings(max_examples=200, deadline=None)
@given(residues_and_scales())
def test_residue_text_reads_back_as_the_residue_over_the_scale(case):
    coeffs, scale = case
    want = [Fraction(c, scale) for c in coeffs]
    while want and want[-1] == 0:
        want.pop()
    assert parse_residue_text(residue_text(coeffs, scale)) == want


def test_residue_text_examples():
    assert residue_text([]) == residue_text([0, 0], 3) == "0"
    assert residue_text([6], 3) == "2"
    assert residue_text([-3, 0, 4], 6) == "-1/2 + (2/3)*zeta^2"
    assert residue_text([0, -5, 0, 2], 2) == "(-5/2)*zeta + (1)*zeta^3"
    assert residue_text([Fraction(1, 2), 0, 0]) == "1/2"
    assert str(CycloElem(8, [0, Fraction(-5, 2), 0, 1])) == \
        "(-5/2)*zeta + (1)*zeta^3"


# ---------------------------------------------------------------------------
# determinants and solving
# ---------------------------------------------------------------------------

def test_det_examples():
    assert det_fraction_free([[0, -3], [1, 0]]) == 3
    assert det_fraction_free(identity(5)) == 1
    assert det_fraction_free([[-1]]) == -1
    assert det_fraction_free([]) == 1  # 0x0


def test_det_against_cofactor_oracle():
    rng = random.Random(11)
    for n in range(1, 6):
        for _ in range(8):
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert det_fraction_free(rows) == cofactor_det(rows)


def test_det_rational_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2)]]
    assert det_fraction_free(rows) == cofactor_det(rows)


def test_det_mixed_int_and_fraction_rows():
    # integer rows are eliminated as they are, rational rows are cleared and
    # their scale divided out again; the caller's rows are left untouched
    rows = [[2, 3, 1, 0],
            [Fraction(1, 2), Fraction(2, 3), 5, Fraction(-7, 4)],
            [1, 0, Fraction(-7, 4), 2],
            [Fraction(3), Fraction(1), Fraction(0), Fraction(5, 6)]]
    snapshot = [list(r) for r in rows]
    assert det_fraction_free(rows) == cofactor_det(rows)
    assert rows == snapshot
    assert det_fraction_free([[Fraction(1, 3)]]) == Fraction(1, 3)


def test_solve_examples():
    assert solve_exact([[-1]], [-3]) == [3]
    b = [Fraction(5), Fraction(-2), Fraction(7, 3)]
    assert solve_exact(identity(3), b) == b
    assert solve_exact([[0, -3], [1, 0]], [-5, 0]) == [0, Fraction(5, 3)]


def test_solve_roundtrip_random():
    rng = random.Random(13)
    for n in range(1, 9):
        for _ in range(4):
            while True:
                rows = [[rng.randint(-5, 5) for _ in range(n)]
                        for _ in range(n)]
                if det_fraction_free(rows) != 0:
                    break
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(n)]
            rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
            assert solve_exact(rows, rhs) == x


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        solve_exact([[1, 2], [2, 4]], [1, 1])


# ---------------------------------------------------------------------------
# rank and null space
# ---------------------------------------------------------------------------

def test_rank_and_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert exact_rank(rows) == 2
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    for vec in basis:
        for row in rows:
            assert sum(Fraction(r) * v for r, v in zip(row, vec)) == 0
    assert exact_rank([], ncols=4) == 0
    assert len(nullspace([], 4)) == 4


def test_rank_matches_rref_pivots():
    rng = random.Random(17)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(ncols)] for _ in range(nrows)]
        rank = exact_rank(rows)
        assert rank + len(nullspace(rows, ncols)) == ncols


def test_solve_affine_kinds():
    kind, x = solve_affine([[1, 0], [0, 1]], [2, 3], 2)
    assert kind == "unique" and x == [2, 3]
    kind, _ = solve_affine([[1, 1]], [1], 2)
    assert kind == "many"
    kind, _ = solve_affine([[1, 1], [1, 1]], [1, 2], 2)
    assert kind == "none"
    # a ragged system is refused, not cut to fit
    with pytest.raises(ValueError):
        solve_affine([[1, 0], [0, 1]], [1], 2)
    with pytest.raises(ValueError):
        solve_affine([[1, 0, 7], [0, 1]], [1, 2], 2)


@pytest.mark.parametrize("rows,ncols", [
    ([[1]], 3),                        # every row short: no zeros read in
    ([[1, 2, 3], [4]], 3),             # one short row among longer ones
    ([[1, 2, 3], [4, 5]], None),       # ncols read off the first row
    ([[Fraction(1, 2), 0], []], 2),    # an empty row
])
def test_rank_and_nullspace_refuse_short_rows(rows, ncols):
    with pytest.raises(ValueError):
        exact_rank(rows, ncols)
    if ncols is not None:
        with pytest.raises(ValueError):
            nullspace(rows, ncols)


def test_rank_and_nullspace_read_the_first_columns_of_longer_rows():
    assert exact_rank([[1, 2, 3], [2, 4, 5]], 2) == 1
    assert nullspace([[1, 2, 3], [2, 4, 5]], 2) == [(-2, 1)]
    assert exact_rank([[0, 0], [0, 0, 1]]) == 0


def test_solve_affine_block_cases():
    # the columns split into blocks; one inconsistent block makes the whole
    # system inconsistent, even when another block has a free column
    assert solve_affine([[0, 1], [0, 1]], [1, 2], 2) == ("none", None)
    assert solve_affine([[1, 0], [0, 0]], [1, 3], 2) == ("none", None)
    assert solve_affine([[0, 0]], [5], 2) == ("none", None)
    # a column that no row touches is free
    assert solve_affine([[1, 0, 0], [0, 0, 2]], [1, 4], 3) == ("many", None)
    assert solve_affine([[1, 0], [0, 0]], [1, 0], 2) == ("many", None)
    # block-diagonal and unique: blocks {0, 2} and {1, 3}
    rows = [[1, 0, 1, 0], [0, 2, 0, 1], [1, 0, -1, 0], [0, 0, 0, 3]]
    kind, x = solve_affine(rows, [3, 1, 1, 6], 4)
    assert kind == "unique" and x == [2, Fraction(-1, 2), 1, 2]
    assert [type(v) for v in x] == [int, Fraction, int, int]
    assert solve_affine([], [], 0) == ("unique", [])


def test_det_singular_with_leading_zero_columns():
    rng = random.Random(19)
    for n in range(1, 6):
        for zeros in range(1, n + 1):
            for _ in range(4):
                rows = [[0] * zeros +
                        [rng.choice([rng.randint(-4, 4),
                                     Fraction(rng.randint(-4, 4),
                                              rng.randint(1, 4))])
                         for _ in range(n - zeros)] for _ in range(n)]
                assert det_fraction_free(rows) == cofactor_det(rows) == 0
    # a zero leading column with full-rank columns after it, and a matrix
    # whose pivot column is found only after a skipped one
    assert det_fraction_free([[0, 1, 2], [0, 3, 4], [0, 5, 7]]) == 0
    assert det_fraction_free([[1, 2, 3], [2, 4, 5], [3, 6, 1]]) == 0
    assert det_fraction_free([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == -6


def test_linear_algebra_leaves_caller_rows_unmodified():
    # det_fraction_free eliminates in place and passes all-int rows through
    # the row clearing as they are, so it must work on its own copy
    int_rows = [[0, 2, 4], [1, 3, 5], [2, 4, 6]]
    mixed = [[0, Fraction(2, 3), 4], [1, 3, Fraction(-5, 2)], [2, 4, 6]]
    for rows in (int_rows, mixed):
        snapshot = [list(r) for r in rows]
        exact_rank(rows)
        exact_rank(rows, ncols=2)
        nullspace(rows, 3)
        solve_affine(rows, [1, 2, 3], 3)
        det_fraction_free(rows)
        try:
            solve_exact(rows, [1, 2, 3])
        except SingularMatrix:
            pass
        assert rows == snapshot
    tuples = [(0, 2, 4), (1, 3, 5)]
    assert exact_rank(tuples) == 2 and tuples == [(0, 2, 4), (1, 3, 5)]


@st.composite
def affine_systems(draw):
    """A x = b with a random rank: A = B C for B of nrows x rank and C of
    rank x ncols, so wide, tall and rank-deficient shapes all occur; b is
    random or A times a random vector, so consistent systems occur too."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(nrows, ncols)))
    left = [[draw(ENTRIES) for _ in range(rank)] for _ in range(nrows)]
    right = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(rank)]
    rows = [[sum((left[i][k] * right[k][j] for k in range(rank)), 0)
             for j in range(ncols)] for i in range(nrows)]
    if draw(st.booleans()):
        x = [draw(ENTRIES) for _ in range(ncols)]
        rhs = [sum((a * v for a, v in zip(row, x)), 0) for row in rows]
    else:
        rhs = [draw(ENTRIES) for _ in range(nrows)]
    return rows, rhs, ncols


def sympy_affine(rows, rhs, ncols):
    def matrix(nrows, width, entries):
        return sympy.Matrix(nrows, width, [
            sympy.Rational(Fraction(e).numerator, Fraction(e).denominator)
            for e in entries])
    a = matrix(len(rows), ncols, [e for row in rows for e in row])
    b = matrix(len(rows), 1, rhs)
    try:
        solution, params = a.gauss_jordan_solve(b)
    except ValueError:
        return "none", None
    if params.shape[0]:
        return "many", None
    return "unique", [Fraction(int(v.p), int(v.q)) for v in solution]


@settings(max_examples=200, deadline=None)
@given(affine_systems())
def test_solve_affine_matches_sympy(case):
    rows, rhs, ncols = case
    snapshot = [list(r) for r in rows]
    kind, x = solve_affine(rows, rhs, ncols)
    assert (kind, x) == sympy_affine(rows, rhs, ncols)
    if kind == "unique":
        assert all(type(v) is type(rational(v)) for v in x)
        for row, b in zip(rows, rhs):
            assert sum((a * v for a, v in zip(row, x)), Fraction(0)) == b
    if ncols == len(rows):
        if kind == "unique":
            assert solve_exact(rows, rhs) == x
        else:
            with pytest.raises(SingularMatrix):
                solve_exact(rows, rhs)
    assert rows == snapshot


def unit_vectors(n):
    return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]


def test_rank_and_nullspace_edge_cases():
    assert exact_rank([]) == 0
    assert nullspace([], 0) == []
    assert nullspace([], 3) == unit_vectors(3)
    zero = [[0] * 4 for _ in range(3)]
    assert exact_rank(zero) == 0
    assert nullspace(zero, 4) == unit_vectors(4)
    # nonzero only past ncols: zero on the columns that count
    assert exact_rank([[0, 0, 5]], ncols=2) == 0
    assert nullspace([[0, 0, 5]], 2) == unit_vectors(2)


def test_single_dense_block():
    # every column shares a row with column 0, so the matrix is one block
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [Fraction(1, 2), 0, 1, 0]]
    assert exact_rank(rows) == dense_rank(rows) == 2
    basis = nullspace(rows, 4)
    assert basis == dense_nullspace(rows, 4)
    # RREF rows [1, 0, 2, 0] and [0, 1, 1/2, 2]
    assert basis == [(-2, Fraction(-1, 2), 1, 0), (0, -2, 0, 1)]


ENTRIES = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))


@st.composite
def block_matrices(draw):
    """Block-diagonal matrices up to a column shuffle, with zero rows, zero
    columns, int and Fraction entries, and arbitrary entries past ncols."""
    nblocks = draw(st.integers(1, 4))
    ncols = draw(st.integers(0, 10))
    # owner -1 leaves the column zero in every row
    owner = draw(st.lists(st.integers(-1, nblocks - 1),
                          min_size=ncols, max_size=ncols))
    extra = draw(st.integers(0, 2))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        block = draw(st.integers(-1, nblocks - 1))   # -1: a zero row
        row = [draw(ENTRIES) if block >= 0 and owner[c] == block else 0
               for c in range(ncols)]
        rows.append(row + [draw(ENTRIES) for _ in range(extra)])
    return rows, ncols


def sympy_rank(rows, ncols):
    entries = [sympy.Rational(Fraction(e).numerator, Fraction(e).denominator)
               for row in rows for e in row[:ncols]]
    return sympy.Matrix(len(rows), ncols, entries).rank()


@st.composite
def sparse_int_matrices(draw):
    """Sparse integer matrices whose rows often repeat an earlier row's
    support, as the condition rows of levels t >= 2 repeat level 1's;
    entries past ``ncols`` do not count."""
    ncols = draw(st.integers(0, 14))
    width = ncols + draw(st.integers(0, 2))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, 3])
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if rows and draw(st.booleans()):
            scale = draw(st.integers(1, 3))
            rows.append([scale * e for e in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(entry, min_size=width,
                                      max_size=width)))
    return rows, ncols


# sparse_int_matrices repeats a row's support with a scale: dependent rows
# that reduce_into must take to zero
@settings(max_examples=300, deadline=None)
@given(st.one_of(block_matrices(), sparse_int_matrices()))
def test_blockwise_rank_and_nullspace_match_dense(case):
    rows, ncols = case
    snapshot = [list(r) for r in rows]
    rank = exact_rank(rows, ncols=ncols)
    assert rank == dense_rank(rows, ncols) == sympy_rank(rows, ncols)
    if rows:
        assert exact_rank(rows) == dense_rank(rows)
    basis = nullspace(rows, ncols)
    reference = dense_nullspace(rows, ncols)
    assert basis == reference
    assert [[type(e) for e in v] for v in basis] == \
        [[type(rational(e)) for e in v] for v in reference]
    assert rows == snapshot


@settings(max_examples=150, deadline=None)
@given(block_matrices(), st.data())
def test_nullspace_depends_only_on_the_row_space(case, data):
    # shuffled, rescaled rows plus sums of two of them span the same rows;
    # row order and scaling change the basis that the reduction passes
    # through, not the vectors, which the unique RREF fixes
    rows, ncols = case
    rows = [r[:ncols] for r in rows]
    scales = st.sampled_from([-3, -1, 2, Fraction(1, 2)])
    mixed = [[k * e for e in r] for r, k in
             zip(data.draw(st.permutations(rows)),
                 data.draw(st.lists(scales, min_size=len(rows),
                                    max_size=len(rows))))]
    if rows:
        pairs = st.tuples(st.sampled_from(rows), st.sampled_from(rows))
        for a, b in data.draw(st.lists(pairs, max_size=3)):
            mixed.append([x + y for x, y in zip(a, b)])
    assert nullspace(mixed, ncols) == nullspace(rows, ncols)


# (mirrors, mult_even, mult_odd) of every arrangement the benchmark runs
BENCH_SYSTEMS = [(4, 1, 0), (6, 1, 2), (8, 2, 1), (12, 2, 2), (16, 3, 2),
                 (24, 4, 4), (7, 2, 2), (9, 1, 1), (9, 3, 3)]


@pytest.mark.parametrize("mirrors,me,mo", BENCH_SYSTEMS)
def test_quasi_pieces_match_dense_elimination(mirrors, me, mo):
    # quasi_basis against dense_nullspace is test_quasi.py's
    # test_quasi_basis_matches_the_dense_null_space
    sys = DihedralSystem(mirrors, me, mo)
    for d in range(41):
        rows = grouped_rows(sys, d)
        assert quasi_dimension(sys, d) == d + 1 - dense_rank(rows, d + 1)


@st.composite
def shifted_chains(draw):
    """Rows fed along a sigma1 chain: at step k the rows have width
    ``start + 2k + 1``, and every earlier row is padded by one zero on
    each side.  A new row is random and rational, or a combination of the
    padded rows so far, which lies in their span."""
    start = draw(st.integers(0, 4))
    steps = []
    for k in range(draw(st.integers(1, 7))):
        width = start + 2 * k + 1
        sparse = st.one_of(st.just(0), ENTRIES)
        steps.append(draw(st.lists(st.one_of(
            st.tuples(st.just("row"), st.lists(sparse, min_size=width,
                                               max_size=width)),
            st.tuples(st.just("combination"),
                      st.lists(ENTRIES, min_size=8, max_size=8))),
            max_size=3)))
    return start, steps


@settings(max_examples=150, deadline=None)
@given(shifted_chains())
def test_reduce_into_tracks_rank_along_a_shifted_chain(case):
    start, steps = case
    basis = {}
    padded = []
    for k, new in enumerate(steps):
        width = start + 2 * k + 1
        padded = [[0, *row, 0] for row in padded]
        for kind, values in new:
            row = values if kind == "row" else [
                sum((w * r[c] for w, r in zip(values, padded)), Fraction(0))
                for c in range(width)]
            before = exact_rank(padded, ncols=width)
            padded.append(row)
            after = exact_rank(padded, ncols=width)
            # column c at step k is column c - k of the chain
            assert reduce_into(basis, {c - k: x for c, x in enumerate(row)
                                       if x}) == (after > before)
            assert len(basis) == after
        assert len(basis) == exact_rank(padded, ncols=width)
    for lead, row in basis.items():
        assert min(row) == lead and row[lead] > 0
        assert all(type(e) is int for e in row.values())
        assert math.gcd(*row.values()) == 1
