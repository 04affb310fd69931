"""Bivariate exact polynomials and the mirror-line operations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasinv.bipoly import (BiPoly, bar_conjugate, canonical_terms,
                            divide_by_linear, from_text, normal_derivative,
                            partial, restrict_to_line, to_text)
from quasinv.errors import NotDivisible, ScalarKindMismatch
from quasinv.scalars import CycloElem, root_of_unity
from reference import homogeneous_components, line_form

Z = BiPoly.monomial(1, 0)
ZB = BiPoly.monomial(0, 1)
ONE = BiPoly.constant(1)


def random_poly(rng, max_degree=5):
    terms = {}
    for _ in range(rng.randint(0, 8)):
        a = rng.randint(0, max_degree)
        b = rng.randint(0, max_degree)
        terms[(a, b)] = Fraction(rng.randint(-4, 4))
    return BiPoly(terms)


def uni_mul(p, q, order):
    """Multiply two restriction results (maps zb-degree -> CycloElem)."""
    out = {}
    for d1, c1 in p.items():
        for d2, c2 in q.items():
            d = d1 + d2
            v = c1 * c2
            out[d] = out[d] + v if d in out else v
    return {d: v for d, v in out.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_product_difference_of_squares():
    assert (Z + ZB) * (Z - ZB) == BiPoly({(2, 0): 1, (0, 2): -1})


def test_scale_by_zero():
    p = BiPoly({(2, 0): 1, (0, 2): 1})
    assert p.scale(0).is_zero()
    assert (p * 0).is_zero()


def test_cube_expansion():
    # (z^2 - zb^2)^3, the anti-invariant chain generator for four mirrors
    p = BiPoly({(2, 0): 1, (0, 2): -1})
    assert p * p * p == BiPoly({(6, 0): 1, (4, 2): -3, (2, 4): 3, (0, 6): -1})


def test_zero_coefficients_dropped():
    p = BiPoly({(1, 0): 1}) + BiPoly({(1, 0): -1})
    assert p.is_zero() and p.terms == {}
    assert p.degree() == -1


def test_promotion_and_mismatch():
    # the order is read off the coefficients
    p = BiPoly({(1, 0): 1})
    q = BiPoly({(0, 1): root_of_unity(4, 1)})
    assert p.order is None and q.order == 4
    assert (p + q).order == 4
    # two fields in one polynomial: on one key, and on disjoint keys
    with pytest.raises(ScalarKindMismatch):
        q + BiPoly({(0, 1): root_of_unity(6, 1)})
    with pytest.raises(ScalarKindMismatch):
        q + BiPoly({(1, 0): root_of_unity(6, 1)})
    with pytest.raises(ScalarKindMismatch):
        BiPoly({(1, 0): root_of_unity(4, 1), (0, 1): root_of_unity(6, 1)})


def test_demote():
    # a CycloElem whose value is rational is stored as that rational
    r = BiPoly({(1, 1): CycloElem.from_rational(4, Fraction(5, 3))})
    assert r.order is None and r.terms == {(1, 1): Fraction(5, 3)}
    q = BiPoly({(1, 0): root_of_unity(4, 1)})
    assert q.order == 4
    assert (q - q).order is None and (q - q).is_zero()


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_partial_examples():
    p = BiPoly({(3, 0): 1, (1, 2): 3})
    assert partial(p, "z") == BiPoly({(2, 0): 3, (0, 2): 3})
    assert partial(BiPoly({(5, 0): 1}), "zb").is_zero()
    assert partial(partial(BiPoly({(1, 1): 1}), "z"), "zb") == ONE


def test_normal_derivative_examples():
    for mirrors, j in ((4, 0), (4, 3), (6, 2)):
        zeta_j = root_of_unity(mirrors, j)
        got = normal_derivative(BiPoly({(1, 1): 1}), j, mirrors)
        assert got == BiPoly({(0, 1): zeta_j, (1, 0): -1})
    p = BiPoly({(3, 0): 1, (1, 2): 3})
    assert normal_derivative(p, 0, 4) == \
        BiPoly({(2, 0): 3, (0, 2): 3, (1, 1): -6})  # 3 (z - zb)^2
    assert normal_derivative(ONE, 1, 4).is_zero()


def test_normal_derivative_leibniz():
    rng = random.Random(5)
    for _ in range(10):
        p, q = random_poly(rng), random_poly(rng)
        for mirrors, j in ((4, 1), (6, 3), (3, 2)):
            left = normal_derivative(p * q, j, mirrors)
            right = normal_derivative(p, j, mirrors) * q + \
                p * normal_derivative(q, j, mirrors)
            assert left == right


def test_first_order_restriction_closed_form():
    # N_j (z^a zb^b) restricted to line j is (a - b) zeta^{aj} zb^{a+b-1}
    for mirrors in (2, 3, 4, 6):
        for j in range(mirrors):
            for a in range(0, 9):
                for b in range(0, 9 - a):
                    res = restrict_to_line(
                        normal_derivative(BiPoly.monomial(a, b), j, mirrors),
                        j, mirrors)
                    if a == b or a + b == 0:
                        assert res == {}
                    else:
                        expected = root_of_unity(mirrors, a * j) * (a - b)
                        assert res == {a + b - 1: expected}


# ---------------------------------------------------------------------------
# restriction and division
# ---------------------------------------------------------------------------

def test_restrict_examples():
    for mirrors, j in ((4, 1), (6, 5)):
        assert restrict_to_line(line_form(j, mirrors), j, mirrors) == {}
        zeta_j = root_of_unity(mirrors, j)
        assert restrict_to_line(BiPoly({(1, 1): 1}), j, mirrors) == {2: zeta_j}
    p = BiPoly({(2, 0): 3, (0, 2): 3, (1, 1): -6})  # 3 (z - zb)^2
    assert restrict_to_line(p, 0, 4) == {}


def test_restrict_is_ring_homomorphism():
    rng = random.Random(9)
    for mirrors in (2, 3, 4, 6):
        for _ in range(6):
            p, q = random_poly(rng), random_poly(rng)
            for j in range(mirrors):
                left = restrict_to_line(p * q, j, mirrors)
                right = uni_mul(restrict_to_line(p, j, mirrors),
                                restrict_to_line(q, j, mirrors), mirrors)
                assert left == right


def test_divide_examples():
    p = BiPoly({(2, 0): 1, (0, 2): -1})
    assert divide_by_linear(p, 0, 4) == Z + ZB
    square = BiPoly({(2, 0): 3, (0, 2): 3, (1, 1): -6})
    assert divide_by_linear(square, 0, 4) == (Z - ZB) * 3
    with pytest.raises(NotDivisible):
        divide_by_linear(BiPoly({(1, 1): 1}), 0, 4)


@st.composite
def mirrors_line_and_poly(draw):
    """(M, j, q) with q rational or with coefficients in Q(zeta_M)."""
    mirrors = draw(st.integers(1, 12))
    j = draw(st.integers(0, mirrors - 1))
    if draw(st.booleans()):
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    else:
        coeff = st.lists(st.fractions(min_value=-4, max_value=4,
                                      max_denominator=3),
                         min_size=mirrors, max_size=mirrors).map(
            lambda cs: CycloElem(mirrors, cs))
    exps = st.tuples(st.integers(0, 6), st.integers(0, 6))
    return mirrors, j, BiPoly(draw(st.dictionaries(exps, coeff, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(mirrors_line_and_poly())
def test_divide_multiply_roundtrip_property(case):
    mirrors, j, q = case
    assert divide_by_linear(line_form(j, mirrors) * q, j, mirrors) == q


def test_divide_multiply_roundtrip():
    rng = random.Random(21)
    for mirrors in (3, 4, 6):
        for j in range(mirrors):
            for _ in range(4):
                q = random_poly(rng, max_degree=4)
                p = line_form(j, mirrors) * q
                assert divide_by_linear(p, j, mirrors) == q


# ---------------------------------------------------------------------------
# structure helpers
# ---------------------------------------------------------------------------

def test_homogeneous_components():
    p = ONE + BiPoly({(1, 1): 1})
    assert homogeneous_components(p) == [(0, ONE), (2, BiPoly({(1, 1): 1}))]
    mono = BiPoly({(3, 2): 7})
    assert homogeneous_components(mono) == [(5, mono)]
    p = BiPoly({(2, 0): 1, (1, 0): 1, (0, 2): 1})
    degrees = [d for d, _ in homogeneous_components(p)]
    assert degrees == [1, 2]
    total = sum((c for _, c in homogeneous_components(p)), BiPoly.zero())
    assert total == p


def test_bar_conjugate():
    p = BiPoly({(3, 0): 1, (1, 2): 3})
    assert bar_conjugate(p) == BiPoly({(0, 3): 1, (2, 1): 3})
    zzb = BiPoly({(1, 1): 1})
    assert bar_conjugate(zzb) == zzb
    inv = BiPoly({(4, 0): 1, (0, 4): 1})
    assert bar_conjugate(inv) == inv


def test_bar_conjugate_involution():
    rng = random.Random(3)
    for _ in range(10):
        p = random_poly(rng)
        assert bar_conjugate(bar_conjugate(p)) == p


def test_bar_conjugate_refuses_cyclotomic_coefficients():
    q = BiPoly({(2, 1): root_of_unity(6, 1), (0, 0): 2})
    with pytest.raises(ScalarKindMismatch):
        bar_conjugate(q)
    # a cyclotomic coefficient of rational value is stored as a rational
    assert bar_conjugate(BiPoly({(2, 1): CycloElem(6, [3])})) == \
        BiPoly({(1, 2): 3})


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------

def test_to_text_examples():
    p = BiPoly({(3, 0): 1, (1, 2): 3})
    assert to_text(p) == "1*z^3*zb^0 + 3*z^1*zb^2"
    assert to_text(BiPoly.zero()) == "0"
    q = BiPoly({(5, 0): 1, (1, 4): Fraction(5, 3)})
    assert to_text(q) == "1*z^5*zb^0 + 5/3*z^1*zb^4"


def test_canonical_order_degree_then_z_exponent():
    p = BiPoly({(0, 0): 1, (1, 1): 2, (2, 0): 1, (0, 2): 1})
    keys = [k for k, _ in canonical_terms(p)]
    assert keys == [(2, 0), (1, 1), (0, 2), (0, 0)]


def test_text_roundtrip():
    rng = random.Random(31)
    for _ in range(20):
        p = random_poly(rng)
        assert from_text(to_text(p)) == p
    assert from_text("0").is_zero()
    assert from_text("1*z^5*zb^0 + -5*z^3*zb^2") == \
        BiPoly({(5, 0): 1, (3, 2): -5})
    assert from_text("5/3*z^1*zb^4") == BiPoly({(1, 4): Fraction(5, 3)})


@pytest.mark.parametrize("text", ["1e5*z", "1.5*z", "1_000*z", "1 / 2*z",
                                  "+3*z", "0x10*z", "\u0663*z", "w^2",
                                  "z^1_0", "zb^-1", "z^ 2", "z^\u0663",
                                  "", "  \n"])
def test_text_refuses_factors_outside_the_grammar(text):
    # a coefficient is [-]digits[/digits] and an exponent is digits;
    # exponent and decimal forms, digit separators, signs and non-ASCII
    # digits are refused, and so is blank text, which is no polynomial
    with pytest.raises(ValueError):
        from_text(text)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                       st.fractions(min_value=-50, max_value=50,
                                    max_denominator=40),
                       max_size=8))
def test_text_roundtrip_property(terms):
    p = BiPoly(terms)
    assert from_text(to_text(p)) == p
