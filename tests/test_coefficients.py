"""The canonical rational form and the integer-only per-line path.

A rational coefficient is stored as an ``int`` when it is integral and as a
``Fraction`` with denominator above 1 otherwise, in ``BiPoly.terms``,
``CycloElem.coeffs`` and ``CoeffVector.entries``, whatever the type of the
input and after every operation.  Equality and hashing do not depend on the
input type.  The per-line checker, the operator, the ideal check,
``bar_conjugate`` and ``emit_latex`` take rational polynomials only: each
refuses a cyclotomic coefficient through ``bipoly.rational_only``.  The
per-line checker and the operator hand ``reduce_mod_cyclotomic`` integer
buckets only, also for polynomials with denominators, because each
homogeneous component is cleared first.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasinv import quasi
from quasinv.bipoly import BiPoly, bar_conjugate, from_text, to_text
from quasinv.calogero import apply_L1
from quasinv.cli import emit_latex
from quasinv.dihedral import DihedralSystem
from quasinv.errors import ScalarKindMismatch
from quasinv.generators import full_basis
from quasinv.modstruct import not_in_ideal_check
from quasinv.quasi import (CoeffVector, check_per_line, component_terms,
                           quasi_basis)
from quasinv.scalars import CycloElem, euler_phi, root_of_unity
from reference import act, group_elements, homogeneous_components

EVEN = DihedralSystem(8, 2, 1)
ODD = DihedralSystem.uniform(7, 2)

# st.fractions also draws integral values such as Fraction(2)
RATIONALS = st.one_of(st.integers(-6, 6),
                      st.fractions(min_value=-6, max_value=6,
                                   max_denominator=4))


def is_canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_canonical(x):
    """Every rational coefficient of a CycloElem or BiPoly is canonical, every
    CycloElem coefficient of a BiPoly is irrational and of the polynomial's
    order, and the coefficient vector of every rational homogeneous
    component is canonical."""
    if isinstance(x, CycloElem):
        assert len(x.coeffs) == euler_phi(x.order), x
        assert all(map(is_canonical, x.coeffs)), repr(x)
        return
    for c in x.terms.values():
        if isinstance(c, CycloElem):
            assert x.order == c.order and not c.is_rational(), x
            assert_canonical(c)
        else:
            assert is_canonical(c), x
    if x.order is None:
        for _, comp in homogeneous_components(x):
            assert all(map(is_canonical, CoeffVector.from_poly(comp).entries))


@st.composite
def polynomial_pair(draw):
    """Two polynomials over one field, the cyclotomic ones built from int,
    Fraction and CycloElem coefficients alike."""
    order = draw(st.sampled_from([None, 3, 4, 5, 6, 8]))
    coeff = RATIONALS
    if order is not None:
        cyclo = st.lists(RATIONALS, min_size=1, max_size=order + 2).map(
            lambda cs: CycloElem(order, cs))
        coeff = st.one_of(RATIONALS, cyclo)
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
    return tuple(BiPoly(draw(st.dictionaries(exps, coeff, max_size=5)))
                 for _ in range(2))


@settings(max_examples=100, deadline=None)
@given(polynomial_pair(), RATIONALS)
def test_construction_and_arithmetic_keep_the_canonical_form(pair, r):
    p, q = pair
    results = [p, q, p + q, p - q, p * q, -p, p.scale(r),
               p + BiPoly.constant(r)]
    if p.order is None:
        results.append(from_text(to_text(p)))
    for x in results:
        assert_canonical(x)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.lists(RATIONALS, max_size=30),
       st.lists(RATIONALS, max_size=30))
def test_cyclotomic_arithmetic_keeps_the_canonical_form(order, xs, ys):
    x, y = CycloElem(order, xs), CycloElem(order, ys)
    for z in (x, y, x + y, x - y, x * y, -x, x * 3,
              x * Fraction(1, 2), CycloElem.from_rational(order, Fraction(4))):
        assert_canonical(z)


def test_integral_results_of_fraction_arithmetic_are_ints():
    half = BiPoly({(1, 0): Fraction(1, 2)})
    assert type((half + half).terms[(1, 0)]) is int
    assert type(half.scale(2).terms[(1, 0)]) is int
    assert CycloElem(4, [Fraction(1, 2)]) * 2 == CycloElem(4, [1])
    assert (CycloElem(4, [Fraction(1, 2)]) * 2).coeffs == (1, 0)
    # 1 + zeta + zeta^2 = 0 in Q(zeta_3): the reduction leaves int zeros
    assert CycloElem(3, [Fraction(1, 2)] * 3).coeffs == (0, 0)
    assert type(from_text("2/2*z^1*zb^0").terms[(1, 0)]) is int


def test_equality_and_hash_do_not_depend_on_the_input_type():
    assert BiPoly({(1, 0): 2, (0, 1): -3}) == \
        BiPoly({(1, 0): Fraction(2), (0, 1): Fraction(-6, 2)})
    assert BiPoly({(1, 0): 2}) == BiPoly({(1, 0): Fraction(2)}) == \
        BiPoly({(1, 0): CycloElem.from_rational(4, Fraction(2))})
    a, b = CycloElem(5, [2, 1]), CycloElem(5, [Fraction(2), Fraction(1)])
    assert a == b and hash(a) == hash(b) and a.coeffs == b.coeffs
    assert [type(c) for c in a.coeffs] == [type(c) for c in b.coeffs]
    assert CycloElem.from_rational(6, 2) == 2 == \
        CycloElem.from_rational(6, Fraction(2))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 30),
       st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       RATIONALS, max_size=5))
def test_a_root_of_unity_and_its_inverse_leave_a_rational_polynomial(
        order, k, terms):
    p = BiPoly(terms)
    back = p.scale(root_of_unity(order, k)).scale(root_of_unity(order, -k))
    assert back.order is None and back == p
    assert_canonical(back)


def test_the_group_action_and_its_inverse_return_the_basis():
    for system in (DihedralSystem(4, 1, 0), EVEN, DihedralSystem(6, 1, 2),
                   ODD):
        M = system.mirrors
        for degree in range(2 * M + 3):
            # each basis vector lives on one residue class of the zb
            # exponent, so its images are all rational or all irrational;
            # their sum mixes the two
            basis = quasi_basis(system, degree)
            for q in basis + [sum(basis, BiPoly.zero())]:
                for w in group_elements(system):
                    # a reflection is its own inverse
                    inverse = w if w.reflection else (False, -w.power % M)
                    moved = act(system, w, q)
                    back = act(system, inverse, moved)
                    assert back.order is None and back == q, (system, w, q)
                    assert_canonical(moved)
                    assert_canonical(back)


def test_a_rational_cycloelem_coefficient_is_stored_as_its_rational():
    for order in range(1, 13):
        for c in (3, -2, Fraction(5, 3), Fraction(4, 2)):
            p = BiPoly({(1, 0): CycloElem.from_rational(order, c)})
            assert p.order is None and p.terms == {(1, 0): c}
            assert_canonical(p)
        assert BiPoly.constant(CycloElem.from_rational(order, 0)).is_zero()


def test_bases_and_operator_images_are_canonical():
    for system in (EVEN, ODD):
        gens = full_basis(system)
        for entry in gens.entries:
            assert_canonical(entry.poly)
            image = apply_L1(system, entry.poly)
            assert image.is_polynomial and image.polynomial.is_zero()
        for degree in range(16):
            for vec in quasi_basis(system, degree):
                assert_canonical(vec)
                for image in (apply_L1(system, vec),
                              apply_L1(system, vec.scale(Fraction(2, 3)))):
                    assert image.is_polynomial
                    assert_canonical(image.polynomial)


@settings(max_examples=60, deadline=None)
@given(polynomial_pair(), st.sampled_from([EVEN, ODD, DihedralSystem(4, 1, 0)]))
def test_operator_images_are_canonical(pair, system):
    p = pair[0]
    if p.order is not None:
        with pytest.raises(ScalarKindMismatch):
            apply_L1(system, p)
        return
    image = apply_L1(system, p)
    if image.is_polynomial:
        assert_canonical(image.polynomial)


def test_component_terms_clear_each_component_to_integers():
    p = BiPoly({(3, 0): Fraction(1, 3), (1, 2): Fraction(5, 2),
                (2, 0): 4, (0, 2): Fraction(-3, 7)})
    assert component_terms(p) == [
        (2, [(2, 0, 28), (0, 2, -3)], 7),
        (3, [(3, 0, 2), (1, 2, 15)], 6)]
    integral = BiPoly({(2, 0): 4, (0, 2): -1})
    assert component_terms(integral) == [(2, [(2, 0, 4), (0, 2, -1)], 1)]
    assert all(type(c) is int for _, terms, _ in component_terms(p)
               for _, _, c in terms)
    assert component_terms(BiPoly.zero()) == []


REFUSERS = {
    "check_per_line": check_per_line,
    "apply_L1": apply_L1,
    "not_in_ideal_check": not_in_ideal_check,
    "bar_conjugate": lambda system, p: bar_conjugate(p),
    "emit_latex": lambda system, p: emit_latex(p),
}


@pytest.mark.parametrize("system", [EVEN, ODD], ids=str)
@pytest.mark.parametrize("own_order", [True, False],
                         ids=["order_M", "other_order"])
@pytest.mark.parametrize("name", REFUSERS)
def test_rational_only_functions_refuse_a_cyclotomic_coefficient(
        name, own_order, system):
    # one irrational coefficient among rational ones, of the arrangement's
    # own order M or of another, is refused before any work
    order = system.mirrors if own_order else system.mirrors + 1
    p = BiPoly({(2, 0): 1, (1, 1): CycloElem(order, [Fraction(1, 2), 1]),
                (0, 2): -3})
    assert p.order == order
    with pytest.raises(ScalarKindMismatch):
        REFUSERS[name](system, p)


def test_per_line_buckets_are_integers_and_no_cycloelem_is_built(monkeypatch):
    # the generators of (8,2,1) include integral ones and ones with
    # denominators; all pass, so the per-line pass needs no field element
    polys = [e.poly for e in full_basis(EVEN).entries]
    assert any(all(type(c) is int for c in p.terms.values()) for p in polys)
    assert any(type(c) is Fraction for p in polys for c in p.terms.values())
    buckets = []
    reduce = quasi.reduce_mod_cyclotomic

    def spy(values, order):
        buckets.append(list(values))
        return reduce(values, order)

    def refuse(self, *args):
        raise RuntimeError("CycloElem built on the integer path")

    monkeypatch.setattr(quasi, "reduce_mod_cyclotomic", spy)
    monkeypatch.setattr(CycloElem, "__init__", refuse)
    for p in polys:
        assert check_per_line(EVEN, p).ok
        image = apply_L1(EVEN, p)
        assert image.is_polynomial and image.polynomial.is_zero()
    assert len(buckets) > 100
    assert all(type(x) is int for values in buckets for x in values)
