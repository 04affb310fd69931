"""Dihedral arrangements: multiplicities, invariants, and the group action."""

import random

import pytest

from quasinv.bipoly import BiPoly, restrict_to_line
from quasinv.dihedral import DihedralSystem, GroupElement
from reference import invariant_generators, line_form


def random_poly(rng, max_degree=4):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        terms[(rng.randint(0, max_degree), rng.randint(0, max_degree))] = \
            rng.randint(-4, 4)
    return BiPoly(terms)


def test_construction_validation():
    with pytest.raises(ValueError):
        DihedralSystem(0, 1, 1)
    with pytest.raises(ValueError):
        DihedralSystem(4, -1, 0)
    with pytest.raises(ValueError):
        DihedralSystem(3, 2, 1)  # odd counts have one class
    assert DihedralSystem.uniform(3, 2).multiplicity(1) == 2


@pytest.mark.parametrize("fields", [
    (True, 1.5, 1.5), (4, True, 0), (4, 1.0, 0), (4.0, 1, 0), (4, 1, "0"),
    (4, 0, False)])
def test_construction_rejects_non_int_fields(fields):
    with pytest.raises(ValueError):
        DihedralSystem(*fields)


def test_line_multiplicity():
    sys = DihedralSystem(4, 1, 0)
    assert sys.multiplicity(2) == 1
    assert sys.multiplicity(3) == 0
    assert all(DihedralSystem.uniform(3, 2).multiplicity(j) == 2
               for j in range(3))


def test_invariant_generators_shape():
    s1, s2 = invariant_generators(DihedralSystem(4, 1, 0))
    assert s1 == BiPoly({(1, 1): 1})
    assert s2 == BiPoly({(4, 0): 1, (0, 4): 1})
    s1, s2 = invariant_generators(DihedralSystem.uniform(3, 1))
    assert s2 == BiPoly({(3, 0): 1, (0, 3): 1})


@pytest.mark.parametrize("mirrors,me,mo", [(1, 1, 1), (2, 1, 0), (3, 2, 2),
                                           (4, 1, 2), (6, 1, 0)])
def test_invariants_fixed_by_all_elements(mirrors, me, mo):
    sys = DihedralSystem(mirrors, me, mo)
    s1, s2 = invariant_generators(sys)
    count = 0
    for g in sys.elements():
        count += 1
        assert sys.act(g, s1) == s1
        assert sys.act(g, s2) == s2
    assert count == 2 * mirrors


def test_group_action_examples():
    sys = DihedralSystem(4, 1, 0)
    swap = GroupElement(True, 0)
    anti = BiPoly({(4, 0): 1, (0, 4): -1})
    assert sys.act(swap, anti) == -anti
    # the basic rotation negates the degree-N invariant-chain element
    rot = GroupElement(False, 1)
    chain = BiPoly({(2, 0): 1, (0, 2): 1})
    assert sys.act(rot, chain) == -chain
    p = BiPoly({(3, 1): 2, (0, 2): -1})
    assert sys.act(GroupElement(False, 0), p) == p


def test_group_relations_on_polynomials():
    rng = random.Random(23)
    for mirrors in (2, 3, 4, 6):
        sys = DihedralSystem.uniform(mirrors, 1)
        swap = GroupElement(True, 0)
        rot = GroupElement(False, 1)
        for _ in range(5):
            p = random_poly(rng)
            assert sys.act(swap, sys.act(swap, p)) == p
            q = p
            for _ in range(mirrors):
                q = sys.act(rot, q)
            assert q == p


def preimage_line(element, j, mirrors):
    """Index of the line that a group element maps onto line j: the line
    on which the substituted form of line j vanishes."""
    reflection, k = element
    if reflection:
        return (2 * k - j) % mirrors
    return (j - 2 * k) % mirrors


def test_line_permutation_preserves_multiplicity():
    # acting on the form of line j gives (a multiple of) the form of one
    # line j', the only line it vanishes on, and j' carries the same
    # multiplicity as j
    for sys in (DihedralSystem(4, 1, 0), DihedralSystem(6, 2, 1),
                DihedralSystem.uniform(3, 2)):
        M = sys.mirrors
        for g in sys.elements():
            for j in sys.lines():
                image = sys.act(g, line_form(j, M))
                zeros = [k for k in sys.lines()
                         if restrict_to_line(image, k, M) == {}]
                assert len(zeros) == 1
                assert sys.multiplicity(zeros[0]) == sys.multiplicity(j)


def test_map_line_matches_action_on_line_forms():
    # acting on the form of line j gives (a multiple of) the form of the
    # preimage line, and of no other line
    for mirrors in (3, 4, 6):
        sys = DihedralSystem.uniform(mirrors, 1)
        for g in sys.elements():
            for j in sys.lines():
                image = sys.act(g, line_form(j, mirrors))
                zeros = [k for k in sys.lines()
                         if restrict_to_line(image, k, mirrors) == {}]
                assert zeros == [preimage_line(g, j, mirrors)]
