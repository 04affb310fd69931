"""Closed-form Poincare polynomials, Hilbert series, and the degree table."""

from collections import Counter

import pytest

from quasinv.dihedral import DihedralSystem
from quasinv.errors import EvenMirrorCount
from quasinv.generators import full_basis
from quasinv.poincare import (SeriesPoly, degree_table, hilbert_from_poincare,
                              poincare_even, poincare_for_system, poincare_odd)
from quasinv.quasi import quasi_dimension
from reference import is_palindromic


def series(mapping):
    return SeriesPoly.from_dict(mapping)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_poincare_even_examples():
    assert poincare_even(2, 1, 0) == \
        series({0: 1, 2: 1, 3: 2, 5: 2, 6: 1, 8: 1})
    for m in range(3):
        for n in range(3):
            assert poincare_even(1, m, n) == series(
                {0: 1, 2 * n + 1: 1, 2 * m + 1: 1, 2 * (m + n + 1): 1}
                if m != n else {0: 1, 2 * m + 1: 2, 2 * (m + n + 1): 1})
    assert poincare_even(2, 1, 1) == \
        series({0: 1, 5: 2, 6: 2, 7: 2, 12: 1})


def test_poincare_odd_examples():
    assert poincare_odd(3, 1) == series({0: 1, 4: 2, 5: 2, 9: 1})
    assert poincare_odd(3, 0) == series({0: 1, 1: 2, 2: 2, 3: 1})
    for m in range(4):
        assert poincare_odd(1, m) == series({0: 1, 2 * m + 1: 1})
    with pytest.raises(EvenMirrorCount):
        poincare_odd(4, 1)


def test_poincare_odd_refuses_a_mirror_count_below_one():
    with pytest.raises(ValueError):
        poincare_odd(-1, 2)


def test_poincare_even_refuses_a_negative_multiplicity():
    with pytest.raises(ValueError):
        poincare_even(1, -1, 0)
    with pytest.raises(ValueError):
        poincare_even(2, 0, -1)


def test_poincare_odd_refuses_a_negative_multiplicity():
    with pytest.raises(ValueError):
        poincare_odd(3, -1)


def test_value_at_one_is_group_order():
    for N in range(1, 5):
        for m in range(4):
            for n in range(4):
                assert sum(poincare_even(N, m, n).as_dict().values()) == 4 * N
            if N % 2 == 1:
                assert sum(poincare_odd(N, m).as_dict().values()) == 2 * N


def test_palindromic():
    for N in range(1, 5):
        for m in range(4):
            for n in range(4):
                assert is_palindromic(poincare_even(N, m, n))
            if N % 2 == 1:
                assert is_palindromic(poincare_odd(N, m))


def test_constant_multiplicity_consistency():
    # equal multiplicities reduce to the single-class closed form for 2N lines
    for N in range(1, 5):
        for m in range(4):
            expected = {0: 1, (2 * m + 1) * 2 * N: 1}
            for i in range(1, 2 * N):
                expected[2 * m * N + i] = expected.get(2 * m * N + i, 0) + 2
            assert poincare_even(N, m, m) == series(expected)


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------

def test_hilbert_example():
    P = poincare_even(2, 1, 0)
    assert hilbert_from_poincare(P, 4, 5).to_list(5) == [1, 0, 2, 2, 3, 4]


def test_hilbert_of_one_counts_invariant_monomials():
    for M in (1, 2, 3, 4, 6):
        h = hilbert_from_poincare(series({0: 1}), M, 14).to_list(14)
        for d in range(15):
            count = sum(1 for b in range(d // M + 1)
                        if (d - M * b) % 2 == 0)
            assert h[d] == count


def test_hilbert_constant_term():
    for sys in (DihedralSystem(4, 1, 0), DihedralSystem.uniform(3, 2)):
        P = poincare_for_system(sys)
        assert hilbert_from_poincare(P, sys.mirrors, 0).to_list(0) == [1]


def test_hilbert_matches_dimension_oracle_spot():
    sys = DihedralSystem(4, 2, 1)
    P = poincare_for_system(sys)
    h = hilbert_from_poincare(P, 4, 12).to_list(12)
    for d in range(13):
        assert h[d] == quasi_dimension(sys, d)


# ---------------------------------------------------------------------------
# degree table
# ---------------------------------------------------------------------------

def test_degree_table_examples():
    assert degree_table(DihedralSystem(4, 1, 0)) == \
        [(0, 1), (2, 1), (3, 2), (5, 2), (6, 1), (8, 1)]
    for m in range(3):
        for n in range(3):
            table = degree_table(DihedralSystem(2, m, n))
            assert sum(c for _, c in table) == 4
            expanded = sorted(d for d, c in table for _ in range(c))
            assert expanded == sorted([0, 2 * n + 1, 2 * m + 1,
                                       2 * m + 2 * n + 2])
    # odd M: the terms of poincare_odd, 1 + 2 t^4 + 2 t^5 + t^9 at (3, 1)
    assert degree_table(DihedralSystem.uniform(3, 1)) == \
        [(0, 1), (4, 2), (5, 2), (9, 1)]


def test_degree_table_total_is_group_order_and_matches_poincare():
    for N in (1, 2, 3):
        for m in range(3):
            for n in range(3):
                sys = DihedralSystem(2 * N, m, n)
                table = degree_table(sys)
                assert sum(c for _, c in table) == 4 * N
                # the degrees of the built generator polynomials themselves
                built = sorted(e.poly.degree() for e in full_basis(sys).entries)
                assert [d for d, c in table for _ in range(c)] == built


def _reference_degree_table(sys):
    """The generator degrees of an even arrangement written out term by
    term, independently of the Poincare polynomial."""
    N = sys.period
    m, n = sys.mult_even, sys.mult_odd
    degrees = Counter()
    degrees[0] += 1
    degrees[(2 * n + 1) * N] += 1
    degrees[(2 * m + 1) * N] += 1
    degrees[(m + n + 1) * 2 * N] += 1
    for i in range(1, 2 * N):
        if i != N:
            degrees[(m + n) * N + i] += 2
    return sorted(degrees.items())


def test_degree_table_matches_term_by_term_reference():
    for N in range(1, 9):
        for m in range(5):
            for n in range(5):
                sys = DihedralSystem(2 * N, m, n)
                assert degree_table(sys) == _reference_degree_table(sys)
