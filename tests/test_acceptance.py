"""Acceptance suite: one test per criterion, every comparison exact.

Run ``pytest tests/test_acceptance.py -v`` for one line per criterion, or
``-s`` to see the explicit PASS lines printed below.
"""

import random
from fractions import Fraction

from quasinv.bipoly import BiPoly, from_text
from quasinv.calogero import apply_L1, uniqueness_check, verify_L1_kernel
from quasinv.dihedral import DihedralSystem
from quasinv.generators import (build_matrix_A, full_basis,
                                generator_from_determinant,
                                invariant_chain_gens, solve_qi, valid_indices)
from quasinv.modstruct import freeness_check, not_in_ideal_check
from quasinv.poincare import (SeriesPoly, degree_table, hilbert_from_poincare,
                              poincare_even, poincare_for_system, poincare_odd)
from quasinv.quasi import check_per_line, crosscheck_checkers, quasi_dimension
from quasinv.scalars import det_fraction_free
from reference import is_palindromic

GRID = [(N, m, n) for N in (1, 2, 3) for m in (0, 1, 2) for n in (0, 1, 2)]


def _system(N, m, n):
    return DihedralSystem(2 * N, m, n)


def _passed(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_poincare_closed_forms():
    assert poincare_even(2, 1, 0) == SeriesPoly.from_dict(
        {0: 1, 2: 1, 3: 2, 5: 2, 6: 1, 8: 1})
    assert poincare_odd(3, 1) == SeriesPoly.from_dict(
        {0: 1, 4: 2, 5: 2, 9: 1})
    for N in range(1, 5):
        for m in range(4):
            for n in range(4):
                P = poincare_even(N, m, n)
                assert sum(P.as_dict().values()) == 4 * N
                assert is_palindromic(P)
            if N % 2 == 1:
                P = poincare_odd(N, m)
                assert sum(P.as_dict().values()) == 2 * N
                assert is_palindromic(P)
    _passed(1, "closed forms exact; value at 1 is the group order; "
               "palindromic for N <= 4, multiplicities <= 3")


def test_criterion_2_constant_multiplicity_consistency():
    for N in range(1, 5):
        for m in range(4):
            single_class = {0: 1, 2 * N * (2 * m + 1): 1}
            for i in range(1, 2 * N):
                key = 2 * m * N + i
                single_class[key] = single_class.get(key, 0) + 2
            assert poincare_even(N, m, m) == \
                SeriesPoly.from_dict(single_class)
    _passed(2, "equal multiplicities reproduce the single-class closed form "
               "coefficient-wise for N <= 4, m <= 3")


def test_criterion_3_hilbert_oracle_identity():
    spot = _system(2, 1, 0)
    series = hilbert_from_poincare(poincare_for_system(spot), 4, 5)
    assert series.to_list(5) == [1, 0, 2, 2, 3, 4]
    for N, m, n in GRID:
        sys = _system(N, m, n)
        d_max = 2 * N * (m + n + 1) + 4 * N
        series = hilbert_from_poincare(poincare_for_system(sys),
                                       sys.mirrors, d_max).to_list(d_max)
        for d in range(d_max + 1):
            assert series[d] == quasi_dimension(sys, d), (N, m, n, d)
    _passed(3, "Hilbert coefficients equal the exact dimension oracle on "
               "the whole grid")


def test_criterion_4_dual_path_generator_identity():
    assert solve_qi(_system(2, 1, 0), 1) == \
        from_text("1*z^3*zb^0 + 3*z^1*zb^2")
    assert solve_qi(_system(2, 1, 0), 3) == \
        from_text("1*z^5*zb^0 + -5*z^3*zb^2")
    assert solve_qi(_system(2, 1, 1), 1) == \
        from_text("1*z^5*zb^0 + 5/3*z^1*zb^4")
    for N, m, n in GRID:
        sys = _system(N, m, n)
        for i in valid_indices(sys):
            matrix = build_matrix_A(sys, i)
            det_a1 = det_fraction_free([row[1:] for row in matrix.rows])
            assert det_a1 != 0
            solved = solve_qi(sys, i)
            assert solved == generator_from_determinant(sys, i)
            for k, mono in enumerate(matrix.monomials):
                minor = [row[:k] + row[k + 1:] for row in matrix.rows]
                ratio = (-1) ** k * det_fraction_free(minor) / det_a1
                assert ratio == Fraction(solved.terms.get(mono, 0))
    _passed(4, "solver and determinant routes agree exactly, the leading "
               "minor never vanishes, and the minor ratios match the "
               "solved coefficients")


def test_criterion_5_quasi_invariance_and_checker_agreement():
    for N, m, n in GRID:
        sys = _system(N, m, n)
        gens = full_basis(sys)
        assert len(gens.entries) == 4 * N
        for entry in gens.entries:
            assert check_per_line(sys, entry.poly).ok, (N, m, n, entry.name)
        assert crosscheck_checkers(sys, trials=200, max_degree=12, seed=2024)
    _passed(5, "all generators pass the per-line checker and the two "
               "checkers agree on 200 seeded random polynomials per system")


def test_criterion_6_l1_kernel():
    for N, m, n in GRID:
        sys = _system(N, m, n)
        one = apply_L1(sys, BiPoly.constant(1))
        assert one.is_polynomial and one.polynomial.is_zero()
        sig = apply_L1(sys, BiPoly.monomial(1, 1))
        assert sig.is_polynomial
        assert sig.polynomial == BiPoly.constant(
            Fraction(4 * (1 - N * (m + n))))
        assert verify_L1_kernel(sys, full_basis(sys)).ok, (N, m, n)
    _passed(6, "the operator annihilates every generator and the two "
               "control values hold exactly on the grid")


def test_criterion_7_freeness_and_ideal_complement():
    rng = random.Random(2024)
    for N, m, n in GRID:
        sys = _system(N, m, n)
        gens = full_basis(sys)
        d_max = 2 * N * (m + n + 1) + 2 * sys.mirrors
        assert freeness_check(sys, gens, d_max).ok, (N, m, n)
        _, q1, q2, q3 = invariant_chain_gens(sys)
        assert not_in_ideal_check(sys, q1)
        assert not_in_ideal_check(sys, q2)
        assert not_in_ideal_check(sys, q3)
        by_name = {e.name: e.poly for e in gens.entries}
        for i in valid_indices(sys):
            first, second = by_name[f"q1_{i}"], by_name[f"q2_{i}"]
            assert not_in_ideal_check(sys, first)
            assert not_in_ideal_check(sys, second)
            w1, w2 = 0, 0
            while w1 == 0 and w2 == 0:
                w1, w2 = rng.randint(-5, 5), rng.randint(-5, 5)
            combo = first.scale(Fraction(w1)) + second.scale(Fraction(w2))
            assert not_in_ideal_check(sys, combo)
    _passed(7, "freeness holds through two denominator periods past the top "
               "generator degree, and the distinguished generators stay "
               "outside the invariant ideal")


def test_criterion_8_uniqueness():
    for N, m, n in GRID:
        sys = _system(N, m, n)
        for i in valid_indices(sys):
            assert uniqueness_check(sys, solve_qi(sys, i)), (N, m, n, i)
    _passed(8, "the normal-form generators are unique on the whole grid")


def test_criterion_9_counting():
    for N, m, n in GRID:
        sys = _system(N, m, n)
        gens = full_basis(sys)
        assert len(gens.entries) == 4 * N
        table = [d for d, count in degree_table(sys) for _ in range(count)]
        assert sorted(gens.degrees()) == table
    _passed(9, "basis size equals the group order and the degree multiset "
               "matches the closed-form table on the grid")
