"""Generator construction: invariant chain, linear solve, determinant route."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasinv import generators, scalars
from quasinv.bipoly import BiPoly, bar_conjugate, from_text
from quasinv.dihedral import DihedralSystem
from quasinv.errors import (DegreeTableMismatch, SingularMatrix,
                            SingularSystem)
from quasinv.generators import (build_matrix_A, full_basis,
                                generator_from_determinant,
                                invariant_chain_gens, solve_qi, valid_indices)
from quasinv.poincare import degree_table
from quasinv.quasi import check_per_line, row_classes
from quasinv.scalars import det_fraction_free
from reference import (GroupElement, act, class_row, group_elements, power,
                       rational_parts)

SYS210 = DihedralSystem(4, 1, 0)
GRID = [(N, m, n) for N in (1, 2, 3) for m in range(4) for n in range(4)]
# the even grid with M = 2N, then odd mirror counts M with multiplicity m
SYSTEMS = [DihedralSystem(2 * N, m, n) for N, m, n in GRID] + \
    [DihedralSystem.uniform(M, m) for M in (1, 3, 5, 7) for m in range(4)]


# ---------------------------------------------------------------------------
# invariant chain
# ---------------------------------------------------------------------------

def test_chain_example_n2_m1_n0():
    q0, q1, q2, q3 = invariant_chain_gens(SYS210)
    assert q0 == BiPoly.constant(1)
    assert q1 == BiPoly({(2, 0): 1, (0, 2): 1})
    assert q2 == power(BiPoly({(2, 0): 1, (0, 2): -1}), 3)
    assert q3 == q1 * q2


def test_chain_example_n1():
    sys = DihedralSystem(2, 2, 1)
    _, q1, q2, _ = invariant_chain_gens(sys)
    assert q1 == power(BiPoly({(1, 0): 1, (0, 1): 1}), 3)
    assert q2 == power(BiPoly({(1, 0): 1, (0, 1): -1}), 5)


def test_chain_degrees_and_quasi_invariance():
    for N, m, n in GRID:
        sys = DihedralSystem(2 * N, m, n)
        q0, q1, q2, q3 = invariant_chain_gens(sys)
        assert (q0.degree(), q1.degree(), q2.degree(), q3.degree()) == \
            (0, (2 * n + 1) * N, (2 * m + 1) * N, (m + n + 1) * 2 * N)
        # the binomial closed form against the binomial multiplied out
        plus = BiPoly({(N, 0): 1, (0, N): 1})
        minus = BiPoly({(N, 0): 1, (0, N): -1})
        assert (q0, q1, q2) == (BiPoly.constant(1), power(plus, 2 * n + 1),
                                power(minus, 2 * m + 1))
        assert q3 == q1 * q2
        if m <= 2 and n <= 2:
            for q in (q0, q1, q2, q3):
                assert check_per_line(sys, q).ok


def test_chain_anti_invariance():
    for N, m, n in [(1, 1, 0), (2, 1, 0), (2, 1, 2), (3, 2, 1)]:
        sys = DihedralSystem(2 * N, m, n)
        _, q1, q2, q3 = invariant_chain_gens(sys)
        odd_reflection = GroupElement(True, 1)
        even_reflection = GroupElement(True, 0)
        assert act(sys, odd_reflection, q1) == -q1
        assert act(sys, even_reflection, q1) == q1
        assert act(sys, even_reflection, q2) == -q2
        assert act(sys, odd_reflection, q2) == q2
        assert act(sys, even_reflection, q3) == -q3
        assert act(sys, odd_reflection, q3) == -q3


def test_chain_rejects_odd_mirrors():
    # odd M has one class of lines: the chain is 1 and the product of the
    # line forms to the power 2m + 1
    for M in (1, 3, 5):
        for m in range(3):
            minus = BiPoly({(M, 0): 1, (0, M): -1})
            assert invariant_chain_gens(DihedralSystem.uniform(M, m)) == \
                (BiPoly.constant(1), power(minus, 2 * m + 1))


# ---------------------------------------------------------------------------
# linear-solve route
# ---------------------------------------------------------------------------

def test_solve_qi_examples():
    assert solve_qi(SYS210, 1) == from_text("1*z^3*zb^0 + 3*z^1*zb^2")
    assert solve_qi(SYS210, 3) == from_text("1*z^5*zb^0 + -5*z^3*zb^2")
    assert solve_qi(DihedralSystem(4, 1, 1), 1) == \
        from_text("1*z^5*zb^0 + 5/3*z^1*zb^4")


def test_solve_qi_swapped_multiplicities():
    # larger multiplicity on the odd-index class: alternating condition row
    assert solve_qi(DihedralSystem(4, 0, 1), 1) == \
        from_text("1*z^3*zb^0 + -3*z^1*zb^2")


def test_solve_qi_needs_valid_index():
    with pytest.raises(ValueError):
        solve_qi(SYS210, 2)  # i = N is excluded


def test_solve_qi_normal_form():
    for N, m, n in GRID:
        if N == 1:
            continue
        sys = DihedralSystem(2 * N, m, n)
        for i in valid_indices(sys):
            q = solve_qi(sys, i)
            D = (m + n) * N + i
            assert q.terms.get((D, 0), 0) == 1
            rest = q - BiPoly.monomial(D, 0)
            assert all(a >= 1 and b >= 1 for a, b in rest.terms)


# ---------------------------------------------------------------------------
# condition matrix and determinant route
# ---------------------------------------------------------------------------

def test_matrix_examples():
    matrix = build_matrix_A(SYS210, 1)
    assert matrix.rows == ((3, -1),)
    assert matrix.monomials == ((3, 0), (1, 2))
    matrix = build_matrix_A(DihedralSystem(4, 1, 1), 1)
    assert matrix.rows == ((5, 0, -3), (0, 1, 0))
    assert matrix.monomials == ((5, 0), (3, 2), (1, 4))


def test_matrix_zero_pattern():
    sys = DihedralSystem(4, 3, 2)
    matrix = build_matrix_A(sys, 1)
    m, n = 3, 2
    low = min(m, n)
    assert len(matrix.rows) == m + n
    # level-major: the even-s row, then the odd-s row, at each level
    for t in range(low):
        assert all(v == 0 for s, v in enumerate(matrix.rows[2 * t])
                   if s % 2 == 1)
        assert all(v == 0 for s, v in enumerate(matrix.rows[2 * t + 1])
                   if s % 2 == 0)
    for row in matrix.rows[2 * low:]:
        assert all(v != 0 for v in row)


def _reference_condition_rows(sys, i):
    """The square coefficient system of one index written out directly.

    Even M = 2N: c_s(t) = ((m+n-2s)N + i)^(2t-1), with an even-s and an
    odd-s row at each level up to min(m, n), then full rows,
    sign-alternating when n is larger.  Odd M: one full row
    ((m-2k)M + i)^(2t-1), k = 0..m, at each level t = 1..m.
    """
    m, n = sys.mult_even, sys.mult_odd
    if not sys.is_even:
        M = sys.mirrors
        return [[((m - 2 * k) * M + i) ** (2 * t - 1) for k in range(m + 1)]
                for t in range(1, m + 1)]
    N = sys.period
    size = m + n + 1
    base = [(m + n - 2 * s) * N + i for s in range(size)]
    low, high = min(m, n), max(m, n)
    rows = []
    for t in range(1, low + 1):
        e = 2 * t - 1
        for parity in (0, 1):
            rows.append([base[s] ** e if s % 2 == parity else 0
                         for s in range(size)])
    for t in range(low + 1, high + 1):
        e = 2 * t - 1
        rows.append([(-1 if m < n and s % 2 else 1) * base[s] ** e
                     for s in range(size)])
    return rows


def test_condition_rows_match_direct_reference():
    systems = [DihedralSystem(2 * N, m, n) for N in range(1, 9)
               for m in range(5) for n in range(5)]
    systems += [DihedralSystem(M, m, m) for M in range(1, 16, 2)
                for m in range(5)]
    for sys in systems:
        P, top = sys.period, generators._top(sys)
        for i in valid_indices(sys):
            rows = generators._condition_rows(sys, i)
            assert [list(r) for r in rows] == \
                _reference_condition_rows(sys, i)
            # the dense rows of those classes, sliced to the support
            assert rows == [class_row(top + i, *cls)[:top + 1:P]
                            for cls in row_classes(sys) if cls[1] % P == 0]


def test_determinant_route_examples():
    # 1x1 minors: det A_1 = -1, expansion recovers the solved generator
    matrix = build_matrix_A(SYS210, 1)
    assert det_fraction_free([row[1:] for row in matrix.rows]) == -1
    assert generator_from_determinant(SYS210, 1) == \
        from_text("1*z^3*zb^0 + 3*z^1*zb^2")
    # 2x2 minors with det A_1 = 3
    sys = DihedralSystem(4, 1, 1)
    matrix = build_matrix_A(sys, 1)
    assert det_fraction_free([row[1:] for row in matrix.rows]) == 3
    assert generator_from_determinant(sys, 1) == \
        from_text("1*z^5*zb^0 + 5/3*z^1*zb^4")


def test_cramer_minor_ratios():
    for sys in (SYS210, DihedralSystem(4, 1, 1), DihedralSystem(6, 2, 1)):
        for i in valid_indices(sys):
            matrix = build_matrix_A(sys, i)
            det_a1 = det_fraction_free([row[1:] for row in matrix.rows])
            solved = solve_qi(sys, i)
            for k, mono in enumerate(matrix.monomials):
                minor = [row[:k] + row[k + 1:] for row in matrix.rows]
                ratio = (-1) ** k * det_fraction_free(minor) / det_a1
                assert ratio == Fraction(solved.terms.get(mono, 0))


def test_determinant_route_takes_one_determinant_per_cofactor(monkeypatch):
    # det A_1 is the cofactor of the first monomial, so it is not
    # eliminated a second time
    calls = []

    def counted(rows):
        calls.append(rows)
        return det_fraction_free(rows)

    monkeypatch.setattr(generators, "det_fraction_free", counted)
    sys = DihedralSystem(8, 2, 1)
    assert generator_from_determinant(sys, 1) == solve_qi(sys, 1)
    assert len(calls) == len(build_matrix_A(sys, 1).monomials) == 4


def test_determinant_route_refuses_a_vanishing_leading_minor(monkeypatch):
    monkeypatch.setattr(generators, "det_fraction_free",
                        lambda rows: Fraction(0))
    # det A_1 is the determinant of the solve's system: the one error of a
    # singular system, on either route
    with pytest.raises(SingularSystem,
                       match="^leading minor vanished for index 1$"):
        generator_from_determinant(DihedralSystem(8, 2, 1), 1)


def test_solve_route_reports_a_singular_system(monkeypatch):
    def singular(rows, rhs):
        raise SingularMatrix("matrix is singular")

    monkeypatch.setattr(generators, "solve_exact", singular)
    with pytest.raises(SingularSystem,
                       match="^coefficient system singular for index 1;"):
        solve_qi(DihedralSystem(8, 2, 1), 1)


def test_dual_path_identity_on_grid():
    for sys in SYSTEMS:
        for i in valid_indices(sys):
            matrix = build_matrix_A(sys, i)
            assert det_fraction_free([row[1:] for row in matrix.rows]) != 0
            assert solve_qi(sys, i) == generator_from_determinant(sys, i)


def test_solve_and_determinant_routes_share_no_elimination(monkeypatch):
    # the dual path compares two eliminations: the solve route reduces
    # through reduce_into, the cofactors run Bareiss alone
    calls = []
    reduce_into = scalars.reduce_into

    def counted(basis, row):
        calls.append(row)
        return reduce_into(basis, row)

    monkeypatch.setattr(scalars, "reduce_into", counted)
    sys = DihedralSystem(8, 2, 1)
    solved = solve_qi(sys, 1)
    assert calls
    calls.clear()
    assert generator_from_determinant(sys, 1) == solved
    assert not calls


def test_generators_pass_per_line_including_equal_multiplicities():
    for sys in SYSTEMS:
        if max(sys.mult_even, sys.mult_odd) > 2:
            continue
        for i in valid_indices(sys):
            q = solve_qi(sys, i)
            assert check_per_line(sys, q).ok
            assert check_per_line(sys, bar_conjugate(q)).ok


# ---------------------------------------------------------------------------
# full basis
# ---------------------------------------------------------------------------

def test_full_basis_counts_and_degrees():
    gens = full_basis(SYS210)
    assert len(gens.entries) == 8
    assert gens.degrees() == [0, 2, 3, 3, 5, 5, 6, 8]
    assert [e.name for e in gens.entries] == \
        ["q0", "q1", "q1_1", "q2_1", "q1_3", "q2_3", "q2", "q3"]
    for sys in SYSTEMS:
        gens = full_basis(sys)
        assert len(gens.entries) == 2 * sys.mirrors
        assert sorted(gens.degrees()) == degree_table(sys)


def test_full_basis_rejects_wrong_degree_table(monkeypatch):
    monkeypatch.setattr(generators, "degree_table",
                        lambda sys: [0] + [1] * (2 * sys.mirrors - 1))
    with pytest.raises(DegreeTableMismatch):
        full_basis(SYS210)


def test_full_basis_rejects_generator_of_wrong_degree(monkeypatch):
    # the degrees are read off the polynomials, so a generator multiplied
    # by z*zb no longer matches the Poincare polynomial
    original = generators.solve_qi
    monkeypatch.setattr(
        generators, "solve_qi",
        lambda sys, i: BiPoly.monomial(1, 1) * original(sys, i))
    for sys in (DihedralSystem(8, 2, 1), DihedralSystem.uniform(5, 1)):
        with pytest.raises(DegreeTableMismatch):
            full_basis(sys)


def test_full_basis_n1_has_only_chain():
    gens = full_basis(DihedralSystem(2, 1, 1))
    assert len(gens.entries) == 4
    assert [e.label for e in gens.entries] == ["q0", "q1", "q2", "q3"]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2), st.integers(0, 2))
def test_q_is_stable_under_the_group(mirrors, m, n):
    # act(sys, w, q) lies in Q exactly when each of its rational parts does
    sys = DihedralSystem(mirrors, m, n if mirrors % 2 == 0 else m)
    for entry in full_basis(sys).entries:
        for w in group_elements(sys):
            for part in rational_parts(act(sys, w, entry.poly)):
                assert check_per_line(sys, part).ok
    # negative control: with a line of positive multiplicity, every image
    # of z, a non-member, fails in a part
    if sys.mult_even or sys.mult_odd:
        for w in group_elements(sys):
            assert not all(check_per_line(sys, part).ok for part in
                           rational_parts(act(sys, w, BiPoly.monomial(1, 0))))


def test_conjugation_symmetry():
    for sys in (SYS210, DihedralSystem(6, 1, 2)):
        gens = full_basis(sys)
        by_name = {e.name: e.poly for e in gens.entries}
        for i in valid_indices(sys):
            assert by_name[f"q2_{i}"] == bar_conjugate(by_name[f"q1_{i}"])
            assert bar_conjugate(by_name[f"q2_{i}"]) == by_name[f"q1_{i}"]


def test_multiplicity_swap_symmetry():
    for N in (1, 2, 3):
        for m in range(3):
            for n in range(3):
                left = full_basis(DihedralSystem(2 * N, m, n))
                right = full_basis(DihedralSystem(2 * N, n, m))
                assert sorted(left.degrees()) == sorted(right.degrees())


def test_full_basis_refuses_an_unknown_method():
    with pytest.raises(ValueError, match="method must be"):
        full_basis(SYS210, method="both")


def test_determinant_provenance():
    gens = full_basis(SYS210, method="det")
    assert gens.provenance == "determinant"
    solved = full_basis(SYS210, method="solve")
    assert solved.provenance == "solver"
    for a, b in zip(gens.entries, solved.entries):
        assert a.poly == b.poly
