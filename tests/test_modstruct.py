"""Free module structure: per-degree rank checks and ideal membership."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from quasinv.bipoly import BiPoly
from quasinv.dihedral import DihedralSystem
from quasinv.errors import NotQuasiInvariant, RowDegreeMismatch
from quasinv.generators import (GeneratorSet, full_basis, invariant_chain_gens,
                                valid_indices)
from quasinv.modstruct import freeness_check, not_in_ideal_check
from quasinv.poincare import hilbert_from_poincare, poincare_for_system
from quasinv.quasi import coefficient_row, quasi_dimension

SYS210 = DihedralSystem(4, 1, 0)


def test_freeness_detail_at_degree_five():
    gens = full_basis(SYS210)
    report = freeness_check(SYS210, gens, 5)
    row = report.rows[5]
    # two degree-3 generators times sigma1 plus the two degree-5 generators
    assert row.product_count == 4
    assert row.span_rank == 4
    assert row.oracle_dim == 4
    assert row.expected_dim == 4
    assert row.ok


def test_freeness_low_degrees():
    gens = full_basis(SYS210)
    report = freeness_check(SYS210, gens, 2)
    assert report.rows[0].product_count == 1
    assert report.rows[0].span_rank == 1
    assert report.rows[2].product_count == 2
    assert report.rows[2].span_rank == 2
    assert report.ok


def test_freeness_full_window():
    sys = SYS210
    d_max = sys.mirrors * (sys.mult_even + sys.mult_odd + 1) + 2 * sys.mirrors
    report = freeness_check(sys, full_basis(sys), d_max)
    assert report.ok
    assert report.max_degree == d_max
    assert len(report.rows) == d_max + 1


def test_expected_equals_oracle_without_generators():
    # Hilbert series and null-space count agree independently of any basis
    for sys in (DihedralSystem(4, 2, 1), DihedralSystem.uniform(3, 2)):
        h = hilbert_from_poincare(poincare_for_system(sys), sys.mirrors, 10)
        for d in range(11):
            assert h[d] == quasi_dimension(sys, d)


def test_not_in_ideal_chain_generators():
    q0, q1, q2, q3 = invariant_chain_gens(SYS210)
    assert not_in_ideal_check(SYS210, q2)
    assert not_in_ideal_check(SYS210, q3)
    sigma1 = BiPoly.monomial(1, 1)
    assert not not_in_ideal_check(SYS210, sigma1 * q1)


def test_not_in_ideal_rejects_non_quasi_invariant():
    with pytest.raises(NotQuasiInvariant):
        not_in_ideal_check(SYS210, BiPoly.monomial(1, 0))
    with pytest.raises(ValueError):
        not_in_ideal_check(SYS210, BiPoly.monomial(1, 0) + BiPoly.constant(1))


def test_not_in_ideal_many_candidates_is_conjunction_and_stops_early():
    q0, q1, q2, q3 = invariant_chain_gens(SYS210)
    sigma1 = BiPoly.monomial(1, 1)
    outside = [q2, q3, q1]
    assert not_in_ideal_check(SYS210, *outside)
    assert not_in_ideal_check(SYS210, *outside) == \
        all(not_in_ideal_check(SYS210, c) for c in outside)
    # a candidate inside the ideal ends the check: the next one, which is
    # not quasi-invariant, is never looked at
    assert not not_in_ideal_check(SYS210, q2, sigma1 * q1,
                                  BiPoly.monomial(1, 0))
    with pytest.raises(NotQuasiInvariant):
        not_in_ideal_check(SYS210, q2, BiPoly.monomial(1, 0))
    with pytest.raises(ValueError):
        not_in_ideal_check(SYS210)


def test_pair_spans_meet_ideal_trivially():
    rng = random.Random(99)
    for sys in (SYS210, DihedralSystem(4, 1, 1), DihedralSystem(6, 1, 0)):
        gens = full_basis(sys)
        by_name = {e.name: e.poly for e in gens.entries}
        for i in valid_indices(sys):
            first, second = by_name[f"q1_{i}"], by_name[f"q2_{i}"]
            assert not_in_ideal_check(sys, first)
            assert not_in_ideal_check(sys, second)
            for _ in range(3):
                w1, w2 = 0, 0
                while w1 == 0 and w2 == 0:
                    w1, w2 = rng.randint(-5, 5), rng.randint(-5, 5)
                combo = first.scale(Fraction(w1)) + second.scale(Fraction(w2))
                assert not_in_ideal_check(sys, combo)


def test_freeness_across_small_grid():
    for N, m, n in [(1, 0, 0), (1, 2, 1), (2, 1, 1), (2, 0, 2), (3, 1, 0)]:
        sys = DihedralSystem(2 * N, m, n)
        d_max = 2 * N * (m + n + 1) + 6
        assert freeness_check(sys, full_basis(sys), d_max).ok


def test_coefficient_rows_keep_integers_and_refuse_other_degrees():
    p = BiPoly({(3, 0): 2, (1, 2): Fraction(3, 2)})
    row = coefficient_row(p, 3)
    assert row == [2, 0, Fraction(3, 2), 0]
    assert [type(e) for e in row] == [int, int, Fraction, int]
    assert coefficient_row(BiPoly.zero(), 2) == [0, 0, 0]
    # a term of another degree would otherwise drop out of the row
    with pytest.raises(RowDegreeMismatch):
        coefficient_row(p + BiPoly.monomial(1, 0), 3)


def test_freeness_fails_on_a_generator_outside_q():
    # adding 7 z^(D-1) zb to q1_1 keeps every rank and count, but leaves Q
    for sys in (DihedralSystem(8, 2, 1), DihedralSystem.uniform(5, 1)):
        gens = full_basis(sys)
        k = next(k for k, e in enumerate(gens.entries) if e.name == "q1_1")
        entry = gens.entries[k]
        bad = replace(entry, poly=entry.poly + BiPoly.monomial(
            entry.degree - 1, 1).scale(Fraction(7)))
        entries = gens.entries[:k] + (bad,) + gens.entries[k + 1:]
        report = freeness_check(sys, GeneratorSet(sys, entries, "solver"), 40)
        assert not report.ok
        assert report.non_members == ("q1_1",)
        assert report.to_dict()["non_members"] == ["q1_1"]
        assert all(row.ok for row in report.rows)


def test_freeness_report_omits_empty_non_members():
    report = freeness_check(SYS210, full_basis(SYS210), 8)
    assert report.ok and report.non_members == ()
    assert "non_members" not in report.to_dict()
