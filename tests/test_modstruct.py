"""Free module structure: per-degree rank checks and ideal membership."""

import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasinv.bipoly import BiPoly
from quasinv.dihedral import DihedralSystem
from quasinv.errors import RowDegreeMismatch, ScalarKindMismatch
from quasinv.generators import (GeneratorSet, full_basis, invariant_chain_gens,
                                valid_indices)
from quasinv import cli, modstruct
from quasinv.modstruct import (DegreeRow, FreenessReport, freeness_check,
                               not_in_ideal_check)
from quasinv.poincare import hilbert_from_poincare, poincare_for_system
from quasinv.quasi import (check_per_line, coefficient_row, grouped_rows,
                           quasi_basis, quasi_dimension, quasi_dimensions)
from quasinv.scalars import CycloElem, exact_rank, nullspace, reduce_into

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
        h = hilbert_from_poincare(poincare_for_system(sys), sys.mirrors,
                                  10).to_list(10)
        for d in range(11):
            assert h[d] == quasi_dimension(sys, d)


def test_not_in_ideal_chain_generators():
    q0, q1, q2, q3 = invariant_chain_gens(SYS210)
    assert not_in_ideal_check(SYS210, q2)
    assert not_in_ideal_check(SYS210, q3)
    sigma1 = BiPoly.monomial(1, 1)
    assert not not_in_ideal_check(SYS210, sigma1 * q1)


def test_not_in_ideal_reports_a_polynomial_outside_q_outside_the_ideal():
    # the ideal lies inside Q, so z, which is not in Q, is not in the ideal
    assert not check_per_line(SYS210, BiPoly.monomial(1, 0)).ok
    assert not_in_ideal_check(SYS210, BiPoly.monomial(1, 0))
    with pytest.raises(ValueError):
        not_in_ideal_check(SYS210, BiPoly.monomial(1, 0) + BiPoly.constant(1))


def test_not_in_ideal_refuses_cyclotomic_candidates():
    # zeta * sigma1 lies in the ideal over Q(zeta); the span rows are
    # rational, so such a candidate is refused rather than misjudged
    zeta = CycloElem(4, [0, 1])
    q0, q1, q2, q3 = invariant_chain_gens(SYS210)
    for p in (BiPoly.monomial(1, 1).scale(zeta), q2.scale(zeta)):
        with pytest.raises(ScalarKindMismatch):
            not_in_ideal_check(SYS210, p)
    with pytest.raises(ScalarKindMismatch):
        not_in_ideal_check(SYS210, q2, q3.scale(zeta))


def test_not_in_ideal_many_candidates_is_conjunction_and_stops_early():
    q0, q1, q2, q3 = invariant_chain_gens(SYS210)
    sigma1 = BiPoly.monomial(1, 1)
    outside = [q2, q3, q1]
    assert not_in_ideal_check(SYS210, *outside)
    assert not_in_ideal_check(SYS210, *outside) == \
        all(not_in_ideal_check(SYS210, c) for c in outside)
    # a candidate inside the ideal ends the check: the next one, which is
    # not homogeneous, is never looked at
    assert not not_in_ideal_check(SYS210, q2, sigma1 * q1,
                                  BiPoly.monomial(1, 0) + BiPoly.constant(1))
    assert not not_in_ideal_check(SYS210, q2, sigma1 * q1,
                                  BiPoly.monomial(1, 0))
    assert not_in_ideal_check(SYS210, q2, BiPoly.monomial(1, 0))
    with pytest.raises(ValueError):
        not_in_ideal_check(SYS210)


def in_ideal_by_rank(sys, p):
    """Reference for ``not_in_ideal_check``: p lies in the degree-d piece of
    the ideal exactly when adding its row to the span of sigma1 * Q^(d-2)
    and sigma2 * Q^(d-M) leaves the rank unchanged.  The span is multiplied
    out as polynomials."""
    if p.is_zero():
        return True
    d, M = p.degree(), sys.mirrors
    sigma1 = BiPoly.monomial(1, 1)
    sigma2 = BiPoly.monomial(M, 0) + BiPoly.monomial(0, M)
    span = []
    if d >= 2:
        span += [coefficient_row(sigma1 * u, d)
                 for u in quasi_basis(sys, d - 2)]
    if d >= M:
        span += [coefficient_row(sigma2 * v, d)
                 for v in quasi_basis(sys, d - M)]
    return exact_rank(span + [coefficient_row(p, d)], ncols=d + 1) == \
        exact_rank(span, ncols=d + 1)


def not_in_ideal_by_nullspace(sys, *candidates):
    """Reference for ``not_in_ideal_check``, as it was before the sparse
    echelon basis: each degree's span, sigma1 * Q^(d-2) and
    sigma2 * Q^(d-M) as dense rows, is eliminated into its null space, and
    a candidate lies in the span exactly when its row is orthogonal to
    that null space."""
    M = sys.mirrors
    kernels = {}
    for candidate in candidates:
        if not candidate.is_homogeneous():
            raise ValueError("candidate must be homogeneous")
        if candidate.is_zero():
            return False
        d = candidate.degree()
        if d not in kernels:
            span = []
            if d >= 2:
                span += [[0, *v, 0]
                         for v in nullspace(grouped_rows(sys, d - 2), d - 1)]
            if d >= M:
                # sigma2 * v: z^M keeps each entry, zb^M moves it M on
                span += [[x + y for x, y in zip([*v] + [0] * M,
                                                [0] * M + [*v])]
                         for v in nullspace(grouped_rows(sys, d - M),
                                            d - M + 1)]
            kernels[d] = nullspace(span, ncols=d + 1)
        row = coefficient_row(candidate, d)
        if not any(sum(x * y for x, y in zip(row, v)) for v in kernels[d]):
            return False
    return True


@lru_cache(maxsize=None)
def _generators(sys):
    return [e.poly for e in full_basis(sys).entries]


@st.composite
def system_and_candidate(draw):
    mirrors = draw(st.integers(1, 8))
    me = draw(st.integers(0, 2))
    mo = me if mirrors % 2 else draw(st.integers(0, 2))
    sys = DihedralSystem(mirrors, me, mo)
    gens = _generators(sys)
    kind = draw(st.sampled_from(["combination", "sigma1", "sigma2", "piece",
                                 "zero", "outside"]))
    if kind == "combination":
        d = draw(st.sampled_from([g.degree() for g in gens]))
        p = BiPoly.zero()
        for g in gens:
            if g.degree() == d:
                p = p + g.scale(Fraction(draw(st.integers(-5, 5))))
    elif kind in ("sigma1", "sigma2"):
        g = draw(st.sampled_from(gens))
        sigma = (BiPoly.monomial(1, 1) if kind == "sigma1" else
                 BiPoly.monomial(mirrors, 0) + BiPoly.monomial(0, mirrors))
        p = sigma * g
    elif kind == "piece":
        piece = quasi_basis(sys, draw(st.integers(0, 12)))
        assume(piece)
        p = draw(st.sampled_from(piece))
    elif kind == "zero":
        p = BiPoly.zero()
    else:
        d = draw(st.integers(1, 10))
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
        p = BiPoly({(a, d - a): draw(coeff) for a in range(d + 1)})
        assume(not check_per_line(sys, p).ok)
    return sys, kind, p


@settings(max_examples=60, deadline=None)
@given(system_and_candidate())
def test_not_in_ideal_matches_rank_reference(case):
    sys, kind, p = case
    outside = not_in_ideal_check(sys, p)
    assert outside == (not in_ideal_by_rank(sys, p))
    assert outside == not_in_ideal_by_nullspace(sys, p)
    if kind in ("sigma1", "sigma2", "zero"):
        assert not outside
    if kind == "outside":
        assert outside


def cli_candidates(sys, seed=7):
    """The candidates of the ``ideal_complement`` check of ``verify``."""
    rng = random.Random(seed)
    by_name = {e.name: e.poly for e in full_basis(sys).entries}
    out = [by_name[n] for n in ("q1", "q2", "q3") if n in by_name]
    for i in valid_indices(sys):
        first, second = by_name[f"q1_{i}"], by_name[f"q2_{i}"]
        out += [first, second]
        for _ in range(3):
            w1, w2 = 0, 0
            while w1 == 0 and w2 == 0:
                w1, w2 = rng.randint(-5, 5), rng.randint(-5, 5)
            out.append(first.scale(Fraction(w1)) +
                       second.scale(Fraction(w2)))
    return out


IDEAL_GRID = [DihedralSystem(1, 1, 1), DihedralSystem(2, 1, 0),
              DihedralSystem(2, 0, 3), DihedralSystem(4, 1, 0),
              DihedralSystem(4, 0, 1), DihedralSystem(6, 1, 2),
              DihedralSystem(8, 2, 1), DihedralSystem(12, 2, 2),
              DihedralSystem.uniform(3, 1), DihedralSystem.uniform(7, 2)]


@pytest.mark.parametrize("sys", IDEAL_GRID, ids=str)
def test_not_in_ideal_matches_the_nullspace_reference(sys):
    candidates = cli_candidates(sys)
    assert not_in_ideal_check(sys, *candidates)
    assert not_in_ideal_by_nullspace(sys, *candidates)
    for p in candidates:
        assert not_in_ideal_check(sys, p) == \
            not_in_ideal_by_nullspace(sys, p)


def _ideal_members(sys):
    """sigma1 * g, sigma2 * g and sigma1 * g + sigma2 * h for generators
    and quasi-invariants g, h of matching degrees: all in the ideal."""
    M = sys.mirrors
    sigma1 = BiPoly.monomial(1, 1)
    sigma2 = BiPoly.monomial(M, 0) + BiPoly.monomial(0, M)
    gens = _generators(sys)
    members = [sigma1 * g for g in gens] + [sigma2 * g for g in gens]
    for g in gens:
        # h of degree deg g + 2 - M, so that both products share a degree
        e = g.degree() + 2 - M
        for h in quasi_basis(sys, e) if e >= 0 else []:
            members.append(sigma1 * g + sigma2 * h.scale(Fraction(-2, 3)))
    return members


@pytest.mark.parametrize("sys", IDEAL_GRID, ids=str)
def test_ideal_members_are_reported_inside(sys):
    members = _ideal_members(sys)
    # some sigma1 * g + sigma2 * h were built
    assert len(members) > 2 * len(_generators(sys))
    for p in members:
        assert not not_in_ideal_check(sys, p), p
    assert not not_in_ideal_check(sys, BiPoly.zero())
    # only the last candidate lies in the ideal
    outside = cli_candidates(sys)
    assert not_in_ideal_check(sys, *outside)
    for p in members:
        assert not not_in_ideal_check(sys, *outside, p)


@pytest.mark.parametrize("sys", [DihedralSystem(1, 1, 1), DihedralSystem(2, 0, 3),
                                 DihedralSystem(4, 1, 0), DihedralSystem(6, 1, 2),
                                 DihedralSystem(8, 2, 1),
                                 DihedralSystem.uniform(5, 1),
                                 DihedralSystem.uniform(7, 2)], ids=str)
def test_not_in_ideal_matches_rank_reference_in_either_order(sys):
    # the candidates of one call share the two null chains and the ideal's
    # bases; in descending order every candidate reduces against a prefix
    # of a basis grown past its degree
    rng = random.Random(sys.mirrors)
    M = sys.mirrors
    sigma1 = BiPoly.monomial(1, 1)
    sigma2 = BiPoly.monomial(M, 0) + BiPoly.monomial(0, M)
    gens = _generators(sys)
    candidates = [sigma1 * g for g in gens] + [sigma2 * g for g in gens]
    for g in gens:
        e = g.degree() - M
        candidates += [g + sigma2 * h.scale(rng.randint(-3, 3))
                       for h in (quasi_basis(sys, e) if e >= 0 else [])]
    for d in range(1, 16):
        piece = quasi_basis(sys, d)
        if piece:
            r = sum((q.scale(rng.randint(-3, 3)) for q in piece),
                    BiPoly.zero())
            if not r.is_zero():
                candidates += [r, sigma1 * r]
    inside = [p for p in candidates if in_ideal_by_rank(sys, p)]
    outside = [p for p in candidates if not in_ideal_by_rank(sys, p)]
    assert inside and len(outside) > len(gens)
    for reverse in (True, False):
        order = sorted(outside, key=BiPoly.degree, reverse=reverse)
        assert not_in_ideal_check(sys, *order)
        for p in inside:
            assert not not_in_ideal_check(sys, *order, p), p


def test_a_member_checked_after_an_outsider_of_its_degree_is_inside():
    # checking the outsider leaves the degree's span basis as it was: had
    # its row been inserted, outsider + member would be reported inside
    sys = DihedralSystem(8, 2, 1)
    by_name = {e.name: e.poly for e in full_basis(sys).entries}
    sigma1 = BiPoly.monomial(1, 1)
    low = by_name["q1_1"]
    member = sigma1 * low
    outsider = next(e.poly for e in full_basis(sys).entries
                    if e.degree == member.degree())
    assert not_in_ideal_check(sys, outsider)
    mixed = outsider + member
    assert not_in_ideal_check(sys, outsider, mixed)
    assert not not_in_ideal_check(sys, outsider, member)
    assert not not_in_ideal_check(sys, outsider, outsider, member)


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
        bad = entry._replace(poly=entry.poly + BiPoly.monomial(
            entry.degree - 1, 1).scale(Fraction(7)))
        entries = gens.entries[:k] + (bad,) + gens.entries[k + 1:]
        report = freeness_check(sys, GeneratorSet(sys, entries, "solver"), 40)
        assert not report.ok
        assert report.non_members == ("q1_1",)
        assert report.to_dict()["non_members"] == ["q1_1"]
        assert all(row.ok for row in report.rows)


def test_freeness_refuses_a_generator_of_another_degree():
    # a generator's row is read at the degree of its entry, so a term of
    # another degree would land in the wrong columns
    gens = full_basis(SYS210)
    for poly in (gens.entries[-1].poly + BiPoly.monomial(1, 0),
                 BiPoly.monomial(2, 1)):
        entries = gens.entries[:-1] + (gens.entries[-1]._replace(poly=poly),)
        with pytest.raises(RowDegreeMismatch):
            freeness_check(SYS210, GeneratorSet(SYS210, entries, "solver"), 8)


def test_freeness_report_omits_empty_non_members():
    report = freeness_check(SYS210, full_basis(SYS210), 8)
    assert report.ok and report.non_members == ()
    assert "non_members" not in report.to_dict()


def reference_ranks(sys, gens, d_max):
    """(product_count, span_rank) per degree, with every degree's products
    multiplied out as polynomials and eliminated afresh by ``exact_rank``:
    the rank ``freeness_check`` computed before it followed sigma1 chains."""
    M = sys.mirrors
    sigma2 = BiPoly.monomial(M, 0) + BiPoly.monomial(0, M)
    ladders = []   # ladders[k][b] = sigma2^b * g_k
    for entry in gens.entries:
        ladder = [entry.poly]
        for _ in range((d_max - entry.degree) // M):
            ladder.append(sigma2 * ladder[-1])
        ladders.append(ladder)
    out = []
    for d in range(d_max + 1):
        rows = []
        for entry, ladder in zip(gens.entries, ladders):
            for b, p in enumerate(ladder):
                rest = d - entry.degree - M * b
                if rest >= 0 and rest % 2 == 0:
                    a = rest // 2
                    rows.append(coefficient_row(BiPoly.monomial(a, a) * p, d))
        out.append((len(rows), exact_rank(rows, ncols=d + 1)))
    return out


def default_window(sys):
    return poincare_for_system(sys).top_degree + 2 * sys.mirrors


RANK_GRID = [DihedralSystem(4, 1, 0), DihedralSystem(6, 1, 2),
             DihedralSystem(8, 2, 1), DihedralSystem(2, 1, 3),
             DihedralSystem(12, 2, 2), DihedralSystem.uniform(7, 2),
             DihedralSystem.uniform(5, 1), DihedralSystem.uniform(3, 0)]


@pytest.mark.parametrize("sys", RANK_GRID, ids=str)
def test_chain_ranks_match_per_degree_reference(sys):
    gens = full_basis(sys)
    d_max = default_window(sys)
    report = freeness_check(sys, gens, d_max)
    assert [(r.product_count, r.span_rank) for r in report.rows] == \
        reference_ranks(sys, gens, d_max)
    assert report.ok


def _sabotage(gens, kind):
    """A generator set that is not a free basis (or, for "scaled" and
    "sum_one", one with a changed but equivalent span)."""
    entries = list(gens.entries)
    by_degree = {}
    for k, e in enumerate(entries):
        by_degree.setdefault(e.degree, []).append(k)
    i, j = next(ks[:2] for d, ks in sorted(by_degree.items()) if len(ks) > 1)
    total = entries[i].poly + entries[j].poly
    if kind == "sum_both":
        # both generators of a pair become their sum: the products repeat
        entries[i] = entries[i]._replace(poly=total)
        entries[j] = entries[j]._replace(poly=total)
    elif kind == "sum_one":
        entries[j] = entries[j]._replace(poly=total)
    elif kind == "sigma1":
        # sigma1 * g in place of a generator two degrees above g
        k, low = next((k, low) for k, e in enumerate(entries)
                      for low in entries
                      if low.degree == e.degree - 2 and low is not e)
        entries[k] = entries[k]._replace(poly=BiPoly.monomial(1, 1) * low.poly)
    elif kind == "scaled":
        entries[j] = entries[j]._replace(
            poly=entries[j].poly.scale(Fraction(1, 3)))
    elif kind == "zero":
        entries[j] = entries[j]._replace(poly=BiPoly.zero())
    return GeneratorSet(gens.system, tuple(entries), "solver")


@pytest.mark.parametrize("kind", ["sum_both", "sum_one", "sigma1", "scaled",
                                  "zero"])
@pytest.mark.parametrize("sys", [DihedralSystem(8, 2, 1),
                                 DihedralSystem(4, 1, 0),
                                 DihedralSystem.uniform(7, 2)], ids=str)
def test_chain_ranks_match_reference_on_sabotaged_bases(sys, kind):
    bad = _sabotage(full_basis(sys), kind)
    d_max = default_window(sys)
    report = freeness_check(sys, bad, d_max)
    reference = reference_ranks(sys, bad, d_max)
    assert [(r.product_count, r.span_rank) for r in report.rows] == reference
    reference_ok = [r.expected_dim == r.oracle_dim == count == rank
                    for r, (count, rank) in zip(report.rows, reference)]
    assert [r.ok for r in report.rows] == reference_ok
    if kind in ("sum_both", "sigma1", "zero"):
        # the products are dependent from the sabotaged degree on
        assert any(count > rank for count, rank in reference)
        assert not report.ok
    else:
        assert report.ok


def reference_report(sys, gens, d_max):
    """The ``FreenessReport`` assembled from ``reference_ranks``, the
    Hilbert series, the dimension oracle and the per-line check."""
    hilbert = hilbert_from_poincare(poincare_for_system(sys), sys.mirrors,
                                    d_max).to_list(d_max)
    oracle = quasi_dimensions(sys, d_max)
    rows = tuple(DegreeRow(d, hilbert[d], oracle[d], count, rank)
                 for d, (count, rank) in
                 enumerate(reference_ranks(sys, gens, d_max)))
    non_members = tuple(e.name for e in gens.entries if e.degree <= d_max
                        and not check_per_line(sys, e.poly).ok)
    return FreenessReport(d_max, rows, not non_members and
                          all(r.ok for r in rows), non_members)


@pytest.mark.parametrize("sys, kind", [
    *((sys, None) for sys in RANK_GRID),
    *((sys, kind) for sys in (DihedralSystem(8, 2, 1),
                              DihedralSystem.uniform(7, 2))
      for kind in ("scaled", "sum_both"))], ids=str)
def test_freeness_ladder_adds_only_integers(sys, kind, monkeypatch):
    """The chain rows are cleared of denominators before the ladder, so
    ``reduce_into`` sees only int rows, and the report is the reference's,
    also on a basis with fractional coefficients ("scaled" by 1/3)."""
    gens = full_basis(sys)
    if kind:
        gens = _sabotage(gens, kind)
    seen = []

    def integer_only(basis, row):
        seen.extend(type(x) for x in row.values())
        return reduce_into(basis, row)

    monkeypatch.setattr(modstruct, "reduce_into", integer_only)
    d_max = default_window(sys)
    report = freeness_check(sys, gens, d_max)
    assert set(seen) == {int}
    assert report == reference_report(sys, gens, d_max)


@pytest.mark.parametrize("argv, fractional", [
    (["--mirrors", "6", "--mult-even", "1", "--mult-odd", "2"], 6),
    (["--mirrors", "8", "--mult-even", "2", "--mult-odd", "1"], 10),
    (["--mirrors", "12", "--mult-even", "2", "--mult-odd", "2"], 18),
    (["--mirrors", "7", "--mult", "2"], 12)],
    ids=["6,1,2", "8,2,1", "12,2,2", "7,2"])
def test_verify_reduces_integer_rows_only(capsys, monkeypatch, argv,
                                          fractional):
    """Every row that ``modstruct`` reduces during ``verify``, the ideal
    check's candidates too, is a dict of ints, though ``fractional``
    generators of the basis have a Fraction coefficient."""
    args = cli.build_parser().parse_args(["verify", *argv])
    sys = cli._system_from_args(args.subparser, args)
    assert sum(any(type(c) is Fraction for c in e.poly.terms.values())
               for e in full_basis(sys).entries) == fractional
    seen = []

    def spy(basis, row):
        seen.append({type(x) for x in row.values()})
        return reduce_into(basis, row)

    monkeypatch.setattr(modstruct, "reduce_into", spy)
    assert cli.main(["verify", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert len(seen) > 100 and set().union(*seen) == {int}
