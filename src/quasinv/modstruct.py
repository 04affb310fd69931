"""Degree-by-degree verification of the free module structure.

Freeness of the quasi-invariants over the invariant subring predicts, at
every degree d, that the products sigma1^a sigma2^b g over all generators g
with 2a + M b + deg g = d are linearly independent and span the whole graded
piece.  Both statements reduce to one exact rank computation per degree,
compared against two independent dimension counts: the Hilbert series from
the closed-form Poincare polynomial, and the null-space count of the
quasi-invariance conditions.  Counting alone cannot see a generator outside
Q, so every generator of degree at most d_max must also pass the per-line
check; the products then lie in Q too, because Q is a ring that contains
the invariants.

The products are coefficient rows, never multiplied out.  Each generator
gets one ladder of rows for sigma2^b g: multiplying by sigma2 = z^M + zb^M
adds a row to itself moved M places on.  Multiplying by sigma1^a = z^a zb^a
moves a row a places on and pads it to length d + 1.

Membership in the ideal I generated by the positive-degree invariants is a
null-space question: within degree d, I is spanned by sigma1 * Q^(d-2) and
sigma2 * Q^(d-M), where the rows of Q^e are the null-space vectors of
``quasi.grouped_rows`` at degree e.  Each degree's span is eliminated once,
and a candidate lies in it exactly when its row is orthogonal to the null
space.  I lies inside Q, so a polynomial outside Q is rightly reported
outside I: no guard.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipoly import BiPoly
from .dihedral import DihedralSystem
from .generators import GeneratorSet
from .poincare import hilbert_from_poincare, poincare_for_system
from .quasi import (check_per_line, coefficient_row, grouped_rows,
                    quasi_dimension)
from .scalars import exact_rank, nullspace


@dataclass(frozen=True)
class DegreeRow:
    degree: int
    expected_dim: int
    oracle_dim: int
    product_count: int
    span_rank: int

    @property
    def ok(self) -> bool:
        return (self.expected_dim == self.oracle_dim ==
                self.product_count == self.span_rank)

    def to_dict(self):
        return {"degree": self.degree, "expected_dim": self.expected_dim,
                "oracle_dim": self.oracle_dim,
                "product_count": self.product_count,
                "span_rank": self.span_rank, "ok": self.ok}


@dataclass(frozen=True)
class FreenessReport:
    """``non_members`` names the generators of degree at most
    ``max_degree`` that fail the per-line check, so are not in Q."""
    max_degree: int
    rows: tuple[DegreeRow, ...]
    ok: bool
    non_members: tuple[str, ...] = ()

    def to_dict(self):
        out = {"max_degree": self.max_degree, "ok": self.ok,
               "degrees": [r.to_dict() for r in self.rows]}
        if self.non_members:
            out["non_members"] = list(self.non_members)
        return out


def _sigma2_times(row: list, M: int) -> list:
    """The row of sigma2 * p from the row of p: z^M keeps each entry in
    place and zb^M moves it M places on."""
    return [x + y for x, y in zip(row + [0] * M, [0] * M + row)]


def freeness_check(sys: DihedralSystem, gens: GeneratorSet,
                   d_max: int) -> FreenessReport:
    M = sys.mirrors
    hilbert = hilbert_from_poincare(poincare_for_system(sys), M,
                                    d_max).to_list(d_max)
    entries = [e for e in gens.entries if e.degree <= d_max]
    non_members = tuple(e.name for e in entries
                        if not check_per_line(sys, e.poly).ok)
    # ladders[k][b] is the row of sigma2^b * g_k
    ladders = []
    for entry in entries:
        ladder = [coefficient_row(entry.poly, entry.degree)]
        for _ in range((d_max - entry.degree) // M):
            ladder.append(_sigma2_times(ladder[-1], M))
        ladders.append(ladder)
    rows = []
    for d in range(d_max + 1):
        vectors = []
        for entry, ladder in zip(entries, ladders):
            rem = d - entry.degree
            if rem < 0:
                continue
            for b in range(rem // M + 1):
                r2 = rem - M * b
                if r2 % 2:
                    continue
                a = r2 // 2
                # sigma1^a = z^a zb^a shifts the row by a places
                vectors.append([0] * a + ladder[b] + [0] * a)
        rows.append(DegreeRow(
            degree=d,
            expected_dim=hilbert[d],
            oracle_dim=quasi_dimension(sys, d),
            product_count=len(vectors),
            span_rank=exact_rank(vectors, ncols=d + 1)))
    return FreenessReport(max_degree=d_max, rows=tuple(rows),
                          non_members=non_members,
                          ok=not non_members and all(r.ok for r in rows))


def not_in_ideal_check(sys: DihedralSystem, *candidates: BiPoly) -> bool:
    """True when no homogeneous candidate lies in the ideal I spanned by the
    positive-degree invariants; the first candidate inside I ends the check.
    Exact for any polynomial, because I lies inside Q: a caller that wants
    "nonzero in Q/I" must establish membership in Q first."""
    if not candidates:
        raise ValueError("need at least one candidate")
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
                span += [_sigma2_times(list(v), M) for v in
                         nullspace(grouped_rows(sys, d - M), d - M + 1)]
            kernels[d] = nullspace(span, ncols=d + 1)
        row = coefficient_row(candidate, d)
        # the span is the orthogonal complement of its null space
        if not any(sum(x * y for x, y in zip(row, v) if y)
                   for v in kernels[d]):
            return False
    return True
