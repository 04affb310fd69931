"""Degree-by-degree verification of the free module structure.

Freeness of the quasi-invariants over the invariant subring predicts, at
every degree d, that the products sigma1^a sigma2^b g over all generators g
with 2a + M b + deg g = d are linearly independent and span the whole graded
piece.  Both statements reduce to the rank of the products of each degree,
compared against two independent dimension counts: the Hilbert series from
the closed-form Poincare polynomial, and the corank of the quasi-invariance
conditions, whose rank ``quasi.quasi_dimensions`` reads off two parity
chains of degrees, kept per row set and stopped once full.  Counting alone
cannot see a generator outside Q, so every generator of degree at most
d_max must also pass the per-line check; the products then lie in Q too,
because Q is a ring that contains the invariants.

The products are coefficient rows, never multiplied out.  Each generator
gets one ladder of sparse rows for sigma2^b g: multiplying by
sigma2 = z^M + zb^M adds a row to itself moved M places on, and entries
that cancel are dropped.  Multiplying by sigma1 = z zb moves a row one
place on.  The row of g is its cleared integer terms from
``quasi.component_terms``, g times the lcm of its denominators: scaling a
row keeps every span rank, so the ladder and the reduction add only ints.

The ranks are not computed afresh at each degree.  The products of degree d
with a >= 1 are exactly sigma1 times the products of degree d - 2, and the
others are the new rows sigma2^b g with deg g + M b = d.  Multiplying by
sigma1 is injective and moves every row one column on, so the shifted
products of degree d - 2 span a space of the same rank, and

    span_rank(d) = span_rank(d - 2) + (new rows independent modulo it),
    product_count(d) = product_count(d - 2) + (number of new rows).

This holds whether or not the products are independent, so a basis that is
not free gets the rank a fresh elimination would give.  Degrees of one
parity form a chain, and each chain keeps one echelon basis
(``scalars.reduce_into``) whose columns are counted from d // 2: column c of
degree d is column c - d // 2 of the chain, so the shift by sigma1 moves no
stored row, and each degree only reduces its new rows.

Membership in the ideal I generated by the positive-degree invariants is a
span question: within degree d, I is spanned by sigma1 * Q^(d-2) and
sigma2 * Q^(d-M).  Its rows grow along the same chains of degrees.  In the
columns of the chain of d, counted from d // 2, sigma1 moves no row, and
the null vectors of one ``quasi._NullChain`` per parity found up to degree
e span Q^e, so with Q_new(e) those first found at degree e,

    I_d = I_(d-2) + Q_new(d-2) + sigma2 * Q_new(d-M),

where sigma2 * v is v plus v moved M columns on, recounted from the middle
of degree d (``_sigma2_times_chain``).  Each parity keeps one echelon basis
of I (``scalars.reduce_into``), grown as far as a candidate's degree, with
its length at every degree.  A row lies in the span exactly when it
reduces to zero, which is when ``reduce_into`` returns False: reduction
changes a row only by a nonzero factor and by multiples of basis rows, and
a nonzero remainder leads where no basis row leads.  ``reduce_into`` never
changes or removes a row, and a dict keeps insertion order, so the basis of
I_d is the first rows of its parity's basis, as many as at degree d: a
candidate is reduced against a copy of them, which leaves the basis as it
was, in any order of degrees.  I lies inside Q, so a polynomial outside Q is
rightly reported outside I: no guard.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .bipoly import BiPoly, rational_only
from .dihedral import DihedralSystem
from .errors import RowDegreeMismatch
from .generators import GeneratorSet
from .poincare import hilbert_from_poincare, poincare_for_system
from .quasi import (_NullChain, check_per_line, component_terms,
                    quasi_dimensions, row_classes)
from .scalars import reduce_into


class DegreeRow(NamedTuple):
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


class FreenessReport(NamedTuple):
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


def _chain_row(p: BiPoly, degree: int) -> dict:
    """The sparse chain row of p, of ``degree``: the cleared integer terms
    c z^a zb^b of ``quasi.component_terms`` at columns b - degree // 2, so
    the empty row when p is zero; RowDegreeMismatch for another degree."""
    parts = component_terms(p)
    if any(d != degree for d, _, _ in parts):
        raise RowDegreeMismatch(f"p has a term not of degree {degree}")
    return {b - degree // 2: c for _, terms, _ in parts for _, b, c in terms}


def _sigma2_times_chain(row: dict, M: int, shift: int) -> dict:
    """The sparse chain row of sigma2 * p from that of p, whose degree d
    becomes d + M with ``shift`` = (d + M) // 2 - d // 2: each entry stays
    in place (z^M) and moves M places on (zb^M), and the chain of d + M
    counts its columns from ``shift`` places further on.  Entries that
    cancel are dropped."""
    out = {}
    for c, x in row.items():
        for t in (c - shift, c + M - shift):
            v = out.get(t, 0) + x
            if v:
                out[t] = v
            else:
                del out[t]
    return out


def freeness_check(sys: DihedralSystem, gens: GeneratorSet,
                   d_max: int) -> FreenessReport:
    M = sys.mirrors
    hilbert = hilbert_from_poincare(poincare_for_system(sys), M,
                                    d_max).to_list(d_max)
    oracle = quasi_dimensions(sys, d_max)
    entries = [e for e in gens.entries if e.degree <= d_max]
    non_members = tuple(e.name for e in entries
                        if not check_per_line(sys, e.poly).ok)
    # fresh[d] holds the sparse rows of sigma2^b * g with deg g + M b = d,
    # in the columns of the chain of d: column c of degree d is column
    # c - d // 2 of its chain
    fresh = [[] for _ in range(d_max + 1)]
    for entry in entries:
        e = entry.degree
        row = _chain_row(entry.poly, e)
        for d in range(e, d_max + 1, M):
            fresh[d].append(row)
            if d + M <= d_max:
                row = _sigma2_times_chain(row, M, (d + M) // 2 - d // 2)
    bases = ({}, {})
    counts = [0, 0]
    rows = []
    for d in range(d_max + 1):
        basis = bases[d % 2]
        counts[d % 2] += len(fresh[d])
        for row in fresh[d]:
            reduce_into(basis, row)
        rows.append(DegreeRow(
            degree=d,
            expected_dim=hilbert[d],
            oracle_dim=oracle[d],
            product_count=counts[d % 2],
            span_rank=len(basis)))
    return FreenessReport(max_degree=d_max, rows=tuple(rows),
                          non_members=non_members,
                          ok=not non_members and all(r.ok for r in rows))


def not_in_ideal_check(sys: DihedralSystem, *candidates: BiPoly) -> bool:
    """True when no homogeneous candidate lies in the ideal I spanned by the
    positive-degree invariants; the first candidate inside I ends the check.
    Exact for any rational polynomial, because I lies inside Q: a caller
    that wants "nonzero in Q/I" must establish membership in Q first.  A
    candidate with cyclotomic coefficients is refused by
    ``bipoly.rational_only``: the span rows are rational, and the reduction
    handles rationals only."""
    if not candidates:
        raise ValueError("need at least one candidate")
    M = sys.mirrors
    classes = row_classes(sys)
    chains = (_NullChain(classes, 0), _NullChain(classes, 1))
    # bases[e]: the echelon basis of I along the degrees of parity e, in
    # chain columns; sizes[e][k]: its length at degree e + 2k
    bases, sizes = ({}, {}), ([], [])
    for candidate in candidates:
        if not candidate.is_homogeneous():
            raise ValueError("candidate must be homogeneous")
        rational_only(candidate, "the ideal check")
        if candidate.is_zero():
            return False
        d = candidate.degree()
        basis, size = bases[d % 2], sizes[d % 2]
        while len(size) <= d // 2:
            e = d % 2 + 2 * len(size)
            for v in chains[e % 2].new_at(e - 2) if e >= 2 else ():
                reduce_into(basis, v)
            for v in chains[(e - M) % 2].new_at(e - M) if e >= M else ():
                reduce_into(basis,
                            _sigma2_times_chain(v, M, e // 2 - (e - M) // 2))
            size.append(len(basis))
        row = _chain_row(candidate, d)
        # the rows of degree d are the first size[d // 2] rows inserted
        if not reduce_into(dict(islice(basis.items(), size[d // 2])), row):
            return False
    return True
