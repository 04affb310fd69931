"""Degree-by-degree verification of the free module structure.

Freeness of the quasi-invariants over the invariant subring predicts, at
every degree d, that the products sigma1^a sigma2^b g over all generators g
with 2a + M b + deg g = d are linearly independent and span the whole graded
piece.  Both statements reduce to one exact rank computation per degree,
compared against two independent dimension counts: the Hilbert series from
the closed-form Poincare polynomial, and the null-space count of the
quasi-invariance conditions.

Membership in the ideal generated by the positive-degree invariants is
likewise a rank question: within degree d that ideal is spanned by
sigma1 * Q^(d-2) and sigma2 * Q^(d-M), with the graded pieces Q^(k) taken
from the null-space machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipoly import BiPoly
from .dihedral import DihedralSystem
from .errors import NotQuasiInvariant, RowDegreeMismatch
from .generators import GeneratorSet
from .poincare import hilbert_from_poincare, poincare_for_system
from .quasi import check_per_line, quasi_basis, quasi_dimension
from .scalars import exact_rank


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
    max_degree: int
    rows: tuple[DegreeRow, ...]
    ok: bool

    def to_dict(self):
        return {"max_degree": self.max_degree, "ok": self.ok,
                "degrees": [r.to_dict() for r in self.rows]}


def _coeff_row(p: BiPoly, degree: int) -> list:
    """Entry s is the coefficient of z^(degree-s) zb^s, an int when it is
    integral; filled from the terms of p, which must all have that degree."""
    row = [0] * (degree + 1)
    for (a, b), c in p.terms.items():
        if a + b != degree:
            raise RowDegreeMismatch(
                f"term z^{a}*zb^{b} does not have degree {degree}")
        row[b] = c.numerator if c.denominator == 1 else c
    return row


def freeness_check(sys: DihedralSystem, gens: GeneratorSet,
                   d_max: int) -> FreenessReport:
    M = sys.mirrors
    hilbert = hilbert_from_poincare(poincare_for_system(sys), M, d_max)
    _, sigma2 = sys.invariant_generators()
    sigma2_pows = [BiPoly.constant(1)]
    while len(sigma2_pows) <= d_max // M:
        sigma2_pows.append(sigma2_pows[-1] * sigma2)
    rows = []
    for d in range(d_max + 1):
        vectors = []
        for entry in gens.entries:
            rem = d - entry.degree
            if rem < 0:
                continue
            for b in range(rem // M + 1):
                r2 = rem - M * b
                if r2 % 2:
                    continue
                a = r2 // 2
                # sigma1^a is the monomial z^a zb^a
                product = BiPoly.monomial(a, a) * sigma2_pows[b] * entry.poly
                vectors.append(_coeff_row(product, d))
        rows.append(DegreeRow(
            degree=d,
            expected_dim=hilbert[d],
            oracle_dim=quasi_dimension(sys, d),
            product_count=len(vectors),
            span_rank=exact_rank(vectors, ncols=d + 1)))
    return FreenessReport(max_degree=d_max, rows=tuple(rows),
                          ok=all(r.ok for r in rows))


def not_in_ideal_check(sys: DihedralSystem, candidate: BiPoly) -> bool:
    """True when a homogeneous quasi-invariant lies outside the ideal spanned
    by the positive-degree invariants (an exact rank comparison)."""
    if not candidate.is_homogeneous():
        raise ValueError("candidate must be homogeneous")
    if not check_per_line(sys, candidate).ok:
        raise NotQuasiInvariant("candidate fails the per-line checks")
    if candidate.is_zero():
        return False
    d = candidate.degree()
    M = sys.mirrors
    span = []
    if d >= 2:
        for u in quasi_basis(sys, d - 2):
            span.append(_coeff_row(BiPoly.monomial(1, 1) * u, d))
    if d >= M:
        sigma2 = sys.invariant_generators()[1]
        for v in quasi_basis(sys, d - M):
            span.append(_coeff_row(sigma2 * v, d))
    base_rank = exact_rank(span, ncols=d + 1)
    full_rank = exact_rank(span + [_coeff_row(candidate, d)], ncols=d + 1)
    return full_rank == base_rank + 1
