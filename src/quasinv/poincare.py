"""Closed-form Poincare polynomials of dihedral m-harmonic spaces and the
Hilbert series of the quasi-invariant ring they induce.

For an even arrangement of 2N lines with class multiplicities (m, n) the
graded dimensions of the harmonic space are

    1 + t^{(2n+1)N} + t^{(2m+1)N} + t^{2N(m+n+1)}
      + 2 * sum_{i=1..N-1} t^{(m+n)N} (t^i + t^{2N-i}),

and for an odd arrangement of N lines with multiplicity m they are

    1 + 2 * sum_{i=1..N-1} t^{mN+i} + t^{(2m+1)N}.

Both evaluate to the group order at t = 1 and are palindromic.  The
quasi-invariant ring is a free module over the invariants C[z zb, z^M+zb^M],
and the exponents of the Poincare polynomial, counted with their
coefficients, are the degrees of its free generators: ``degree_table`` reads
them off, and ``generators.full_basis`` checks the built basis against it.
Its Hilbert series is the Poincare polynomial divided by (1-t^2)(1-t^M);
the quotient is computed coefficient by coefficient with the linear
recurrence coming from the denominator, all in integer arithmetic.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .dihedral import DihedralSystem
from .errors import EvenMirrorCount


class SeriesPoly(NamedTuple):
    """Finitely supported integer coefficient map, canonically sorted."""

    coeffs: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, mapping) -> SeriesPoly:
        return cls(tuple(sorted((d, c) for d, c in mapping.items() if c)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    @property
    def top_degree(self) -> int:
        return max((d for d, _ in self.coeffs), default=0)

    def to_list(self, d_max: int) -> list[int]:
        data = self.as_dict()
        return [data.get(d, 0) for d in range(d_max + 1)]


def _check_arguments(N: int, *mults: int) -> None:
    """ValueError unless N >= 1 and no multiplicity is negative."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if min(mults) < 0:
        raise ValueError("multiplicities must be nonnegative")


def poincare_even(N: int, m: int, n: int) -> SeriesPoly:
    """Graded dimensions of the harmonic space for 2N mirror lines with
    multiplicities m (even-index class) and n (odd-index class)."""
    _check_arguments(N, m, n)
    coeffs: Counter[int] = Counter()
    coeffs[0] += 1
    coeffs[(m + n + 1) * 2 * N] += 1
    coeffs[(2 * m + 1) * N] += 1
    coeffs[(2 * n + 1) * N] += 1
    for i in range(1, N):
        coeffs[(m + n) * N + i] += 2
        coeffs[(m + n) * N + 2 * N - i] += 2
    return SeriesPoly.from_dict(coeffs)


def poincare_odd(N: int, m: int) -> SeriesPoly:
    """Graded dimensions of the harmonic space for an odd number N of mirror
    lines with constant multiplicity m."""
    _check_arguments(N, m)
    if N % 2 == 0:
        raise EvenMirrorCount("odd mirror count required")
    coeffs: Counter[int] = Counter()
    coeffs[0] += 1
    coeffs[(2 * m + 1) * N] += 1
    for i in range(1, N):
        coeffs[m * N + i] += 2
    return SeriesPoly.from_dict(coeffs)


def poincare_for_system(sys: DihedralSystem) -> SeriesPoly:
    if sys.is_even:
        return poincare_even(sys.period, sys.mult_even, sys.mult_odd)
    return poincare_odd(sys.mirrors, sys.mult_even)


def hilbert_from_poincare(P: SeriesPoly, mirrors: int, d_max: int) -> SeriesPoly:
    """Coefficients up to d_max of P(t) / ((1 - t^2)(1 - t^mirrors)).

    The denominator expands to 1 - t^2 - t^M + t^{M+2}, giving the exact
    integer recurrence h_d = P_d + h_{d-2} + h_{d-M} - h_{d-M-2}.
    """
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    M = mirrors
    p = P.as_dict()
    h = [0] * (d_max + 1)
    for d in range(d_max + 1):
        value = p.get(d, 0)
        if d >= 2:
            value += h[d - 2]
        if d >= M:
            value += h[d - M]
        if d >= M + 2:
            value -= h[d - M - 2]
        h[d] = value
    return SeriesPoly.from_dict({d: c for d, c in enumerate(h)})


def degree_table(sys: DihedralSystem) -> list[int]:
    """The 2M generator degrees in ascending order: each exponent of the
    Poincare polynomial, as many times as its coefficient."""
    return [d for d, count in poincare_for_system(sys).coeffs
            for _ in range(count)]
