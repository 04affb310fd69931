"""The planar Calogero-Moser operator of the degree-two invariant, applied
exactly, and the verifications built on it.

On a polynomial p the operator acts as

    L p = 4 d/dz d/dzb p
          + sum_j 4 mult_j (zeta^j dp/dz - dp/dzb) / (z - zeta^j zb),

one term per mirror line with positive multiplicity.  Numerator and
denominator of each term are the half-angle forms rescaled by the same unit,
so everything stays inside Q(zeta_M).  When p is quasi-invariant every
numerator vanishes on its line, the divisions are exact, and the image is a
polynomial of degree two lower; on other inputs a failed division is a
legitimate outcome, reported as a non-polynomial result rather than an
error.

The sum over lines has a closed form.  Write w = zeta^j.  If f vanishes on
the line z = w zb, then f = sum c zb^b (z^a - (w zb)^a) over its terms
c z^a zb^b, because the subtracted part is the restriction of f to the
line, and (z^a - (w zb)^a) / (z - w zb) = sum_{i<a} w^i z^(a-1-i) zb^i.
Applied to the numerator w a c z^(a-1) zb^b - b c z^a zb^(b-1) of one
term, the quotient carries w^e at z^(a-1-e) zb^(b+e-1) with weight
(a - b) c for 0 < e < a and -b c for e = 0.  The lines therefore enter the
weighted sum of quotients only through the power sums

    S(e) = sum_j mult_j zeta^(j e),

which are integers: for even M = 2N, S(e) = N (m + (-1)^(e/N) n) when N
divides e and 0 otherwise; for odd M, S(e) = M m when M divides e and 0
otherwise.  So a term c z^a zb^b of p maps to

    4 b (a - S(0)) c z^(a-1) zb^(b-1)
      + sum over 0 < e < a, e a multiple of the period,
            4 (a - b) S(e) c z^(a-1-e) zb^(b+e-1),

the first part including 4 d/dz d/dzb, with the period N for even and M
for odd arrangements.  The arithmetic is integer times coefficient, so a
cyclotomic input costs no field multiplication; it runs on the cleared
integer terms of ``quasi.component_terms``, and each output coefficient
is divided by the scale of its component once.

The closed form equals L p only when every division is exact, so it runs
after a test of exactly that: the numerator for line j vanishes on the
line precisely when the order-1 residue on that line of every homogeneous
component of p is zero (``quasi.residue_on_line``); the order-1 weights of
each component (``quasi.order_weights``) are built once and serve every
line.
Lines of positive multiplicity that fail are reported in
``L1Result.failing_lines``.  An image coefficient whose value is rational
is stored as a rational, as ``BiPoly`` stores every coefficient.
``bipoly.normal_derivative`` and ``bipoly.divide_by_linear`` compute the
same quotients line by line and serve as the independent reference in the
tests.

Annihilation by this operator, together with quasi-invariance and the
normal form "z^D plus terms divisible by z*zb", pins the degree-D basis
generators uniquely; ``uniqueness_check`` solves one exact linear system
in the D + 1 coefficients (the rows of Q, of the closed-form image and of
the normal form) and compares its solution with a given generator, so it
tests the basis that a caller reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly
from .dihedral import DihedralSystem
from .errors import ScalarKindMismatch
from .generators import GeneratorSet
from .quasi import (CoeffVector, component_terms, grouped_rows,
                    order_weights, residue_on_line)
from .scalars import CycloElem, euler_phi, solve_affine


@dataclass(frozen=True)
class L1Result:
    polynomial: BiPoly | None
    failing_lines: tuple[int, ...] = ()

    @property
    def is_polynomial(self) -> bool:
        return self.polynomial is not None


def line_power_sum(sys: DihedralSystem, e: int) -> int:
    """S(e) = sum over lines j of mult_j * zeta^(j e), an integer.

    For even M = 2N the lines of one rotation class are j = r + 2k with
    r = 0 or 1 and k < N; the sum of zeta^(2 k e) over k is N when N divides
    e and 0 otherwise, and on the odd-index class the extra factor zeta^e
    is (-1)^(e/N).  For odd M the sum of zeta^(j e) over all j is M when M
    divides e and 0 otherwise.
    """
    if sys.is_even:
        N = sys.period
        if e % N:
            return 0
        return N * (sys.mult_even + (-1) ** (e // N) * sys.mult_odd)
    M = sys.mirrors
    return M * sys.mult_even if e % M == 0 else 0


def _term_image(sys: DihedralSystem, a: int, b: int):
    """((a - 1 - e, b + e - 1), weight) for every nonzero closed-form weight
    of the term z^a zb^b (module docstring): on Q the operator maps
    c z^a zb^b to the sum of weight * c z^(a-1-e) zb^(b+e-1)."""
    S0 = line_power_sum(sys, 0)
    for e in range(0, a, sys.period):
        weight = 4 * b * (a - S0) if e == 0 else \
            4 * (a - b) * line_power_sum(sys, e)
        if weight:
            yield (a - 1 - e, b + e - 1), weight


def apply_L1(sys: DihedralSystem, p: BiPoly) -> L1Result:
    """Apply L to p in closed form (module docstring).

    Raises ScalarKindMismatch for a cyclotomic p of another order than M.
    When the numerator of some line of positive multiplicity does not
    vanish on that line, the result has no polynomial and lists those lines
    in ascending order.
    """
    M = sys.mirrors
    if p.order not in (None, M):
        raise ScalarKindMismatch(
            f"cannot apply the operator of {M} lines to an order-{p.order} "
            f"polynomial")
    # integer vectors per component, times that component's scale
    components = component_terms(p)
    weights = [order_weights(M, terms, 1) for _, terms, _ in components]
    failing = tuple(
        j for j in sys.lines()
        if sys.multiplicity(j) and
        any(residue_on_line(M, w, j) for w in weights))
    if failing:
        return L1Result(polynomial=None, failing_lines=failing)
    # one accumulator per position of the coefficient vector; the image of
    # a degree-D component has degree D - 2, so components share no key
    channels = [{} for _ in range(1 if p.order is None else euler_phi(M))]
    for _, terms, scale in components:
        sums = [{} for _ in channels]
        for a, b, coeffs in terms:
            for key, weight in _term_image(sys, a, b):
                for acc, c in zip(sums, coeffs):
                    acc[key] = acc.get(key, 0) + weight * c
        for acc, image in zip(sums, channels):
            image.update((key, v if scale == 1 else Fraction(v, scale))
                         for key, v in acc.items())
    if p.order is None:
        return L1Result(polynomial=BiPoly(channels[0]))
    keys = set().union(*channels)
    return L1Result(polynomial=BiPoly(
        {key: CycloElem(M, [acc.get(key, 0) for acc in channels])
         for key in keys}))


@dataclass(frozen=True)
class KernelReport:
    entries: tuple[tuple[str, bool], ...]
    ok: bool


def verify_L1_kernel(sys: DihedralSystem, gens: GeneratorSet) -> KernelReport:
    """Apply the operator to every generator; passes when all images are the
    exact zero polynomial.  Raises ValueError on a set with no generators."""
    if not gens.entries:
        raise ValueError("need at least one generator")
    entries = []
    for entry in gens.entries:
        result = apply_L1(sys, entry.poly)
        annihilated = result.is_polynomial and result.polynomial.is_zero()
        entries.append((entry.name, annihilated))
    return KernelReport(entries=tuple(entries),
                        ok=all(flag for _, flag in entries))


def uniqueness_check(sys: DihedralSystem, generator: BiPoly) -> bool:
    """True when ``generator`` is the unique polynomial of its degree D that
    is quasi-invariant, annihilated by the operator, and of the shape
    z^D + (terms divisible by z*zb).

    One exact system in the coefficients x_s of z^(D-s) zb^s: the condition
    rows of Q at degree D, one row per coefficient of the image of degree
    D - 2, with the weight of ``_term_image`` of z^(D-s) zb^s in column s,
    and the rows x_0 = 1 and x_D = 0.  The closed form equals the operator
    on Q, and the first rows impose Q, so the solutions are exactly the
    quasi-invariants of that shape that the operator annihilates; the check
    passes when there is exactly one and it equals ``generator``.
    """
    if generator.is_zero():
        return False
    D = generator.degree()
    image = [[0] * (D + 1) for _ in range(D - 1)]
    for s in range(D + 1):
        for (_, r), weight in _term_image(sys, D - s, s):
            image[r][s] = weight
    rows = [*grouped_rows(sys, D), *image, [1] + [0] * D, [0] * D + [1]]
    kind, x = solve_affine(rows, [0] * (len(rows) - 2) + [1, 0], D + 1)
    return kind == "unique" and \
        CoeffVector(D, tuple(x)).to_poly() == generator
