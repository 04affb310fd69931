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
cyclotomic input costs no field multiplication.

The closed form equals L p only when every division is exact, so it runs
after a test of exactly that: the numerator for line j vanishes on the
line precisely when the order-1 line residual ``quasi.line_residual`` of
every homogeneous component of p is zero.  Lines of positive multiplicity
that fail are reported in ``L1Result.failing_lines``.  A rational result
is demoted back to rational coefficients.  ``bipoly.normal_derivative`` and
``bipoly.divide_by_linear`` compute the same quotients line by line and
serve as the independent reference in the tests.

Annihilation by this operator, together with quasi-invariance and the
normal form "z^D plus terms divisible by z*zb", pins the degree-D basis
generators uniquely; ``uniqueness_check`` solves for that polynomial on the
exact null space of the quasi-invariance conditions and compares it with a
given generator, so it tests the basis that a caller reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipoly import BiPoly, homogeneous_components
from .dihedral import DihedralSystem
from .errors import ScalarKindMismatch
from .generators import GeneratorSet
from .quasi import (coefficient_row, coefficient_terms, line_residual,
                    quasi_basis)
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
    components = [coefficient_terms(comp)
                  for _, comp in homogeneous_components(p)]
    failing = tuple(
        j for j in sys.lines()
        if sys.multiplicity(j) and
        any(line_residual(M, terms, j, 1) for terms in components))
    if failing:
        return L1Result(polynomial=None, failing_lines=failing)
    period = sys.period
    S0 = line_power_sum(sys, 0)
    # one accumulator per position of the coefficient vector
    channels = [{} for _ in range(1 if p.order is None else euler_phi(M))]
    for terms in components:
        for a, b, coeffs in terms:
            for e in range(0, a, period):
                weight = 4 * b * (a - S0) if e == 0 else \
                    4 * (a - b) * line_power_sum(sys, e)
                if weight:
                    key = (a - 1 - e, b + e - 1)
                    for acc, c in zip(channels, coeffs):
                        acc[key] = acc.get(key, 0) + weight * c
    if p.order is None:
        return L1Result(polynomial=BiPoly(channels[0]))
    keys = set().union(*channels)
    return L1Result(polynomial=BiPoly(
        {key: CycloElem(M, [acc.get(key, 0) for acc in channels])
         for key in keys}, M).demote())


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

    Works on the exact null space of the quasi-invariance conditions: the
    operator images of the basis give homogeneous linear constraints on the
    weights, the two shape conditions give an inhomogeneous pair, and the
    combined system must have exactly one solution, equal to ``generator``.
    """
    if generator.is_zero():
        return False
    degree = generator.degree()
    basis = quasi_basis(sys, degree)
    if not basis:
        return False
    images = []
    for vec in basis:
        result = apply_L1(sys, vec)
        if not result.is_polynomial:
            return False
        images.append(result.polynomial.demote())
    # one row per coefficient of the image, then the coefficients of z^D
    # (which must be 1) and of zb^D (which must be 0)
    rows = [list(r) for r in
            zip(*(coefficient_row(img, degree - 2) for img in images))]
    vectors = [coefficient_row(vec, degree) for vec in basis]
    rows += [[v[0] for v in vectors], [v[degree] for v in vectors]]
    rhs = [0] * (len(rows) - 2) + [1, 0]
    kind, weights = solve_affine(rows, rhs, ncols=len(basis))
    if kind != "unique":
        return False
    combined = BiPoly.zero()
    for w, vec in zip(weights, basis):
        if w:
            combined = combined + vec.scale(w)
    return combined == generator
