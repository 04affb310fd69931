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
for odd arrangements.  The operator takes rational polynomials only, as
``quasi.check_per_line`` does, and refuses one with a cyclotomic
coefficient through ``bipoly.rational_only``.  The arithmetic is integer
times integer, on the cleared integer terms of ``quasi.component_terms``,
and each output coefficient is divided by the scale of its component once.

The closed form equals L p only when every division is exact, so it runs
after a test of exactly that: the numerator for line j vanishes on the
line precisely when the order-1 residue on that line of every homogeneous
component of p is zero (``quasi.residue_on_line``); the order-1 weights of
each component, the first yield of ``quasi.order_weights``'s recurrence
(K_1(a, b) = a - b), are built once and serve every line.
Lines of positive multiplicity that fail are reported in
``L1Result.failing_lines``.  ``bipoly.normal_derivative`` and
``bipoly.divide_by_linear`` compute the same quotients line by line and
serve as the independent reference in the tests.

Annihilation by this operator, together with quasi-invariance and the
normal form "z^D plus terms divisible by z*zb", pins the degree-D basis
generators uniquely.  ``kernel_generator`` finds the polynomial of that
shape by forward substitution, and ``uniqueness_check`` compares a given
generator with it, so it tests the basis that a caller reports.  Write x_s
for the coefficient of z^(D-s) zb^s and P for the period.

* In ``_term_image``, column s (the term z^(D-s) zb^s) lands in the image
  rows s - 1 + kP for k >= 0: the row of z^(D-2-r) zb^r is r.  Its weight
  in row s - 1, the diagonal, is 4 s (D - s - S(0)); its weight in row
  s - 1 + kP, k >= 1, is 4 (D - 2s) S(kP).
* The diagonal weight vanishes at s = 0 and at s* = D - S(0) only.
* So each image row r, for r = 0..D-2, is the diagonal row of column
  r + 1, and it meets only the columns s = r + 1 (mod P) at or left of it.
* Column D lands in no image row (its rows would start at D - 1), and the
  normal form x_D = 0 fixes it.
* Forward substitution along the class 0 mod P therefore gives, from
  x_0 = 1, one vector u, zero on every other class: each row s - 1 with a
  nonzero diagonal fixes x_s from the earlier columns of its class.  When
  0 < s* < D, it also gives, from x_(s*) = 1, one vector v, zero left of s*
  and on every other class.  Every other class is zero from its first
  column on, since each of its columns has a nonzero diagonal.
* If s* = 0 (mod P), the row s* - 1 has a zero diagonal, and it reaches
  only columns left of s*, where v is zero.  So it constrains u alone: when
  u breaks it, no polynomial of the shape lies in the image kernel, and
  otherwise u takes x_(s*) = 0.
* So the image kernel in degree D with x_0 = 1 and x_D = 0 is u + lambda v
  (u alone when there is no v).  The closed form equals the operator on Q,
  and the rows of Q (the class sums of ``quasi._class_sum``) are linear,
  so each row of Q gives row(u) + lambda row(v) = 0.  They are summed
  along the support of u and v only: the classes that they meet.  Those
  sums fix lambda, or show that there is no such polynomial, or that there
  are many.
* For the generator q1_i of degree top + i, S(0) = top, so s* = i.

The forward step is integer: each vector keeps integer entries over one
common denominator, and a step that needs a new factor of it scales the
earlier entries once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .bipoly import BiPoly, rational_only
from .dihedral import DihedralSystem
from .errors import KernelGeneratorNotUnique, NoKernelGenerator
from .generators import GeneratorSet
from .quasi import (_class_sum, component_terms, order_weights,
                    residue_on_line, row_classes)


class L1Result(NamedTuple):
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
    """Apply L to the rational p in closed form (module docstring).

    A polynomial with a cyclotomic coefficient, of any order, is refused by
    ``bipoly.rational_only``.  When the numerator of some line of
    positive multiplicity does not vanish on that line, the result has no
    polynomial and lists those lines in ascending order.
    """
    M = sys.mirrors
    rational_only(p, "the operator")
    # integer terms per component, times that component's scale
    components = component_terms(p)
    weights = [w for _, t, _ in components for _, w in order_weights(M, t, 1)]
    failing = tuple(
        j for j in sys.lines()
        if sys.multiplicity(j) and
        any(residue_on_line(M, w, j) for w in weights))
    if failing:
        return L1Result(polynomial=None, failing_lines=failing)
    # the image of a degree-D component has degree D - 2, so components
    # share no key
    image = {}
    for _, terms, scale in components:
        acc = {}
        for a, b, c in terms:
            for key, weight in _term_image(sys, a, b):
                acc[key] = acc.get(key, 0) + weight * c
        image.update((key, v if scale == 1 else Fraction(v, scale))
                     for key, v in acc.items())
    return L1Result(polynomial=BiPoly(image))


class KernelReport(NamedTuple):
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


def _forward(sys: DihedralSystem, D: int, start: int) -> tuple[list[int], int]:
    """(U, d): the image-kernel vector U / d of degree D with x_start = 1,
    zero left of ``start`` and off its class mod P, and x_D = 0, by forward
    substitution (module docstring).  Row s - 1 of the image reads
    s (D - s - S(0)) x_s + sum over k >= 1 of (D - 2s') S(kP) x_s' = 0 with
    s' = s - kP, the weights of ``_term_image`` over 4.  Raises
    ``NoKernelGenerator`` when a row with a zero diagonal is broken."""
    P = sys.period
    sums = [line_power_sum(sys, e) for e in range(0, D, P)]
    U = [0] * (D + 1)
    U[start] = d = 1
    for s in range(start + P, D, P):
        n = -sum((D - 2 * t) * sums[k] * U[t]
                 for k, t in enumerate(range(s - P, start - 1, -P), 1))
        w = s * (D - s - sums[0])
        if w == 0:
            # s = s* on the class of u: the row constrains u alone
            if n:
                raise NoKernelGenerator(
                    f"no normal form of degree {D} in the kernel on {sys}: "
                    f"row {s - 1} of the image is broken")
            continue
        # x_s = n / (d w): scale d, and the entries so far, by w / gcd
        g = gcd(n, w)
        a, n = w // g, n // g
        if a < 0:
            a, n = -a, -n
        if a != 1:
            d *= a
            for t in range(start, s, P):
                U[t] *= a
        U[s] = n
    return U, d


def kernel_generator(sys: DihedralSystem, degree: int) -> BiPoly:
    """The unique polynomial of ``degree`` that lies in Q, is annihilated by
    the operator, and has the shape z^D + (terms divisible by z*zb), found
    by forward substitution (module docstring).

    Raises ``NoKernelGenerator`` when there is no such polynomial and
    ``KernelGeneratorNotUnique`` when there are many; ValueError on a
    negative degree.
    """
    D = degree
    if D < 0:
        raise ValueError("degree must be nonnegative")
    if D == 0:
        raise NoKernelGenerator(
            "the normal form z^0 + (terms divisible by z*zb) would need "
            "x_0 = 1 and x_0 = 0")
    P, star = sys.period, D - line_power_sum(sys, 0)
    U, dU = _forward(sys, D, 0)
    # v = V / dV; dV cancels from x below
    V = _forward(sys, D, star)[0] if 0 < star < D else None
    # (row(U), row(V)) for every row of Q that meets the support of u or v
    pairs = []
    for row in row_classes(sys):
        p = row[1]
        on_u, on_v = p % P == 0, V is not None and (p - star) % P == 0
        if on_u or on_v:
            pairs.append((_class_sum(U, D, *row) if on_u else 0,
                          _class_sum(V, D, *row) if on_v else 0))
    # every row reads a / dU + lambda b / dV = 0
    a0, b0 = next(((a, b) for a, b in pairs if b), (0, 0))
    if b0:   # lambda = -a0 dV / (b0 dU), which every row must accept
        consistent = all(a * b0 == a0 * b for a, b in pairs)
    else:    # no row sees lambda, so u must satisfy every row
        consistent = not any(a for a, _ in pairs)
    if not consistent:
        raise NoKernelGenerator(
            f"no normal form of degree {D} in the kernel on {sys}")
    if V is not None and not b0:
        raise KernelGeneratorNotUnique(
            f"more than one normal form of degree {D} in the kernel on {sys}")
    if b0:   # x = u + lambda v = (b0 U - a0 V) / (b0 dU)
        U, dU = [b0 * x - a0 * y for x, y in zip(U, V)], b0 * dU
    return BiPoly({(D - s, s): Fraction(x, dU)
                   for s, x in enumerate(U) if x})


def uniqueness_check(sys: DihedralSystem, generator: BiPoly) -> bool:
    """True when ``generator`` is the unique polynomial of its degree that
    is quasi-invariant, annihilated by the operator, and of the shape
    z^D + (terms divisible by z*zb): when it equals ``kernel_generator`` of
    its degree.  False on the zero polynomial, and when there is no such
    polynomial or more than one."""
    if generator.is_zero():
        return False
    try:
        return generator == kernel_generator(sys, generator.degree())
    except (NoKernelGenerator, KernelGeneratorNotUnique):
        return False
