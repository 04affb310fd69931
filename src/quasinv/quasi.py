"""Quasi-invariance testing for dihedral arrangements, two independent ways.

A polynomial p is quasi-invariant when on every mirror line j, writing q for
the multiplicity of the line, the normal derivatives of odd order
1, 3, ..., 2q - 1 all vanish identically on the line.  The definitional
check works line by line with cyclotomic arithmetic, through the closed form
of the iterated normal derivative on its own line.  With
N_j = zeta^j d/dz - d/dzb the two partial derivatives commute, so
N_j^k = sum_r C(k, r) zeta^(j r) (d/dz)^r (-d/dzb)^(k-r), and substituting
z = zeta^j zb into the image of z^a zb^b collects
zeta^(j r) * zeta^(j (a-r)) = zeta^(j a) from every term:

    N_j^k(z^a zb^b) on line j = zeta^(j a) * K_k(a, b) * zb^(a+b-k),
    K_k(a, b) = sum_r C(k, r) (-1)^(k-r) (a)_r (b)_(k-r),

an integer, with (x)_r the falling factorial.  One order-k restriction of a
homogeneous component is therefore a single element of Q(zeta_M): the sum
of c * K_k(a, b) * zeta^(j a) over its terms.

The second check is rational.  Write a homogeneous p of degree D as
sum_s a_s z^(D-s) zb^s.  Up to a nonzero factor, the restriction to line j
of the order-(2t-1) normal derivative contributes the linear functional

    sum_s a_s (D - 2s)^(2t-1) zeta^{(D-s) j}.

Running j over a full rotation class of lines and inverting the resulting
Vandermonde system in the distinct powers of zeta turns the per-line
conditions into residue-class sums of the coefficients.  For even M = 2N
with multiplicities (m, n) on the even-index and odd-index classes:

* levels t <= min(m, n) constrain both classes at once:
  sum over s = p (mod 2N) of a_s (D-2s)^(2t-1) = 0 for each p mod 2N;
* levels above the minimum constrain only the larger-multiplicity class;
  for the even-index class the sums run over s = p (mod N), while for the
  odd-index class the lines are j = 2j'+1 and the factor zeta^{(D-s)j}
  carries an extra zeta^{D-s} = (-1)^{(s-p)/N} zeta^{D-p} because
  zeta^N = -1, so the class sums become sign-alternating:
  sum over s = p (mod N) of (-1)^{(s-p)/N} a_s (D-2s)^(2t-1) = 0.

For odd M there is one class and the sums run over s = p (mod M).  A single
plain-power sum at level t is not literally the order-(2t-1) derivative
restriction (iterated derivatives mix in lower odd powers of D-2s), but the
two families are related by an invertible triangular change of basis level
by level, so the full systems are equivalent and first failures per class
coincide; ``crosscheck_checkers`` exercises exactly that equivalence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, perm

from .bipoly import BiPoly, homogeneous_components
from .dihedral import DihedralSystem
from .errors import RowDegreeMismatch, ScalarKindMismatch
from .scalars import CycloElem, exact_rank, nullspace, reduce_mod_cyclotomic


# ---------------------------------------------------------------------------
# report and coefficient-vector types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    line: int
    order: int
    degree: int
    residual: str

    def to_dict(self):
        return {"line": self.line, "order": self.order,
                "degree": self.degree, "residual": self.residual}


@dataclass(frozen=True)
class QuasiReport:
    ok: bool
    violations: tuple[Violation, ...]

    def to_dict(self):
        return {"ok": self.ok,
                "violations": [v.to_dict() for v in self.violations]}


def coefficient_row(p: BiPoly, degree: int) -> list:
    """Entry s is the coefficient of z^(degree-s) zb^s, an int when it is
    integral; filled from the terms of p, which must all have that degree."""
    row = [0] * (degree + 1)
    for (a, b), c in p.terms.items():
        if a + b != degree:
            raise RowDegreeMismatch(
                f"term z^{a}*zb^{b} does not have degree {degree}")
        row[b] = c.numerator if c.denominator == 1 else c
    return row


@dataclass(frozen=True)
class CoeffVector:
    """Coefficients of one homogeneous polynomial: entry s is the
    coefficient of z^(degree-s) zb^s."""
    degree: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.degree + 1:
            raise ValueError("need degree + 1 coefficients")

    @classmethod
    def from_poly(cls, p: BiPoly, degree: int | None = None) -> CoeffVector:
        """The vector of p at ``degree``, by default the degree of p (0 for
        the zero polynomial)."""
        if not p.is_homogeneous():
            raise ValueError("coefficient vectors encode homogeneous polynomials")
        if degree is None:
            degree = max(p.degree(), 0)
        return cls(degree, tuple(map(Fraction, coefficient_row(p, degree))))

    def to_poly(self) -> BiPoly:
        d = self.degree
        return BiPoly({(d - s, s): c for s, c in enumerate(self.entries)})


# ---------------------------------------------------------------------------
# per-line checker (cyclotomic)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 16)
def line_derivative_coefficient(k: int, a: int, b: int) -> int:
    """K_k(a, b): N_j^k(z^a zb^b) restricted to line j equals
    zeta^(j a) * K_k(a, b) * zb^(a+b-k).  Zero when a + b < k."""
    return sum(comb(k, r) * (-1) ** (k - r) * perm(a, r) * perm(b, k - r)
               for r in range(k + 1))


def coefficient_terms(p: BiPoly) -> list[tuple[int, int, tuple]]:
    """(a, b, coefficient vector) for every term c z^a zb^b of p: the
    vector is (c,) for a rational c and the phi(M) residue coefficients of
    c for a cyclotomic one."""
    if p.order is None:
        return [(a, b, (c,)) for (a, b), c in p.terms.items()]
    return [(a, b, c.coeffs) for (a, b), c in p.terms.items()]


def line_residual(M: int, terms, j: int, k: int) -> list:
    """gamma = sum over terms c z^a zb^b of c * K_k(a, b) * zeta^(j a), so
    that the order-k normal derivative N_j^k of the homogeneous polynomial
    with these ``coefficient_terms``, restricted to line j, is
    gamma * zb^(degree-k).

    The products are collected in M buckets by exponent of zeta, j*a plus
    the position inside a cyclotomic coefficient, taken mod M, and reduced
    modulo the cyclotomic polynomial once.  Returns the residue of gamma
    from ``reduce_mod_cyclotomic``, which is empty exactly when gamma is 0.
    """
    buckets = [0] * M
    for a, b, coeffs in terms:
        K = line_derivative_coefficient(k, a, b)
        if K:
            for i, c in enumerate(coeffs):
                buckets[(j * a + i) % M] += c * K
    return reduce_mod_cyclotomic(buckets, M)


def check_per_line(sys: DihedralSystem, p: BiPoly) -> QuasiReport:
    """Definitional quasi-invariance test over Q(zeta_M).

    For each homogeneous component, line j and odd order k up to
    2 * multiplicity - 1, the order-k normal derivative restricted to the
    line is gamma * zb^(degree-k) with

        gamma = sum over terms c z^a zb^b of c * K_k(a, b) * zeta^(j a),

    because the two partial derivatives in N_j commute and the term
    zeta^(j r) (d/dz)^r (-d/dzb)^(k-r) picks up zeta^(j (a-r)) on the line,
    giving zeta^(j a) for every r; ``line_residual`` computes gamma.  Every
    nonzero gamma is reported with the degree of the offending component;
    orders above the degree vanish identically.
    """
    M = sys.mirrors
    if p.order not in (None, M):
        raise ScalarKindMismatch(
            f"cannot check an order-{p.order} polynomial against {M} lines")
    violations = []
    for degree, comp in homogeneous_components(p):
        terms = coefficient_terms(comp)
        for j in sys.lines():
            for k in range(1, min(2 * sys.multiplicity(j) - 1, degree) + 1, 2):
                residue = line_residual(M, terms, j, k)
                if residue:
                    gamma = CycloElem(M, residue)
                    violations.append(Violation(
                        line=j, order=k, degree=degree,
                        residual=f"({gamma})*zb^{degree - k}"))
    violations.sort(key=lambda v: (v.degree, v.line, v.order))
    return QuasiReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# grouped rational checker
# ---------------------------------------------------------------------------

def class_row(D: int, t: int, p: int, period: int, alternate: bool):
    """(D - 2s)^(2t-1) at s = p, p + period, ... <= D and 0 elsewhere; the
    sign flips at each step on the odd-index class of an even arrangement
    (``alternate``)."""
    row = [0] * (D + 1)
    e = 2 * t - 1
    sign = 1
    for s in range(p, D + 1, period):
        row[s] = sign * (D - 2 * s) ** e
        if alternate:
            sign = -sign
    return tuple(row)


def grouped_rows(sys: DihedralSystem, degree: int) -> list[tuple[int, ...]]:
    """Rows of the residue-class condition system at one degree.

    Row order: levels t = 1..min(m, n) with classes p = 0..M-1, then levels
    up to max(m, n) with classes p = 0..M/2-1 on the larger-multiplicity
    orbit of an even arrangement.  An odd arrangement has m = n, so only the
    first group occurs.
    """
    M = sys.mirrors
    m, n = sys.mult_even, sys.mult_odd
    low, high = min(m, n), max(m, n)
    rows = [class_row(degree, t, p, M, False)
            for t in range(1, low + 1) for p in range(M)]
    rows += [class_row(degree, t, p, sys.period, m < n)
             for t in range(low + 1, high + 1) for p in range(sys.period)]
    return rows


def _residual(row, entries) -> Fraction:
    """The residue-class sum of one row over a coefficient vector, skipping
    the zero entries of the row."""
    return sum((r * a for r, a in zip(row, entries) if r), Fraction(0))


def grouped_conditions(sys: DihedralSystem, coeffs: CoeffVector) -> list[Fraction]:
    """Residuals of the residue-class system on a coefficient vector; the
    vector is quasi-invariant exactly when every residual is zero."""
    return [_residual(row, coeffs.entries)
            for row in grouped_rows(sys, coeffs.degree)]


def quasi_dimension(sys: DihedralSystem, degree: int) -> int:
    """Dimension of the homogeneous quasi-invariants of one degree, as
    (degree + 1) minus the exact rank of the condition system."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    rows = grouped_rows(sys, degree)
    return degree + 1 - exact_rank(rows, ncols=degree + 1)


def quasi_basis(sys: DihedralSystem, degree: int) -> list[BiPoly]:
    """Basis of the homogeneous quasi-invariants of one degree, from the
    exact null space of the condition system; deterministic order."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    rows = grouped_rows(sys, degree)
    vectors = nullspace(rows, ncols=degree + 1)
    return [CoeffVector(degree, vec).to_poly() for vec in vectors]


# ---------------------------------------------------------------------------
# cross-validation of the two checkers
# ---------------------------------------------------------------------------

def _orbits(sys: DihedralSystem):
    return (0, 1) if sys.is_even else (0,)


def _orbit_class_rows(sys: DihedralSystem, degree: int, orbit: int, t: int):
    """Residue-class rows of a single orbit at one level (used only for
    attributing failures; the combined rows of grouped_rows span the same
    conditions)."""
    return [class_row(degree, t, p, sys.period, orbit == 1)
            for p in range(sys.period)]


def _first_failure_grouped(sys, coeffs: CoeffVector, orbit: int):
    mult = sys.multiplicity(orbit)   # line 0 or 1 lies in that orbit
    for t in range(1, mult + 1):
        for row in _orbit_class_rows(sys, coeffs.degree, orbit, t):
            if _residual(row, coeffs.entries):
                return t
    return None


def _first_failure_per_line(sys, report: QuasiReport, orbit: int):
    orders = [v.order for v in report.violations
              if sys.orbit(v.line) == orbit]
    if not orders:
        return None
    return (min(orders) + 1) // 2


def _random_homogeneous(rng: random.Random, degree: int) -> BiPoly:
    entries = tuple(Fraction(rng.randint(-5, 5)) for _ in range(degree + 1))
    return CoeffVector(degree, entries).to_poly()


def crosscheck_checkers(sys: DihedralSystem, trials: int, max_degree: int,
                        seed: int = 0) -> bool:
    """Run both checkers on seeded random homogeneous polynomials.

    Agreement means identical verdicts and, on failures, identical first
    failing level per orbit.  Every few trials a random element of the exact
    null space is used instead, so the passing branch is exercised too.
    Returns True when all trials agree; trials < 1 raise ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    basis_cache: dict[int, list] = {}
    for trial in range(trials):
        degree = rng.randint(0, max_degree)
        if trial % 5 == 4:
            if degree not in basis_cache:
                basis_cache[degree] = nullspace(grouped_rows(sys, degree),
                                                ncols=degree + 1)
            basis = basis_cache[degree]
            entries = [Fraction(0)] * (degree + 1)
            for vec in basis:
                w = rng.randint(-3, 3)
                if w:
                    entries = [e + w * v for e, v in zip(entries, vec)]
            coeffs = CoeffVector(degree, tuple(entries))
            poly = coeffs.to_poly()
        else:
            poly = _random_homogeneous(rng, degree)
            coeffs = CoeffVector.from_poly(poly, degree)
        report = check_per_line(sys, poly)
        residuals = grouped_conditions(sys, coeffs)
        if report.ok != all(r == 0 for r in residuals):
            return False
        if not report.ok:
            for orbit in _orbits(sys):
                if _first_failure_per_line(sys, report, orbit) != \
                        _first_failure_grouped(sys, coeffs, orbit):
                    return False
    return True
