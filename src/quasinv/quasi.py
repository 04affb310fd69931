"""Quasi-invariance testing for dihedral arrangements, two independent ways.

A polynomial p is quasi-invariant when on every mirror line j, writing q for
the multiplicity of the line, the normal derivatives of odd order
1, 3, ..., 2q - 1 all vanish identically on the line.  The definitional
check works line by line on a rational polynomial, through the closed form
of the iterated normal derivative on its own line.  With
N_j = zeta^j d/dz - d/dzb the two partial derivatives commute, so
N_j^k = sum_r C(k, r) zeta^(j r) (d/dz)^r (-d/dzb)^(k-r), and substituting
z = zeta^j zb into the image of z^a zb^b collects
zeta^(j r) * zeta^(j (a-r)) = zeta^(j a) from every term:

    N_j^k(z^a zb^b) on line j = zeta^(j a) * K_k(a, b) * zb^(a+b-k),
    K_k(a, b) = sum_r C(k, r) (-1)^(k-r) (a)_r (b)_(k-r),

an integer, with (x)_r the falling factorial, and 0 for k > a + b.  It is
k! times the t^k coefficient of f = (1 + t)^a (1 - t)^b, and
(1 - t^2) f' = (a - b - (a + b) t) f gives the recurrence that computes it:
K_0 = 1, K_1 = a - b, K_(k+1) = (a - b) K_k - k (a + b - k + 1) K_(k-1).
One order-k restriction of a homogeneous component is therefore a single
element of Q(zeta_M): the sum of c * K_k(a, b) * zeta^(j a) over its
terms.  Only zeta^(j a) depends on the line, and only through a mod M, so
the check runs component by component, then order by order: one recurrence
per component yields each odd order's sums of c * K_k(a, b) per a mod M
(``order_weights``), and each line of high enough multiplicity only
scatters those weights into M buckets by exponent of zeta and reduces them
modulo the M-th cyclotomic polynomial (``residue_on_line``).  The
coefficients c are rational, and each component is cleared to integers
first, so the residues are integer vectors, and a nonzero one is printed
from its vector and the component's scale (``scalars.residue_text``); a
polynomial with a cyclotomic coefficient is refused.

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

The dimension of the quasi-invariants of degree D is D + 1 minus the rank
of this system.  Counted from the middle column, the system of degree D + 2
is that of degree D with two more columns, so the oracle grows one exact
rank along each parity of D instead of eliminating every degree afresh;
``_ParityChain`` gives the argument.  Each chain is kept per row set and
parity, grows only as far as the highest degree asked, and stops for good
once every block of columns is full.  The same columns give the null
vectors: a dependency among the columns of degree D is sigma1 times one of
degree D + 2, so ``_NullChain`` grows the null vectors of each parity once,
for the ideal check and the passing trials of the checker agreement, and
checks each against its class sums.  A row of the system is nonzero only on
its class s = p (mod period), along which ``_class_sum`` sums a coefficient
vector: the one row sum of the grouped checker and of the operator's kernel
(``calogero.kernel_generator``), which sums only the classes it meets.
``verify`` builds no dense row of ``grouped_rows``.  Only the exported
basis of one degree (``quasi_basis``) builds them, and eliminates them
through ``scalars.nullspace``; the tests keep them as the reference.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .bipoly import BiPoly, rational_only
from .dihedral import DihedralSystem
from .errors import ChainNotSaturated, NullVectorMismatch, RowDegreeMismatch
from .scalars import (nullspace, reduce_into, reduce_mod_cyclotomic,
                      reduce_tagged, residue_text)


# ---------------------------------------------------------------------------
# report and coefficient-vector types
# ---------------------------------------------------------------------------

class Violation(NamedTuple):
    """One nonzero residue of the per-line checker; records are NamedTuples."""
    line: int
    order: int
    degree: int
    residual: str

    def to_dict(self):
        return self._asdict()


class QuasiReport(NamedTuple):
    """The per-line verdict and its ``Violation``s, in the order found."""
    ok: bool
    violations: tuple[Violation, ...]

    def to_dict(self):
        return {"ok": self.ok,
                "violations": [v.to_dict() for v in self.violations]}


def coefficient_row(p: BiPoly, degree: int) -> list:
    """Entry s is the coefficient of z^(degree-s) zb^s, as p stores it (an
    int when it is integral); filled from the terms of p, which must all
    have that degree."""
    row = [0] * (degree + 1)
    for (a, b), c in p.terms.items():
        if a + b != degree:
            raise RowDegreeMismatch(
                f"term z^{a}*zb^{b} does not have degree {degree}")
        row[b] = c
    return row


class CoeffVector(NamedTuple("CoeffVector", [
        ("degree", int), ("entries", tuple[int | Fraction, ...])])):
    """Coefficients of one homogeneous polynomial: entry s is the
    coefficient of z^(degree-s) zb^s, an int when it is integral and a
    Fraction otherwise; ValueError unless there are degree + 1 of them."""
    __slots__ = ()

    def __new__(cls, degree: int, entries: tuple[int | Fraction, ...]):
        if len(entries) != degree + 1:
            raise ValueError("need degree + 1 coefficients")
        return super().__new__(cls, degree, entries)

    # namedtuple's own _make, which _replace calls, skips __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @classmethod
    def from_poly(cls, p: BiPoly, degree: int | None = None) -> CoeffVector:
        """The vector of p at ``degree``, by default the degree of p (0 for
        the zero polynomial)."""
        if not p.is_homogeneous():
            raise ValueError("coefficient vectors encode homogeneous polynomials")
        if degree is None:
            degree = max(p.degree(), 0)
        return cls(degree, tuple(coefficient_row(p, degree)))

    def to_poly(self) -> BiPoly:
        d = self.degree
        return BiPoly({(d - s, s): c
                       for s, c in enumerate(self.entries) if c})


# ---------------------------------------------------------------------------
# per-line checker (rational input, cyclotomic residues)
# ---------------------------------------------------------------------------

def component_terms(p: BiPoly) -> list[tuple[int, list, int]]:
    """(degree, terms, scale) for every homogeneous component of the
    rational p, in ascending degree: one (a, b, c) in ``terms`` for every
    term of the component, with c the integer ``scale`` times its
    coefficient and ``scale`` the lcm of every denominator in it; an
    integral component gives its own coefficients and scale 1.  Read off
    the terms of p, without building the components."""
    parts = {}
    for (a, b), c in p.terms.items():
        parts.setdefault(a + b, []).append((a, b, c))
    out = []
    for degree, terms in sorted(parts.items()):
        scale = lcm(*(c.denominator for _, _, c in terms))
        if scale != 1:
            terms = [(a, b, c.numerator * (scale // c.denominator))
                     for a, b, c in terms]
        out.append((degree, terms, scale))
    return out


def order_weights(M: int, terms, top: int):
    """The line-independent part of gamma, lazily: (k, weights) for
    k = 1, 3, ..., top, with (r, w) for every nonzero w = sum of
    c * K_k(a, b) over the integer terms c z^a zb^b of ``component_terms``
    with a = r (mod M).  Each term steps c * K_(k-1) and c * K_k by the
    recurrence of the module docstring, so no order is computed before it
    is drawn.  The term lands in bucket j*a (mod M) of line j, which depends
    on a only through r, so ``residue_on_line`` gives gamma on every line
    from these weights."""
    prev = cur = [c for _, _, c in terms]
    for k in range(top):
        # cur becomes c * K_(k+1); K_1 = a - b needs no K_(-1)
        prev, cur = cur, [(a - b) * x - k * (a + b - k + 1) * y
                          for (a, b, _), x, y in zip(terms, cur, prev)]
        if k % 2 == 0:
            weights = {}
            for (a, _, _), w in zip(terms, cur):
                weights[a % M] = weights.get(a % M, 0) + w
            yield k + 1, [(r, w) for r, w in weights.items() if w]


def residue_on_line(M: int, weights, j: int) -> list[int]:
    """The residue of gamma on line j from the ``order_weights`` of one
    order: each weight goes to bucket j*r (mod M) of the exponent of zeta,
    and the M integer buckets are reduced modulo the M-th cyclotomic
    polynomial once.  Empty exactly when gamma is 0."""
    buckets = [0] * M
    for r, w in weights:
        buckets[j * r % M] += w
    return reduce_mod_cyclotomic(buckets, M)


def _nonzero_residues(sys: DihedralSystem, p: BiPoly):
    """(degree, line, order, residue, scale) for every nonzero gamma of
    ``check_per_line``, by component, then order, then line: ``residue`` is
    the reduced integer residue of scale * gamma, with ``scale`` that of the
    component in ``component_terms``.  Each order's ``order_weights`` are
    built once, when drawn, and serve every line whose multiplicity reaches
    that order, so within a component the first residue on an orbit has
    that orbit's lowest failing order."""
    M = sys.mirrors
    mults = [(j, sys.multiplicity(j)) for j in sys.lines()]
    top = 2 * max(m for _, m in mults) - 1
    # the weights see integers only; gamma is the residue over scale
    for degree, terms, scale in component_terms(p):
        for k, weights in order_weights(M, terms, min(top, degree)):
            if not weights:
                continue
            for j, mult in mults:
                if k < 2 * mult:
                    residue = residue_on_line(M, weights, j)
                    if residue:
                        yield degree, j, k, residue, scale


def check_per_line(sys: DihedralSystem, p: BiPoly) -> QuasiReport:
    """Definitional quasi-invariance test of a rational polynomial.

    For each homogeneous component, line j and odd order k up to
    2 * multiplicity - 1, the order-k normal derivative restricted to the
    line is gamma * zb^(degree-k) with

        gamma = sum over terms c z^a zb^b of c * K_k(a, b) * zeta^(j a),

    because the two partial derivatives in N_j commute and the term
    zeta^(j r) (d/dz)^r (-d/dzb)^(k-r) picks up zeta^(j (a-r)) on the line,
    giving zeta^(j a) for every r; ``residue_on_line`` computes gamma, as a
    residue modulo the M-th cyclotomic polynomial, from the
    ``order_weights`` of the order.  Every nonzero gamma is reported with
    the degree of the offending component, its text written by
    ``scalars.residue_text`` straight from the integer residue and the
    component's scale, with no field element built; orders above the
    degree vanish identically.  A polynomial with a cyclotomic
    coefficient, of any order, is refused by ``bipoly.rational_only``.
    """
    rational_only(p, "the per-line check")
    violations = []
    # sorted by degree, line and order
    for degree, j, k, residue, scale in sorted(_nonzero_residues(sys, p),
                                               key=lambda r: r[:3]):
        violations.append(Violation(
            line=j, order=k, degree=degree,
            residual=f"({residue_text(residue, scale)})*zb^{degree - k}"))
    return QuasiReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# grouped rational checker
# ---------------------------------------------------------------------------

def class_entries(D: int, t: int, p: int, period: int, alternate: bool):
    """The entries of one condition row at degree D: (s, +-(D - 2s)^(2t-1))
    for s = p, p + period, ... <= D, the row being 0 at every other s; the
    sign flips at each step on the odd-index class of an even arrangement
    (``alternate``).  An entry is 0 where D = 2s."""
    e = 2 * t - 1
    sign = 1
    for s in range(p, D + 1, period):
        yield s, sign * (D - 2 * s) ** e
        if alternate:
            sign = -sign


@lru_cache(maxsize=64)
def row_classes(
        sys: DihedralSystem) -> tuple[tuple[int, int, int, bool], ...]:
    """The ``class_entries`` arguments (t, p, period, alternate) of every
    row of ``grouped_rows``, in row order: levels t = 1..min(m, n) with
    classes p = 0..M-1, then levels up to max(m, n) with classes
    p = 0..M/2-1 on the larger-multiplicity orbit of an even arrangement.
    An odd arrangement has m = n, so only the first group occurs.  One
    tuple per arrangement, kept: it is the key of the oracle's chains."""
    M, P = sys.mirrors, sys.period
    m, n = sys.mult_even, sys.mult_odd
    low, high = min(m, n), max(m, n)
    return tuple([(t, p, M, False) for t in range(1, low + 1)
                  for p in range(M)] +
                 [(t, p, P, m < n) for t in range(low + 1, high + 1)
                  for p in range(P)])


def grouped_rows(sys: DihedralSystem, degree: int) -> list[tuple[int, ...]]:
    """The condition rows at one degree, one per entry of ``row_classes``,
    dense: each a tuple of degree + 1 entries, 0 off its ``class_entries``."""
    return [tuple(entries.get(s, 0) for s in range(degree + 1))
            for entries in (dict(class_entries(degree, *cls))
                            for cls in row_classes(sys))]


def _class_sum(entries, D: int, t: int, p: int, period: int,
               alternate: bool) -> int | Fraction:
    """The residue-class sum of one condition row over a coefficient
    vector, along the row's ``class_entries``, skipping the zero
    coefficients: an int for an integral vector."""
    total = 0
    for s, x in class_entries(D, t, p, period, alternate):
        a = entries[s]
        if a:
            total += x * a
    return total


def grouped_conditions(sys: DihedralSystem,
                       coeffs: CoeffVector) -> list[int | Fraction]:
    """Residuals of the residue-class system on a coefficient vector, one
    per entry of ``row_classes``, ints for an integral vector; the vector is
    quasi-invariant exactly when every residual is zero."""
    return [_class_sum(coeffs.entries, coeffs.degree, *cls)
            for cls in row_classes(sys)]


def _column_layout(classes: tuple):
    """The columns of ``_ParityChain``, shared by ``_NullChain``: (B, L,
    meets, blocks), with B the smallest and L twice the largest period of
    the rows, meets[c % L] the (row, t - 1, sign) of every row that column
    c meets, its entry there sign * y^(t-1), and blocks[r] the rows of
    ``classes``, in order, of the block of the columns c = r (mod B)."""
    periods = {period for _, _, period, _ in classes} or {1}
    B, L = min(periods), 2 * max(periods)
    # the sign depends on c mod 2 * period, which divides L
    meets = [[] for _ in range(L)]
    blocks = [[] for _ in range(B)]
    for i, (t, q, period, alternate) in enumerate(classes):
        blocks[q % B].append(classes[i])
        for k, r in enumerate(range(q, L, period)):
            meets[r].append((i, t - 1, -1 if alternate and k % 2 else 1))
    return B, L, meets, blocks


class _ParityChain:
    """Ranks of the condition systems of degrees parity, parity + 2, ...,
    grown column by column as far as asked, and kept (``rank``).

    At degree D, column s of ``grouped_rows`` carries x = D - 2s, and row
    (t, p, period, alternate) of ``row_classes`` is +-x^(2t-1) where
    s = p (mod period), its sign flipping at each step when ``alternate``.
    Write c = s - D // 2, so x = parity - 2c.  Index the rows by the class
    q = p - D // 2 (mod period) of c instead, each with sign
    (-1)^((c - q) / period) when alternating.  Every level of
    ``row_classes`` holds one row for each class p = 0..period-1, so this
    permutes the rows and flips whole rows, and the rank stays.  In that
    form the entry of a row at column c does not depend on D.  The system
    of degree D + 2 is thus the system of degree D with the same rows and
    two new columns, c = -(D // 2) - 1 and c = D - D // 2 + 1, so

        rank(D + 2) = rank(D) + (new columns independent of the column span).

    Column c meets only the rows with q = c (mod period), and every period
    is a multiple of the smallest one, B, so the columns split into blocks
    c mod B with disjoint rows and the rank is the sum of the block ranks.
    Each block keeps one echelon basis of its columns
    (``scalars.reduce_into``).  A block's rank is at most its number of
    rows (``blocks``); once it is reached, every later column of the block
    lies in the span, so it is skipped and the rank stays exact.  x = 0
    gives a zero column, which adds nothing; any other column is divided by
    its x, which keeps the rank, so its entries are +-y^(t-1) with y = x^2.

    Once every block is full, the rank is the number of rows at every later
    degree and the chain stops for good.  That happens by degree
    2 * L * levels, L twice the largest period and levels the highest t.
    Column c meets one row per level, and the sign of its entry there
    depends only on c mod L, so the columns of one class c mod L are
    +-y^(t-1) on the same rows, and ``levels`` of them with distinct
    nonzero y span those rows (Vandermonde).  The columns c = 1..L * levels,
    all present by that degree, give each class ``levels`` distinct |x|,
    and the classes of a block meet all of its rows.  A chain not full
    there raises ``ChainNotSaturated``.
    """

    def __init__(self, classes: tuple, parity: int):
        _, L, self.meets, self.blocks = _column_layout(classes)
        self.bases = [{} for _ in self.blocks]
        self.parity, self.rows = parity, len(classes)
        self.full_by = 2 * L * max((t for t, *_ in classes), default=0)
        self.ranks = []   # ranks[k]: the rank at degree parity + 2k
        self.last = 0     # the last rank, or 0 before the first

    def rank(self, degree: int) -> int:
        """The rank at ``degree``, of the chain's parity: the chain grows to
        it, unless every block is full and the rank is the row count."""
        B, L = len(self.bases), len(self.meets)
        while len(self.ranks) <= degree // 2 and self.last < self.rows:
            D = self.parity + 2 * len(self.ranks)
            # the new columns of degree D; the first degree has c = 0..D
            new = (-(D // 2), D - D // 2) if D > 1 else range(D + 1)
            for c in new:
                basis, x = self.bases[c % B], self.parity - 2 * c
                if len(basis) < len(self.blocks[c % B]) and x:
                    y = x * x
                    self.last += reduce_into(basis, {
                        i: sign * y ** e for i, e, sign in self.meets[c % L]})
            if self.last < self.rows and D >= self.full_by:
                raise ChainNotSaturated(
                    f"rank {self.last} of {self.rows} rows at degree {D}")
            self.ranks.append(self.last)
        k = degree // 2
        return self.ranks[k] if k < len(self.ranks) else self.rows


@lru_cache(maxsize=32)
def _parity_chain(classes: tuple, parity: int) -> _ParityChain:
    """The one kept chain of a row set and parity: keyed on the rows, so a
    changed ``row_classes`` gets a chain of its own."""
    return _ParityChain(classes, parity)


def quasi_dimensions(sys: DihedralSystem, top: int) -> list[int]:
    """Entry d is the dimension of the homogeneous quasi-invariants of
    degree d, for d = 0..top: (d + 1) minus the rank of its condition
    system, read off the two kept chains of ``_ParityChain``."""
    if top < 0:
        raise ValueError("top degree must be nonnegative")
    classes = tuple(row_classes(sys))
    chains = (_parity_chain(classes, 0), _parity_chain(classes, 1))
    return [d + 1 - chains[d % 2].rank(d) for d in range(top + 1)]


def quasi_dimension(sys: DihedralSystem, degree: int) -> int:
    """Dimension of the homogeneous quasi-invariants of one degree, as
    (degree + 1) minus the exact rank of the condition system, read off the
    kept chain of degrees of its parity (``_ParityChain``)."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return degree + 1 - _parity_chain(tuple(row_classes(sys)),
                                      degree % 2).rank(degree)


class _NullChain:
    """The null vectors of the condition systems of degrees parity,
    parity + 2, ..., grown as far as asked and kept (``new_at``), as sparse
    primitive integer rows in the columns c of ``_ParityChain``.

    There, column c = s - D // 2 divided by x = parity - 2c has entries that
    do not depend on D, on the rows of degree D permuted and some negated.
    So a dependency among the columns of degree D is one among the same
    columns of degree D + 2: the null vector moved one column on, sigma1
    times it.  Each column with x != 0 is reduced into its block's basis
    with a tag entry 1 at a key of its own above every row index, even once
    the block is full (``scalars.reduce_tagged``, the tagged columns of
    ``scalars.nullspace``).  A remainder with no row entry left is a
    dependency lambda, kept out of the basis; its null vector is
    a_c = lambda_c / x_c, cleared to primitive integers.  The zero
    column x = 0 gives its unit vector.  The vectors found up to degree D,
    moved D // 2 columns on, span the quasi-invariants of degree D: each
    holds the tag of its own newest column, which no earlier one holds, so
    they are independent, and there is one per column that did not raise the
    rank.  Each vector is checked once, when found: every row of its block
    is summed over the vector's support alone, from D and the row, not
    from the layout's entries; a nonzero sum raises ``NullVectorMismatch``.
    """

    def __init__(self, classes: tuple, parity: int):
        _, self.L, self.meets, self.blocks = _column_layout(classes)
        self.bases = [{} for _ in self.blocks]
        # tag keys start at tag0, past every row index
        self.parity, self.tag0 = parity, len(classes)
        self.tags = []    # tags[k]: the column of tag key tag0 + k
        self.found = []   # found[k]: the vectors new at degree parity + 2k

    def new_at(self, degree: int) -> list[dict[int, int]]:
        """The null vectors first found at ``degree``, of the chain's
        parity; the chain grows to it."""
        B, parity = len(self.bases), self.parity
        while len(self.found) <= degree // 2:
            D = parity + 2 * len(self.found)
            new = []
            for c in (-(D // 2), D - D // 2) if D > 1 else range(D + 1):
                if c * 2 == parity:
                    new.append({c: 1})
                    continue
                basis, y = self.bases[c % B], (parity - 2 * c) ** 2
                column = {i: sign * y ** e
                          for i, e, sign in self.meets[c % self.L]}
                column[self.tag0 + len(self.tags)] = 1
                self.tags.append(c)
                row = reduce_tagged(basis, column, self.tag0)
                if row is None:
                    continue
                lam = {self.tags[k - self.tag0]: v for k, v in row.items()}
                m = lcm(*(parity - 2 * col for col in lam))
                vector = {col: v * (m // (parity - 2 * col))
                          for col, v in lam.items()}
                g = gcd(*vector.values())
                new.append({col: v // g for col, v in vector.items()})
            for vector in new:
                for row in self.blocks[(next(iter(vector)) + D // 2) % B]:
                    t, p, period, alternate = row
                    residual = 0
                    for c, v in vector.items():
                        k, r = divmod(c + D // 2 - p, period)
                        if not r:
                            x = v * (parity - 2 * c) ** (2 * t - 1)
                            residual += -x if alternate and k % 2 else x
                    if residual:
                        raise NullVectorMismatch(
                            f"null vector {vector} at degree {D} leaves "
                            f"{residual} on row {row}")
            self.found.append(new)
        return self.found[degree // 2]


def quasi_basis(sys: DihedralSystem, degree: int) -> list[BiPoly]:
    """Basis of the homogeneous quasi-invariants of one degree, from the
    exact null space of the dense condition rows (``grouped_rows``);
    deterministic order."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return [CoeffVector(degree, vec).to_poly()
            for vec in nullspace(grouped_rows(sys, degree), degree + 1)]


# ---------------------------------------------------------------------------
# cross-validation of the two checkers
# ---------------------------------------------------------------------------

def _orbits(sys: DihedralSystem):
    return (0, 1) if sys.is_even else (0,)


def _first_failure_grouped(sys, coeffs: CoeffVector, orbit: int):
    """The lowest level t at which a residue-class sum of the orbit is
    nonzero: the classes p = 0..P-1 modulo the period P, sign-alternating
    on the odd-index orbit of an even arrangement; None when none is."""
    mult = sys.multiplicity(orbit)   # line 0 or 1 lies in that orbit
    P = sys.period
    for t in range(1, mult + 1):
        for p in range(P):
            if _class_sum(coeffs.entries, coeffs.degree, t, p, P, orbit == 1):
                return t
    return None


def _first_failing_levels(sys: DihedralSystem, poly: BiPoly) -> dict:
    """{orbit: lowest failing level (order + 1) // 2} of the per-line
    checker on a homogeneous ``poly``; an orbit without a nonzero residue
    is absent.  ``_nonzero_residues`` runs order by order within the one
    component, so the first residue on an orbit has its lowest failing
    order, and the residues are read only until every orbit of positive
    multiplicity has one.  A polynomial with several components could fail
    at a lower order in a later component, so this is exact for
    homogeneous input only."""
    wanted = sum(1 for orbit in _orbits(sys) if sys.multiplicity(orbit))
    levels = {}
    for _, j, k, _, _ in _nonzero_residues(sys, poly):
        levels.setdefault(sys.orbit(j), (k + 1) // 2)
        if len(levels) == wanted:
            break
    return levels


def crosscheck_checkers(sys: DihedralSystem, trials: int, max_degree: int,
                        seed: int = 0) -> bool:
    """Run both checkers on seeded random homogeneous polynomials.

    Agreement means identical verdicts and, on failures, identical first
    failing level per orbit.  The per-line side reads the nonzero residues
    of ``check_per_line``, without rendering their texts, and stops once
    every orbit of positive multiplicity has its first one
    (``_first_failing_levels``): the residues come order by order, and each
    trial polynomial is homogeneous, so that first residue carries the
    orbit's lowest failing level, and the verdict and the levels are all
    that is compared.  A passing trial reads every residue.  Every few
    trials a random integer combination of the basis of the degree is used
    instead, so the passing branch is exercised too; it is summed over the
    null vectors of ``_NullChain`` up to the degree, one weight per vector
    in the order they were found, and becomes one polynomial.
    Returns True when all trials agree; trials < 1 raise ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    classes = row_classes(sys)
    chains = (_NullChain(classes, 0), _NullChain(classes, 1))
    for trial in range(trials):
        degree = rng.randint(0, max_degree)
        if trial % 5 == 4:
            entries = [0] * (degree + 1)
            for e in range(degree % 2, degree + 1, 2):
                for vec in chains[degree % 2].new_at(e):
                    w = rng.randint(-3, 3)
                    for c, x in vec.items():
                        entries[c + degree // 2] += w * x
            coeffs = CoeffVector(degree, tuple(entries))
        else:
            coeffs = CoeffVector(degree, tuple(rng.randint(-5, 5)
                                               for _ in range(degree + 1)))
        poly = coeffs.to_poly()
        levels = _first_failing_levels(sys, poly)
        failing = any(_class_sum(coeffs.entries, degree, *cls)
                      for cls in classes)
        if bool(levels) != failing:
            return False
        if levels:
            for orbit in _orbits(sys):
                if levels.get(orbit) != \
                        _first_failure_grouped(sys, coeffs, orbit):
                    return False
    return True
