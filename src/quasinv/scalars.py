"""Exact scalar arithmetic and exact linear algebra.

The polynomials that the pipeline builds, reads and checks have
arbitrary-precision rational coefficients.  A rational is stored in one
canonical form (``rational``): an ``int`` when it is integral, otherwise a
``fractions.Fraction`` in lowest terms with denominator above 1, so integer
input stays on integer arithmetic.  The per-line kernels of ``quasi`` and
``calogero`` take rational polynomials only; their residues on a line live
in the cyclotomic field Q(zeta_M) and are reduced, as integer vectors,
modulo the M-th cyclotomic polynomial.  A ``CycloElem`` is stored as such
a residue polynomial in zeta, so the representation is canonical: two
field elements are equal exactly when their coefficient vectors are equal.
``residue_text`` is the one text of a residue vector: ``check`` prints its
integer residues through it, with no field element built, and so does
``CycloElem.__str__``.  ``reduce_mod_cyclotomic`` is the one reduction
routine; it computes the remainder modulo the integer cyclotomic
polynomial x^phi + (lower terms) without forming a quotient,
replacing each power x^k with k >= phi, from the top down, through
x^phi = -(lower terms), one step per nonzero lower coefficient.  The field
operations go through it: a root of unity zeta^k is the list with a single
1 at position k, reduced, and the inverse of a is the solution of the
linear system a * x = 1 over Q, whose k-th column is the reduced
a * zeta^k, solved by ``solve_exact`` below.

Rank, null space and solve run on one routine, ``reduce_into``, which
keeps a growing echelon basis of sparse primitive integer rows and inserts
one row at a time: cross-multiplying by the two leads over their gcd
cancels a lead, and each remainder is divided by its content.  It serves
a rank that grows by vectors added to a span that is already reduced (the
freeness products along a sigma1 chain, and the condition columns of the
dimension oracle along a parity chain of degrees), where eliminating the
whole matrix again for every addition would repeat all earlier work, and
the rank of a whole matrix is the size of the basis of its rows.

The null space reduces columns, each tagged (``reduce_tagged``): column c
goes in as a sparse row over the row indices with one more entry 1 at its
own tag key, past every row index.  Every step is linear, so the tags of a
remainder hold the coefficients of the input columns in the combination
that the remainder is.  A remainder with a row entry left is a new basis
row, and c a pivot column.  A remainder with only tags left is a
dependency lambda, sum lambda_k column_k = 0, among column c and the
pivot columns before it, whose tags alone the basis holds.  lambda /
lambda_c is then a null vector with 1 at c and 0 at every other free
column; a null vector is fixed by its free entries, so it is the vector of
free column c that the reduced row echelon form gives.  The only
``Fraction`` in the linear algebra is built there, after elimination, one
per non-integral entry, and a linear system A x = b is solved on the null
space of [A | -b].  On block-diagonal input a column meets a basis row
only at the row's lead, a row index of its own block, so one block's
reduction is never scaled by another block's leads, and the entries stay
as small as eliminating each block on its own would keep them.

The determinant is the one fraction-free (Bareiss 1968) elimination.
Rational rows are first scaled to integers with integer arithmetic only,
and rows that are already integers are used as they are.  Each update is

    x' = (x * pivot - lead * y) // prev,

with prev the previous pivot.  After k pivots every entry below them is the
(k+1)-minor of the scaled input on the pivot rows and columns plus its own
row and column (Sylvester's identity), so the division is exact and the
entries stay integers of polynomially bounded size.  The determinant is
the sign of the row permutation times the last pivot, over the scaling, or
0 at the first column with no pivot.  No rounding occurs anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from math import gcd, lcm

from .errors import (CyclotomicRemainder, OrderMismatch, ResidueNotInvertible,
                     SingularMatrix)


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod_monic(num, den):
    """Divide coefficient lists (ascending) by a monic divisor; exact over Z."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            quot[k - dd] = c
            for j, dj in enumerate(den):
                num[k - dd + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients, ascending, of the cyclotomic polynomial of that order.

    Computed by dividing x^order - 1 by the cyclotomic polynomials of all
    proper divisors; the result is monic with integer coefficients and
    divides x^order - 1 exactly.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            poly, rem = _poly_divmod_monic(poly, list(cyclotomic_polynomial(d)))
            if rem:
                raise CyclotomicRemainder(
                    f"x^{order} - 1 leaves remainder {rem} on division by "
                    f"the cyclotomic polynomial of order {d}")
    return tuple(poly)


def euler_phi(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


# ---------------------------------------------------------------------------
# cyclotomic field elements
# ---------------------------------------------------------------------------

def rational(c) -> int | Fraction:
    """The canonical form of a rational: an ``int`` when it is integral, a
    ``Fraction`` with denominator above 1 otherwise."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def residue_text(coeffs, scale: int = 1) -> str:
    """sum c_k zeta^k, c_k = coeffs[k] / scale, as text: c_0, (c_1)*zeta,
    (c_k)*zeta^k, zero terms left out and the rest joined by " + ", or "0";
    c_k prints as its ``rational`` would.  Ints when scale is above 1."""
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if scale != 1:
            g = gcd(c, scale)
            c = c // g if g == scale else f"{c // g}/{scale // g}"
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append(f"({c})*zeta")
        else:
            parts.append(f"({c})*zeta^{k}")
    return " + ".join(parts) if parts else "0"


class CycloElem:
    """An element of Q(zeta_M), M = self.order.

    The coefficient vector has length phi(M) and represents the residue
    polynomial c0 + c1*zeta + ... modulo the M-th cyclotomic polynomial; its
    entries are canonical rationals (``rational``).  Instances are immutable
    and hashable; equality is coefficient equality; the text is
    ``residue_text`` of the coefficients.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        coeffs = list(coeffs)
        if len(coeffs) > phi:
            coeffs = reduce_mod_cyclotomic(coeffs, order)
        coeffs = [rational(c) for c in coeffs]
        coeffs += [0] * (phi - len(coeffs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CycloElem is immutable")

    @classmethod
    def from_rational(cls, order: int, value) -> CycloElem:
        return cls(order, [value])

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> int | Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloElem):
            if other.order != self.order:
                raise OrderMismatch(
                    f"orders {self.order} and {other.order} differ")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElem.from_rational(self.order, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloElem(self.order,
                         [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloElem(self.order,
                         [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycloElem(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElem(self.order, [a * other for a in self.coeffs])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloElem(self.order, _poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> CycloElem:
        """The x with self * x = 1, from the phi x phi system whose column k
        is the residue of self * zeta^k."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        phi = len(self.coeffs)
        columns = [CycloElem(self.order, [0] * k + list(self.coeffs)).coeffs
                   for k in range(phi)]
        try:
            x = solve_exact(list(zip(*columns)), [1] + [0] * (phi - 1))
        except SingularMatrix as exc:
            # the cyclotomic polynomial is irreducible, so this is a bug
            raise ResidueNotInvertible(
                f"residue {list(self.coeffs)} is not invertible modulo the "
                f"cyclotomic polynomial of order {self.order}") from exc
        return CycloElem(self.order, x)

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycloElem):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        # a rational element equals its rational, so it hashes like it
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"CycloElem({self.order}, {list(self.coeffs)!r})"

    def __str__(self):
        return residue_text(self.coeffs)


@lru_cache(maxsize=None)
def _cyclotomic_tail(order: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi, tail) for the cyclotomic polynomial x^phi + sum p_t x^t of
    that order: ``tail`` holds the (t, p_t) with t < phi and p_t nonzero,
    so that x^phi = -sum p_t x^t modulo it."""
    poly = cyclotomic_polynomial(order)
    phi = len(poly) - 1
    return phi, tuple((t, c) for t, c in enumerate(poly[:phi]) if c)


def reduce_mod_cyclotomic(coeffs, order: int) -> list:
    """Remainder of the polynomial with these ascending coefficients (int
    or Fraction) modulo the cyclotomic polynomial of that order, with
    trailing zeros removed: empty exactly when the residue is zero.

    The quotient is never formed.  From the top down, each coefficient c
    at a position k >= phi is replaced by x^(k - phi) times -c * tail, so
    only the nonzero lower coefficients of the cyclotomic polynomial cost a
    step (Phi_16 = x^8 + 1 has one)."""
    phi, tail = _cyclotomic_tail(order)
    num = list(coeffs)
    for k in range(len(num) - 1, phi - 1, -1):
        c = num[k]
        if c:
            base = k - phi
            for t, p in tail:
                num[base + t] -= c * p
    del num[phi:]
    while num and num[-1] == 0:
        num.pop()
    return num


def root_of_unity(order: int, k: int) -> CycloElem:
    """Canonical representation of zeta_order^k, k taken modulo order."""
    return _root_of_unity(order, k % order)


@lru_cache(maxsize=None)
def _root_of_unity(order: int, k: int) -> CycloElem:
    # shared between callers, which is safe because CycloElem is immutable
    return CycloElem(order, [0] * k + [1])


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

_INT = frozenset((int,))


def reduce_into(basis: dict, row: dict) -> bool:
    """Reduce a sparse rational ``row`` against an echelon ``basis`` and
    insert what is left; True when the row is independent of the basis.

    ``row`` maps keys to its nonzero entries.  ``basis`` maps each lead
    key to the one primitive integer row ({key: int}) that starts there,
    with a positive lead, so its rows are independent and ``len(basis)`` is
    their rank.  A row with a ``Fraction`` entry has its denominators
    cleared once.  While the row's lead key holds a basis row, the two rows
    are cross-multiplied by their leads over the leads' gcd, which cancels
    that entry (a basis lead that divides the row's lead leaves the row
    unscaled); the basis row is zero left of its lead, so the lead moves
    right.  A row that reaches zero lies in the span; otherwise it is
    divided by its content, signed like its lead, and inserted at its lead,
    as the last key of ``basis``.  The basis rows never change, so each
    step adds at most the size of one basis lead to the row's entries.
    """
    if _INT.issuperset(map(type, row.values())):
        row = dict(row)
    else:
        mult = lcm(*(e.denominator for e in row.values()))
        row = {c: e.numerator * (mult // e.denominator)
               for c, e in row.items()}
    while row:
        lead = min(row)
        top = basis.get(lead)
        if top is None:
            content = gcd(*row.values())
            if row[lead] < 0:
                content = -content
            basis[lead] = {c: e // content for c, e in row.items()}
            return True
        g = gcd(top[lead], row[lead])
        a, b = top[lead] // g, row[lead] // g
        if a != 1:
            row = {c: a * e for c, e in row.items()}
        for c, e in top.items():
            e = row.get(c, 0) - b * e
            if e:
                row[c] = e
            else:
                del row[c]
    return False


def reduce_tagged(basis: dict, column: dict, tag0: int) -> dict | None:
    """Reduce a tagged ``column`` into ``basis`` (``reduce_into``); return
    the remainder when only tags are left, else None.

    The keys from ``tag0`` up are tags, past every other key, and
    ``column`` holds a tag that no basis row holds, so a remainder is left
    and inserted last.  When its lead is a tag, the column depends on the
    columns whose tags the basis holds: the remainder is taken out of the
    basis again and returned, and its entries are the coefficients of a
    combination of the tagged columns that vanishes (module doc).
    Otherwise the remainder stays in the basis, and None is returned."""
    reduce_into(basis, column)
    lead, row = basis.popitem()
    if lead < tag0:
        basis[lead] = row
        return None
    return row


def det_fraction_free(matrix) -> Fraction:
    """Exact determinant by Bareiss elimination (module doc); the 0x0
    determinant is 1."""
    m = [list(r) for r in matrix]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant requires a square matrix")
    scale = 1
    for i, row in enumerate(m):
        if not _INT.issuperset(map(type, row)):
            mult = lcm(*(e.denominator for e in row))
            scale *= mult
            m[i] = [e.numerator * (mult // e.denominator) for e in row]
    sign, prev = 1, 1
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if m[i][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        top = m[col]
        pivot = top[col]
        for row in m[col + 1:]:
            lead = row[col]
            for j in range(col + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return Fraction(sign * prev, scale)


def solve_exact(matrix, rhs) -> list[int | Fraction]:
    """Unique exact solution of a nonsingular square system A x = b."""
    rows = list(matrix)
    kind, x = solve_affine(rows, rhs, len(rows))
    if kind != "unique":
        raise SingularMatrix("matrix is singular")
    return x


def exact_rank(rows, ncols: int | None = None) -> int:
    """Rank over Q of the first ``ncols`` columns (default: all): the size
    of a ``reduce_into`` basis of the rows.  A row shorter than ``ncols``
    raises ``ValueError``, rather than reading zeros."""
    rows = list(rows)
    if not rows:
        return 0
    ncols = len(rows[0]) if ncols is None else ncols
    if any(len(row) < ncols for row in rows):
        raise ValueError(f"every row must hold at least {ncols} entries")
    basis = {}
    for row in rows:
        reduce_into(basis, dict(compress(zip(range(ncols), row), row)))
    return len(basis)


def nullspace(rows, ncols: int) -> list[tuple[int | Fraction, ...]]:
    """Basis of the exact null space of the first ``ncols`` columns, one
    vector per free column, in ascending free-column order (deterministic);
    the entries are canonical rationals (``rational``).

    Column c goes into one ``reduce_into`` basis as a sparse row over the
    row indices, tagged with an entry 1 at key nrows + c (``reduce_tagged``).
    A remainder with only tags left is a dependency lambda among column c
    and the pivot columns before it, and the null vector of free column c
    is lambda / lambda_c, the one of the reduced row echelon form (module
    doc).  A row shorter than ``ncols`` raises ``ValueError``."""
    rows = list(rows)
    if any(len(row) < ncols for row in rows):
        raise ValueError(f"every row must hold at least {ncols} entries")
    tag0 = len(rows)
    basis = {}
    found = []
    for c, column in zip(range(ncols), zip(*rows) if rows else repeat(())):
        tagged = dict(compress(enumerate(column), column))
        tagged[tag0 + c] = 1
        lam = reduce_tagged(basis, tagged, tag0)
        if lam is not None:
            top = lam[tag0 + c]
            vec = [0] * ncols
            for k, v in lam.items():
                q, r = divmod(v, top)
                vec[k - tag0] = Fraction(v, top) if r else q
            found.append(tuple(vec))
    return found


def solve_affine(rows, rhs, ncols: int):
    """Solve a general linear system exactly.

    Returns ("unique", x), ("none", None) or ("many", None) according to the
    structure of the affine solution set; x holds canonical rationals.  The
    solutions are the null vectors of [A | -b] whose last entry is 1.  A
    pivot in the last column makes that entry 0 in every null vector, as
    its reduced row is zero on every earlier column, so the system is
    consistent exactly when the last column is free, and the solution is
    unique exactly when no other column is free.  A ragged system, with
    ``rhs`` or a row of the wrong length, raises ``ValueError``.
    """
    rows = list(rows)
    if len(rhs) != len(rows):
        raise ValueError("right-hand side length mismatch")
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"every row must hold {ncols} entries")
    basis = nullspace([[*row, -b] for row, b in zip(rows, rhs)], ncols + 1)
    if not basis or basis[-1][ncols] != 1:
        return "none", None
    if len(basis) > 1:
        return "many", None
    return "unique", list(basis[0][:ncols])
