"""Exact scalar arithmetic and exact linear algebra.

Everything downstream works over two coefficient domains: arbitrary-precision
rationals and cyclotomic fields Q(zeta_M).  A rational is stored in one
canonical form (``rational``): an ``int`` when it is integral, otherwise a
``fractions.Fraction`` in lowest terms with denominator above 1, so integer
input stays on integer arithmetic.  A cyclotomic element is stored
as the residue polynomial in zeta modulo the M-th cyclotomic polynomial, so
the representation is canonical: two field elements are equal exactly when
their coefficient vectors are equal.  ``reduce_mod_cyclotomic`` is the one
reduction routine; it computes the remainder modulo the integer cyclotomic
polynomial x^phi + (lower terms) without forming a quotient, replacing each
power x^k with k >= phi, from the top down, through x^phi = -(lower terms),
one step per nonzero lower coefficient.  The field operations go through
it: a root of unity zeta^k is the list with a single 1 at position k,
reduced; conjugation moves the coefficient of zeta^k to position -k mod M
and reduces once; and the inverse of a is the solution of the linear
system a * x = 1 over Q, whose k-th column is the reduced a * zeta^k,
solved by the elimination kernel below.

All linear algebra but one routine runs through one elimination kernel,
``_echelon``: fraction-free (Bareiss 1968) elimination of integer rows in
place.  Rational rows are first scaled to integers with integer arithmetic
only, and rows that are already integers are used as they are.  Each update
is

    x' = (x * pivot - lead * y) // prev,

with prev the previous pivot.  After k pivots every entry below them is the
(k+1)-minor of the scaled input on the pivot rows and columns plus its own
row and column (Sylvester's identity), so the division is exact and the
entries stay integers of polynomially bounded size.  Forward elimination
gives the rank (the number of pivots) and the determinant (the sign of the
row permutation times the last pivot, over the scaling).  Reduced
elimination also clears the rows above each pivot; the entries are then
minors by Cramer's rule, every pivot row ends with the same pivot value d,
and entry x of a row with pivot d is the entry x / d of the reduced row
echelon form.  The null space is read off that form, and a linear system
A x = b is solved on the null space of [A | -b], so the only ``Fraction``
in the linear algebra is built after elimination, one per non-integral
entry of a null-space vector, whose entries are canonical rationals.

Rank and null space, and so solve, first split the matrix into column
blocks by union-find: two columns share a block when some row is nonzero in
both, every column lies in exactly one block, and a column that no row
touches is a block with no rows.  Elimination inside one block never
touches another.  The rank is the sum of the block ranks, as for any
block-diagonal matrix.  The block RREFs together satisfy the RREF
conditions and span the row space, so by the uniqueness of the RREF they
are the RREF of the whole matrix, and the null space vectors, one per free
column in ascending order, are the ones a whole-matrix elimination gives.
The same holds for any coarser split into blocks that cover every column
and share no row; union-find gives the finest.  The split stays because
Bareiss inflates block-diagonal input: it scales every row by each earlier
pivot, those of other blocks too, so the entries of a dense condition
system of many residue classes would grow with the pivots of all of them.

The one other routine, ``reduce_into``, keeps a growing echelon basis of
sparse primitive integer rows and inserts one row at a time.  It serves a
rank that grows by vectors added to a span that is already reduced (the
freeness products along a sigma1 chain, and the condition columns of the
dimension oracle along a parity chain of degrees), where eliminating the
whole matrix again for every addition would repeat all earlier work.  No
rounding occurs anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
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


class CycloElem:
    """An element of Q(zeta_M), M = self.order.

    The coefficient vector has length phi(M) and represents the residue
    polynomial c0 + c1*zeta + ... modulo the M-th cyclotomic polynomial; its
    entries are canonical rationals (``rational``).  Instances are immutable
    and hashable; equality is coefficient equality.
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

    def conjugate(self) -> CycloElem:
        """Image under zeta -> zeta^(-1) (complex conjugation on Q(zeta)):
        the coefficient of zeta^k moves to zeta^(-k mod M)."""
        M = self.order
        moved = [0] * M
        for k, c in enumerate(self.coeffs):
            moved[-k % M] = c
        return CycloElem(M, moved)

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycloElem):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"CycloElem({self.order}, {list(self.coeffs)!r})"

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"({c})*zeta")
            else:
                parts.append(f"({c})*zeta^{k}")
        return " + ".join(parts) if parts else "0"


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


def _cleared_int_rows(rows):
    """Scale each row to integers; return (int rows, product of scalings).

    Rows whose entries are all ``int`` are passed through as they are, so a
    caller that eliminates in place must hand in rows it owns.  The type
    test runs in C (``map(type, row)``), with no Python step per entry.
    """
    out = []
    scale = 1
    for row in rows:
        if _INT.issuperset(map(type, row)):
            out.append(row)
            continue
        mult = lcm(*(e.denominator for e in row))
        scale *= mult
        out.append([e.numerator * (mult // e.denominator) for e in row])
    return out, scale


def _column_blocks(rows, ncols: int):
    """The column blocks of the first ``ncols`` columns, by union-find: two
    columns are in one block when some row is nonzero in both.  Returns one
    (row indices, ascending column indices) pair per block, ordered by the
    block's first column.  Every column is in exactly one block, so a column
    that every row leaves zero is a block with no rows; a row that is zero
    on those columns is in no block."""
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    supports = [list(compress(range(ncols), row)) for row in rows]
    for support in supports:
        if support:
            root = find(support[0])
            for c in support[1:]:
                other = find(c)
                if other != root:
                    parent[other] = root
    blocks = {}
    for c in range(ncols):
        blocks.setdefault(find(c), ([], []))[1].append(c)
    for i, support in enumerate(supports):
        if support:
            blocks[find(support[0])][0].append(i)
    return list(blocks.values())


def _int_blocks(rows, ncols: int):
    """The first ``ncols`` columns of ``rows``, one (integer rows, columns)
    pair per ``_column_blocks`` block: each row a new list of the block's
    columns, scaled to integers.  A row shorter than ``ncols`` raises
    ``ValueError``, rather than reading zeros."""
    if any(len(row) < ncols for row in rows):
        raise ValueError(f"every row must hold at least {ncols} entries")
    return [(_cleared_int_rows([[rows[i][c] for c in cols]
                                for i in row_ids])[0], cols)
            for row_ids, cols in _column_blocks(rows, ncols)]


def _echelon(m, ncols: int, reduce: bool = False):
    """Fraction-free elimination of the integer rows ``m``, in place.

    Pivots are sought in the first ``ncols`` columns, in order; later
    columns are carried along.  Every update is the Bareiss step
    (x * pivot - lead * y) // prev, exact because every entry stays a minor
    of the input.  With ``reduce`` the rows above each pivot are cleared
    too, and every pivot row ends with the last pivot at its pivot column.
    Returns (pivot columns, sign of the row permutation).
    """
    nrows = len(m)
    pivots = []
    sign = 1
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        top = m[r]
        pivot = top[col]
        for i in range(0 if reduce else r + 1, nrows):
            if i == r:
                continue
            row = m[i]
            lead = row[col]
            # rows below are zero left of col; rows above are not
            for j in range(col + 1 if i > r else 0, len(row)):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
            row[col] = 0
        prev = pivot
        pivots.append(col)
        if r + 1 == nrows:
            break
    return pivots, sign


def reduce_into(basis: dict, row: dict) -> bool:
    """Reduce a sparse rational ``row`` against an echelon ``basis`` and
    insert what is left; True when the row is independent of the basis.

    ``row`` maps columns to its nonzero entries.  ``basis`` maps each lead
    column to the one primitive integer row ({column: int}) that starts
    there, with a positive lead, so its rows are independent and
    ``len(basis)`` is their rank.  A row with a ``Fraction`` entry has its
    denominators cleared once.  While the row's lead column holds a basis
    row, the two rows are cross-multiplied by their leads over the leads'
    gcd, which cancels that entry (a basis lead that divides the row's lead
    leaves the row unscaled); the basis row is zero left of its lead, so the
    lead moves right.  A row that reaches zero lies in the span; otherwise
    it is divided by its content, signed like its lead, and inserted at its
    lead.  The basis rows never change, so each step adds at most the size
    of one basis lead to the row's entries.
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


def det_fraction_free(matrix) -> Fraction:
    """Exact determinant via Bareiss elimination; the 0x0 determinant is 1."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return Fraction(1)
    m, scale = _cleared_int_rows(rows)
    pivots, sign = _echelon(m, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * m[n - 1][n - 1], scale)


def solve_exact(matrix, rhs) -> list[int | Fraction]:
    """Unique exact solution of a nonsingular square system A x = b."""
    rows = list(matrix)
    kind, x = solve_affine(rows, rhs, len(rows))
    if kind != "unique":
        raise SingularMatrix("matrix is singular")
    return x


def exact_rank(rows, ncols: int | None = None) -> int:
    """Rank over Q of the first ``ncols`` columns (default: all), as the sum
    of the ranks of the independent column blocks."""
    rows = list(rows)
    if not rows:
        return 0
    ncols = len(rows[0]) if ncols is None else ncols
    return sum(len(_echelon(m, len(cols))[0])
               for m, cols in _int_blocks(rows, ncols))


def nullspace(rows, ncols: int) -> list[tuple[int | Fraction, ...]]:
    """Basis of the exact null space of the first ``ncols`` columns, one
    vector per free column, in ascending free-column order (deterministic);
    the entries are canonical rationals (``rational``).

    Each column block is reduced on its own by ``_echelon``, which gives
    the basis of a whole-matrix elimination (module doc).  After reduced
    elimination every pivot row of a block holds the same pivot value d,
    the block's last pivot, so the RREF entry of pivot row i at a free
    column is x_i / d, and the null vector of that column is 1 there and
    -x_i / d at the pivot column of row i.  A block without a pivot, one
    without rows included, has d = 1."""
    found = {}
    for m, cols in _int_blocks(list(rows), ncols):
        pivots, _ = _echelon(m, len(cols), reduce=True)
        d = m[len(pivots) - 1][pivots[-1]] if pivots else 1
        is_pivot = set(pivots)
        for k, free in enumerate(cols):
            if k not in is_pivot:
                vec = [0] * ncols
                vec[free] = 1
                for top, pk in zip(m, pivots):
                    if top[k]:
                        q, r = divmod(-top[k], d)
                        vec[cols[pk]] = Fraction(-top[k], d) if r else q
                found[free] = tuple(vec)
    return [found[free] for free in sorted(found)]


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
