"""Free-module generators of the quasi-invariant ring over the invariants,
for every dihedral arrangement, built along two independent routes.

Write P for the rotation period of one class of lines (``period``: M/2 for
even M, M for odd M) and top = (m + n) M / 2, an integer because odd M has
m = n.  For even M = 2N four generators come from the invariant chain:

    q0 = 1,
    q1 = (z^N + zb^N)^(2n+1),
    q2 = (z^N - zb^N)^(2m+1),
    q3 = q1 * q2;

for odd M only two do: q0 = 1 and q3 = (z^M - zb^M)^(2m+1), the product of
the M line forms to the power 2m+1.  This chain is the one place where the
two parities differ.  The remaining generators come in pairs with the
normal form

    q1_i = sum_{s = 0, P, 2P, ..., top} a_s z^{top - s + i} zb^s,   a_0 = 1,

for 1 <= i <= M-1, 2i != M, with q2_i its exponent-swapped mirror image;
with the chain they number 2M.  The coefficients solve the residue-class
quasi-invariance conditions of ``quasi.class_row`` at the degree
D = top + i, restricted to the support columns s: on it the rows
(D - 2s)^(2t-1) collapse to a square system.  Levels t up to min(m, n) give
one equation per class p = 0, P, ... modulo M: an even-s and an odd-s
equation for even M (p = 0 and p = N modulo 2N), one equation for odd M.
The remaining levels of the larger multiplicity of an even arrangement give
one full row each (the class p = 0 modulo N): plain sums when the
even-index class is larger, sign-alternating sums otherwise.  The degree of
every generator is read off the built polynomial, and ``full_basis`` checks
the degrees against the exponents of the Poincare polynomial
(``poincare.degree_table``).

Correctness is not assumed from this construction: ``quasinv verify``
checks that every generator lies in Q, that it is annihilated by the
Calogero-Moser operator and is the unique normal form of its degree, that
the degrees match the Poincare polynomial, that the Hilbert series matches
the dimension oracle, and that the products with the invariants are free
degree by degree.

The same system drives the determinant route: stack the column monomials on
top of the numeric condition rows to form the square matrix A; then q1_i is
det A divided by the minor det A_1 obtained by deleting the monomial row and
the first column, and expanding det A along the monomial row reproduces the
solved coefficients via Cramer's rule, which the tests pin exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly, bar_conjugate
from .dihedral import DihedralSystem
from .errors import (DegreeTableMismatch, SingularA1, SingularMatrix,
                     SingularSystem)
from .poincare import degree_table
from .quasi import class_row
from .scalars import det_fraction_free, solve_exact

_FAMILY_RANK = {"q0": 0, "q1": 1, "q2": 2, "q3": 3, "q1_i": 4, "q2_i": 5}


@dataclass(frozen=True)
class GeneratorEntry:
    label: str
    i: int | None
    degree: int
    poly: BiPoly

    @property
    def name(self) -> str:
        if self.i is None:
            return self.label
        return f"{self.label[:2]}_{self.i}"


@dataclass(frozen=True)
class GeneratorSet:
    system: DihedralSystem
    entries: tuple[GeneratorEntry, ...]
    provenance: str

    def degrees(self) -> list[int]:
        return [e.degree for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class MatrixA:
    """Condition matrix of one normal-form generator: a symbolic monomial
    row (exponent pairs) over the numeric residue-class rows."""
    monomials: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, ...], ...]


def valid_indices(sys: DihedralSystem) -> list[int]:
    """The index range of the normal-form generators: 1..M-1 without M/2."""
    M = sys.mirrors
    return [i for i in range(1, M) if 2 * i != M]


def invariant_chain_gens(sys: DihedralSystem) -> tuple[BiPoly, ...]:
    """The generators built from the invariant chain: q0..q3 for even M,
    q0 and q3 for odd M (module doc)."""
    P = sys.period
    m, n = sys.mult_even, sys.mult_odd
    plus = BiPoly({(P, 0): 1, (0, P): 1})
    minus = BiPoly({(P, 0): 1, (0, P): -1})
    q0 = BiPoly.constant(1)
    if not sys.is_even:
        return q0, minus ** (2 * m + 1)
    q1 = plus ** (2 * n + 1)
    q2 = minus ** (2 * m + 1)
    return q0, q1, q2, q1 * q2


def _top(sys: DihedralSystem) -> int:
    """top = (m + n) M / 2: the index-i generator has degree top + i and
    support columns 0, P, ..., top (module doc)."""
    return (sys.mult_even + sys.mult_odd) * sys.mirrors // 2


def _condition_rows(sys: DihedralSystem, i: int) -> list[tuple[int, ...]]:
    """The residue-class rows of the index-i generator's degree D, restricted
    to its support columns 0, P, 2P, ..., top: the classes p = 0, P, ...
    modulo M at levels up to min(m, n), then the larger-multiplicity class
    (module doc)."""
    P, M = sys.period, sys.mirrors
    m, n = sys.mult_even, sys.mult_odd
    top = _top(sys)
    D = top + i
    low, high = min(m, n), max(m, n)
    specs = [(t, p, M, False) for p in range(0, M, P)
             for t in range(1, low + 1)]
    specs += [(t, 0, P, m < n) for t in range(low + 1, high + 1)]
    return [class_row(D, *spec)[:top + 1:P] for spec in specs]


def build_matrix_A(sys: DihedralSystem, i: int) -> MatrixA:
    if i not in valid_indices(sys):
        raise ValueError(f"index {i} is not in the valid range")
    top = _top(sys)
    monomials = tuple((top - s + i, s) for s in range(0, top + 1, sys.period))
    return MatrixA(monomials=monomials, rows=tuple(_condition_rows(sys, i)))


def solve_qi(sys: DihedralSystem, i: int) -> BiPoly:
    """Normal-form generator by exact linear solve of the condition system."""
    matrix = build_matrix_A(sys, i)
    size = len(matrix.monomials)
    coeffs = [Fraction(1)]
    if size > 1:
        sub = [row[1:] for row in matrix.rows]
        rhs = [-row[0] for row in matrix.rows]
        try:
            coeffs += solve_exact(sub, rhs)
        except SingularMatrix as exc:
            raise SingularSystem(
                f"coefficient system singular for index {i}; the normal-form "
                "generator should be unique") from exc
    return BiPoly({mono: c for mono, c in zip(matrix.monomials, coeffs)})


def generator_from_determinant(sys: DihedralSystem, i: int) -> BiPoly:
    """Normal-form generator by cofactor expansion along the monomial row."""
    matrix = build_matrix_A(sys, i)
    det_a1 = det_fraction_free([row[1:] for row in matrix.rows])
    if det_a1 == 0:
        raise SingularA1(f"leading minor vanished for index {i}")
    terms = {}
    for k, mono in enumerate(matrix.monomials):
        minor = [row[:k] + row[k + 1:] for row in matrix.rows]
        cofactor = (-1) ** k * det_fraction_free(minor)
        if cofactor:
            terms[mono] = cofactor / det_a1
    return BiPoly(terms)


def full_basis(sys: DihedralSystem, method: str = "solve") -> GeneratorSet:
    """All 2M generators, ordered by degree (family label breaks ties)."""
    if method not in ("solve", "det"):
        raise ValueError('method must be "solve" or "det"')
    labels = ("q0", "q1", "q2", "q3") if sys.is_even else ("q0", "q3")
    entries = [GeneratorEntry(label, None, poly.degree(), poly)
               for label, poly in zip(labels, invariant_chain_gens(sys))]
    build = solve_qi if method == "solve" else generator_from_determinant
    for i in valid_indices(sys):
        first = build(sys, i)
        second = bar_conjugate(first)
        entries.append(GeneratorEntry("q1_i", i, first.degree(), first))
        entries.append(GeneratorEntry("q2_i", i, second.degree(), second))
    entries.sort(key=lambda e: (e.degree, _FAMILY_RANK[e.label], e.i or 0))
    provenance = "solver" if method == "solve" else "determinant"
    gens = GeneratorSet(sys, tuple(entries), provenance)
    table = [d for d, count in degree_table(sys) for _ in range(count)]
    if sorted(gens.degrees()) != table:
        raise DegreeTableMismatch(
            f"generator degrees {sorted(gens.degrees())} disagree with the "
            f"closed-form table {table}")
    return gens
