"""Free-module generators of the quasi-invariant ring over the invariants,
for every dihedral arrangement, built along three independent routes.

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
with the chain they number 2M.  The coefficients solve the system
``quasi.grouped_rows`` at the degree D = top + i on the support columns s,
where only the rows of the classes p = 0 and p = P are nonzero: a square
system.  The degree of every generator is read off the built polynomial,
and ``full_basis`` checks the degrees against the exponents of the Poincare
polynomial (``poincare.degree_table``).

Correctness is not assumed from this construction: ``quasinv verify``
checks that every generator lies in Q, that it is annihilated by the
Calogero-Moser operator and is the unique normal form of its degree, that
the degrees match the Poincare polynomial, that the Hilbert series matches
the dimension oracle, and that the products with the invariants are free
degree by degree.

The same system drives the determinant route: stack the column monomials on
top of the numeric condition rows to form the square matrix A; then q1_i is
det A divided by the minor det A_1 obtained by deleting the monomial row and
the first column (the matrix of the solve), and expanding det A along the
monomial row reproduces the solved coefficients via Cramer's rule, which
the tests pin exactly; both routes raise ``SingularSystem`` on det A_1 = 0.

The solve and determinant routes run different eliminations on one matrix:
the solve reduces tagged columns into a sparse echelon basis
(``scalars.nullspace``), the cofactors are Bareiss determinants
(``scalars.det_fraction_free``), so a fault in either elimination shows as
a mismatch.  They share one support ansatz, so an error in
``_condition_rows`` would pass both alike.
The third route shares neither: q1_i is the unique element of Q of its
shape that the Calogero-Moser operator annihilates, found in all D + 1
coefficients by forward substitution (``calogero.kernel_generator``).
``quasinv verify`` compares the solve route with the determinant route
(``dual_path_generators``) and with the kernel route (``uniqueness``), so
the three agree pairwise.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .bipoly import BiPoly, bar_conjugate
from .dihedral import DihedralSystem
from .errors import DegreeTableMismatch, SingularMatrix, SingularSystem
from .poincare import degree_table
from .quasi import class_entries, row_classes
from .scalars import det_fraction_free, solve_exact

_FAMILY_RANK = {"q0": 0, "q1": 1, "q2": 2, "q3": 3, "q1_i": 4, "q2_i": 5}


class GeneratorEntry(NamedTuple):
    label: str
    i: int | None
    degree: int
    poly: BiPoly

    @property
    def name(self) -> str:
        if self.i is None:
            return self.label
        return f"{self.label[:2]}_{self.i}"


class GeneratorSet(NamedTuple):
    system: DihedralSystem
    entries: tuple[GeneratorEntry, ...]
    provenance: str

    def degrees(self) -> list[int]:
        return [e.degree for e in self.entries]


class MatrixA(NamedTuple):
    """Condition matrix of one normal-form generator: a symbolic monomial
    row (exponent pairs) over the numeric residue-class rows."""
    monomials: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, ...], ...]


def valid_indices(sys: DihedralSystem) -> list[int]:
    """The index range of the normal-form generators: 1..M-1 without M/2."""
    M = sys.mirrors
    return [i for i in range(1, M) if 2 * i != M]


def _chain_power(P: int, sign: int, k: int) -> BiPoly:
    """(z^P + sign * zb^P)^k, term by term from the binomial theorem:
    sum_r C(k, r) sign^r z^(P(k - r)) zb^(P r)."""
    return BiPoly({(P * (k - r), P * r): comb(k, r) * sign ** r
                   for r in range(k + 1)})


def invariant_chain_gens(sys: DihedralSystem) -> tuple[BiPoly, ...]:
    """The generators built from the invariant chain: q0..q3 for even M,
    q0 and q3 for odd M (module doc)."""
    P = sys.period
    m, n = sys.mult_even, sys.mult_odd
    q0 = BiPoly.constant(1)
    if not sys.is_even:
        return q0, _chain_power(P, -1, 2 * m + 1)
    q1 = _chain_power(P, 1, 2 * n + 1)
    q2 = _chain_power(P, -1, 2 * m + 1)
    return q0, q1, q2, q1 * q2


def _top(sys: DihedralSystem) -> int:
    """top = (m + n) M / 2: the index-i generator has degree top + i and
    support columns 0, P, ..., top (module doc)."""
    return (sys.mult_even + sys.mult_odd) * sys.mirrors // 2


def _condition_rows(sys: DihedralSystem, i: int) -> list[tuple[int, ...]]:
    """The rows of ``quasi.grouped_rows`` at the index-i generator's degree
    that are nonzero on its support columns 0, P, 2P, ..., top (the classes
    p = 0 and p = P), restricted to those columns, in the same order; read
    off their ``class_entries`` up to top."""
    P, top = sys.period, _top(sys)
    rows = []
    for t, p, period, alternate in row_classes(sys):
        if p % P == 0:
            row = [0] * (top // P + 1)
            for s, x in class_entries(top + i, t, p, period, alternate):
                if s > top:
                    break
                row[s // P] = x
            rows.append(tuple(row))
    return rows


def build_matrix_A(sys: DihedralSystem, i: int) -> MatrixA:
    if i not in valid_indices(sys):
        raise ValueError(f"index {i} is not in the valid range")
    top = _top(sys)
    monomials = tuple((top - s + i, s) for s in range(0, top + 1, sys.period))
    return MatrixA(monomials=monomials, rows=tuple(_condition_rows(sys, i)))


def solve_qi(sys: DihedralSystem, i: int) -> BiPoly:
    """Normal-form generator by exact linear solve of the condition system."""
    matrix = build_matrix_A(sys, i)
    sub = [row[1:] for row in matrix.rows]
    rhs = [-row[0] for row in matrix.rows]
    try:
        coeffs = [1] + solve_exact(sub, rhs)
    except SingularMatrix as exc:
        raise SingularSystem(
            f"coefficient system singular for index {i}; the normal-form "
            "generator should be unique") from exc
    return BiPoly(dict(zip(matrix.monomials, coeffs)))


def generator_from_determinant(sys: DihedralSystem, i: int) -> BiPoly:
    """Normal-form generator by cofactor expansion along the monomial row,
    over the cofactor of z^(top + i), which is the minor det A_1."""
    matrix = build_matrix_A(sys, i)
    cofactors = [(-1) ** k * det_fraction_free(
                     [row[:k] + row[k + 1:] for row in matrix.rows])
                 for k in range(len(matrix.monomials))]
    det_a1 = cofactors[0]
    if det_a1 == 0:
        raise SingularSystem(f"leading minor vanished for index {i}")
    return BiPoly({mono: cofactor / det_a1 for mono, cofactor
                   in zip(matrix.monomials, cofactors) if cofactor})


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
    table = degree_table(sys)
    if sorted(gens.degrees()) != table:
        raise DegreeTableMismatch(
            f"generator degrees {sorted(gens.degrees())} disagree with the "
            f"closed-form table {table}")
    return gens
