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

Three routes build q1_i, and they share no elimination and no condition
row.  ``full_basis`` builds with the closed form of the paper's determinant
formulas (``generator_from_determinant``): products of node differences,
with a small integer system solved by Cramer's rule where the two classes
of lines carry different multiplicities.  The solve route (``solve_qi``)
eliminates the condition rows (``_condition_rows``) through
``scalars.solve_exact``, so a wrong row shows in it alone.  The kernel
route finds q1_i as the unique element of Q of its shape that the
Calogero-Moser operator annihilates, in all D + 1 coefficients by forward
substitution (``calogero.kernel_generator``).  ``quasinv verify`` compares
the basis with the solve route (``dual_path_generators``) and with the
kernel route (``uniqueness``), so the three agree pairwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod
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


def _support(sys: DihedralSystem, i: int) -> range:
    """The zb exponents 0, P, ..., top of the index-i generator's terms
    z^(top + i - s) zb^s; ValueError off ``valid_indices``."""
    if i not in valid_indices(sys):
        raise ValueError(f"index {i} is not in the valid range")
    return range(0, _top(sys) + 1, sys.period)


def solve_qi(sys: DihedralSystem, i: int) -> BiPoly:
    """Normal-form generator by exact linear solve of the condition rows,
    with a_0 = 1 moved to the right-hand side."""
    support = _support(sys, i)
    rows = _condition_rows(sys, i)
    try:
        coeffs = [1] + solve_exact([row[1:] for row in rows],
                                   [-row[0] for row in rows])
    except SingularMatrix as exc:
        raise SingularSystem(
            f"coefficient system singular for index {i}; the normal-form "
            "generator should be unique") from exc
    D = support[-1] + i
    return BiPoly({(D - s, s): c for s, c in zip(support, coeffs)})


def generator_from_determinant(sys: DihedralSystem, i: int) -> BiPoly:
    """Normal-form generator by the closed form of its determinant
    formulas, with no elimination of the condition rows.

    Let s = jP, j = 0..K, be the support columns at the degree D = top + i,
    x_j = D - 2s and y_j = x_j^2.  A condition row of level t
    (``quasi.class_entries``) is sum_j u_j y_j^(t-1), u_j = a_j x_j, over
    its class: for even M the even j (p = 0) and the odd j (p = P) form the
    blocks B, for odd M all j form one.  For a valid index no x_j is 0 and
    no two y_j are equal: 2s = D or s + s' = D would need i = 0 (mod P).
    Partial fractions give sum_B y_j^N / omega_B'(y_j) = h_(N-|B|+1)(y_B),
    omega_B being the monic polynomial with the roots y_B and h the complete
    homogeneous symmetric polynomial, 0 below degree 0.  So the levels
    t <= low = min(m, n), which act on each block alone, a Vandermonde
    matrix of rank low, leave exactly u_j = g_B(y_j) / omega_B'(y_j) with
    deg g_B <= |B| - 1 - low.  The levels low < t <= high exist only for
    even M with m != n, on all columns with the sign sigma = -1 on the odd
    j when m < n (``alternate``); with r = t - 1 each reads

        sum_q g_(E,q) h_(q+r-|E|+1)(y_E)
            + sigma sum_q g_(O,q) h_(q+r-|O|+1)(y_O) = 0.

    With a_0 = 1, that is g_E(y_0) = x_0 omega_E'(y_0), they form a square
    integer system in the (|E| - low) + (|O| - low) = high - low + 1
    coefficients of g, singular exactly when the condition rows are, solved
    by Cramer's rule (``scalars.det_fraction_free``).  With m = n, or odd M,
    g_O = 0 and a_j = x_0 omega_E'(y_0) / (x_j omega_E'(y_j)), a pure
    product.  A zero x_j, a repeated y_j in a block or a zero coupling
    determinant raises ``SingularSystem``."""
    support = _support(sys, i)
    low, high = sorted((sys.mult_even, sys.mult_odd))
    D = support[-1] + i
    x = [D - 2 * s for s in support]
    y = [v * v for v in x]
    blocks = ([range(0, len(x), 2), range(1, len(x), 2)] if sys.is_even
              else [range(len(x))])
    # x_j omega_B'(y_j), 0 exactly at a zero x_j or a repeated y_j
    denominators = {j: x[j] * prod(y[j] - y[k] for k in block if k != j)
                    for block in blocks for j in block}
    if not all(denominators.values()):
        raise SingularSystem(f"a node of index {i} is zero or repeated")
    numerators, det = [[1]], 1
    if high > low:
        sigma = -1 if sys.mult_even < sys.mult_odd else 1
        rows = [[] for _ in range(low, high)]   # the levels low + 1..high
        for block, sign in zip(blocks, (1, sigma)):
            h = [1] + [0] * (high - low - 1)   # h_0 .. h_(high-low-1) of y_B
            for j in block:
                for k in range(1, len(h)):
                    h[k] += y[j] * h[k - 1]
            for r, row in enumerate(rows, low):
                row += [sign * h[k] if k >= 0 else 0
                        for k in range(r - len(block) + 1, r - low + 1)]
        split = len(blocks[0]) - low
        rows.append([y[0] ** q for q in range(split)] +
                    [0] * (len(blocks[1]) - low))
        det = int(det_fraction_free(rows))
        if not det:
            raise SingularSystem(
                f"coupling determinant vanished for index {i}")
        # Cramer's rule with the right-hand side x_0 omega_E'(y_0) in the
        # last row: coefficient q is that times the cofactor (last, q) / det
        last = len(rows) - 1
        cofactors = [(-1) ** (last + q) * int(det_fraction_free(
                         [row[:q] + row[q + 1:] for row in rows[:last]]))
                     for q in range(last + 1)]
        numerators = [cofactors[:split], cofactors[split:]]
    return BiPoly({(D - support[j], support[j]): Fraction(
                       denominators[0] * sum(c * y[j] ** q for q, c
                                             in enumerate(numerator)),
                       det * denominators[j])
                   for block, numerator in zip(blocks, numerators)
                   for j in block})


def full_basis(sys: DihedralSystem, method: str = "det") -> GeneratorSet:
    """All 2M generators, ordered by degree (family label breaks ties),
    the q1_i by the closed form (``"det"``) or by the solve (``"solve"``)."""
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
