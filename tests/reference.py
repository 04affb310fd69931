"""Reference helpers shared by the test modules; the library has no use
for them."""

import os
from fractions import Fraction
from math import comb, perm
from pathlib import Path
from typing import Iterator, NamedTuple

import quasinv
from quasinv.bipoly import BiPoly
from quasinv.calogero import _term_image, apply_L1
from quasinv.errors import SingularSystem
from quasinv.generators import _condition_rows, _top, valid_indices
from quasinv.quasi import (CoeffVector, class_entries, coefficient_row,
                           grouped_rows, quasi_basis)
from quasinv.scalars import (CycloElem, det_fraction_free, euler_phi,
                             nullspace, root_of_unity, solve_affine)


def invariant_generators(sys) -> tuple[BiPoly, BiPoly]:
    """Free generators of the invariant ring: z*zb and z^M + zb^M."""
    sigma1 = BiPoly.monomial(1, 1)
    sigma2 = BiPoly({(sys.mirrors, 0): 1, (0, sys.mirrors): 1})
    return sigma1, sigma2


class GroupElement(NamedTuple):
    """Group element acting on the plane as z -> zeta^power * (zb if
    reflection else z)."""
    reflection: bool
    power: int


def group_elements(sys) -> Iterator[GroupElement]:
    """The 2M elements of the symmetry group: rotations, then reflections."""
    for reflection in (False, True):
        for k in range(sys.mirrors):
            yield GroupElement(reflection, k)


def act(sys, element, p: BiPoly) -> BiPoly:
    """Substitution action of a group element on a polynomial.

    A rotation sends the term z^a zb^b to zeta^{k(a-b)} z^a zb^b, a
    reflection additionally swaps the exponents.  Distinct terms go to
    distinct terms, and each image coefficient is stored in its canonical
    form: rational whenever its value is.
    """
    reflection, k = element
    M = sys.mirrors
    return BiPoly({(b, a) if reflection else (a, b):
                   c * root_of_unity(M, k * (a - b))
                   for (a, b), c in p.terms.items()})


def rational_parts(p: BiPoly) -> list[BiPoly]:
    """The phi(M) rational parts of a polynomial over Q(zeta_M), M its
    order: part i holds the coefficients of zeta^i, so p is the sum of
    zeta^i times part i.  A rational p is its own one part.

    The conditions of Q are rational (the class sums of the grouped
    checker), and 1, zeta, ..., zeta^(phi-1) are independent over Q, so p
    lies in Q exactly when every part does; the operator's closed form has
    integer weights, so on Q it acts part by part."""
    if p.order is None:
        return [p]
    return [BiPoly({key: c.coeffs[i] if isinstance(c, CycloElem)
                    else c if i == 0 else 0
                    for key, c in p.terms.items()})
            for i in range(euler_phi(p.order))]


def power(p: BiPoly, k: int) -> BiPoly:
    """p^k as a product of k factors, the reference for the binomial
    closed form of the invariant chain."""
    result = BiPoly.constant(1)
    for _ in range(k):
        result = result * p
    return result


def is_palindromic(series) -> bool:
    """True when the coefficients of ``series`` read the same from its top
    degree down."""
    top = series.top_degree
    data = series.as_dict()
    return all(data.get(top - d, 0) == c for d, c in data.items())


class MatrixA(NamedTuple):
    """Condition matrix of one normal-form generator: a symbolic monomial
    row (exponent pairs) over the numeric residue-class rows."""
    monomials: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, ...], ...]


def build_matrix_A(sys, i: int) -> MatrixA:
    """The matrix A of index i: the support monomials z^(top + i - s) zb^s
    over the rows that ``solve_qi`` solves (``_condition_rows``)."""
    if i not in valid_indices(sys):
        raise ValueError(f"index {i} is not in the valid range")
    top = _top(sys)
    monomials = tuple((top - s + i, s) for s in range(0, top + 1, sys.period))
    return MatrixA(monomials=monomials, rows=tuple(_condition_rows(sys, i)))


def cofactor_generator(sys, i: int) -> BiPoly:
    """The reference determinant route: q1_i is det A over the minor
    det A_1 (delete the monomial row and the first column, the matrix of the
    solve), expanded along the monomial row with one Bareiss determinant
    (``det_fraction_free``) per cofactor, det A_1 being the first; by
    Cramer's rule the ratios are the solved coefficients.  det A_1 = 0
    raises ``SingularSystem``."""
    matrix = build_matrix_A(sys, i)
    cofactors = [(-1) ** k * det_fraction_free(
                     [row[:k] + row[k + 1:] for row in matrix.rows])
                 for k in range(len(matrix.monomials))]
    det_a1 = cofactors[0]
    if det_a1 == 0:
        raise SingularSystem(f"leading minor vanished for index {i}")
    return BiPoly({mono: cofactor / det_a1 for mono, cofactor
                   in zip(matrix.monomials, cofactors) if cofactor})


def line_form(j: int, mirrors: int) -> BiPoly:
    """The linear form of mirror line j: z - zeta^j * zb."""
    return BiPoly({(1, 0): 1, (0, 1): -root_of_unity(mirrors, j)})


def line_derivative_coefficient(k: int, a: int, b: int) -> int:
    """K_k(a, b) by its defining sum: N_j^k(z^a zb^b) restricted to line j
    equals zeta^(j a) * K_k(a, b) * zb^(a+b-k).  Zero when a + b < k.  The
    reference for the recurrence of ``quasi.order_weights``."""
    return sum(comb(k, r) * (-1) ** (k - r) * perm(a, r) * perm(b, k - r)
               for r in range(k + 1))


def order_weights(M: int, terms, k: int) -> dict[int, int]:
    """{r: w} for every nonzero w = sum of c * K_k(a, b) over the integer
    terms (a, b, c) with a = r (mod M), of any order k, odd or even: the
    weights that ``quasi.order_weights`` yields at an odd k, from the sum."""
    weights = {}
    for a, b, c in terms:
        weights[a % M] = weights.get(a % M, 0) + \
            c * line_derivative_coefficient(k, a, b)
    return {r: w for r, w in weights.items() if w}


def quasi_null_rows(sys, degree: int) -> list[dict]:
    """Sparse rows that span the quasi-invariants of one degree: the
    nonzero entries of each vector of
    ``nullspace(grouped_rows(sys, degree), degree + 1)``, which reduces
    the columns of the dense condition rows of that one degree.  The
    reference for the spans of ``quasi._NullChain``, which it does not
    use."""
    return [{c: x for c, x in enumerate(vec) if x}
            for vec in nullspace(grouped_rows(sys, degree), degree + 1)]


def dense_nullspace(rows, ncols):
    """Reference null space: Gauss-Jordan in ``Fraction`` over the whole
    matrix, row by row, one vector per free column in ascending order."""
    rows = [[Fraction(e) for e in row] for row in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        rows[r] = [e / rows[r][col] for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, pcol in enumerate(pivots):
            vec[pcol] = -rows[row_idx][free]
        basis.append(tuple(vec))
    return basis


def class_row(D: int, t: int, p: int, period: int, alternate: bool):
    """The dense form of ``class_entries``: a tuple of D + 1 entries."""
    row = [0] * (D + 1)
    for s, x in class_entries(D, t, p, period, alternate):
        row[s] = x
    return tuple(row)


def homogeneous_components(p: BiPoly) -> list[tuple[int, BiPoly]]:
    """Split into homogeneous parts, ascending total degree."""
    parts: dict[int, dict] = {}
    for (a, b), c in p.terms.items():
        parts.setdefault(a + b, {})[(a, b)] = c
    return [(d, BiPoly(t)) for d, t in sorted(parts.items())]


def dense_normal_form(sys, D: int) -> tuple[str, BiPoly | None]:
    """The elements of Q of degree D annihilated by the operator with the
    shape z^D + (terms divisible by z*zb), as ``solve_affine`` classifies
    them: ("unique", the polynomial), ("none", None) or ("many", None).

    One dense exact system in the coefficients x_s of z^(D-s) zb^s: the
    condition rows of Q (``grouped_rows``), one row per coefficient of the
    image of degree D - 2 with the weight of ``_term_image`` of
    z^(D-s) zb^s in column s, and the rows x_0 = 1 and x_D = 0.  This is
    the system ``uniqueness_check`` solved before forward substitution."""
    image = [[0] * (D + 1) for _ in range(D - 1)]
    for s in range(D + 1):
        for (_, r), weight in _term_image(sys, D - s, s):
            image[r][s] = weight
    rows = [*grouped_rows(sys, D), *image, [1] + [0] * D, [0] * D + [1]]
    kind, x = solve_affine(rows, [0] * (len(rows) - 2) + [1, 0], D + 1)
    return kind, CoeffVector(D, tuple(x)).to_poly() if x is not None else None


def kernel_of_L1_in_Q(sys, D: int) -> list[BiPoly]:
    """A basis of the elements of Q of degree D that the operator
    annihilates: the combinations of ``quasi_basis(sys, D)`` whose images
    under ``apply_L1``, coefficient rows of degree D - 2, sum to zero."""
    basis = quasi_basis(sys, D)
    images = [coefficient_row(apply_L1(sys, q).polynomial, max(D - 2, 0))
              for q in basis]
    return [sum((q.scale(c) for c, q in zip(w, basis) if c), BiPoly.zero())
            for w in nullspace(list(zip(*images)), len(basis))]


def dense_uniqueness_check(sys, generator: BiPoly) -> bool:
    """``uniqueness_check`` by one dense elimination: the generator is the
    one solution of ``dense_normal_form`` at its degree."""
    if generator.is_zero():
        return False
    kind, poly = dense_normal_form(sys, generator.degree())
    return kind == "unique" and poly == generator


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_library_example() -> str:
    """The code of the README's one ``python`` block, the library example."""
    blocks = README.read_text().split("```python\n")[1:]
    if len(blocks) != 1:
        raise ValueError(f"README has {len(blocks)} python blocks, not 1")
    return blocks[0].split("```", 1)[0]


def package_env() -> dict:
    """``os.environ`` with the directory that holds the imported quasinv
    first on PYTHONPATH, so that a child interpreter imports the same one."""
    src = str(Path(quasinv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
