"""Sparse exact polynomials in the complex plane coordinates z and zb.

A polynomial is a finite map from exponent pairs (a, b) — the degrees in z
and in the conjugate coordinate zb — to a nonzero coefficient.  Each
coefficient is stored in one canonical form: a rational value, including a
``CycloElem`` whose value is rational, in the form of ``scalars.rational``
(an ``int`` when integral, else a ``Fraction`` with denominator above 1),
and a ``CycloElem`` only when its value is irrational.  The coefficient
field is read off the coefficients: ``order`` is the common order M of the
``CycloElem`` coefficients, so that they live in Q(zeta_M), or None when
there are none.  Rational and cyclotomic polynomials therefore mix without
conversion, equality is equality of the stored terms, and coefficients of
two different orders raise ``ScalarKindMismatch``.

The operands of ``+``, ``-``, ``*`` and ``==`` are polynomials: with any
other operand the first three raise TypeError and ``==`` is False.  A scalar
enters through ``scale`` and ``constant``, and a test against zero is
``is_zero``.  The consumers that take rational polynomials only refuse a
cyclotomic coefficient through ``rational_only``, the one such refusal.

Mirror line j of an M-line arrangement is the zero set of the linear form
ell_j = z - zeta_M^j * zb.  The operations below — restriction to a line,
exact division by ell_j, and the rescaled normal derivative
N_j = zeta_M^j * d/dz - d/dzb — keep all arithmetic inside Q(zeta_M).
N_j is a nonzero complex multiple of the unit normal derivative of line j,
which is all that vanishing statements about odd-order derivatives can see.

Canonical term order for serialization is graded lexicographic with z before
zb, listed leading term first: higher total degree first, then higher
z-exponent.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import NotDivisible, ScalarKindMismatch
from .scalars import CycloElem, rational, root_of_unity


def _canonical(c):
    """The stored form of a coefficient: a rational value as ``rational``
    stores it, a ``CycloElem`` only when its value is irrational."""
    if isinstance(c, CycloElem):
        return c.as_rational() if c.is_rational() else c
    return rational(c)


class BiPoly:
    """Sparse bivariate polynomial with canonical rational or cyclotomic
    coefficients; ``order`` is derived from them.  Arithmetic and equality
    take polynomial operands only; a scalar goes through ``scale`` or
    ``constant`` (module docstring)."""

    __slots__ = ("order", "terms")

    def __init__(self, terms=None):
        clean = {}
        orders = set()
        for (a, b), c in (terms or {}).items():
            if a < 0 or b < 0:
                raise ValueError("exponents must be nonnegative")
            c = _canonical(c)
            if isinstance(c, CycloElem):
                orders.add(c.order)
            elif c == 0:
                continue
            clean[(int(a), int(b))] = c
        if len(orders) > 1:
            raise ScalarKindMismatch(
                f"coefficients of orders {sorted(orders)} in one polynomial")
        object.__setattr__(self, "order", orders.pop() if orders else None)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> BiPoly:
        return cls({})

    @classmethod
    def constant(cls, c) -> BiPoly:
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, a: int, b: int, c=1) -> BiPoly:
        return cls({(a, b): c})

    # -- basic queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((a + b for a, b in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {a + b for a, b in self.terms}
        return len(degrees) <= 1

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms[key] + c if key in terms else c
        return BiPoly(terms)

    def __neg__(self):
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        terms = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                prod = c1 * c2
                terms[key] = terms[key] + prod if key in terms else prod
        return BiPoly(terms)

    __rmul__ = __mul__

    def scale(self, c) -> BiPoly:
        return BiPoly({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"BiPoly({to_text(self)!r})"


def rational_only(p: BiPoly, what: str) -> BiPoly:
    """``p`` when its coefficients are rational.  A cyclotomic coefficient,
    of any order, raises ``ScalarKindMismatch`` naming ``what``, the
    consumer that refuses it."""
    if p.order is not None:
        raise ScalarKindMismatch(
            f"{what} takes rational polynomials, not order {p.order}")
    return p


# ---------------------------------------------------------------------------
# calculus and line operations
# ---------------------------------------------------------------------------

def partial(p: BiPoly, var: str) -> BiPoly:
    """Formal partial derivative with respect to "z" or "zb"."""
    if var not in ("z", "zb"):
        raise ValueError('var must be "z" or "zb"')
    terms = {}
    for (a, b), c in p.terms.items():
        if var == "z":
            if a:
                terms[(a - 1, b)] = c * a
        else:
            if b:
                terms[(a, b - 1)] = c * b
    return BiPoly(terms)


def normal_derivative(p: BiPoly, j: int, mirrors: int) -> BiPoly:
    """Apply N_j = zeta^j d/dz - d/dzb, a nonzero multiple of the normal
    derivative of line j."""
    zeta_j = root_of_unity(mirrors, j)
    return partial(p, "z").scale(zeta_j) - partial(p, "zb")


def restrict_to_line(p: BiPoly, j: int, mirrors: int) -> dict:
    """Substitute z = zeta^j * zb; the result maps zb-degree to a CycloElem."""
    out: dict[int, CycloElem] = {}
    for (a, b), c in p.terms.items():
        d = a + b
        v = c * root_of_unity(mirrors, j * a)
        out[d] = out[d] + v if d in out else v
    return {d: v for d, v in out.items() if not v.is_zero()}


def divide_by_linear(p: BiPoly, j: int, mirrors: int) -> BiPoly:
    """Exact quotient q with p = (z - zeta^j zb) * q, by long division in z.

    From the top z-exponent down, each remaining term c z^a zb^b with a > 0
    is cancelled by c z^(a-1) zb^b times the line form: c enters the
    quotient at z^(a-1) zb^b, and c zeta^j is added to the term at
    z^(a-1) zb^(b+1).  The remainder is free of z; raises NotDivisible
    unless it is zero, that is unless p vanishes on line j.
    """
    rest = dict(p.terms)
    zeta_j = root_of_unity(mirrors, j)
    quotient = {}
    for a in range(max((a for a, _ in rest), default=0), 0, -1):
        for b in [b for x, b in rest if x == a]:
            c = rest.pop((a, b))
            quotient[(a - 1, b)] = c
            key = (a - 1, b + 1)
            rest[key] = rest[key] + c * zeta_j if key in rest else c * zeta_j
    if any(c != 0 for c in rest.values()):
        raise NotDivisible(
            f"restriction to line {j} is nonzero; no exact quotient")
    return BiPoly(quotient)


def bar_conjugate(p: BiPoly) -> BiPoly:
    """Swap z and zb: the complex conjugate of a rational polynomial (q2_i
    is that of q1_i).  Cyclotomic coefficients are refused by
    ``rational_only``."""
    rational_only(p, "bar_conjugate")
    return BiPoly({(b, a): c for (a, b), c in p.terms.items()})


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------

def canonical_terms(p: BiPoly):
    """Terms in the canonical order: degree descending, z-exponent descending."""
    return sorted(p.terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]),
                                                   -kv[0][0]))


def _scalar_text(c) -> str:
    return f"({c})" if isinstance(c, CycloElem) else str(c)


def to_text(p: BiPoly) -> str:
    """Canonical text form, e.g. ``1*z^3*zb^0 + 3*z^1*zb^2``."""
    if p.is_zero():
        return "0"
    return " + ".join(f"{_scalar_text(c)}*z^{a}*zb^{b}"
                      for (a, b), c in canonical_terms(p))


# a coefficient factor of the text form: [-]digits[/digits]
COEFFICIENT = re.compile("-?[0-9]+(/[0-9]+)?")


def from_text(text: str) -> BiPoly:
    """Parse the canonical text form back into a rational polynomial; the
    factors of a term are z, zb, z^a, zb^b and ``COEFFICIENT``s.  Blank
    text raises ValueError; the zero polynomial is written "0".

    The arithmetic is in integers: an integral coefficient is stored as an
    ``int``, and a ``Fraction`` is built only from a num/den factor, so a
    zero denominator raises ZeroDivisionError."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return BiPoly.zero()
    terms: dict[tuple[int, int], int | Fraction] = {}
    for raw in text.split("+"):
        part = raw.strip()
        if not part:
            raise ValueError("empty term in polynomial text")
        coeff = 1
        a = b = 0
        for factor in part.split("*"):
            factor = factor.strip()
            name, caret, power = factor.partition("^")
            if name == "z" or name == "zb":
                # an exponent is ASCII digits; isdigit alone takes any script
                if not caret:
                    power = 1
                elif power.isascii() and power.isdigit():
                    power = int(power)
                else:
                    raise ValueError(f"invalid exponent {power!r}")
                if name == "z":
                    a += power
                else:
                    b += power
            elif COEFFICIENT.fullmatch(factor):
                coeff *= Fraction(factor) if "/" in factor else int(factor)
            else:
                raise ValueError(f"invalid factor {factor!r}")
        key = (a, b)
        terms[key] = terms.get(key, 0) + coeff
    return BiPoly(terms)
