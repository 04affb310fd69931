"""Dihedral mirror arrangements in the plane with orbit multiplicities.

An arrangement has M mirror lines through the origin at angles pi*j/M for
j = 0..M-1; line j is cut out by z = zeta_M^j * zb.  Its symmetry group has
2M elements: rotations z -> zeta^k z and reflections z -> zeta^k zb.  For
even M the lines split into two rotation classes — even index and odd index —
each carrying its own nonnegative multiplicity; odd M has a single class,
so both stored multiplicities must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .bipoly import BiPoly
from .scalars import root_of_unity


class GroupElement(NamedTuple):
    """Group element acting on the plane as z -> zeta^power * (zb if
    reflection else z)."""
    reflection: bool
    power: int


@dataclass(frozen=True)
class DihedralSystem:
    mirrors: int
    mult_even: int
    mult_odd: int

    def __post_init__(self):
        for name in ("mirrors", "mult_even", "mult_odd"):
            value = getattr(self, name)
            # bool is a subclass of int, but True is not a mirror count
            if type(value) is bool or not isinstance(value, int):
                raise ValueError(
                    f"{name} must be an int, not {type(value).__name__}")
        if self.mirrors < 1:
            raise ValueError("mirror count must be at least 1")
        if self.mult_even < 0 or self.mult_odd < 0:
            raise ValueError("multiplicities must be nonnegative")
        if self.mirrors % 2 == 1 and self.mult_even != self.mult_odd:
            raise ValueError(
                "odd mirror counts have a single conjugacy class of lines, "
                "so both multiplicities must be equal")

    @classmethod
    def uniform(cls, mirrors: int, mult: int) -> DihedralSystem:
        return cls(mirrors, mult, mult)

    @property
    def is_even(self) -> bool:
        return self.mirrors % 2 == 0

    @property
    def period(self) -> int:
        """Rotation period of one class of lines: M/2 for even M, whose
        classes are the even-index and the odd-index lines, and M for odd M,
        whose lines form one class."""
        return self.mirrors // 2 if self.is_even else self.mirrors

    def lines(self) -> range:
        return range(self.mirrors)

    def orbit(self, j: int) -> int:
        """0 for the even-index class (or the single odd-M class), 1 for the
        odd-index class of an even arrangement."""
        if not self.is_even:
            return 0
        return (j % self.mirrors) % 2

    def multiplicity(self, j: int) -> int:
        j %= self.mirrors
        return self.mult_even if j % 2 == 0 else self.mult_odd

    # -- invariants ----------------------------------------------------------

    def invariant_generators(self) -> tuple[BiPoly, BiPoly]:
        """Free generators of the invariant ring: z*zb and z^M + zb^M."""
        sigma1 = BiPoly.monomial(1, 1)
        sigma2 = BiPoly({(self.mirrors, 0): 1, (0, self.mirrors): 1})
        return sigma1, sigma2

    # -- group action -----------------------------------------------------------

    def elements(self) -> Iterator[GroupElement]:
        for reflection in (False, True):
            for k in range(self.mirrors):
                yield GroupElement(reflection, k)

    def act(self, element, p: BiPoly) -> BiPoly:
        """Substitution action of a group element on a polynomial.

        A rotation sends the term z^a zb^b to zeta^{k(a-b)} z^a zb^b, a
        reflection additionally swaps the exponents.  The result is demoted
        to rational coefficients whenever possible.
        """
        reflection, k = element
        M = self.mirrors
        p = p.promote(M)
        terms = {}
        for (a, b), c in p.terms.items():
            twist = root_of_unity(M, k * (a - b))
            key = (b, a) if reflection else (a, b)
            v = c * twist
            terms[key] = terms[key] + v if key in terms else v
        return BiPoly(terms, M).demote()

