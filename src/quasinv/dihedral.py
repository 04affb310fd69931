"""Dihedral mirror arrangements in the plane with orbit multiplicities.

An arrangement has M mirror lines through the origin at angles pi*j/M for
j = 0..M-1; line j is cut out by z = zeta_M^j * zb.  Its symmetry group, of
2M rotations z -> zeta^k z and reflections z -> zeta^k zb, permutes the
lines.  For even M the lines split into two rotation classes — even index
and odd index — each carrying its own nonnegative multiplicity; odd M has a
single class, so both stored multiplicities must agree.  This module
imports no other module of the package.
"""

from __future__ import annotations

from typing import NamedTuple


class DihedralSystem(NamedTuple("DihedralSystem", [
        ("mirrors", int), ("mult_even", int), ("mult_odd", int)])):
    """An arrangement as an immutable ``NamedTuple``, equal by value; every
    construction, ``_replace`` too, checks the fields (ValueError)."""
    __slots__ = ()

    def __new__(cls, mirrors: int, mult_even: int, mult_odd: int):
        self = super().__new__(cls, mirrors, mult_even, mult_odd)
        for name, value in zip(self._fields, self):
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
        return self

    # namedtuple's own _make, which _replace calls, skips __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

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
