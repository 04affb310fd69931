"""Typed errors shared across the package.

Plain division by zero raises the builtin ZeroDivisionError; everything
domain specific derives from QuasinvError so the CLI can catch one base
class and report cleanly; a fault has one type, whichever route finds it.
"""


class QuasinvError(Exception):
    """Base class for all errors raised by this package."""


class ScalarKindMismatch(QuasinvError):
    """Coefficients of incompatible fields were combined."""


class OrderMismatch(ScalarKindMismatch):
    """Arithmetic between cyclotomic elements of different orders."""


class SingularMatrix(QuasinvError):
    """An exact solve was requested for a singular square system."""


class NotDivisible(QuasinvError):
    """Exact division by a mirror-line form failed (nonzero restriction)."""


class EvenMirrorCount(QuasinvError):
    """An odd mirror count was required."""


class SingularSystem(QuasinvError):
    """The generator coefficient system was singular, on either route;
    this contradicts the uniqueness of the normal-form generators and
    signals an internal bug."""


class CyclotomicRemainder(QuasinvError):
    """Dividing x^M - 1 by the cyclotomic polynomials of the proper divisors
    of M left a remainder; signals an internal bug."""


class ResidueNotInvertible(QuasinvError):
    """A nonzero residue modulo a cyclotomic polynomial, which is
    irreducible, was found not to be a unit; signals an internal bug."""


class DegreeTableMismatch(QuasinvError):
    """The generator degrees disagree with the closed-form degree table."""


class RowDegreeMismatch(QuasinvError):
    """A polynomial put into a coefficient row of one degree has a term of
    another degree."""


class NoKernelGenerator(QuasinvError):
    """No quasi-invariant of the normal form z^D + (terms divisible by
    z*zb) is annihilated by the Calogero-Moser operator in that degree."""


class KernelGeneratorNotUnique(QuasinvError):
    """More than one quasi-invariant of the normal form z^D + (terms
    divisible by z*zb) is annihilated by the Calogero-Moser operator in that
    degree."""


class ChainNotSaturated(QuasinvError):
    """A parity chain of the dimension oracle was not of full rank by the
    degree at which its columns fill every row; signals an internal bug."""


class NullVectorMismatch(QuasinvError):
    """A null vector of a parity chain fails a condition row of the degree
    at which it was found; signals an internal bug."""
