"""Certified enclosures with exact rational endpoints.

An :class:`AlgebraicBound` is a closed interval [lo, hi] of rationals
guaranteed to contain the quantity it certifies.  Arithmetic is outward
in the trivial sense that rational interval arithmetic is already exact,
so widths only grow through genuine uncertainty, never rounding.

Irrational values enter only as roots of integer polynomials, each
enclosed in its dyadic cell by ``spectra``'s one refinement primitive.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record

__all__ = ["AlgebraicBound", "DEFAULT_PREC"]

Rat = int | Fraction

# Default certification precision in bits: enclosures are at most 2**-prec wide.
DEFAULT_PREC = 128


class AlgebraicBound(Record):
    """A closed rational interval [lo, hi] containing a certified value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if isinstance(self.lo, float) or isinstance(self.hi, float):
            raise TypeError(f"float end {self.lo!r}, {self.hi!r} cannot enter an exact enclosure")
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure: {self.lo} > {self.hi}")

    @staticmethod
    def exact(value: Rat) -> "AlgebraicBound":
        if isinstance(value, float):
            raise TypeError(f"float {value!r} cannot enter an exact enclosure")
        v = Fraction(value)
        return AlgebraicBound(v, v)

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.midpoint)

    def __neg__(self) -> "AlgebraicBound":
        return AlgebraicBound(-self.hi, -self.lo)

    def __add__(self, other) -> "AlgebraicBound":
        other = _coerce(other)
        return AlgebraicBound(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "AlgebraicBound":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "AlgebraicBound":
        other = _coerce(other)
        products = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return AlgebraicBound(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "AlgebraicBound":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("enclosure contains zero")
        return AlgebraicBound(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "AlgebraicBound":
        # Two of the four end quotients, no reciprocal: over [c, d] > 0 a quotient
        # rises with the dividend, and falls with the divisor if the dividend >= 0.
        other = _coerce(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("enclosure contains zero")
        if other.hi < 0:
            return -self / -other
        lo, hi, c, d = self.lo, self.hi, other.lo, other.hi
        return AlgebraicBound(lo / (d if lo >= 0 else c), hi / (c if hi >= 0 else d))

    # "Certainly" means the enclosures prove the relation.
    def certainly_lt(self, other) -> bool:
        return self.hi < _coerce(other).lo

    def is_certainly_positive(self) -> bool:
        return self.lo > 0


def _coerce(value) -> AlgebraicBound:
    if isinstance(value, AlgebraicBound):
        return value
    return AlgebraicBound.exact(value)
