"""Certified enclosures with exact rational endpoints.

An :class:`AlgebraicBound` is a closed interval [lo, hi] of rationals
guaranteed to contain the quantity it certifies.  Arithmetic is outward
in the trivial sense that rational interval arithmetic is already exact,
so widths only grow through genuine uncertainty, never rounding.

Square roots (the one irrational ingredient: optimal linearization
parameters and quadratic pencil endpoints are quadratic surds) are
enclosed via integer square roots at a requested bit precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = [
    "AlgebraicBound",
    "sqrt_enclosure",
    "quadratic_root_enclosure",
    "DEFAULT_PREC",
]

Rat = Union[int, Fraction]

# Default certification precision in bits; all float work happens at
# at least twice this.
DEFAULT_PREC = 128


@dataclass(frozen=True)
class AlgebraicBound:
    """A closed rational interval [lo, hi] containing a certified value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure: {self.lo} > {self.hi}")

    @staticmethod
    def exact(value: Rat) -> "AlgebraicBound":
        if isinstance(value, float):
            raise TypeError(f"float {value!r} cannot enter an exact enclosure")
        v = Fraction(value)
        return AlgebraicBound(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

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

    def __rsub__(self, other) -> "AlgebraicBound":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "AlgebraicBound":
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return AlgebraicBound(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "AlgebraicBound":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("enclosure contains zero")
        return AlgebraicBound(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "AlgebraicBound":
        return self * _coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "AlgebraicBound":
        return _coerce(other) * self.reciprocal()

    def __abs__(self) -> "AlgebraicBound":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return AlgebraicBound(Fraction(0), max(-self.lo, self.hi))

    def contains(self, value: Rat) -> bool:
        return self.lo <= value <= self.hi

    def encloses(self, other: "AlgebraicBound") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    # Interval order: "possibly" means the enclosures do not refute the
    # relation, "certainly" means they prove it.
    def possibly_leq(self, other) -> bool:
        return self.lo <= _coerce(other).hi

    def certainly_leq(self, other) -> bool:
        return self.hi <= _coerce(other).lo

    def certainly_lt(self, other) -> bool:
        return self.hi < _coerce(other).lo

    def is_certainly_positive(self) -> bool:
        return self.lo > 0

    def is_certainly_negative(self) -> bool:
        return self.hi < 0


def _coerce(value) -> AlgebraicBound:
    if isinstance(value, AlgebraicBound):
        return value
    return AlgebraicBound.exact(value)


def sqrt_enclosure(value: Rat, prec: int) -> AlgebraicBound:
    """Enclose sqrt(value) in an interval of width <= 2**-prec."""
    v = Fraction(value)
    if v < 0:
        raise ValueError("negative radicand")
    if v == 0:
        return AlgebraicBound.exact(0)
    # sqrt(p/q) = sqrt(p q)/q; floor integer sqrt of p*q*4^k gives
    # denominator q*2^k, hence width (q 2^k)^-1 <= 2^-prec for k = prec.
    p, q = v.numerator, v.denominator
    k = max(prec, 1)
    s = math.isqrt(p * q << (2 * k))
    scale = q << k
    lo = Fraction(s, scale)
    hi = Fraction(s + 1, scale)
    if lo * lo == v:
        return AlgebraicBound.exact(lo)
    return AlgebraicBound(lo, hi)


def quadratic_root_enclosure(
    a: Rat, b: Rat, c: Rat, branch: str, prec: int
) -> AlgebraicBound:
    """Enclose (-b + sign sqrt(b^2 - 4ac)) / (2a) with width <= 2**-prec.

    ``branch`` is "+" or "-" and selects the sign in front of the radical
    (not which root is larger; that flips with the sign of a).
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0:
        raise ZeroDivisionError("degenerate quadratic: a = 0")
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ValueError(f"negative discriminant {disc}")
    scale = Fraction(1, 2) / abs(a)
    extra = max(0, (scale.numerator // scale.denominator).bit_length()) + 2
    root = sqrt_enclosure(disc, prec + extra)
    if branch == "-":
        root = -root
    return (root - b) * Fraction(1, 2 * a)
