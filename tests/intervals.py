"""Interval predicates and reflected operations on AlgebraicBound that only
the tests use; the library keeps the arithmetic its certificates need.

"Possibly" means the enclosures do not refute a relation, "certainly"
means they prove it.  Plain rationals count as exact enclosures.
"""

from fractions import Fraction

from eulerian_bounds.enclosure import AlgebraicBound


def _bound(value) -> AlgebraicBound:
    return value if isinstance(value, AlgebraicBound) else AlgebraicBound.exact(value)


def width(b: AlgebraicBound) -> Fraction:
    return b.hi - b.lo


def contains(b: AlgebraicBound, value) -> bool:
    return b.lo <= value <= b.hi


def encloses(b: AlgebraicBound, other: AlgebraicBound) -> bool:
    return b.lo <= other.lo and other.hi <= b.hi


def possibly_leq(b: AlgebraicBound, other) -> bool:
    return b.lo <= _bound(other).hi


def certainly_leq(b: AlgebraicBound, other) -> bool:
    return b.hi <= _bound(other).lo


def is_certainly_negative(b: AlgebraicBound) -> bool:
    return b.hi < 0


def magnitude(b: AlgebraicBound) -> AlgebraicBound:
    """The enclosure of |x| for x in b."""
    if b.lo >= 0:
        return b
    if b.hi <= 0:
        return -b
    return AlgebraicBound(Fraction(0), max(-b.lo, b.hi))


def rsub(value, b: AlgebraicBound) -> AlgebraicBound:
    """value - b, for a rational or an enclosure value."""
    return _bound(value) + (-b)


def rtruediv(value, b: AlgebraicBound) -> AlgebraicBound:
    """value / b, for a rational or an enclosure value."""
    return _bound(value) * b.reciprocal()
