"""Interval predicates and reflected operations on AlgebraicBound that only
the tests use; the library keeps the arithmetic its certificates need.

"Possibly" means the enclosures do not refute a relation, "certainly"
means they prove it.  Plain rationals count as exact enclosures.
``dyadic_intervals`` draws enclosures shaped like the library's dyadic
cells, on each side of 0, across it and as points.
"""

from fractions import Fraction

from hypothesis import strategies as st

from eulerian_bounds.enclosure import AlgebraicBound

# Dyadic rationals with denominators up to 2^300, as in a cell at prec 300.
POSITIVE_DYADICS = st.builds(
    lambda m, k: Fraction(m, 2**k), st.integers(1, 2**310), st.integers(0, 300)
)


@st.composite
def dyadic_intervals(draw, shape=st.sampled_from(("below", "straddle", "above", "point"))):
    """An AlgebraicBound with dyadic ends: below 0, straddling 0 (an end may
    be 0), above 0, or a point of any sign, 0 included."""
    shape, a, b = draw(shape), draw(POSITIVE_DYADICS), draw(POSITIVE_DYADICS)
    if shape == "point":
        x = draw(st.just(Fraction(0)) | POSITIVE_DYADICS | POSITIVE_DYADICS.map(lambda v: -v))
        return AlgebraicBound(x, x)
    if shape == "straddle":
        return AlgebraicBound(-a if draw(st.booleans()) else Fraction(0),
                              b if draw(st.booleans()) else Fraction(0))
    lo, hi = (a, a + b) if shape == "above" else (-a - b, -a)
    return AlgebraicBound(lo, hi)


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
