"""Quadratic surds enclosed by integer square roots: a test oracle.

The library encloses every irrational value, the critical points of the
linearized bound included, as the dyadic cell of a root of an integer
polynomial (``spectra._refine_root``).  These closed-form enclosures,
(-b +- sqrt(b^2 - 4ac)) / (2a) from one ``math.isqrt``, are a second,
independent route to the same quadratic roots.
"""

import math
from fractions import Fraction
from typing import Union

from eulerian_bounds.enclosure import AlgebraicBound

Rat = Union[int, Fraction]


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
