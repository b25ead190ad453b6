"""Rational interval arithmetic and radical enclosures."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_bounds.enclosure import AlgebraicBound

from intervals import (
    certainly_leq,
    contains,
    dyadic_intervals,
    magnitude,
    possibly_leq,
    rsub,
    rtruediv,
    width,
)
from surds import quadratic_root_enclosure, sqrt_enclosure

fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)


def test_empty_interval_rejected():
    with pytest.raises(ValueError, match="empty enclosure"):
        AlgebraicBound(Fraction(1), Fraction(0))


def test_exact_and_accessors():
    b = AlgebraicBound.exact(Fraction(3, 7))
    assert width(b) == 0 and b.midpoint == Fraction(3, 7)
    assert contains(b, Fraction(3, 7))
    assert float(b) == pytest.approx(3 / 7)


def test_floats_cannot_enter_an_enclosure():
    with pytest.raises(TypeError):
        AlgebraicBound.exact(0.5)
    with pytest.raises(TypeError):
        AlgebraicBound.exact(1) + 0.5
    # A float end is refused at construction, not first met by QuadraticInY.at.
    with pytest.raises(TypeError, match="float end"):
        AlgebraicBound(0.5, 1.0)
    with pytest.raises(TypeError, match="float end"):
        AlgebraicBound(Fraction(0), 1.0)
    with pytest.raises(TypeError, match="float end"):
        AlgebraicBound(1, 2).reciprocal()  # int ends: 1 / 2 is the float 0.5


def test_arithmetic_basics():
    a = AlgebraicBound(Fraction(1), Fraction(2))
    b = AlgebraicBound(Fraction(-1), Fraction(3))
    assert (a + b).lo == 0 and (a + b).hi == 5
    assert (-a).lo == -2 and (-a).hi == -1
    assert (a - 1).lo == 0
    assert (a * b).lo == -2 and (a * b).hi == 6
    assert magnitude(AlgebraicBound(Fraction(-3), Fraction(1))).hi == 3


def test_division_sign_checks():
    a = AlgebraicBound(Fraction(1), Fraction(2))
    z = AlgebraicBound(Fraction(-1), Fraction(1))
    assert rtruediv(1, a).lo == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        z.reciprocal()


@given(dyadic_intervals(), dyadic_intervals())
@settings(max_examples=300, deadline=None)
def test_quotient_is_the_product_with_the_reciprocal(p, q):
    # Division picks two of the four end quotients by sign; the product
    # with the reciprocal interval is the oracle, end for end.
    if q.lo <= 0 <= q.hi:
        with pytest.raises(ZeroDivisionError, match="enclosure contains zero"):
            p / q
    else:
        assert p / q == p * q.reciprocal()
        assert p / q.lo == p * AlgebraicBound.exact(q.lo).reciprocal()


def test_order_predicates():
    a = AlgebraicBound(Fraction(0), Fraction(1))
    b = AlgebraicBound(Fraction(2), Fraction(3))
    assert a.certainly_lt(b) and certainly_leq(a, b) and possibly_leq(a, b)
    assert not possibly_leq(b, a)
    overlap = AlgebraicBound(Fraction(1, 2), Fraction(4))
    assert possibly_leq(a, overlap) and possibly_leq(overlap, a)
    assert not certainly_leq(a, overlap)


@given(fractions, fractions)
@settings(max_examples=100, deadline=None)
def test_interval_product_contains_point_products(x, y):
    ax = AlgebraicBound(x - 1, x + 1)
    ay = AlgebraicBound(y - 1, y + 1)
    assert contains(ax * ay, x * y)
    assert contains(ax + ay, x + y)
    assert contains(ax - ay, x - y)


@given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**4))
@settings(max_examples=100, deadline=None)
def test_sqrt_enclosure_brackets(v):
    enc = sqrt_enclosure(v, 80)
    assert enc.lo >= 0
    assert enc.lo * enc.lo <= v <= enc.hi * enc.hi
    assert width(enc) <= Fraction(1, 2**80)


def test_sqrt_exact_square():
    assert sqrt_enclosure(Fraction(9, 4), 64) == AlgebraicBound.exact(Fraction(3, 2))
    assert width(sqrt_enclosure(0, 64)) == 0


def test_sqrt_negative_rejected():
    with pytest.raises(ValueError, match="negative radicand"):
        sqrt_enclosure(-1, 64)


def test_quadratic_root_known_surds():
    # y^2 - 2y - 1 has roots 1 +- sqrt(2).
    plus = quadratic_root_enclosure(1, -2, -1, "+", 100)
    minus = quadratic_root_enclosure(1, -2, -1, "-", 100)
    s2 = sqrt_enclosure(2, 120)
    assert contains(plus, (1 + s2).midpoint) or plus.lo <= (1 + s2).hi
    assert (1 + s2).lo <= plus.hi and plus.lo <= (1 + s2).hi
    assert rsub(1, s2).lo <= minus.hi and minus.lo <= rsub(1, s2).hi
    assert width(plus) <= Fraction(1, 2**100)


def test_quadratic_root_is_a_root():
    # The enclosure must contain an exact root: the quadratic evaluated
    # over the interval straddles zero.
    a, b, c = Fraction(3), Fraction(-5), Fraction(-7)
    for branch in "+-":
        y = quadratic_root_enclosure(a, b, c, branch, 90)
        value = a * (y * y) + b * y + AlgebraicBound.exact(c)
        assert contains(value, 0)


def test_quadratic_root_errors():
    with pytest.raises(ZeroDivisionError):
        quadratic_root_enclosure(0, 1, 1, "+", 64)
    with pytest.raises(ValueError, match="negative discriminant"):
        quadratic_root_enclosure(1, 0, 1, "+", 64)
    with pytest.raises(ValueError, match="branch"):
        quadratic_root_enclosure(1, 0, -1, "?", 64)
