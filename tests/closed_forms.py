"""Fully expanded D and N of both guess-vector families: a test oracle.

``closed_form_DN`` is a second, independent entry of the quadratics that
``eulerian_bounds.bounds.eulerian_guess_quadratics`` sums over the
closed-form pencil entries, and that ``summed_pencil.linearized_DN``
expands from the dense pencil.  Its exact agreement with them is a tested
invariant; the quadratic form is normative on any disagreement.
"""

from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


def _pow(base: int, e: int) -> Fraction:
    return Fraction(base) ** e


def closed_form_DN(kind: str, n: int, y: Rat) -> tuple[Fraction, Fraction]:
    """Evaluate the expanded D and N expressions exactly at rational y.

    A deliberate second entry of the quantities ``linearized_DN`` and
    ``eulerian_guess_quadratics`` compute (old family in n, new family in
    m = n/2), kept term by term and unsimplified so the agreement probe
    catches transcription slips in any route.
    """
    y = Fraction(y)
    if kind == "old":
        d = (
            10
            - _pow(2, 2 + n)
            + _pow(2, 2 + 2 * n)
            - 2 * _pow(3, 1 + n)
            + n
            + 4 * y
            - _pow(2, 1 + n) * y
            + n * y
            + y * (4 - _pow(2, 1 + n) + n + n * y)
        )
        nn = (
            -10
            + _pow(2, 3 + n)
            - Fraction(1, 3) * _pow(2, 3 + 2 * n)
            - Fraction(1, 3) * _pow(2, 4 + 2 * n)
            + Fraction(1, 7) * _pow(2, 4 + 3 * n)
            + Fraction(1, 7) * _pow(2, 5 + 3 * n)
            + 2 * _pow(3, n)
            - 4 * _pow(3, 1 + n)
            + 2 * _pow(3, 2 + n)
            - Fraction(1, 5) * _pow(2, 1 + n) * _pow(3, 3 + n)
            - _pow(4, 1 + n)
            + _pow(4, 2 + n)
            - _pow(6, 2 + n) / 5
            + _pow(8, 1 + n) / 7
            - n
            - 8 * y
            - _pow(2, 2 + n) * y
            + _pow(2, 3 + n) * y
            - Fraction(1, 3) * _pow(2, 3 + 2 * n) * y
            - Fraction(1, 3) * _pow(2, 4 + 2 * n) * y
            + 4 * _pow(3, 1 + n) * y
            - 2 * n * y
            - 2 * y * y
            + _pow(2, 1 + n) * y * y
            - n * y * y
        )
        return d, nn
    if kind == "new":
        if n % 2:
            raise ValueError("new-family closed form needs even n")
        m = n // 2
        d = (
            -Fraction(1, 12)
            + _pow(2, 3 * m)
            + _pow(2, 2 + m)
            + 5 * _pow(2, -3 + 2 * m)
            - 7 * _pow(2, -1 + 2 * m)
            + 3 * _pow(2, 1 + 3 * m)
            - _pow(2, 3 + 3 * m)
            + Fraction(1, 3) * _pow(2, 2 + 4 * m)
            + Fraction(1, 3) * _pow(2, 3 + 4 * m)
            - 2 * _pow(3, -1 + m)
            - _pow(2, 4 + m) * _pow(3, -1 + m)
            + _pow(3, m)
            - _pow(2, 1 + m) * _pow(3, m)
            - _pow(3, 1 + m)
            + _pow(2, 2 + m) * _pow(3, 1 + m)
            - 2 * _pow(3, 1 + 2 * m)
            - Fraction(11, 3) * _pow(4, -2 + m)
            + m
            - _pow(2, 3 * m) * m
            - 5 * _pow(2, -4 + 2 * m) * m
            - _pow(2, -3 + 2 * m) * m
            + _pow(2, -1 + 2 * m) * m
            + _pow(4, -2 + m) * m
            + _pow(2, -4 + 2 * m) * m * m
            + (
                -3
                + _pow(2, -1 + m)
                + _pow(2, 1 + m)
                - _pow(2, 2 + m)
                + _pow(2, 2 + 2 * m)
                - 2 * m
                - _pow(2, -1 + m) * m
            )
            * y
            + 2 * m * y * y
        )
        nn = (
            Fraction(1, 12)
            + _pow(2, 2 * m)
            - _pow(2, 3 * m)
            + 5 * _pow(2, 4 * m)
            - _pow(2, 2 + m)
            + Fraction(11, 3) * _pow(2, -4 + 2 * m)
            - 5 * _pow(2, -3 + 2 * m)
            - 7 * _pow(2, -1 + 2 * m)
            + 3 * _pow(2, 1 + 2 * m)
            + 9 * _pow(2, -3 + 3 * m)
            - 47 * _pow(2, -2 + 3 * m)
            + 3 * _pow(2, -1 + 3 * m)
            - _pow(2, 2 + 3 * m)
            - Fraction(1, 7) * _pow(2, 3 + 3 * m)
            + Fraction(1, 7) * _pow(2, 4 + 3 * m)
            + Fraction(5, 7) * _pow(2, 5 + 3 * m)
            - Fraction(27, 5) * _pow(2, -3 + 4 * m)
            + 5 * _pow(2, -1 + 4 * m)
            - _pow(2, 1 + 4 * m)
            + _pow(2, 1 + 5 * m)
            + 3 * _pow(2, 2 + 5 * m)
            - _pow(2, 4 + 5 * m)
            + Fraction(1, 7) * _pow(2, 3 + 6 * m)
            + Fraction(1, 3) * _pow(2, 4 + 6 * m)
            + Fraction(1, 21) * _pow(2, 5 + 6 * m)
            + 2 * _pow(3, -1 + m)
            - 11 * _pow(2, 2 * m) * _pow(3, -1 + m)
            - Fraction(1, 5) * _pow(2, 3 + m) * _pow(3, -1 + m)
            + _pow(2, 4 + m) * _pow(3, -1 + m)
            + 13 * _pow(2, 2 + 2 * m) * _pow(3, -1 + m)
            - _pow(2, 5 + 3 * m) * _pow(3, -1 + m)
            - _pow(3, m)
            - _pow(2, -1 + m) * _pow(3, m)
            + _pow(2, 1 + m) * _pow(3, m)
            + 7 * _pow(2, -1 + 2 * m) * _pow(3, m)
            - _pow(2, 2 + 3 * m) * _pow(3, m)
            + _pow(3, 1 + m)
            - _pow(2, 2 + m) * _pow(3, 1 + m)
            - _pow(2, 3 + 2 * m) * _pow(3, 1 + m)
            + _pow(2, 3 + 3 * m) * _pow(3, 1 + m)
            - _pow(2, 1 + 2 * m) * _pow(3, 2 + m)
            + _pow(2, -2 + 2 * m) * _pow(3, 3 + m)
            + 4 * _pow(3, 1 + 2 * m)
            - _pow(2, m) * _pow(3, 1 + 2 * m)
            - _pow(2, 1 + m) * _pow(3, 1 + 2 * m)
            + _pow(2, 2 + m) * _pow(3, 1 + 2 * m)
            - Fraction(1, 5) * _pow(2, 2 + 2 * m) * _pow(3, 1 + 2 * m)
            + _pow(6, m)
            - _pow(6, 1 + m)
            - Fraction(13, 5) * _pow(6, 1 + 2 * m)
            - m
            - _pow(2, 2 * m) * m
            + _pow(2, 3 * m) * m
            + 5 * _pow(2, -3 + 2 * m) * m
            + _pow(2, -2 + 2 * m) * m
            - 5 * _pow(2, -2 + 4 * m) * m
            - _pow(2, -1 + 4 * m) * m
            + _pow(2, 1 + 4 * m) * m
            - _pow(2, 1 + 5 * m) * m
            + _pow(2, 1 + 2 * m) * _pow(3, -1 + m) * m
            + _pow(2, -2 + 2 * m) * _pow(3, m) * m
            - _pow(2, -1 + 2 * m) * _pow(3, 1 + m) * m
            + _pow(2, -1 + m) * _pow(3, 1 + 2 * m) * m
            - _pow(2, -4 + 2 * m) * m * m
            + _pow(2, -3 + 4 * m) * m * m
            + (
                3
                - 3 * _pow(2, -1 + m)
                + _pow(2, m)
                + 5 * _pow(2, 3 * m)
                + _pow(2, 1 + m)
                - _pow(2, 2 + 2 * m)
                + _pow(2, 1 + 3 * m)
                - _pow(2, 3 + 3 * m)
                + _pow(2, 3 + 4 * m)
                - _pow(2, 4 + m) * _pow(3, -1 + m)
                - _pow(2, 1 + m) * _pow(3, m)
                + _pow(2, 2 + m) * _pow(3, 1 + m)
                - 4 * _pow(3, 1 + 2 * m)
                + 2 * m
                + _pow(2, -1 + m) * m
                - _pow(2, 3 * m) * m
            )
            * y
            + (-2 + _pow(2, 1 + 2 * m) - 2 * m) * y * y
        )
        return d, nn
    raise ValueError(f"unknown vector kind {kind!r}")
