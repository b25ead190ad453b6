"""Linear forms on monomials of degree up to three.

The relaxation pencil is filled with values L(m) of a linear form
attached to a normalized polynomial p (p(0) = 1).  L(1) is the degree of
p and the remaining values are determined by the power-series identity

    -log(p(-x)/p(0)) = sum_{a != 0}  (1/|a|) binom(|a|, a) L(x^a) x^a.

Two independent routes are provided: ``lform_from_truncation`` derives
L(m) generically from the degree-3 truncation of any p, while
``eulerian_lform`` evaluates closed forms specific to the multivariate
Eulerian family.  Their agreement over the Eulerian polynomials is a
tested invariant.  The closed forms are integers, so the Eulerian table
and the pencil built from it are integral.  The Eulerian truncation
itself (``Truncation3.eulerian``) is read off descent-top counts, O(n^3)
coefficients of at most eight summands each, so the full 2^n-term
multivariate polynomial is never expanded; the expansion stays in the
tests as the oracle for it.

Monomials are written as sorted index tuples with repetition:
() is 1, (i,) is x_i, (i, i, j) is x_i^2 x_j.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping
from fractions import Fraction

from ._record import Record
from .eulerian import count_formula

__all__ = [
    "Monomial",
    "Truncation3",
    "LFormTable",
    "monomials_up_to_3",
    "lform_from_truncation",
    "eulerian_lform",
    "eulerian_lform_table",
]

Monomial = tuple[int, ...]


def monomials_up_to_3(n: int) -> Iterator[Monomial]:
    """All monomials of total degree <= 3 in variables x_1 .. x_n."""
    yield ()
    for d in (1, 2, 3):
        yield from itertools.combinations_with_replacement(range(1, n + 1), d)


class Truncation3(Record):
    """Degree-<=3 truncation of a polynomial normalized to p(0) = 1.

    ``coeffs`` maps sorted monomial tuples of length 1..3 to their
    coefficient; absent monomials have coefficient 0.  ``degree`` is the
    degree of the full polynomial, not of the truncation.
    """

    n: int
    degree: int
    coeffs: Mapping[Monomial, int | Fraction]

    def a(self, *indices: int) -> int | Fraction:
        return self.coeffs.get(tuple(sorted(indices)), 0)

    @staticmethod
    def eulerian(n: int) -> "Truncation3":
        """The truncation of the multivariate Eulerian polynomial A_n(x, 1).

        The coefficient of x_S counts the permutations of [n+1] whose
        descent-top set is exactly {i+1 : i in S} (variable i tags top
        value i+1); each count is the deletion sum of ``count_formula``.
        The polynomial is multi-affine, so only square-free monomials occur.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        coeffs: dict[Monomial, int] = {}
        for size in (1, 2, 3):
            for combo in itertools.combinations(range(1, n + 1), size):
                c = count_formula(n, [i + 1 for i in combo], "deletion")
                if c:
                    coeffs[combo] = c
        return Truncation3(n=n, degree=n, coeffs=coeffs)


class LFormTable(Record):
    """Total table of L(m) over all monomials of degree <= 3 in n variables."""

    n: int
    values: Mapping[Monomial, int | Fraction]

    def __call__(self, monomial: Monomial) -> int | Fraction:
        key = tuple(sorted(monomial))
        try:
            return self.values[key]
        except KeyError:
            raise KeyError(f"incomplete L-form table: missing {key}") from None


def _l_square_linear(t: Truncation3, s: int, u: int) -> int | Fraction:
    # Degree-3 coefficient of -log(p(-x)) at x_s^2 x_u, from expanding
    # -w + w^2/2 - w^3/3 for w = p(-x) - 1:  the multinomial weight
    # binom(3; 2,1)/3 = 1 makes the coefficient equal L itself.
    return (
        t.a(s, s, u)
        - t.a(s) * t.a(s, u)
        - t.a(u) * t.a(s, s)
        + t.a(s) ** 2 * t.a(u)
    )


def lform_from_truncation(t: Truncation3) -> LFormTable:
    """Evaluate L on every monomial of degree <= 3 from a truncation."""
    values: dict[Monomial, int | Fraction] = {(): t.degree}
    for i in range(1, t.n + 1):
        values[(i,)] = t.a(i)
        values[(i, i)] = -2 * t.a(i, i) + t.a(i) ** 2
        values[(i, i, i)] = (
            3 * t.a(i, i, i) - 3 * t.a(i) * t.a(i, i) + t.a(i) ** 3
        )
    for i, j in itertools.combinations(range(1, t.n + 1), 2):
        values[(i, j)] = -t.a(i, j) + t.a(i) * t.a(j)
        values[(i, i, j)] = _l_square_linear(t, i, j)
        values[(i, j, j)] = _l_square_linear(t, j, i)
    for i, j, k in itertools.combinations(range(1, t.n + 1), 3):
        values[(i, j, k)] = Fraction(1, 2) * (
            t.a(i, j, k)
            - t.a(i) * t.a(j, k)
            - t.a(j) * t.a(i, k)
            - t.a(k) * t.a(i, j)
            + 2 * t.a(i) * t.a(j) * t.a(k)
        )
    return LFormTable(n=t.n, values=values)


def eulerian_lform(n: int, monomial: Monomial) -> int:
    """Closed-form L value on a degree-<=3 monomial for the Eulerian family.

    Every value is an integer, built from shifts and powers of 3.

    >>> eulerian_lform(5, ())
    5
    >>> eulerian_lform(5, (1, 2))
    2
    >>> eulerian_lform(5, (2, 2))
    9
    """
    mono = tuple(sorted(monomial))
    if len(mono) > 3:
        raise ValueError(f"monomial degree {len(mono)} > 3")
    if any(not 1 <= v <= n for v in mono):
        raise ValueError(f"monomial {mono} has indices outside [1, {n}]")
    return _closed_form(n, mono)


def _closed_form(n: int, mono: Monomial) -> int:
    if mono == ():
        return n
    if len(mono) == 1:
        (i,) = mono
        return (1 << i) - 1
    if len(mono) == 2:
        i, j = mono
        if i == j:
            return ((1 << i) - 1) ** 2
        return (4**i - 3**i) << (j - i)
    i, j, k = mono
    if i == j == k:
        return ((1 << i) - 1) ** 3
    if i == j or j == k:  # x_i^2 x_k or x_i x_k^2
        return ((1 << j) - 1) * (4**i - 3**i) << (k - i)
    return (
        (1 << (i + j + k))
        - (3**i << (j + k - i))
        - (3**j << (i - j + k - 1))
        + (3 ** (j - i) << (2 * i - j + k - 1))
    )


def eulerian_lform_table(n: int) -> LFormTable:
    """Total closed-form L table for the n-variable Eulerian polynomial."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return LFormTable(n=n, values={m: _closed_form(n, m) for m in monomials_up_to_3(n)})
