"""Polynomials the library does not build: test oracles and helpers.

``multivariate_eulerian`` expands the full multi-affine multivariate
Eulerian polynomial, 2^n monomials, by the homogeneous pair-variable
recursion.  The library reads the degree <= 3 part off descent-top
counts instead (``Truncation3.eulerian``); ``truncation_from_multi_affine``
cuts the same part out of the expansion, so the two routes can be
compared.  ``polynomialize`` builds a univariate polynomial from a
coefficient sequence, trailing zeros stripped, and ``quadratic_at``
evaluates a quadratic in y exactly.  ``bisection_refine_root`` narrows
a root one bit per exact sign test, the oracle for
``spectra._refine_root``.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from eulerian_bounds.enclosure import AlgebraicBound
from eulerian_bounds.eulerian import UnivariatePolynomial
from eulerian_bounds.lform import Truncation3
from eulerian_bounds.spectra import _quo, _sign_at


def polynomialize(seq: Sequence) -> UnivariatePolynomial:
    """Turn a finite sequence s(0), ..., s(k) into the polynomial sum s(i) x^i."""
    values = [Fraction(v) for v in seq]
    if not values:
        raise ValueError("empty sequence")
    while len(values) > 1 and values[-1] == 0:
        values.pop()
    return UnivariatePolynomial(tuple(values))


def quadratic_at(q, y) -> Fraction:
    """The exact value of a ``bounds.QuadraticInY`` at y."""
    y = Fraction(y)
    return q.c2 * y * y + q.c1 * y + q.c0


@dataclass(frozen=True)
class MultiAffinePolynomial:
    """A multi-affine polynomial in n variables with integer coefficients.

    Monomials are square-free, so each is a subset of [n]; ``coeffs`` maps
    the subset bitmask (bit i-1 set means variable x_i present) to its
    coefficient.  Missing masks mean coefficient zero.
    """

    n: int
    coeffs: dict[int, int]

    def coefficient(self, variables: Iterable[int]) -> int:
        mask = 0
        for v in variables:
            if not 1 <= v <= self.n:
                raise ValueError(f"variable index {v} out of range [1, {self.n}]")
            mask |= 1 << (v - 1)
        return self.coeffs.get(mask, 0)

    def coefficient_sum(self) -> int:
        return sum(self.coeffs.values())

    def diagonal(self) -> UnivariatePolynomial:
        """Substitute x_i := x for every i (grouping monomials by size)."""
        out = [0] * (self.n + 1)
        for mask, c in self.coeffs.items():
            out[mask.bit_count()] += c
        return polynomialize(out)

    def level_sums(self) -> tuple[int, ...]:
        """Sum of coefficients of all monomials of each total degree."""
        return tuple(int(c) for c in self.diagonal().coeffs)


def _bits(mask: int) -> list[int]:
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def multivariate_eulerian(n: int) -> MultiAffinePolynomial:
    """The multi-affine multivariate Eulerian polynomial A_n(x, 1).

    Runs the homogeneous recursion over 2n paired variables (x_i, y_i),

        H_k = (x_k + y_k) H_{k-1} + x_k y_k * sum_i (d/dx_i + d/dy_i) H_{k-1},

    then substitutes y_i := 1 throughout.  Variables are labelled so that
    the coefficient of the singleton {i} is 2^i - 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # Terms keyed by (xmask, ymask); multi-affinity lets a derivative just
    # drop a bit.
    terms: dict[tuple[int, int], int] = {(0, 0): 1}
    for k in range(1, n + 1):
        bit = 1 << (k - 1)
        new: dict[tuple[int, int], int] = {}
        for (xm, ym), c in terms.items():
            key = (xm | bit, ym)
            new[key] = new.get(key, 0) + c
            key = (xm, ym | bit)
            new[key] = new.get(key, 0) + c
            for b in _bits(xm):
                key = ((xm ^ b) | bit, ym | bit)
                new[key] = new.get(key, 0) + c
            for b in _bits(ym):
                key = (xm | bit, (ym ^ b) | bit)
                new[key] = new.get(key, 0) + c
        terms = new
    dehom: dict[int, int] = {}
    for (xm, _), c in terms.items():
        dehom[xm] = dehom.get(xm, 0) + c
    result = MultiAffinePolynomial(n, dehom)
    assert result.coefficient(()) == 1
    assert result.coefficient_sum() == math.factorial(n + 1)
    assert all(result.coefficient([i]) == 2**i - 1 for i in range(1, n + 1))
    return result


def truncation_from_multi_affine(p: MultiAffinePolynomial) -> Truncation3:
    """The degree <= 3 part of p, normalized as p(0) = 1 requires."""
    coeffs = {}
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(1, p.n + 1), size):
            c = p.coefficient(combo)
            if c:
                coeffs[combo] = Fraction(c)
    return Truncation3(n=p.n, degree=p.n, coeffs=coeffs)


def bisection_refine_root(
    desc: list[int], lo: Fraction, hi: Fraction, prec: int, exact: bool = True
) -> AlgebraicBound:
    """The dyadic cell of the one root of desc in (lo, hi), by bisection.

    The same contract as ``spectra._refine_root``: the cell [k, k+1] / 2^prec,
    k = ceil(r 2^prec) - 1, clipped to the interval, with k bisected over
    the integers, one Horner sign on coefficients scaled by 2^prec per bit.
    Endpoints that are other roots are deflated.  With ``exact`` a root on
    the grid, or an exact isolated root, is a point; without it the root
    is the hi end of its cell.
    """
    one = 1 << prec
    if lo == hi:
        k = -(-lo.numerator * one // lo.denominator) - 1
        return AlgebraicBound.exact(lo) if exact else AlgebraicBound(Fraction(k, one), lo)
    for r in (lo, hi):
        while _sign_at(desc, r) == 0:
            desc = _quo(desc, [r.denominator, -r.numerator])
    slo = _sign_at(desc, lo)
    if slo == _sign_at(desc, hi):
        raise ValueError("interval endpoints do not bracket a sign change")
    scaled = [c << (prec * i) for i, c in enumerate(desc)]
    a, b = lo.numerator * one // lo.denominator, -(-hi.numerator * one // hi.denominator)
    while b - a > 1:  # r in (max(lo, a / 2^prec), min(hi, b / 2^prec)]
        m = (a + b) // 2
        sign = _sign_at(scaled, m)
        if sign == 0 and exact:
            return AlgebraicBound.exact(Fraction(m, one))
        a, b = (m, b) if sign == slo else (a, m)
    return AlgebraicBound(max(lo, Fraction(a, one)), min(hi, Fraction(b, one)))

