"""Exact Eulerian combinatorics.

Univariate Eulerian polynomials via their derivative recurrence, and
three independent ways to count the permutations of [n+1] whose
descent-top set (the larger value of each descent pair) is exactly a
given value set X:

- the full descent-top distribution by insertion transfer,
- an inclusion-exclusion over the complement of X,
- an alternating sum over deletions from X,

plus closed forms for |X| <= 3.  Enumerating S_{n+1} and expanding the
multi-affine multivariate polynomial are test oracles and live in the
tests.  Everything here is exact integer / rational arithmetic; no floats.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from ._record import Record

__all__ = [
    "UnivariatePolynomial",
    "univariate_eulerian",
    "count_exact_bruteforce",
    "count_formula",
    "closed_form_R",
    "BRUTE_FORCE_MAX_N",
]

# Cap of the exact descent-top distribution behind `counts`; the transfer
# reaches further, but the cap and its message are part of the contract.
BRUTE_FORCE_MAX_N = 9


class UnivariatePolynomial(Record):
    """A univariate polynomial with exact coefficients, ints or Fractions.

    ``coeffs[k]`` holds the coefficient of x^k; the last one is nonzero,
    except in the zero polynomial ``(0,)``.
    """

    coeffs: tuple[int | Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int | Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0


# The coefficients of A_m for the largest m built so far: a function of m alone,
# so callers see it only in the time a build takes, and nothing need reset it.
_largest = [[1]]


@lru_cache(maxsize=None)
def univariate_eulerian(n: int) -> UnivariatePolynomial:
    """The n-th Eulerian polynomial A_n, with A_0 = 1, on int coefficients.

    Its coefficients are the Eulerian numbers; they are positive,
    palindromic and sum to (n+1)!.  The recurrence
    A_n = (n+1) x A_{n-1} + (1-x) (x A_{n-1})' reads
    a_k = (k+1) a'_k + (n+1-k) a'_{k-1} on coefficients, run bottom-up
    over integers, with no recursion however large n is, from the largest
    row built so far unless it is past A_n: O(n) steps per ascending n.

    >>> univariate_eulerian(4).coeffs
    (1, 26, 66, 26, 1)
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    row = _largest[0] if len(_largest[0]) <= n + 1 else [1]
    for m in range(len(row), n + 1):  # a'_k and a'_(k-1) zipped
        row = [(k + 1) * u + (m + 1 - k) * v for k, (u, v) in enumerate(zip(row + [0], [0] + row))]
    _largest[0] = max(_largest[0], row, key=len)
    return UnivariatePolynomial(tuple(row))


@lru_cache(maxsize=None)
def _descent_top_mask_counts(n: int) -> dict[int, int]:
    # Mask uses the top VALUE as bit index; 1 is never a top.  Insert the
    # values n+1, n, ..., 1 in decreasing order: the new value is smaller
    # than every placed one, so put first or right after a top it keeps
    # the top set T, and right after a placed non-top a it adds a.  With
    # k values placed that is 1 + |T| positions to T, one to T | {a} each.
    counts = {0: 1}
    for k in range(1, n + 1):
        placed = (1 << (n + 2)) - (1 << (n + 2 - k))
        step: dict[int, int] = {}
        for mask, c in counts.items():
            step[mask] = step.get(mask, 0) + (1 + mask.bit_count()) * c
            free = placed & ~mask
            while free:  # each free bit, lowest first
                bit = free & -free
                free ^= bit
                step[mask | bit] = step.get(mask | bit, 0) + c
        counts = step
    return counts


def _validated_tops(n: int, X: Iterable[int]) -> tuple[int, ...]:
    xs = tuple(sorted(set(X)))
    if any(not 2 <= v <= n + 1 for v in xs):
        raise ValueError(f"descent tops must lie in {{2, ..., {n + 1}}}, got {xs}")
    return xs

def count_exact_bruteforce(n: int, X: Iterable[int]) -> int:
    """|{sigma in S_{n+1} : the descent-top set of sigma is X}| by insertion transfer."""
    if not 1 <= n <= BRUTE_FORCE_MAX_N:
        raise ValueError("enumeration too large")
    xs = _validated_tops(n, X)
    mask = 0
    for v in xs:
        mask |= 1 << v
    return _descent_top_mask_counts(n).get(mask, 0)


def _complement_count(top: int, xs: tuple[int, ...]) -> int:
    # Inclusion-exclusion over the subsets S of the complement of X inside
    # [top]: sum over S of (-1)^|S| (top - |X u S|)! prod_i (chain_i - i),
    # chain = sorted(X u S), as a DP over the values 1..top.  ways[j] sums
    # the signed products over the choices so far with j values chosen: a
    # value of X is always chosen, any other skipped or chosen with sign -1.
    ways = [1]
    for v in range(1, top + 1):
        chosen = [0] + [w * (v - j) for j, w in enumerate(ways, start=1)]
        if v in xs:
            ways = chosen
        else:
            ways = [a - b for a, b in itertools.zip_longest(ways, chosen, fillvalue=0)]
    return sum(w * math.factorial(top - j) for j, w in enumerate(ways))


def _deletion_count(xs: tuple[int, ...]) -> int:
    # Alternating sum over subsets J of X of the factorial-power weight of
    # the gap tuple alpha(J) = (j_1 - 1, j_2 - j_1, ...); independent of n.
    s = len(xs)
    total = 0
    for r in range(s + 1):
        for J in itertools.combinations(xs, r):
            weight = 1
            prev = 1
            for t, v in enumerate(J, start=1):
                weight *= (r + 2 - t) ** (v - prev)
                prev = v
            total += (-1) ** (s - r) * weight
    return total


def count_formula(n: int, X: Iterable[int], method: str = "complement") -> int:
    """|R(n, X)| by formula instead of enumeration.

    Both formulas are stated for value sets inside [k] counting
    permutations of S_k; matching the brute-force convention over S_{n+1}
    fixes the offset at k = n + 1 (calibrated against enumeration for all
    n <= 6 and frozen here).

    ``method`` is "complement" (inclusion-exclusion over [n+1] \\ X, summed
    by a dynamic program over the values 1..n+1 in O(n^2) steps) or
    "deletion" (alternating sum over subsets of X; 2^|X| terms,
    independent of n).
    """
    xs = _validated_tops(n, X)
    if method == "complement":
        return _complement_count(n + 1, xs)
    if method == "deletion":
        return _deletion_count(xs)
    raise ValueError(f"unknown method {method!r}")


def closed_form_R(X: Iterable[int]) -> int:
    """R(X) for |X| in {1, 2, 3} from the printed closed forms.

    The value does not depend on the ambient symmetric group, only on the
    sorted top values.

    >>> closed_form_R({3})
    3
    >>> closed_form_R({2, 3})
    1
    """
    xs = tuple(sorted(set(X)))
    if any(v < 2 for v in xs):
        raise ValueError("descent tops must be >= 2")
    if len(xs) == 1:
        (a,) = xs
        return 2 ** (a - 1) - 1
    if len(xs) == 2:
        a, b = xs
        return 3 ** (a - 1) * 2 ** (b - a) - (2 ** (a - 1) + 2 ** (b - 1)) + 1
    if len(xs) == 3:
        a, b, c = xs
        return (
            4 ** (a - 1) * 3 ** (b - a) * 2 ** (c - b)
            - (
                3 ** (a - 1) * 2 ** (b - a)
                + 3 ** (b - 1) * 2 ** (c - b)
                + 3 ** (a - 1) * 2 ** (c - a)
            )
            + (2 ** (a - 1) + 2 ** (b - 1) + 2 ** (c - 1))
            - 1
        )
    raise ValueError("no closed form")
