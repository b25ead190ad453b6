"""Descent-top sets counted by walking S_{n+1}: a test oracle.

``eulerian_bounds.eulerian`` builds the descent-top distribution by an
insertion transfer.  This module counts it the obvious way instead,
permutation by permutation, and shares nothing with the transfer;
``descent_top_counts`` reads the transfer's bitmask counts as value sets,
the form of the enumeration.
``complement_count_by_subsets`` sums the complement inclusion-exclusion
term by term over every subset, the oracle for its dynamic program in
``eulerian.count_formula``.
"""

import itertools
import math
from functools import lru_cache
from typing import Sequence

from eulerian_bounds.eulerian import BRUTE_FORCE_MAX_N, _descent_top_mask_counts


def is_permutation(image: Sequence[int]) -> bool:
    """Check that ``image`` is a bijection on {1, ..., len(image)}."""
    return sorted(image) == list(range(1, len(image) + 1))


def descent_top_set(sigma: Sequence[int]) -> frozenset[int]:
    """The descent-top set: the larger value of each descent pair."""
    if not is_permutation(sigma):
        raise ValueError("not a permutation of 1..k")
    return frozenset(sigma[i] for i in range(len(sigma) - 1) if sigma[i] > sigma[i + 1])


@lru_cache(maxsize=None)
def enumerated_descent_top_counts(n: int) -> dict[frozenset[int], int]:
    """Counts of every descent-top set over S_{n+1}, by enumeration."""
    counts: dict[frozenset[int], int] = {}
    for perm in itertools.permutations(range(1, n + 2)):
        tops = descent_top_set(perm)
        counts[tops] = counts.get(tops, 0) + 1
    return counts


def descent_top_counts(n: int) -> dict[frozenset[int], int]:
    """Counts of every descent-top set over S_{n+1} by the library's transfer."""
    if not 1 <= n <= BRUTE_FORCE_MAX_N:
        raise ValueError("enumeration too large")
    return {frozenset(v for v in range(2, n + 2) if mask >> v & 1): c
            for mask, c in _descent_top_mask_counts(n).items()}


def complement_count_by_subsets(top: int, xs: tuple[int, ...]) -> int:
    """Sum over the subsets S of [top] \\ X of (-1)^|S| (top - |X u S|)!
    prod_i (chain_i - i), chain = sorted(X u S): 2^(top - |X|) terms."""
    complement = [v for v in range(1, top + 1) if v not in xs]
    total = 0
    for r in range(len(complement) + 1):
        for S in itertools.combinations(complement, r):
            chain = sorted(xs + S)
            prod = math.prod(v - i for i, v in enumerate(chain, start=1))
            total += (-1) ** r * math.factorial(top - len(chain)) * prod
    return total
