"""Descent-top sets counted by walking S_{n+1}: a test oracle.

``eulerian_bounds.eulerian`` builds the descent-top distribution by an
insertion transfer.  This module counts it the obvious way instead,
permutation by permutation, and shares nothing with the transfer but
the public ``descent_top_set``.
"""

import itertools
from functools import lru_cache

from eulerian_bounds.eulerian import descent_top_set


@lru_cache(maxsize=None)
def enumerated_descent_top_counts(n: int) -> dict[frozenset[int], int]:
    """Counts of every descent-top set over S_{n+1}, by enumeration."""
    counts: dict[frozenset[int], int] = {}
    for perm in itertools.permutations(range(1, n + 2)):
        tops = descent_top_set(perm)
        counts[tops] = counts.get(tops, 0) + 1
    return counts
