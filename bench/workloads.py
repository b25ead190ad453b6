"""The benchmark's workloads: fixed lists of argv for ``eulerian_bounds.cli.main``.

Each workload holds a fixed list of items; the seed only permutes their
order.  Why each workload exists, and which layers it stresses, is
recorded in ``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import random


def _sweep(n_max: int, eigvec_n: int) -> list[list[str]]:
    return [["bounds", "--n-min", str(n), "--n-max", str(n), "--kind", "both",
             "--y", "paper", "--format", "json"] for n in range(4, n_max + 1)] + [
        ["eigvec", "--n-max", str(eigvec_n)]
    ]


# The sweep ends at n = 11 so that a 30 s run holds three passes on a
# 2-core machine; eigvec stops at 7 so that a certificate (n = 10, whose
# even n computes x_min twice) stays the slowest item.  lift-count items
# each last seconds, because sub-second items spread too much across
# fresh interpreters.
FULL: dict[str, list[list[str]]] = {
    "certify-sweep": _sweep(11, 7),
    "lift-count": [
        ["lform", "--n", "12"],
        ["lform", "--n", "11"],
        ["counts", "--n", "9"],
        ["counts", "--n", "8"],
    ],
    "trend-scan": [
        ["diff", "--kind", "old"],
        ["diff", "--kind", "new"],
        ["roots", "--n-max", "32"],
        ["pencil", "--n", "20"],
    ],
}

# Tiny-n versions of the same shapes, for the benchmark's self-tests.
SMOKE: dict[str, list[list[str]]] = {
    "certify-sweep": _sweep(6, 4),
    "lift-count": [["lform", "--n", "6"], ["counts", "--n", "5"]],
    "trend-scan": [
        ["diff", "--kind", "old", "--index-max", "9"],
        ["diff", "--kind", "new", "--index-max", "7"],
        ["roots", "--n-max", "12"],
        ["pencil", "--n", "6"],
    ],
}


def items(workload: str, seed: int, smoke: bool = False) -> list[list[str]]:
    """The workload's items in the order given by ``seed``."""
    table = SMOKE if smoke else FULL
    if workload not in table:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(table)}")
    order = [list(argv) for argv in table[workload]]
    random.Random(seed).shuffle(order)
    return order
