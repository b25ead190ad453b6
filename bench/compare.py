"""Compare two sets of benchmark results, one verdict per workload and metric.

Each set is a file of result records, one JSON object a line, as
``run.py --results`` appends them.  For every workload and end-to-end
metric of ``BENCHMARK.json`` the report gives both sides' median and
quartiles and a verdict:

- ``better``: the change wins at least nine tenths of the runs paired by
  seed (ties count for neither), and the medians differ by more than the
  distance between the base's quartiles;
- ``worse``: the change's median is worse than the base's by more than
  the metric's bound;
- ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the bound, unless every run of the change reads
  better than every run of the base (then ``no worse``);
- ``no worse``: otherwise.
"""

from __future__ import annotations

import json
import statistics


def load(path: str) -> list[dict]:
    """Untraced result records of one set."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if not r["trace"]]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict[int, float], new: dict[int, float], bound: float, higher_is_better: bool) -> str:
    """Verdict for one metric; ``base`` and ``new`` map seed -> value."""
    sign = 1.0 if higher_is_better else -1.0
    bq1, bmed, bq3 = _quartiles(list(base.values()))
    nq1, nmed, nq3 = _quartiles(list(new.values()))
    seeds = sorted(set(base) & set(new))
    wins = sum(sign * (new[s] - base[s]) > 0 for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and sign * (nmed - bmed) > bq3 - bq1:
        return "better"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0, (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    if spread > bound:
        if all(sign * (n - b) > 0 for n in new.values() for b in base.values()):
            return "no worse"
        return "unresolved"
    if sign * (bmed - nmed) > bound * abs(bmed):
        return "worse"
    return "no worse"


def report(base_records: list[dict], new_records: list[dict], spec: dict) -> list[str]:
    """One row per workload and end-to-end metric."""
    lines = [f"{'workload':<18}{'metric':<13}{'base median [q1, q3]':<36}"
             f"{'change median [q1, q3]':<36}verdict"]
    workloads = sorted({r["workload"] for r in base_records} & {r["workload"] for r in new_records})
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = []
            for records in (base_records, new_records):
                sides.append({r["seed"]: r["metrics"][name]["value"]
                              for r in records if r["workload"] == workload})
            cells = []
            for side in sides:
                q1, med, q3 = _quartiles(list(side.values()))
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] (k={len(side)})")
            v = verdict(sides[0], sides[1], metric["bound"], metric["better"] == "higher")
            lines.append(f"{workload:<18}{name:<13}{cells[0]:<36}{cells[1]:<36}{v}")
    return lines
