"""One benchmark pass in a fresh interpreter.

Reads ``{"src": ..., "items": [argv, ...], "trace": bool}`` as JSON on
stdin, imports ``eulerian_bounds.cli`` from ``src`` (timing the import),
runs each argv through ``cli.main`` in-process with stdout captured, and
writes one JSON object to stdout: the import time, the reference times
taken before the first item and after each item, each item's exit code,
seconds, CPU seconds and output, the peak RSS and, when traced, the spans.
With no items it only measures the import and one reference.

    echo '{"src": "src", "items": [["roots", "--n-max", "4"]], "trace": false}' \\
        | PYTHONPATH=src python3 bench/worker.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _reference_s() -> float:
    """Seconds for a fixed computation: a sample of the host's current speed."""
    t = time.perf_counter()
    for _ in range(3):
        _reference_work()
    return time.perf_counter() - t


def _reference_work() -> None:
    size = 14
    a = [[Fraction(1, i + j + 1) for j in range(size)] for i in range(size)]
    for k in range(size):
        for i in range(k + 1, size):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, size):
                a[i][j] -= f * a[k][j]
    counts = {}
    for perm in itertools.permutations(range(8)):
        mask = 0
        for i in range(7):
            if perm[i] > perm[i + 1]:
                mask |= 1 << perm[i]
        counts[mask] = counts.get(mask, 0) + 1


def _run_item(cli, argv: list[str]) -> tuple[object, str]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code
    except Exception:  # the item fails; the pass goes on
        traceback.print_exc()
        rc = "exception"
    return rc, buf.getvalue()


def main() -> int:
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    from eulerian_bounds import cli
    import_s = time.perf_counter() - t0
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"eulerian_bounds imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    refs = [_reference_s()]
    results = []
    try:
        for index, argv in enumerate(spec["items"]):
            if tracer is not None:
                tracer.run_id = index
            cpu = _cpu_s()
            t = time.perf_counter()
            rc, out = _run_item(cli, argv)
            seconds = time.perf_counter() - t
            results.append({"rc": rc, "seconds": seconds, "cpu_s": _cpu_s() - cpu,
                            "stdout": out})
            refs.append(_reference_s())
    finally:
        if tracer is not None:
            tracer.uninstall()
    doc = {
        "import_s": import_s,
        "refs": refs,
        "items": results,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["cache_hits"] = tracer.cache_hits()
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
