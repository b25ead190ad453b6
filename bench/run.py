"""Outside-in benchmark of the eulerian_bounds certification path.

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload trend-scan --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --workload lift-count --seed 1 --seconds 1 --trace 0 --smoke
    python3 bench/run.py --compare base.jsonl change.jsonl

A run first times ``SETUP_PROBES`` fresh interpreters importing
``eulerian_bounds.cli`` (``setup_s``), then repeats passes over the
workload's items for ``--seconds``.  Each pass is a new interpreter that
runs every item through ``cli.main`` in-process, so it pays the import and
starts from empty caches, as a command-line user does.  With ``--trace 1``
the passes alternate between traced and untraced.  Outside the timed
region every output is checked by ``verify.py`` and its sha256 compared
with the same item's output in the run's first pass.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
without tracing, its per-layer metrics with it.  Each metric is the median
over the run's passes.  End-to-end times are scaled to a nominal host
speed by a reference computation timed before and after every item (see
``speed_factors`` and ``bench/README.md``).  ``--results FILE`` appends a fuller record (item
order, per-item sha256 and times) for ``--compare``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

import compare  # noqa: E402  (bench/ is on sys.path as the script's directory)
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
# Every run must end within 180 s; a pass still running at this point is
# killed and its items count as failed.
DEADLINE_S = 170.0
# Host-speed normalization (see bench/README.md): item times are scaled by
# (REF_NOMINAL_S / reference time around the item) ** ELASTICITY.  On a
# 2-vCPU VM the reference's fast/slow ratio measured about 1.65 while the
# items' was about 1.4-1.5, so a full correction would overshoot.
REF_NOMINAL_S = 0.12
ELASTICITY = 0.8


class BenchError(Exception):
    pass


def run_worker(items: list[list[str]], trace: bool, deadline: float) -> dict:
    """One pass in a fresh interpreter; returns the worker's JSON document."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("EULERIAN_BOUNDS_PREC", None)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env, text=True, start_new_session=True,
    )
    spec = json.dumps({"src": str(SRC), "items": items, "trace": trace})
    try:
        out, err = proc.communicate(spec, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out, err = None, "pass exceeded the run's deadline"
    finally:
        # The worker's process-pool children share its session.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    if out is None or proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def measure(items: list[list[str]], seconds: float, trace: bool, deadline: float) -> list[dict]:
    """Passes for about ``seconds``; with tracing, alternately traced and untraced.

    A pass starts only if a pass of median length would still end within
    ``seconds``, so a run's length does not depend on where the last pass
    happens to fall; there is always at least one pass (two when traced).
    """
    passes: list[dict] = []
    lengths: list[float] = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 0
        began = time.monotonic()
        try:
            doc = run_worker(items, traced, deadline)
        except BenchError as exc:
            print(f"pass {len(passes)}: {exc}", file=sys.stderr)
            doc = {"items": None}
        doc["traced"] = traced
        passes.append(doc)
        lengths.append(time.monotonic() - began)
        if doc["items"] is None and time.monotonic() >= deadline:
            break
        next_end = time.monotonic() - start + statistics.median(lengths)
        if next_end > seconds and (not trace or len(passes) >= 2):
            break
    return passes


def check(items: list[list[str]], passes: list[dict]) -> tuple[int, int, list[str], list[str]]:
    """attempted, failed, per-item sha256 of the first pass, and findings."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    first: dict[int, str] = {}
    verdicts: dict[tuple[int, str], list[str]] = {}
    attempted = failed = 0
    findings: list[str] = []
    for k, p in enumerate(passes):
        for i, argv in enumerate(items):
            attempted += 1
            if p["items"] is None:
                failed += 1
                continue
            res = p["items"][i]
            sha = hashlib.sha256(res["stdout"].encode("utf-8")).hexdigest()
            first.setdefault(i, sha)
            if res["rc"] != 0:
                problems = [f"exit code {res['rc']}"]
            elif sha != first[i]:
                problems = ["output bytes differ from the first pass"]
            else:
                if (i, sha) not in verdicts:
                    verdicts[(i, sha)] = verify.problems(argv, res["stdout"])
                problems = verdicts[(i, sha)]
            if problems:
                failed += 1
                findings += [f"pass {k} {' '.join(argv)}: {msg}" for msg in problems[:3]]
    return attempted, failed, [first.get(i, "") for i in range(len(items))], findings


def speed_factors(p: dict) -> list[float]:
    """Per item: the factor that scales its time to the nominal host speed."""
    refs = p["refs"]
    return [(REF_NOMINAL_S * 2 / (refs[i] + refs[i + 1])) ** ELASTICITY
            for i in range(len(refs) - 1)]


def pass_figures(p: dict) -> dict[str, float]:
    """Raw and speed-normalized figures of one completed pass."""
    f = speed_factors(p)
    secs = [it["seconds"] for it in p["items"]]
    cpus = [it["cpu_s"] for it in p["items"]]
    return {
        "raw_wall_s": sum(secs),
        "wall_s": sum(s * k for s, k in zip(secs, f)),
        "max_item_s": max(s * k for s, k in zip(secs, f)),
        "cpu_s": sum(c * k for c, k in zip(cpus, f)),
        "peak_rss_mb": p["peak_rss_mb"],
    }


def end_to_end(passes: list[dict], setup: list[dict], attempted: int, failed: int) -> dict[str, float]:
    done = [pass_figures(p) for p in passes if not p["traced"] and p["items"] is not None]
    if not done:
        raise BenchError("no untraced pass completed")
    out = {k: statistics.median(d[k] for d in done) for k in done[0]}
    out["setup_s"] = statistics.median(
        s["import_s"] * (REF_NOMINAL_S / s["refs"][0]) ** ELASTICITY for s in setup)
    out["ok_frac"] = 1.0 - failed / attempted
    return out


def per_layer(passes: list[dict], names: list[str]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"] and p["items"] is not None]
    plain = [p for p in passes if not p["traced"] and p["items"] is not None]
    if not traced or not plain:
        raise BenchError("need a traced and an untraced pass")
    each = [tracer.layer_metrics(p["spans"], p["cache_hits"], pass_figures(p)["raw_wall_s"])
            for p in traced]
    overhead = (statistics.median(pass_figures(p)["wall_s"] for p in traced)
                / statistics.median(pass_figures(p)["wall_s"] for p in plain) - 1.0)
    out = {}
    for name in names:
        if name == "trace_overhead_frac":
            out[name] = overhead
        else:
            out[name] = statistics.median(tracer.metric_value(m, name) for m in each)
    return out


def run(args: argparse.Namespace, spec: dict) -> int:
    if not (SRC / "eulerian_bounds" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    items = workloads.items(args.workload, args.seed, smoke=args.smoke)
    trace = bool(args.trace)
    try:
        run_worker([], False, deadline)  # compiles bytecode; not timed
        setup = [] if trace else [run_worker([], False, deadline)
                                  for _ in range(SETUP_PROBES)]
    except BenchError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    passes = measure(items, args.seconds, trace, deadline)
    attempted, failed, shas, findings = check(items, passes)
    for line in findings[:20]:
        print(line, file=sys.stderr)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    try:
        values = (per_layer(passes, [m["name"] for m in listed]) if trace
                  else end_to_end(passes, setup, attempted, failed))
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    done = [p for p in passes if p["items"] is not None]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(passes)} ({sum(p['traced'] for p in passes)} traced)")
    for i, argv in enumerate(items):
        times = [p["items"][i]["seconds"] for p in done]
        print(f"  item {statistics.median(times):9.4f} s  {shas[i][:16]}  {' '.join(argv)}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.results:
        record = dict(
            result, workload=args.workload, seed=args.seed, trace=args.trace,
            seconds=args.seconds, smoke=args.smoke, python=platform.python_version(),
            nproc=os.cpu_count(), passes=len(passes),
            items=[{"argv": argv, "sha256": sha} for argv, sha in zip(items, shas)],
            findings=findings[:20],
            raw=[{k: p[k] for k in ("import_s", "refs", "peak_rss_mb")} | {
                "seconds": [it["seconds"] for it in p["items"]],
                "cpu_s": [it["cpu_s"] for it in p["items"]]} for p in done],
        )
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-n items, for self-tests")
    parser.add_argument("--results", help="append a result record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two result files instead of running")
    args = parser.parse_args(argv)
    if not SPEC_PATH.is_file():
        print(f"missing {SPEC_PATH.name}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    if args.compare:
        base, change = (compare.load(path) for path in args.compare)
        print("\n".join(compare.report(base, change, spec)))
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
