"""Self-tests of the benchmark: verifier, tracer, workloads, compare and smoke runs."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from eulerian_bounds import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS_4 = ["bounds", "--n-min", "4", "--n-max", "4", "--kind", "both", "--y", "paper",
            "--format", "json"]


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.SMOKE))
def test_verifier_accepts_genuine_outputs(workload):
    for argv in workloads.SMOKE[workload]:
        assert verify.problems(argv, _stdout(argv)) == []


def _tampered_bounds(edit) -> str:
    doc = json.loads(_stdout(BOUNDS_4))
    edit(doc["rows"][0])
    return json.dumps(doc)


def test_verifier_rejects_xmin_shifted_out_of_its_enclosure():
    def shift(row):
        lo, hi = verify._interval(row["xmin"])
        row["xmin"] = {"lo": str(hi), "hi": str(2 * hi - lo)}

    assert verify.problems(BOUNDS_4, _tampered_bounds(shift))


def test_verifier_rejects_swapped_lo_hi():
    def swap(row):
        row["xmin"] = {"lo": row["xmin"]["hi"], "hi": row["xmin"]["lo"]}

    assert verify.problems(BOUNDS_4, _tampered_bounds(swap))


def test_verifier_rejects_over_wide_enclosure():
    def widen(row):
        lo, hi = verify._interval(row["q_right"])
        row["q_right"] = {"lo": str(lo - 1), "hi": str(hi)}

    assert verify.problems(BOUNDS_4, _tampered_bounds(widen))


def test_verifier_rejects_lform_row_not_equal():
    argv = ["lform", "--n", "4"]
    lines = _stdout(argv).splitlines()
    assert lines[1].endswith(",True")
    lines[1] = lines[1][: -len("True")] + "False"
    assert verify.problems(argv, "\n".join(lines) + "\n")


def test_bareiss_psd_decisions():
    assert verify.is_psd([[1, 1], [1, 1]])
    assert verify.is_psd([[0, 0], [0, 2]])
    assert not verify.is_psd([[0, 1], [1, 5]])
    assert not verify.is_psd([[1, 2], [2, 1]])


def test_tracer_restores_every_binding():
    modules = [m for k, m in sys.modules.items()
               if k == "eulerian_bounds" or k.startswith("eulerian_bounds.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    t = tracer.Tracer()
    t.install()
    try:
        from eulerian_bounds import pencil, spectra

        assert spectra.psd_certificate is not t.targets["pencil.psd_certificate"]
        assert pencil.psd_certificate is not t.targets["pencil.psd_certificate"]
        _stdout(["bounds", "--n-min", "3", "--n-max", "3", "--kind", "old", "--format", "json"])
    finally:
        t.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    names = [s[0] for s in t.spans]
    assert names[0] == "cli.main"
    psd = [s for s in t.spans if s[0] == "pencil.psd_certificate"]
    assert psd and all(s[3] >= 0 for s in psd)
    metrics = tracer.layer_metrics(t.spans, t.cache_hits(), t.spans[0][2] - t.spans[0][1])
    assert metrics["spectra.psd_interval_left.calls"] == 1
    assert metrics["spectra.psd_interval_left.distinct_frac"] == 1.0
    assert metrics["cli.main.total_s"] >= metrics["spectra.psd_interval_left.total_s"] > 0


def test_seed_permutes_item_order_only():
    for w in workloads.FULL:
        a, b = workloads.items(w, 1), workloads.items(w, 2)
        assert sorted(a) == sorted(b) == sorted(workloads.FULL[w])
        assert workloads.items(w, 1) == a


def test_compare_verdicts():
    base = {s: 10.0 + 0.01 * s for s in range(10)}
    assert compare.verdict(base, {s: v * 0.5 for s, v in base.items()}, 0.1, False) == "better"
    assert compare.verdict(base, {s: v * 1.5 for s, v in base.items()}, 0.1, False) == "worse"
    assert compare.verdict(base, {s: v * 1.02 for s, v in base.items()}, 0.1, False) == "no worse"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, base, 0.1, False) == "unresolved"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_runs_report_every_metric():
    traced = _run(ROOT, "--workload", "certify-sweep", "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--smoke")
    assert traced.returncode == 0, traced.stderr
    doc = _last_json(traced.stdout)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert list(doc["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert doc["metrics"]["spectra.psd_interval_left.calls"]["value"] > 0

    plain = _run(ROOT, "--workload", "lift-count", "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--smoke")
    assert plain.returncode == 0, plain.stderr
    doc = _last_json(plain.stdout)
    assert doc["correct"]
    assert list(doc["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "trend-scan", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
