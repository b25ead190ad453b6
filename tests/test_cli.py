"""CLI surface: formats, determinism, round-trips, and error exits."""

import contextlib
import csv
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_bounds import bound_report
from eulerian_bounds import bounds as bounds_mod
from eulerian_bounds.cli import _pool_size, bound_report_from_dict, emit_plot, main
from eulerian_bounds.pencil import SymmetricRationalMatrix


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestCounts:
    def test_s3_row(self, capsys):
        code, out, err = run_cli(capsys, ["counts", "--n", "3"])
        assert code == 0 and not err
        rows = {r["X"]: r for r in parse_csv(out)}
        row = rows["{3}"]
        assert row["brute_force"] == row["complement"] == row["deletion"] == "3"
        assert rows["{}"]["brute_force"] == "1"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, ["counts", "--n", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "counts"
        assert any(r["X"] == "{2,3}" and r["brute_force"] == 1 for r in doc["rows"])


class TestLform:
    def test_all_rows_agree(self, capsys):
        code, out, _ = run_cli(capsys, ["lform", "--n", "4"])
        assert code == 0
        rows = parse_csv(out)
        assert rows and all(r["equal"] == "True" for r in rows)
        unit = next(r for r in rows if r["monomial"] == "1")
        assert unit["closed_form"] == "4"

    def test_bounds_cap_reached(self, capsys):
        code, out, _ = run_cli(capsys, ["lform", "--n", "20"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == math.comb(23, 3)
        assert all(r["equal"] == "True" for r in rows)


class TestPencil:
    def test_matrix_dump_and_cert(self, capsys):
        code, out, _ = run_cli(capsys, ["pencil", "--n", "2", "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        a0 = {(r["row"], r["col"]): r["value"] for r in rows if r["matrix"] == "A0"}
        assert a0[(0, 0)] == "2" and a0[(2, 2)] == "9" and a0[(0, 2)] == "3"
        cert = next(r for r in rows if r["matrix"] == "psd_A0")
        assert cert["value"] == "PSD"
        # Every exact cell parses as a rational.
        for r in rows:
            if r["matrix"] != "psd_A0":
                Fraction(r["value"])


class TestBounds:
    def test_csv_soundness_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bounds", "--n-min", "4", "--n-max", "8", "--kind", "both",
             "--y", "paper", "--format", "csv", "--prec", "80"],
        )
        assert code == 0
        rows = parse_csv(out)
        assert {r["kind"] for r in rows} == {"old", "new"}
        for r in rows:
            lin_hi = Fraction(r["lin_bound_hi"])
            xmin_lo, xmin_hi = Fraction(r["xmin_lo"]), Fraction(r["xmin_hi"])
            q_right_hi = Fraction(r["q_right_hi"])
            # Interval-consistent ordering of the chain.
            assert Fraction(r["lin_bound_lo"]) <= xmin_hi
            assert xmin_lo <= q_right_hi
            assert q_right_hi < 0
            assert lin_hi < 0
            # Decimal cells carry declared precision.
            assert r["prec_bits"] == "80"
            float(r["D"])
            float(r["N"])

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bounds", "--n-min", "4", "--n-max", "5", "--kind", "old",
             "--format", "json", "--prec", "64"],
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        for row in rows:
            rebuilt = bound_report_from_dict(row)
            fresh = bound_report(rebuilt.n, "old", prec=64)
            assert rebuilt.y == fresh.y
            assert rebuilt.mult == fresh.mult
            assert rebuilt.x_min == fresh.x_min
            assert rebuilt.difference == fresh.difference

    def test_determinism(self, capsys):
        args = ["bounds", "--n-min", "4", "--n-max", "6", "--kind", "new",
                "--format", "csv", "--prec", "64"]
        _, first, _ = run_cli(capsys, args)
        _, second, _ = run_cli(capsys, args)
        assert first == second

    def test_jobs_match_serial(self, capsys):
        args = ["bounds", "--n-min", "4", "--n-max", "6", "--kind", "old",
                "--format", "csv", "--prec", "64"]
        _, serial, _ = run_cli(capsys, args)
        _, parallel, _ = run_cli(capsys, args + ["--jobs", "2"])
        assert serial == parallel

    def test_both_kinds_share_one_x_min(self, capsys, monkeypatch):
        calls = []
        real = bounds_mod.psd_interval_left
        monkeypatch.setattr(
            bounds_mod, "psd_interval_left", lambda *a: calls.append(a) or real(*a)
        )
        for _ in range(2):
            code, _, _ = run_cli(capsys, ["bounds", "--n-min", "4", "--n-max", "4"])
            assert code == 0
        # Once per command: the second command starts from an empty cache.
        assert [dp.size for dp, _ in calls] == [5, 5]

    @pytest.mark.parametrize("policy", ("paper", "optimal"))
    def test_n1_row_is_tight(self, capsys, policy):
        code, out, _ = run_cli(
            capsys,
            ["bounds", "--n-min", "1", "--n-max", "2", "--y", policy,
             "--format", "json", "--prec", "64"],
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["n"] for r in rows] == [1, 2]
        n1 = bound_report_from_dict(rows[0])
        assert n1.mult.contains(1)
        assert n1.difference.contains(0)

    def test_range_cap(self, capsys):
        code, out, err = run_cli(
            capsys, ["bounds", "--n-min", "4", "--n-max", "40"]
        )
        assert code == 2 and not out
        payload = json.loads(err)
        assert payload["command"] == "bounds"
        assert "allow-large" in payload["error"]

    def test_empty_range(self, capsys):
        code, _, err = run_cli(
            capsys, ["bounds", "--n-min", "8", "--n-max", "4"]
        )
        assert code == 2
        assert "empty range" in json.loads(err)["error"]


class TestRoots:
    def test_rows_and_prec(self, capsys):
        code, out, _ = run_cli(
            capsys, ["roots", "--n-max", "3", "--format", "json", "--prec", "64"]
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["n"] for r in rows] == [1, 2, 3]
        r2 = rows[1]
        assert Fraction(r2["q_left_hi"]) - Fraction(r2["q_left_lo"]) <= Fraction(
            1, 2**64
        )

    def test_env_var_sets_default_prec(self, capsys, monkeypatch):
        monkeypatch.setenv("EULERIAN_BOUNDS_PREC", "32")
        code, out, _ = run_cli(capsys, ["roots", "--n-max", "1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["prec_bits"] == 32


class TestDiff:
    def test_old_ratio_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["diff", "--kind", "old", "--index-min", "6", "--index-max", "12",
             "--prec", "64"],
        )
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["index"]) for r in rows] == list(range(6, 13))
        assert rows[0]["ratio"] == ""
        last = rows[-1]
        assert abs(float(last["ratio"]) - 0.75) < 0.2
        assert float(last["difference"]) > 0

    def test_new_svg_positive_slope(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["diff", "--kind", "new", "--index-min", "5", "--index-max", "8",
             "--format", "svg", "--prec", "64"],
        )
        assert code == 0
        assert out.startswith("<?xml")
        circles = [line for line in out.splitlines() if "<circle" in line]
        cys = [float(c.split('cy="')[1].split('"')[0]) for c in circles]
        # SVG y grows downward: growing differences mean decreasing cy.
        assert cys[-1] < cys[0]

    def test_bad_range_exits_with_json(self, capsys):
        code, _, err = run_cli(
            capsys, ["diff", "--kind", "old", "--index-min", "6", "--index-max", "7"]
        )
        assert code == 2
        assert "error" in json.loads(err)


class TestEigvec:
    def test_marks_and_tail(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eigvec", "--n-max", "4", "--prec", "64", "--format", "csv"]
        )
        assert code == 0
        rows = parse_csv(out)
        assert sum(1 for r in rows if r["n"] == "4") == 5
        n1 = [r for r in rows if r["n"] == "1"]
        assert all(r["degenerate"] == "True" for r in n1)
        last = next(r for r in rows if r["n"] == "4" and r["index"] == "4")
        assert float(last["entry"]) == pytest.approx(1.0)
        assert float(last["position"]) == pytest.approx(1.0)

    def test_svg_deterministic(self, capsys):
        args = ["eigvec", "--n-max", "3", "--format", "svg", "--prec", "64"]
        _, first, _ = run_cli(capsys, args)
        _, second, _ = run_cli(capsys, args)
        assert first == second
        assert "<svg" in first and first.rstrip().endswith("</svg>")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "eig.csv"
        code, out, _ = run_cli(
            capsys,
            ["eigvec", "--n-max", "2", "--prec", "64", "--output", str(target)],
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("n,index,position,entry")


class TestErrors:
    def test_prec_floor(self, capsys):
        code, _, err = run_cli(capsys, ["roots", "--n-max", "2", "--prec", "8"])
        assert code == 2
        assert "prec" in json.loads(err)["error"]

    def test_counts_cap(self, capsys):
        code, _, err = run_cli(capsys, ["counts", "--n", "12"])
        assert code == 2
        assert "brute force" in json.loads(err)["error"]

    def one_line_error(self, capsys, args):
        code, out, err = run_cli(capsys, args)
        assert code == 2 and out == "" and err.count("\n") == 1
        return json.loads(err)["error"]

    @pytest.mark.parametrize("n", ("0", "-3"))
    def test_pencil_nonpositive_n(self, capsys, n):
        assert self.one_line_error(capsys, ["pencil", "--n", n]) == "n must be >= 1"

    @pytest.mark.parametrize("n", ("0", "-1"))
    def test_counts_nonpositive_n(self, capsys, n):
        assert self.one_line_error(capsys, ["counts", "--n", n]) == "n must be >= 1"

    @pytest.mark.parametrize("n", ("0", "-1"))
    def test_lform_nonpositive_n(self, capsys, n):
        assert self.one_line_error(capsys, ["lform", "--n", n]) == "n must be >= 1"

    def test_lform_cap(self, capsys):
        error = self.one_line_error(capsys, ["lform", "--n", "21"])
        assert error == "n=21 exceeds the desk-scale cap 20; pass --allow-large to proceed"
        code, out, _ = run_cli(capsys, ["lform", "--n", "21", "--allow-large"])
        assert code == 0 and len(parse_csv(out)) == math.comb(24, 3)

    def test_counts_cap_ignores_allow_large(self, capsys):
        plain = self.one_line_error(capsys, ["counts", "--n", "10"])
        lifted = self.one_line_error(capsys, ["counts", "--n", "10", "--allow-large"])
        assert plain == lifted
        assert "brute force" in plain and "does not lift" in plain

    def test_pool_size_clamp(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert _pool_size(8, 5) == 2
        assert _pool_size(8, 1) == 1
        assert _pool_size(1, 5) == 1
        assert _pool_size(0, 5) == 0
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert _pool_size(4, 5) == 1

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        args = ["bounds", "--n-min", "4", "--n-max", "4", "--output", str(target)]
        assert "No such file" in self.one_line_error(capsys, args)

    def test_non_integer_prec_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("EULERIAN_BOUNDS_PREC", "abc")
        error = self.one_line_error(capsys, ["roots", "--n-max", "3"])
        assert "EULERIAN_BOUNDS_PREC" in error

    def test_failed_witness_verification_exits_2(self, capsys, monkeypatch):
        # A refutation whose witness does not verify is an ArithmeticError,
        # reported like every other failure, not a traceback.
        monkeypatch.setattr(
            SymmetricRationalMatrix, "quadratic_form", lambda self, v: 0
        )
        args = ["bounds", "--n-min", "4", "--n-max", "4", "--kind", "old"]
        assert "witness" in self.one_line_error(capsys, args)

    def test_empty_plot_rejected(self):
        with pytest.raises(Exception, match="empty data"):
            emit_plot([], "eigvec")


SMALL = st.integers(-2, 8)

# Each subcommand's flags: (flag, values, required).  --jobs is never
# fuzzed, and diff always gets both index bounds (its defaults reach n = 24).
FUZZ_FLAGS = {
    "counts": [("--n", st.integers(-2, 7), True)],
    "lform": [("--n", SMALL, True)],
    "pencil": [("--n", SMALL, True)],
    "bounds": [
        ("--n-min", SMALL, True),
        ("--n-max", SMALL, True),
        ("--kind", st.sampled_from(("old", "new", "both")), False),
        ("--y", st.sampled_from(("paper", "optimal")), False),
    ],
    "roots": [("--n-min", SMALL, False), ("--n-max", SMALL, True)],
    "diff": [
        ("--kind", st.sampled_from(("old", "new")), True),
        ("--index-min", SMALL, True),
        ("--index-max", SMALL, True),
    ],
    "eigvec": [("--n-max", st.integers(-2, 6), False)],
}
PLOTS = ("diff", "eigvec")


@st.composite
def small_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command]
    for flag, values, required in FUZZ_FLAGS[command]:
        value = draw(values if required else st.none() | values)
        if value is not None:
            argv += [flag, str(value)]
    prec = draw(st.none() | st.integers(-2, 64))
    if prec is not None:
        argv += ["--prec", str(prec)]
    formats = ("csv", "json", "svg") if command in PLOTS else ("csv", "json")
    return argv + ["--format", draw(st.sampled_from(formats))]


@given(small_argv())
@settings(max_examples=50, deadline=None)
def test_argv_fuzz_exits_0_or_2_with_one_json_line(argv):
    out, err = io.StringIO(), io.StringIO()
    # An exception escaping main fails the test: that is the traceback.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        text = err.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert "error" in json.loads(text)
        assert out.getvalue() == ""
