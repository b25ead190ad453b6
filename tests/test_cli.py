"""CLI surface: formats, determinism, round-trips, and error exits."""

import contextlib
import csv
import decimal
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eulerian_bounds
from eulerian_bounds import AlgebraicBound, bound_report, cli, lform, pencil, spectra
from eulerian_bounds import bounds as bounds_mod
from eulerian_bounds.cli import _pool_size, emit_plot, main

from intervals import contains


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def enclosure(cell: dict) -> AlgebraicBound:
    return AlgebraicBound(Fraction(cell["lo"]), Fraction(cell["hi"]))


def spy(monkeypatch, module, name) -> list:
    # Record the arguments of every call through module.name.
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


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

    def test_asum_is_the_sum_of_the_coefficient_matrices(self, capsys):
        code, out, _ = run_cli(capsys, ["pencil", "--n", "5", "--format", "json"])
        assert code == 0
        cells = {}
        for r in json.loads(out)["rows"]:
            if r["matrix"] != "psd_A0":
                cells.setdefault(r["matrix"], {})[(r["row"], r["col"])] = Fraction(r["value"])
        assert cells["ASum"] == {
            key: sum(cells[f"A{i}"][key] for i in range(1, 6)) for key in cells["A0"]
        }


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
        assert [row["n"] for row in rows] == [4, 5]
        for row in rows:
            assert (row["kind"], row["y_policy"], row["prec_bits"]) == ("old", "paper", 64)
            fresh = bound_report(row["n"], "old", prec=64)
            x_min = spectra.psd_interval_left(pencil.eulerian_diagonal_pencil(row["n"]), 64)
            assert enclosure(row["y"]) == fresh.y
            assert enclosure(row["mult"]) == fresh.mult
            assert enclosure(row["xmin"]) == x_min
            assert enclosure(row["diff"]) == fresh.difference

    def test_json_row_key_order(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bounds", "--n-min", "3", "--n-max", "4", "--kind", "both",
             "--format", "json", "--prec", "64"],
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(r["n"], r["kind"]) for r in rows] == [(3, "old"), (4, "new"), (4, "old")]
        for r in rows:
            assert list(r) == [
                "n", "kind", "y_policy", "prec_bits", "y", "D", "N", "lin_bound",
                "mult", "un", "diff", "xmin", "q_left", "q_right",
            ]

    def test_determinism(self, capsys):
        for args in (
            ["bounds", "--n-min", "4", "--n-max", "6", "--kind", "new",
             "--format", "csv", "--prec", "64"],
            ["roots", "--n-max", "12"],
            ["eigvec", "--n-max", "6"],
        ):
            _, first, _ = run_cli(capsys, args)
            _, second, _ = run_cli(capsys, args)
            assert first and first == second, args

    def test_jobs_match_serial(self, capsys):
        args = ["bounds", "--n-min", "4", "--n-max", "6", "--kind", "both",
                "--format", "csv", "--prec", "64"]
        _, serial, _ = run_cli(capsys, args)
        _, parallel, _ = run_cli(capsys, args + ["--jobs", "2"])
        assert serial == parallel

    def test_both_kinds_share_one_x_min(self, capsys, monkeypatch):
        calls = spy(monkeypatch, spectra, "psd_interval_left")
        for _ in range(2):
            code, _, _ = run_cli(capsys, ["bounds", "--n-min", "4", "--n-max", "4"])
            assert code == 0
        # Once per n in each command.
        assert [dp.size for dp, _ in calls] == [5, 5]

    def test_both_kinds_share_one_un(self, capsys, monkeypatch):
        calls, real = [], spectra._refine_root
        monkeypatch.setattr(bounds_mod, "_refine_root",
                            lambda *a, **k: calls.append((a, k)) or real(*a, **k))
        args = ["bounds", "--n-min", "10", "--n-max", "10", "--kind", "both",
                "--prec", "64"]
        for _ in range(2):
            code, _, _ = run_cli(capsys, args)
            assert code == 0
        # The univariate endpoint, the one refinement without exact roots,
        # once per command, not once per kind.
        un = [a[3] for a, k in calls if k == {"exact": False}]
        assert un == [64 + 2 * 10 + 16] * 2

    def test_both_kinds_share_one_paper_y(self, capsys, monkeypatch):
        calls, real = [], spectra._refine_root
        monkeypatch.setattr(bounds_mod, "_refine_root",
                            lambda *a, **k: calls.append((a, k)) or real(*a, **k))
        args = ["bounds", "--n-min", "10", "--n-max", "10", "--kind", "both",
                "--prec", "64"]
        for _ in range(2):
            code, _, _ = run_cli(capsys, args)
            assert code == 0
        # The old family's critical root, the one refinement with exact roots,
        # once per command, not once per kind: the new family negates it.
        paper = [a[3] for a, k in calls if not k]
        assert paper == [64 + 3 * 10 + 64] * 2

    def test_both_kinds_share_the_extreme_roots(self, capsys, monkeypatch):
        calls = spy(monkeypatch, spectra, "extreme_roots")
        args = ["bounds", "--n-min", "10", "--n-max", "10", "--kind", "both",
                "--prec", "64"]
        for _ in range(2):
            code, _, _ = run_cli(capsys, args)
            assert code == 0
        # q_left and q_right once per command, not once per kind.
        assert [(p.degree, prec) for p, prec in calls] == [(10, 64)] * 2

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
        n1 = rows[0]
        y_policy = {"paper": "paper", "optimal": "numeric-optimal"}[policy]
        fresh = bound_report(1, "old", y_policy, 64)
        assert enclosure(n1["mult"]) == fresh.mult and contains(fresh.mult, 1)
        assert enclosure(n1["diff"]) == fresh.difference and contains(fresh.difference, 0)
        x_min = spectra.psd_interval_left(pencil.eulerian_diagonal_pencil(1), 64)
        assert enclosure(n1["xmin"]) == x_min and contains(x_min, -1)

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


class TestCsvHeaders:
    @pytest.mark.parametrize(
        "args",
        (
            ["counts", "--n", "3"],
            ["lform", "--n", "4"],
            ["pencil", "--n", "2"],
            ["roots", "--n-max", "3"],
            ["diff", "--kind", "old", "--index-min", "2", "--index-max", "5"],
            ["eigvec", "--n-max", "3"],
        ),
    )
    def test_header_is_the_json_key_order(self, capsys, args):
        code, out, _ = run_cli(capsys, args + ["--prec", "64"])
        assert code == 0
        header = out.splitlines()[0].split(",")
        code, out, _ = run_cli(capsys, args + ["--prec", "64", "--format", "json"])
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert list(row) == header

    def test_bounds_header(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bounds", "--n-min", "3", "--n-max", "4", "--prec", "64"]
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "n,kind,y_lo,y_hi,D,N,lin_bound_lo,lin_bound_hi,xmin_lo,xmin_hi,"
            "q_right_lo,q_right_hi,q_left_lo,q_left_hi,un_lo,un_hi,diff_lo,diff_hi,"
            "prec_bits"
        )

    CSV_ROWS = [{"a": 1, "b": "x,y", "c": None}, {"a": 2, "b": 'say "hi"', "c": True}]

    def test_writer_matches_dictwriter(self):
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(self.CSV_ROWS[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.CSV_ROWS)
        assert cli._to_csv(self.CSV_ROWS) == buf.getvalue()

    @pytest.mark.parametrize("bad", [
        {"a": 3, "b": 4},  # DictWriter would write c as ""
        {"a": 3, "b": 4, "c": 5, "d": 6},
        {"b": 4, "a": 3, "c": 5},
    ])
    def test_every_row_repeats_the_header(self, bad):
        with pytest.raises(ValueError, match="a CSV row's keys differ, in set or order, from the header"):
            cli._to_csv(self.CSV_ROWS + [bad])


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

    def test_empty_range(self, capsys):
        code, out, err = run_cli(capsys, ["roots", "--n-min", "5", "--n-max", "3"])
        assert code == 2 and not out
        assert json.loads(err) == {
            "error": "empty range: n-min 5 > n-max 3", "command": "roots"
        }

    def test_prec_past_the_int_string_limit(self, capsys):
        # Ends of 14400 bits print with more than 4300 digits, the default
        # int -> str limit of Python 3.11+; main lifts it while it formats
        # output and restores it afterwards.
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code, out, err = run_cli(capsys, ["roots", "--n-max", "2", "--prec", "14400"])
        assert code == 0 and not err
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit
            sys.set_int_max_str_digits(0)  # to parse the cells here
        try:
            rows = parse_csv(out)
            assert [r["n"] for r in rows] == ["1", "2"]
            for row in rows:
                for key in ("q_left", "q_right"):
                    lo, hi = Fraction(row[f"{key}_lo"]), Fraction(row[f"{key}_hi"])
                    assert 0 <= hi - lo <= Fraction(1, 2**14400)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    def test_environment_does_not_set_prec(self, capsys, monkeypatch):
        # --prec is the only precision input: its default is DEFAULT_PREC
        # whatever the environment holds.
        argv = ["roots", "--n-max", "1", "--format", "json"]
        monkeypatch.delenv("EULERIAN_BOUNDS_PREC", raising=False)
        code, plain, _ = run_cli(capsys, argv)
        assert code == 0
        monkeypatch.setenv("EULERIAN_BOUNDS_PREC", "32")
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["prec_bits"] == 128
        assert out == plain


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


    def test_old_cap_is_n_28(self, capsys):
        # The cap bounds n = step * index, so the old family's default
        # indices 6..20 are within it.
        _, default, _ = run_cli(capsys, ["diff", "--kind", "old"])
        code, explicit, _ = run_cli(capsys, ["diff", "--kind", "old", "--index-max", "20"])
        assert code == 0 and default and explicit == default

    @pytest.mark.parametrize("kind, index", (("old", 29), ("new", 15)))
    def test_cap(self, capsys, kind, index):
        code, out, err = run_cli(
            capsys, ["diff", "--kind", kind, "--index-max", str(index)]
        )
        assert code == 2 and not out
        assert "allow-large" in json.loads(err)["error"]

    @pytest.mark.parametrize("kind", ("old", "new"))
    def test_empty_range(self, capsys, kind):
        code, out, err = run_cli(
            capsys, ["diff", "--kind", kind, "--index-min", "10", "--index-max", "5"]
        )
        assert code == 2 and not out
        assert json.loads(err) == {
            "error": "empty range: index-min 10 > index-max 5", "command": "diff"
        }


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

    @pytest.mark.parametrize("n_max", [1, 3, 10])
    def test_svg_axis_labels_are_distinct(self, capsys, n_max):
        # A last entry normalized to 1 puts the top tick on the 1.00 tick.
        code, out, _ = run_cli(capsys, ["eigvec", "--n-max", str(n_max), "--format", "svg"])
        assert code == 0
        labels = [line.split(">")[1].split("<")[0]
                  for line in out.splitlines() if 'text-anchor="end"' in line]
        assert "1.00" in labels and len(labels) == len(set(labels))

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "eig.csv"
        code, out, _ = run_cli(
            capsys,
            ["eigvec", "--n-max", "2", "--prec", "64", "--output", str(target)],
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("n,index,position,entry")


def _exponent(x: Fraction) -> int:
    # The decimal exponent e of x != 0: 10**e <= |x| < 10**(e + 1).
    a, e = abs(x), len(str(x.numerator)) - len(str(x.denominator))
    while Fraction(10) ** e > a:
        e -= 1
    while Fraction(10) ** (e + 1) <= a:
        e += 1
    return e


def _half_up(x: Fraction, digits: int) -> Fraction:
    # x rounded half away from zero to `digits` significant digits, exactly.
    if x == 0:
        return x
    scale = Fraction(10) ** (digits - 1 - _exponent(x))
    q = math.floor(abs(x) * scale + Fraction(1, 2))
    return (q if x > 0 else -q) / scale


_DEC_PRECS = (16, 17, 64, 128, 1024)


@st.composite
def dec_values(draw) -> Fraction:
    """Signed rationals from 10**-30 to 10**30: 0, integers, powers of ten
    around the fixed-point switches, digits that carry into the next power
    of ten, and general fractions."""
    sign = draw(st.sampled_from((1, -1)))
    k = draw(st.integers(-30, 29))
    magnitude = draw(st.one_of(
        st.just(Fraction(0)),
        st.integers(1, 10**30).map(Fraction),
        st.integers(-8, 14).map(lambda e: Fraction(10) ** e),
        # 9.99...95 * 10**k: m nines and a 5, so it rounds up at m digits.
        st.one_of(st.sampled_from([cli._dps(p) for p in _DEC_PRECS]), st.integers(1, 320))
        .map(lambda m: (10 - Fraction(5, 10**m)) * Fraction(10) ** k),
        st.fractions(1, 10, max_denominator=10**40).map(lambda f: f * Fraction(10) ** k),
    ))
    return sign * magnitude


class TestDecimalFormat:
    @settings(max_examples=300, deadline=None)
    @given(dec_values(), st.sampled_from(_DEC_PRECS))
    @example(10 - Fraction(5, 10**7), 16)
    @example(Fraction(999999999999) + Fraction(1, 2), 128)
    @example(-Fraction(1, 10**6) + Fraction(5, 10**14), 16)
    def test_rounds_half_up_and_lays_out(self, x, prec):
        text = cli._dec(x, prec)
        rounded = _half_up(x, cli._dps(prec))
        assert Fraction(decimal.Decimal(text)) == rounded
        exponent = _exponent(rounded) if rounded else 0
        assert ("e" not in text) == (-6 < exponent < 12)
        mantissa = text.split("e")[0]
        assert mantissa.count(".") == 1 and text.count(".") == 1
        digits = mantissa.split(".")[1]
        assert digits == "0" or not digits.endswith("0")

    @pytest.mark.parametrize("prec", _DEC_PRECS)
    def test_edge_values_match_mpmath(self, prec):
        # Oracle: mpmath.nstr of an mpf holding x at 4 prec + 64 bits.  No
        # value is a decimal tie, so the binary rounding cannot flip a digit.
        d = cli._dps(prec)
        edges = [
            Fraction(0), Fraction(1), Fraction(-7), Fraction(1, 3), Fraction(-2, 3),
            Fraction(1, 10**6), Fraction(1, 10**5), Fraction(-123, 10**8),
            Fraction(10**11), Fraction(10**12), Fraction(-(10**12) + 1),
            Fraction(10**12) - 4 * Fraction(10) ** (12 - d),
            10 - Fraction(4, 10**d), 10 - Fraction(6, 10**d),
            Fraction(1, 10**6) - Fraction(4, 10**(d + 6)),
            Fraction(1, 10**30), Fraction(-(10**30)), Fraction(22, 7) * 10**15,
        ]
        for x in edges:
            with mpmath.workprec(4 * prec + 64):
                oracle = mpmath.nstr(
                    mpmath.mpf(x.numerator) / x.denominator, d,
                    strip_zeros=True, min_fixed=-6, max_fixed=12,
                )
            assert cli._dec(x, prec) == oracle, x


class TestErrors:
    def test_prec_floor(self, capsys):
        code, _, err = run_cli(capsys, ["roots", "--n-max", "2", "--prec", "8"])
        assert code == 2
        assert json.loads(err)["error"] == "prec must be >= 16"

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

    @pytest.mark.parametrize(
        "args", (["pencil", "--n", "21"], ["roots", "--n-max", "33"])
    )
    def test_caps_name_allow_large(self, capsys, args):
        assert "pass --allow-large to proceed" in self.one_line_error(capsys, args)

    @pytest.mark.parametrize(
        "args, error",
        (
            (["lform", "--n", "21"], "n=21 exceeds the desk-scale cap 20"),
            (["pencil", "--n", "21"], "n=21 exceeds the desk-scale cap 20"),
            (["bounds", "--n-min", "1", "--n-max", "21"],
             "n-max 21 exceeds the desk-scale cap 20"),
            (["roots", "--n-max", "33"], "n-max 33 exceeds the desk-scale cap 32"),
            (["eigvec", "--n-max", "17"], "n-max 17 exceeds the desk-scale cap 16"),
            (["diff", "--kind", "old", "--index-max", "29"],
             "index max 29 exceeds the old-family desk-scale cap 28 (n = 1 * index <= 28)"),
            (["diff", "--kind", "new", "--index-max", "15"],
             "index max 15 exceeds the new-family desk-scale cap 14 (n = 2 * index <= 28)"),
        ),
    )
    def test_cap_message(self, capsys, args, error):
        assert self.one_line_error(capsys, args) == (
            error + "; pass --allow-large to proceed"
        )

    @pytest.mark.parametrize(
        "args, error",
        (
            (["roots", "--n-min", "0", "--n-max", "2"], "n-min must be >= 1"),
            (["bounds", "--n-min", "0", "--n-max", "2"], "n-min must be >= 1"),
            (["diff", "--kind", "old", "--index-min", "0"], "index-min must be >= 1"),
            (["diff", "--kind", "new", "--index-min", "1"], "index-min must be >= 2"),
        ),
    )
    def test_lower_index_message_names_its_flag(self, capsys, args, error):
        assert self.one_line_error(capsys, args) == error

    @pytest.mark.parametrize(
        "args, error",
        (
            (["diff", "--kind", "new", "--index-min", "2", "--index-max", "2"],
             "index-min 2 to index-max 2 gives 1 index; diff needs at least 3"),
            (["diff", "--kind", "old", "--index-min", "1", "--index-max", "2"],
             "index-min 1 to index-max 2 gives 2 indices; diff needs at least 3"),
        ),
    )
    def test_short_diff_range_names_both_flags(self, capsys, args, error):
        assert self.one_line_error(capsys, args) == error

    def test_counts_cap_ignores_allow_large(self, capsys):
        plain = self.one_line_error(capsys, ["counts", "--n", "10"])
        lifted = self.one_line_error(capsys, ["counts", "--n", "10", "--allow-large"])
        assert plain == lifted == (
            "counts needs brute force; n=10 exceeds the cap 9, which --allow-large does not lift"
        )

    @pytest.mark.parametrize("jobs", ("0", "-2"))
    def test_jobs_below_one(self, capsys, jobs):
        args = ["bounds", "--n-min", "4", "--n-max", "5", "--jobs", jobs]
        assert self.one_line_error(capsys, args) == "--jobs must be >= 1"

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

    def test_failed_witness_verification_exits_2(self, capsys, monkeypatch):
        # A refutation whose witness does not verify is an ArithmeticError,
        # reported like every other failure, not a traceback.
        # eigvec builds no D or N, so the patched integer form reaches only
        # the witness check of the refutation at x_min.lo.
        monkeypatch.setattr(pencil, "_integer_form", lambda rows, u: 0)
        args = ["eigvec", "--n-max", "4"]
        assert "witness" in self.one_line_error(capsys, args)

    @pytest.mark.parametrize(
        "args, error",
        (
            (["bounds", "--n-min", "1", "--n-max", "3", "--kind", "new"],
             "no (n, kind) pairs in range (new needs even n >= 4)"),
            (["eigvec", "--n-max", "0"], "n-max must be >= 1"),
            # The old family's differences at n = 2..4 are negative: no log scale.
            (["diff", "--kind", "old", "--index-min", "1", "--index-max", "4", "--format", "svg"],
             "diff plot needs positive differences (log scale)"),
        ),
    )
    def test_refusal_message(self, capsys, args, error):
        assert self.one_line_error(capsys, args) == error

    def test_empty_plot_rejected(self):
        with pytest.raises(Exception, match="empty data"):
            emit_plot([], "eigvec")

    def test_flat_diff_plot_rejected(self):
        # Equal differences leave the log axis no range; diff's own rows
        # never do, since the difference moves geometrically.
        rows = [{"index": i, "difference": "1.0e-03"} for i in (1, 2, 3)]
        with pytest.raises(cli.CliError, match="diff plot needs a nondegenerate range"):
            emit_plot(rows, "diff")


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


@st.composite
def malformed_argv(draw):
    # A fuzzed argv broken in one way that argparse rejects.
    argv = draw(small_argv())
    fault = draw(st.sampled_from(("int", "flag", "command", "choice", "value", "empty")))
    if fault == "int":
        return argv + ["--prec", draw(st.sampled_from(("x", "1.5", "")))]
    if fault == "flag":
        return argv + ["--bogus"]
    if fault == "command":
        return [draw(st.sampled_from(("bogus", "bound", "")))] + argv[1:]
    if fault == "choice":
        return argv + ["--format", "xml"]
    if fault == "value":
        return argv + ["--output"]
    return []


@given(malformed_argv())
@example(["bounds", "--n-min", "x", "--n-max", "3"])
@example(["roots", "--n-max", "3", "--bogus"])
@example(["bogus"])
@example([])
@settings(max_examples=50, deadline=None)
def test_malformed_argv_exits_2_with_one_json_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = err.getvalue()
    assert code == 2 and out.getvalue() == ""
    assert text.count("\n") == 1 and text.endswith("\n")
    doc = json.loads(text)
    assert doc["error"] and doc["command"] is None


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "usage: eulerian-bounds" in capsys.readouterr().out


def test_parser_is_built_once(capsys):
    cli._build_parser.cache_clear()
    assert main(["roots", "--n-max", "2"]) == 0
    assert main(["counts", "--n", "2"]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


_STDLIB_ARGVS = (
    ["counts", "--n", "3"],
    ["lform", "--n", "4"],
    ["pencil", "--n", "4"],
    ["bounds", "--n-min", "4", "--n-max", "4", "--format", "csv"],
    ["roots", "--n-max", "6"],
    ["diff", "--kind", "old", "--index-max", "8"],
    ["eigvec", "--n-max", "4"],
    ["eigvec", "--n-max", "4", "--format", "svg"],
)


def test_commands_run_without_sympy():
    # The program needs the standard library alone: sympy and mpmath are
    # test oracles (sympy would add about 0.4 s to every command), so a
    # fresh interpreter without site-packages runs every command and
    # loads neither.
    script = (
        "import contextlib, io, sys\n"
        "from eulerian_bounds.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {list(_STDLIB_ARGVS)!r}:\n"
        "        assert main(argv) == 0, argv\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
        "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(eulerian_bounds.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_import_loads_no_process_pool():
    # Only bounds --jobs > 1 needs the process pool, so importing the CLI
    # loads neither concurrent.futures nor multiprocessing;
    # TestBounds::test_jobs_match_serial covers the pool path.  The value
    # types are plain records, so no code generation (dataclasses, and the
    # inspect it loads) and no typing module are paid for at start-up.
    script = (
        "import sys\n"
        "import eulerian_bounds.cli\n"
        "loaded = [m for m in ('dataclasses', 'inspect', 'typing', 'concurrent.futures',"
        " 'multiprocessing') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(eulerian_bounds.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def _spy_on_every_binding(monkeypatch, fn) -> list:
    # Replace each module-level binding of fn across the package, so a call
    # through any import path is seen.
    calls = []

    def spy(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name == "eulerian_bounds" or name.startswith("eulerian_bounds."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, spy)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n-min", "1", "--n-max", "8", "--kind", "both", "--prec", "64"],
        ["diff", "--kind", "old", "--index-max", "9"],
        ["diff", "--kind", "new", "--index-max", "7"],
        ["eigvec", "--n-max", "6"],
    ],
)
def test_diagonal_commands_never_build_the_full_pencil(capsys, monkeypatch, argv):
    # bounds, diff and eigvec read only A0 + x A_sum: molding all n
    # coefficient matrices (build_pencil) is the pencil command's alone,
    # and un(n) reads its 2x2 pencil off the Eulerian numbers of A_n.
    pencil.eulerian_diagonal_pencil.cache_clear()
    bounds_mod.eulerian_guess_quadratics.cache_clear()
    full = _spy_on_every_binding(monkeypatch, pencil.build_pencil)
    diagonal = _spy_on_every_binding(monkeypatch, pencil.eulerian_diagonal_pencil)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out
    assert not full and diagonal


@pytest.mark.parametrize(
    "argv",
    [
        ["diff", "--kind", "new", "--index-max", "7"],
        ["bounds", "--n-min", "4", "--n-max", "6", "--kind", "both"],
        ["eigvec", "--n-max", "5"],
    ],
)
def test_diagonal_commands_build_no_lform_table(capsys, monkeypatch, argv):
    # The Eulerian diagonal pencil is written in closed form: no O(n^3)
    # L-form table is built on the bounds, diff and eigvec path.
    def no_table(n):
        raise AssertionError(f"L-form table built for n = {n}")

    pencil.eulerian_diagonal_pencil.cache_clear()
    bounds_mod.eulerian_guess_quadratics.cache_clear()
    for module in (lform, pencil):
        monkeypatch.setattr(module, "eulerian_lform_table", no_table)
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and out and not err


def test_the_pencil_command_builds_the_full_pencil(capsys, monkeypatch):
    full = _spy_on_every_binding(monkeypatch, pencil.build_pencil)
    code, _, _ = run_cli(capsys, ["pencil", "--n", "4"])
    assert code == 0 and len(full) == 1
