"""Command-line front end.

Every in-scope quantity is reachable as a subcommand emitting CSV or
JSON (plus SVG for the two plots), deterministically: identical inputs
and version give byte-identical output.  Exact rationals are always
serialized as "p/q" strings and enclosures as lo/hi pairs of such
strings; decimal cells carry their precision in the prec_bits column.

    eulerian-bounds counts --n 3
    eulerian-bounds lform --n 4
    eulerian-bounds pencil --n 4
    eulerian-bounds bounds --n-min 4 --n-max 12 --kind both --y paper --format csv
    eulerian-bounds roots --n-max 8
    eulerian-bounds diff --kind new --format svg --output diff.svg
    eulerian-bounds eigvec --n-max 10 --format csv

Default precision is 128 bits, overridable per call with --prec or
globally with the EULERIAN_BOUNDS_PREC environment variable.
Precondition failures exit nonzero with a one-line JSON error on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import Optional, Sequence

import mpmath

from . import bounds as bounds_mod
from . import eulerian, lform, pencil, spectra
from .enclosure import DEFAULT_PREC, AlgebraicBound

__all__ = ["main", "bound_report_from_dict"]

PREC_ENV_VAR = "EULERIAN_BOUNDS_PREC"

# Desk-scale caps; --allow-large lifts them.
MAX_BOUNDS_N = 20
MAX_EIGVEC_N = 16


class CliError(Exception):
    pass


def _rat(x: Fraction) -> str:
    return str(x)


def _enc(b: AlgebraicBound) -> dict[str, str]:
    return {"lo": _rat(b.lo), "hi": _rat(b.hi)}


def _dps(prec: int) -> int:
    return int(math.ceil(prec * math.log10(2))) + 2


def _dec(value, prec: int) -> str:
    """Decimal string at the dps implied by prec (declared via prec_bits)."""
    with mpmath.workprec(prec + 16):
        if isinstance(value, AlgebraicBound):
            value = value.midpoint
        if isinstance(value, Fraction):
            value = mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
        return mpmath.nstr(
            mpmath.mpf(value), _dps(prec), strip_zeros=True, min_fixed=-6, max_fixed=12
        )


def _parse_enc(d: dict[str, str]) -> AlgebraicBound:
    return AlgebraicBound(Fraction(d["lo"]), Fraction(d["hi"]))


# JSON key -> BoundReport field, in output order; the optional fields
# serialize as null.
_REPORT_FIELDS = (
    ("y", "y"), ("D", "d_value"), ("N", "n_value"), ("lin_bound", "lin_bound"),
    ("mult", "mult"), ("un", "un"), ("diff", "difference"), ("xmin", "x_min"),
    ("q_left", "q_left"), ("q_right", "q_right"),
)
_OPTIONAL_FIELDS = ("x_min", "q_left", "q_right")


def bound_report_from_dict(row: dict) -> bounds_mod.BoundReport:
    """Rebuild a BoundReport from its JSON row (the round-trip direction)."""
    encs = {
        attr: None if attr in _OPTIONAL_FIELDS and row.get(key) is None
        else _parse_enc(row[key])
        for key, attr in _REPORT_FIELDS
    }
    return bounds_mod.BoundReport(
        n=int(row["n"]),
        kind=row["kind"],
        y_policy=row["y_policy"],
        prec=int(row["prec_bits"]),
        **encs,
    )


# ---------------------------------------------------------------------------
# Subcommand row builders


def _rows_counts(args) -> tuple[list[str], list[dict]]:
    n = args.n
    if n < 1:
        raise CliError("n must be >= 1")
    if n > eulerian.BRUTE_FORCE_MAX_N:
        raise CliError(
            f"counts needs brute force; n={n} exceeds the cap "
            f"{eulerian.BRUTE_FORCE_MAX_N}, which --allow-large does not lift"
        )
    header = ["X", "brute_force", "complement", "deletion", "closed_form"]
    rows = []
    values = list(range(2, n + 2))
    for size in range(0, min(n, 3) + 1):
        for combo in itertools.combinations(values, size):
            brute = eulerian.count_exact_bruteforce(n, combo)
            comp = eulerian.count_formula(n, combo, "complement")
            dele = eulerian.count_formula(n, combo, "deletion")
            closed = eulerian.closed_form_R(combo) if 1 <= size <= 3 else ""
            rows.append(
                {
                    "X": "{" + ",".join(map(str, combo)) + "}",
                    "brute_force": brute,
                    "complement": comp,
                    "deletion": dele,
                    "closed_form": closed,
                }
            )
    return header, rows


def _mono_str(mono: tuple[int, ...]) -> str:
    if not mono:
        return "1"
    parts = []
    for v in sorted(set(mono)):
        e = mono.count(v)
        parts.append(f"x{v}" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts)


def _rows_lform(args) -> tuple[list[str], list[dict]]:
    n = args.n
    if n > MAX_BOUNDS_N and not args.allow_large:
        raise CliError(
            f"n={n} exceeds the desk-scale cap {MAX_BOUNDS_N}; "
            "pass --allow-large to proceed"
        )
    generic = lform.lform_from_truncation(lform.Truncation3.eulerian(n))
    header = ["monomial", "closed_form", "from_truncation", "equal"]
    rows = []
    for mono in lform.monomials_up_to_3(n):
        closed = lform.eulerian_lform(n, mono)
        gen = generic(mono)
        rows.append(
            {
                "monomial": _mono_str(mono),
                "closed_form": _rat(closed),
                "from_truncation": _rat(gen),
                "equal": closed == gen,
            }
        )
    return header, rows


def _matrix_rows(name: str, m: pencil.SymmetricRationalMatrix) -> list[dict]:
    out = []
    for i, row in enumerate(m.entries):
        for j, v in enumerate(row):
            out.append({"matrix": name, "row": i, "col": j, "value": _rat(v)})
    return out


def _rows_pencil(args) -> tuple[list[str], list[dict]]:
    n = args.n
    if n > MAX_BOUNDS_N and not args.allow_large:
        raise CliError(f"n={n} exceeds the desk-scale cap {MAX_BOUNDS_N}")
    p = pencil.eulerian_pencil(n)
    dp = pencil.diagonal_pencil(p)
    cert = pencil.psd_certificate(p.a0)
    header = ["matrix", "row", "col", "value"]
    rows = _matrix_rows("A0", p.a0)
    for i, ai in enumerate(p.ai, start=1):
        rows.extend(_matrix_rows(f"A{i}", ai))
    rows.extend(_matrix_rows("ASum", dp.a_sum))
    rows.append(
        {"matrix": "psd_A0", "row": "", "col": "", "value": "PSD" if cert else "NOT_PSD"}
    )
    return header, rows


def _report_to_dict(r: bounds_mod.BoundReport) -> dict:
    row = {"n": r.n, "kind": r.kind, "y_policy": r.y_policy, "prec_bits": r.prec}
    for key, attr in _REPORT_FIELDS:
        enc = getattr(r, attr)
        row[key] = None if enc is None else _enc(enc)
    return row


def _bounds_worker(task: tuple[int, tuple[str, ...], str, int]) -> list[dict]:
    # Every kind at one n in one process: its pencil and x_min are built once.
    n, kinds, policy, prec = task
    return [
        _report_to_dict(bounds_mod.bound_report(n, kind, y_policy=policy, prec=prec))
        for kind in kinds
    ]


# JSON keys in bounds CSV column order.  The single-column keys include
# D and N, which are decimals by contract; every other key is an
# enclosure and becomes a <key>_lo, <key>_hi pair.
_CSV_KEYS = (
    "n", "kind", "y", "D", "N", "lin_bound", "xmin", "q_right", "q_left",
    "un", "diff", "prec_bits",
)
_CSV_SINGLE = ("n", "kind", "D", "N", "prec_bits")
BOUNDS_CSV_COLUMNS = [
    col
    for key in _CSV_KEYS
    for col in ([key] if key in _CSV_SINGLE else [f"{key}_lo", f"{key}_hi"])
]


def _bounds_row_to_csv(row: dict, prec: int) -> dict:
    flat = {}
    for key in _CSV_KEYS:
        value = row[key]
        if key in ("D", "N"):
            flat[key] = _dec(_parse_enc(value), prec)
        elif key in _CSV_SINGLE:
            flat[key] = value
        else:
            for end in ("lo", "hi"):
                flat[f"{key}_{end}"] = "" if value is None else value[end]
    return flat


def _pool_size(jobs: int, tasks: int) -> int:
    """Worker processes for a parallel sweep: never more than tasks or CPUs."""
    return min(jobs, tasks, os.cpu_count() or 1)


def _rows_bounds(args) -> tuple[list[str], list[dict]]:
    n_min, n_max = args.n_min, args.n_max
    if n_min > n_max:
        raise CliError(f"empty range: n-min {n_min} > n-max {n_max}")
    if n_max > MAX_BOUNDS_N and not args.allow_large:
        raise CliError(
            f"n-max {n_max} exceeds the desk-scale cap {MAX_BOUNDS_N}; "
            "pass --allow-large to proceed"
        )
    kinds = ("old", "new") if args.kind == "both" else (args.kind,)
    policy = {"paper": "paper", "optimal": "numeric-optimal"}[args.y]
    tasks = []
    for n in range(n_min, n_max + 1):
        n_kinds = tuple(k for k in kinds if k == "old" or (n % 2 == 0 and n >= 4))
        if n_kinds:
            tasks.append((n, n_kinds, policy, args.prec))
    if not tasks:
        raise CliError("no (n, kind) pairs in range (new needs even n >= 4)")
    workers = _pool_size(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_n = list(pool.map(_bounds_worker, tasks))
    else:
        per_n = [_bounds_worker(t) for t in tasks]
    rows = sorted((r for rs in per_n for r in rs), key=lambda r: (r["n"], r["kind"]))
    return list(BOUNDS_CSV_COLUMNS), rows


def _rows_roots(args) -> tuple[list[str], list[dict]]:
    if args.n_min < 1:
        raise CliError("n-min must be >= 1")
    if args.n_max > 32 and not args.allow_large:
        raise CliError(f"n-max {args.n_max} exceeds the desk-scale cap 32")
    header = ["n", "q_left_lo", "q_left_hi", "q_right_lo", "q_right_hi", "prec_bits"]
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        ql, qr = spectra.extreme_roots(eulerian.univariate_eulerian(n), args.prec)
        rows.append(
            {
                "n": n,
                "q_left_lo": _rat(ql.lo),
                "q_left_hi": _rat(ql.hi),
                "q_right_lo": _rat(qr.lo),
                "q_right_hi": _rat(qr.hi),
                "prec_bits": args.prec,
            }
        )
    return header, rows


def diff_series(
    kind: str, prec: int, lo: Optional[int] = None, hi: Optional[int] = None
) -> bounds_mod.RatioDiagnostic:
    """Bound differences and their geometric-trend diagnostics.

    Old family: indexed by n (default 6..20), target ratio 3/4,
    prefactor 1/2.  New family: indexed by m = n/2 (default 5..12),
    target ratio 9/8, prefactor 3/8.
    """
    if kind == "old":
        lo = 6 if lo is None else lo
        hi = 20 if hi is None else hi
        seq = []
        for n in range(lo, hi + 1):
            r = bounds_mod.bound_report(
                n, "old", prec=prec, with_endpoint=False, with_roots=False
            )
            seq.append((n, float(r.difference)))
        return bounds_mod.ratio_diagnostic(seq, 3 / 4, 1 / 2)
    if kind == "new":
        lo = 5 if lo is None else lo
        hi = 12 if hi is None else hi
        seq = []
        for m in range(lo, hi + 1):
            r = bounds_mod.bound_report(
                2 * m, "new", prec=prec, with_endpoint=False, with_roots=False
            )
            seq.append((m, float(r.difference)))
        return bounds_mod.ratio_diagnostic(seq, 9 / 8, 3 / 8)
    raise CliError(f"unknown kind {kind!r}")


def _rows_diff(args) -> tuple[list[str], list[dict]]:
    if args.index_max is not None and args.index_max > 14 and not args.allow_large:
        raise CliError(
            f"index max {args.index_max} exceeds the desk-scale cap 14 "
            "(new-family index is m = n/2); pass --allow-large to proceed"
        )
    diag = diff_series(args.kind, args.prec, args.index_min, args.index_max)
    ratio_at = dict(diag.ratios)
    dev_at = dict(diag.relative_deviations)
    track_at = dict(diag.normalization_track)
    header = [
        "index",
        "difference",
        "ratio",
        "target_ratio",
        "relative_deviation",
        "normalization_track",
    ]
    rows = []
    for idx, value in diag.entries:
        rows.append(
            {
                "index": idx,
                "difference": f"{value:.12e}",
                "ratio": "" if idx not in ratio_at else f"{ratio_at[idx]:.9f}",
                "target_ratio": f"{diag.target_ratio:.9f}",
                "relative_deviation": ""
                if idx not in dev_at
                else f"{dev_at[idx]:.9f}",
                "normalization_track": ""
                if idx not in track_at
                else f"{track_at[idx]:.9f}",
            }
        )
    return header, rows


def eigvec_rows(n_max: int, prec: int) -> list[dict]:
    rows = []
    for n in range(1, n_max + 1):
        kv = spectra.boundary_kernel_vector(pencil.eulerian_diagonal_pencil(n), prec)
        for idx, entry in enumerate(kv.entries):
            rows.append(
                {
                    "n": n,
                    "index": idx,
                    "position": f"{idx / n:.9f}",
                    "entry": _dec(entry, prec),
                    "normalization": kv.normalization,
                    "degenerate": kv.degenerate,
                    "prec_bits": prec,
                }
            )
    return rows


def _rows_eigvec(args) -> tuple[list[str], list[dict]]:
    if args.n_max < 1:
        raise CliError("n-max must be >= 1")
    if args.n_max > MAX_EIGVEC_N and not args.allow_large:
        raise CliError(
            f"n-max {args.n_max} exceeds the desk-scale cap {MAX_EIGVEC_N}; "
            "pass --allow-large to proceed"
        )
    header = [
        "n",
        "index",
        "position",
        "entry",
        "normalization",
        "degenerate",
        "prec_bits",
    ]
    return header, eigvec_rows(args.n_max, args.prec)


# ---------------------------------------------------------------------------
# Emitters


def _to_csv(header: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in header})
    return buf.getvalue()


def _to_json(command: str, rows: list[dict], prec: Optional[int]) -> str:
    doc = {"command": command, "rows": rows}
    if prec is not None:
        doc["prec_bits"] = prec
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _svg_header(width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def emit_plot(rows: list[dict], plot: str) -> str:
    """Standalone SVG 1.1 for the two figures; byte-deterministic.

    ``plot`` is "eigvec" (scatter of kernel-vector entries at positions
    index/n) or "diff" (log-scale growth/decay of bound differences).
    """
    if not rows:
        raise CliError("empty data: nothing to plot")
    width, height = 640, 480
    ml, mr, mt, mb = 60, 20, 20, 45
    pw, ph = width - ml - mr, height - mt - mb
    out = _svg_header(width, height)

    if plot == "eigvec":
        pts = [(float(r["position"]), float(r["entry"]), int(r["n"])) for r in rows]
        ys = [p[1] for p in pts]
        y_lo, y_hi = min(ys + [0.0]), max(ys + [1.0])
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def sx(x):
            return ml + x * pw

        def sy(y):
            return mt + (y_hi - y) / (y_hi - y_lo) * ph

        out.append(
            f'<line x1="{ml}" y1="{sy(0):.2f}" x2="{ml + pw}" y2="{sy(0):.2f}" '
            'stroke="#999999" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{ml}" y1="{sy(1):.2f}" x2="{ml + pw}" y2="{sy(1):.2f}" '
            'stroke="#cccccc" stroke-width="1" stroke-dasharray="4 3"/>'
        )
        for x, y, n in pts:
            color = _PALETTE[(n - 1) % len(_PALETTE)]
            out.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                f'fill="{color}" fill-opacity="0.8"/>'
            )
        out.append(
            f'<text x="{ml + pw / 2:.0f}" y="{height - 12}" font-size="13" '
            'text-anchor="middle" font-family="sans-serif">entry position '
            "index/n</text>"
        )
        for val in (y_lo + pad, 0.0, 1.0, y_hi - pad):
            out.append(
                f'<text x="{ml - 6}" y="{sy(val) + 4:.2f}" font-size="11" '
                f'text-anchor="end" font-family="sans-serif">{val:.2f}</text>'
            )
    elif plot == "diff":
        pts = [(int(r["index"]), float(r["difference"])) for r in rows]
        if any(v <= 0 for _, v in pts):
            raise CliError("diff plot needs positive differences (log scale)")
        xs = [p[0] for p in pts]
        logs = [math.log10(v) for _, v in pts]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(logs), max(logs)
        if x_hi == x_lo or y_hi == y_lo:
            raise CliError("diff plot needs a nondegenerate range")
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def sx(x):
            return ml + (x - x_lo) / (x_hi - x_lo) * pw

        def sy(y):
            return mt + (y_hi - y) / (y_hi - y_lo) * ph

        path = " ".join(
            f"{'M' if i == 0 else 'L'}{sx(x):.2f},{sy(math.log10(v)):.2f}"
            for i, (x, v) in enumerate(pts)
        )
        out.append(
            f'<path d="{path}" stroke="#d62728" stroke-width="2" fill="none"/>'
        )
        for x, v in pts:
            out.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(math.log10(v)):.2f}" r="3" '
                'fill="#d62728"/>'
            )
        for x in xs:
            out.append(
                f'<text x="{sx(x):.2f}" y="{height - 12}" font-size="11" '
                f'text-anchor="middle" font-family="sans-serif">{x}</text>'
            )
        for val in (y_lo + pad, y_hi - pad):
            out.append(
                f'<text x="{ml - 6}" y="{sy(val) + 4:.2f}" font-size="11" '
                f'text-anchor="end" font-family="sans-serif">1e{val:.1f}</text>'
            )
        out.append(
            f'<text x="{ml + pw / 2:.0f}" y="{height - 28}" font-size="13" '
            'text-anchor="middle" font-family="sans-serif">bound difference, '
            "log scale</text>"
        )
    else:
        raise CliError(f"no plot defined for {plot!r}")
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerian-bounds",
        description="Certified root bounds from the Eulerian spectrahedral relaxation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("csv", "json")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument(
            "--prec",
            type=int,
            default=None,
            help="certification precision in bits (>= 16)",
        )
        p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("counts", help="R(n, X) by all counting routes")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("lform", help="L-form table, closed vs generic")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("pencil", help="pencil matrices and PSD certificate")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("bounds", help="bound reports over a range of n")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--kind", choices=("old", "new", "both"), default="both")
    p.add_argument("--y", choices=("paper", "optimal"), default="paper")
    p.add_argument("--jobs", type=int, default=1)
    common(p)

    p = sub.add_parser("roots", help="extreme-root enclosures")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True)
    common(p)

    p = sub.add_parser("diff", help="bound differences and ratio diagnostics")
    p.add_argument("--kind", choices=("old", "new"), required=True)
    p.add_argument("--index-min", type=int, default=None)
    p.add_argument("--index-max", type=int, default=None)
    common(p, formats=("csv", "json", "svg"))

    p = sub.add_parser("eigvec", help="boundary kernel vectors (figure data)")
    p.add_argument("--n-max", type=int, default=10)
    common(p, formats=("csv", "json", "svg"))

    return parser


def _default_prec() -> int:
    raw = os.environ.get(PREC_ENV_VAR)
    if raw is None:
        return DEFAULT_PREC
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{PREC_ENV_VAR}={raw!r} is not an integer") from None


_BUILDERS = {
    "counts": _rows_counts,
    "lform": _rows_lform,
    "pencil": _rows_pencil,
    "bounds": _rows_bounds,
    "roots": _rows_roots,
    "diff": _rows_diff,
    "eigvec": _rows_eigvec,
}


def _emit(args, header: list[str], rows: list[dict]) -> str:
    if args.format == "csv":
        if args.command == "bounds":
            rows = [_bounds_row_to_csv(r, args.prec) for r in rows]
        return _to_csv(header, rows)
    if args.format == "json":
        return _to_json(args.command, rows, getattr(args, "prec", None))
    if args.format == "svg":
        return emit_plot(rows, args.command)
    raise CliError(f"unknown format {args.format!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Each command starts from empty x_min and determinant caches, as a
    # fresh process does, so its work never depends on what ran before it
    # in-process.
    bounds_mod.eulerian_x_min.cache_clear()
    spectra._boundary_polynomial.cache_clear()
    try:
        if args.prec is None:
            args.prec = _default_prec()
        if args.prec < 16:
            raise CliError("prec must be >= 16")
        header, rows = _BUILDERS[args.command](args)
        text = _emit(args, header, rows)
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (CliError, ValueError, ZeroDivisionError, ArithmeticError, OSError) as exc:
        payload = {"error": str(exc), "command": args.command}
        print(json.dumps(payload), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
