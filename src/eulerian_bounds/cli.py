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

Default precision is 128 bits, overridable per call with --prec.
Precondition failures exit 2 with a one-line JSON error on stderr.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import itertools
import json
import math
import os
import sys
from collections.abc import Sequence
from fractions import Fraction

from . import bounds as bounds_mod
from . import eulerian, lform, pencil, spectra
from .enclosure import DEFAULT_PREC, AlgebraicBound

__all__ = ["main"]

# Desk-scale caps; --allow-large lifts them.
MAX_BOUNDS_N = 20
MAX_EIGVEC_N = 16
MAX_ROOTS_N = 32
MAX_DIFF_N = 28  # n = step * index, for both families


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Malformed argv becomes a CliError, reported as one JSON line like
    # every other failure; subparsers inherit the class.
    def error(self, message):
        raise CliError(message)


def _cap(args, label: str, value: int, cap: int, scope: str = "", note: str = "") -> None:
    """Reject ``value`` above a desk-scale cap unless --allow-large is given."""
    if value > cap and not args.allow_large:
        raise CliError(
            f"{label}{value} exceeds the {scope}desk-scale cap {cap}{note}; "
            "pass --allow-large to proceed"
        )


def _enc(b: AlgebraicBound) -> dict[str, str]:
    return {"lo": str(b.lo), "hi": str(b.hi)}


def _dps(prec: int) -> int:
    return int(math.ceil(prec * math.log10(2))) + 2


def _dec(value: Fraction, prec: int) -> str:
    """The exact rational rounded half up to the dps implied by prec
    (declared via prec_bits), with no trailing zero but a lone ".0": fixed
    point for a decimal exponent in (-6, 12), else scientific.
    """
    context = decimal.Context(prec=_dps(prec), rounding=decimal.ROUND_HALF_UP)
    d = context.divide(value.numerator, value.denominator).normalize(context)
    mantissa, *exponent = format(d, "f" if -6 < d.adjusted() < 12 else "e").split("e")
    return "e".join([mantissa if "." in mantissa else mantissa + ".0", *exponent])


# JSON key -> BoundReport field, in output order; the per-n keys xmin,
# q_left and q_right follow them.
_REPORT_FIELDS = (
    ("y", "y"), ("D", "d_value"), ("N", "n_value"), ("lin_bound", "lin_bound"),
    ("mult", "mult"), ("un", "un"), ("diff", "difference"),
)
_BOUNDS_COLUMNS = ("n", "kind", "y_policy", "prec_bits", *dict(_REPORT_FIELDS),
                   "xmin", "q_left", "q_right")

Rows = tuple[tuple[str, ...], list[tuple]]


# ---------------------------------------------------------------------------
# Subcommand row builders.  Each returns the command's columns once and a
# nonempty list of rows, each a tuple of values in column order.


def _rows_counts(args) -> Rows:
    n = args.n
    if n < 1:
        raise CliError("n must be >= 1")
    if n > eulerian.BRUTE_FORCE_MAX_N:
        raise CliError(
            f"counts needs brute force; n={n} exceeds the cap "
            f"{eulerian.BRUTE_FORCE_MAX_N}, which --allow-large does not lift"
        )
    rows = []
    values = list(range(2, n + 2))
    for size in range(0, min(n, 3) + 1):
        for combo in itertools.combinations(values, size):
            brute = eulerian.count_exact_bruteforce(n, combo)
            comp = eulerian.count_formula(n, combo, "complement")
            dele = eulerian.count_formula(n, combo, "deletion")
            closed = eulerian.closed_form_R(combo) if 1 <= size <= 3 else ""
            rows.append(("{" + ",".join(map(str, combo)) + "}", brute, comp, dele, closed))
    return ("X", "brute_force", "complement", "deletion", "closed_form"), rows


def _mono_str(mono: tuple[int, ...]) -> str:
    if not mono:
        return "1"
    parts = []
    for v in sorted(set(mono)):
        e = mono.count(v)
        parts.append(f"x{v}" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts)


def _rows_lform(args) -> Rows:
    n = args.n
    _cap(args, "n=", n, MAX_BOUNDS_N)
    generic = lform.lform_from_truncation(lform.Truncation3.eulerian(n))
    rows = []
    for mono in lform.monomials_up_to_3(n):
        closed, gen = lform.eulerian_lform(n, mono), generic(mono)
        rows.append((_mono_str(mono), str(closed), str(gen), closed == gen))
    return ("monomial", "closed_form", "from_truncation", "equal"), rows


def _rows_pencil(args) -> Rows:
    n = args.n
    _cap(args, "n=", n, MAX_BOUNDS_N)
    p = pencil.eulerian_pencil(n)
    cert = pencil.psd_certificate(p.a0)
    named = [("A0", p.a0), *((f"A{i}", ai) for i, ai in enumerate(p.ai, start=1)),
             ("ASum", pencil.eulerian_diagonal_pencil(n).a_sum)]
    rows = [(name, i, j, str(v)) for name, m in named
            for i, row in enumerate(m.entries) for j, v in enumerate(row)]
    rows.append(("psd_A0", "", "", "PSD" if cert else "NOT_PSD"))
    return ("matrix", "row", "col", "value"), rows


def _bounds_worker(task: tuple[int, tuple[str, ...], str, int]) -> list[tuple]:
    # Every kind at one n in one process: x_min and the extreme roots of A_n
    # depend on n alone, so they are certified once and end every row.
    n, kinds, policy, prec = task
    x_min = spectra.psd_interval_left(pencil.eulerian_diagonal_pencil(n), prec)
    q_left, q_right = spectra.extreme_roots(eulerian.univariate_eulerian(n), prec)
    per_n = (_enc(x_min), _enc(q_left), _enc(q_right))
    rows = []
    for r in bounds_mod.bound_reports(n, kinds, policy, prec):
        rows.append((r.n, r.kind, r.y_policy, r.prec,
                     *(_enc(getattr(r, attr)) for _, attr in _REPORT_FIELDS), *per_n))
    return rows


# JSON keys in bounds CSV column order.  D and N are decimals by
# contract; every other enclosure becomes a <key>_lo, <key>_hi pair.
_CSV_KEYS = (
    "n", "kind", "y", "D", "N", "lin_bound", "xmin", "q_right", "q_left",
    "un", "diff", "prec_bits",
)


def _bounds_csv(columns: tuple[str, ...], rows: list[tuple], prec: int) -> Rows:
    """bounds' CSV columns and rows, read off its JSON ones."""
    at = [columns.index(key) for key in _CSV_KEYS]

    def cells(row):
        for key, i in zip(_CSV_KEYS, at):
            value = row[i]
            if key in ("D", "N"):
                yield key, _dec((Fraction(value["lo"]) + Fraction(value["hi"])) / 2, prec)
            elif isinstance(value, dict):
                yield from ((f"{key}_{end}", v) for end, v in value.items())
            else:
                yield key, value

    flat = [tuple(zip(*cells(row))) for row in rows]
    return flat[0][0], [values for _, values in flat]


def _pool_size(jobs: int, tasks: int) -> int:
    """Worker processes for a parallel sweep: never more than tasks or CPUs."""
    return min(jobs, tasks, os.cpu_count() or 1)


def _n_range(args) -> range:
    if args.n_min > args.n_max:
        raise CliError(f"empty range: n-min {args.n_min} > n-max {args.n_max}")
    if args.n_min < 1:
        raise CliError("n-min must be >= 1")
    return range(args.n_min, args.n_max + 1)


def _rows_bounds(args) -> Rows:
    n_range = _n_range(args)
    _cap(args, "n-max ", args.n_max, MAX_BOUNDS_N)
    if args.jobs < 1:
        raise CliError("--jobs must be >= 1")
    kinds = ("old", "new") if args.kind == "both" else (args.kind,)
    policy = {"paper": "paper", "optimal": "numeric-optimal"}[args.y]
    tasks = []
    for n in n_range:
        n_kinds = tuple(k for k in kinds if k == "old" or (n % 2 == 0 and n >= 4))
        if n_kinds:
            tasks.append((n, n_kinds, policy, args.prec))
    if not tasks:
        raise CliError("no (n, kind) pairs in range (new needs even n >= 4)")
    workers = _pool_size(args.jobs, len(tasks))
    if workers > 1:
        # Imported here so that serial runs never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_n = list(pool.map(_bounds_worker, tasks))
    else:
        per_n = [_bounds_worker(t) for t in tasks]
    return _BOUNDS_COLUMNS, sorted((r for rs in per_n for r in rs), key=lambda r: r[:2])


def _rows_roots(args) -> Rows:
    n_range = _n_range(args)
    _cap(args, "n-max ", args.n_max, MAX_ROOTS_N)
    rows = []
    for n in n_range:
        ql, qr = spectra.extreme_roots(eulerian.univariate_eulerian(n), args.prec)
        rows.append((n, str(ql.lo), str(ql.hi), str(qr.lo), str(qr.hi), args.prec))
    return ("n", "q_left_lo", "q_left_hi", "q_right_lo", "q_right_hi", "prec_bits"), rows


# Per family: n per index step, least index, default index range, target
# ratio and prefactor of the geometric trend.  The old family is indexed
# by n >= 1, the new one by m = n/2 >= 2.
_DIFF_FAMILIES = {"old": (1, 1, 6, 20, 3 / 4, 1 / 2), "new": (2, 2, 5, 12, 9 / 8, 3 / 8)}


def _rows_diff(args) -> Rows:
    step, least, lo, hi, ratio, prefactor = _DIFF_FAMILIES[args.kind]
    if args.index_max is not None:
        _cap(args, "index max ", args.index_max, MAX_DIFF_N // step,
             scope=f"{args.kind}-family ", note=f" (n = {step} * index <= {MAX_DIFF_N})")
    lo = lo if args.index_min is None else args.index_min
    hi = hi if args.index_max is None else args.index_max
    if lo > hi:
        raise CliError(f"empty range: index-min {lo} > index-max {hi}")
    if lo < least:
        raise CliError(f"index-min must be >= {least}")
    if hi - lo < 2:
        count = f"{hi - lo + 1} {'index' if hi == lo else 'indices'}"
        raise CliError(f"index-min {lo} to index-max {hi} gives {count}; diff needs at least 3")
    cells = [(i, bounds_mod.bound_report(step * i, args.kind, prec=args.prec).difference)
             for i in range(lo, hi + 1)]  # a cell holding 0 certifies no sign: it reads 0
    seq = [(i, 0.0 if d.lo <= 0 <= d.hi else float(d)) for i, d in cells]
    diag = bounds_mod.ratio_diagnostic(seq, ratio, prefactor)
    ratio_at = dict(diag.ratios)
    dev_at = dict(diag.relative_deviations)
    track_at = dict(diag.normalization_track)

    def cell(at: dict[int, float], idx: int) -> str:
        return f"{at[idx]:.9f}" if idx in at else ""

    rows = [
        (idx, f"{value:.12e}", cell(ratio_at, idx), f"{diag.target_ratio:.9f}",
         cell(dev_at, idx), cell(track_at, idx))
        for idx, value in diag.entries
    ]
    return ("index", "difference", "ratio", "target_ratio", "relative_deviation",
            "normalization_track"), rows


def _rows_eigvec(args) -> Rows:
    if args.n_max < 1:
        raise CliError("n-max must be >= 1")
    _cap(args, "n-max ", args.n_max, MAX_EIGVEC_N)
    rows = []
    for n in range(1, args.n_max + 1):
        kv = spectra.boundary_kernel_vector(pencil.eulerian_diagonal_pencil(n), args.prec)
        rows.extend((n, idx, f"{idx / n:.9f}", _dec(entry, args.prec), kv.normalization,
                     kv.degenerate, args.prec) for idx, entry in enumerate(kv.entries))
    return ("n", "index", "position", "entry", "normalization", "degenerate", "prec_bits"), rows


# ---------------------------------------------------------------------------
# Emitters


def _to_csv(columns: tuple[str, ...], rows: list[tuple]) -> str:
    if not {len(columns)}.issuperset(map(len, rows)):
        raise ValueError(f"a CSV row's length differs from its header's, {len(columns)}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _text(x, y, size: int, anchor: str, body: str) -> str:
    return (
        f'<text x="{x}" y="{y}" font-size="{size}" text-anchor="{anchor}" '
        f'font-family="sans-serif">{body}</text>'
    )


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _y_ticks(values, fmt: str):
    # Each distinct axis label once, at the first value that prints as it.
    ticks: dict[str, float] = {}
    for val in values:
        ticks.setdefault(fmt.format(val), val)
    return ticks.items()


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

    if plot == "eigvec":
        pts = [(float(r["position"]), float(r["entry"]), int(r["n"])) for r in rows]
        ys = [p[1] for p in pts]
        x_lo, x_hi = 0.0, 1.0
        y_lo, y_hi = min(ys + [0.0]), max(ys + [1.0])
    else:  # "diff"
        pts = [(int(r["index"]), float(r["difference"])) for r in rows]
        if any(v <= 0 for _, v in pts):
            raise CliError("diff plot needs positive differences (log scale)")
        pts = [(x, math.log10(v)) for x, v in pts]
        xs = [p[0] for p in pts]
        logs = [p[1] for p in pts]
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

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if plot == "eigvec":
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
            _text(f"{ml + pw / 2:.0f}", height - 12, 13, "middle", "entry position index/n")
        )
        for label, val in _y_ticks((y_lo + pad, 0.0, 1.0, y_hi - pad), "{:.2f}"):
            out.append(_text(ml - 6, f"{sy(val) + 4:.2f}", 11, "end", label))
    else:
        path = " ".join(
            f"{'M' if i == 0 else 'L'}{sx(x):.2f},{sy(y):.2f}"
            for i, (x, y) in enumerate(pts)
        )
        out.append(
            f'<path d="{path}" stroke="#d62728" stroke-width="2" fill="none"/>'
        )
        for x, y in pts:
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#d62728"/>')
        for x in xs:
            out.append(_text(f"{sx(x):.2f}", height - 12, 11, "middle", str(x)))
        for label, val in _y_ticks((y_lo + pad, y_hi - pad), "1e{:.1f}"):
            out.append(_text(ml - 6, f"{sy(val) + 4:.2f}", 11, "end", label))
        out.append(
            _text(f"{ml + pw / 2:.0f}", height - 28, 13, "middle",
                  "bound difference, log scale")
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            default=DEFAULT_PREC,
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


_BUILDERS = {
    "counts": _rows_counts,
    "lform": _rows_lform,
    "pencil": _rows_pencil,
    "bounds": _rows_bounds,
    "roots": _rows_roots,
    "diff": _rows_diff,
    "eigvec": _rows_eigvec,
}


def _emit(args, columns: tuple[str, ...], rows: list[tuple]) -> str:
    if args.format == "csv":
        if args.command == "bounds":
            columns, rows = _bounds_csv(columns, rows, args.prec)
        return _to_csv(columns, rows)
    records = [dict(zip(columns, row)) for row in rows]
    if args.format == "json":
        doc = {"command": args.command, "rows": records, "prec_bits": args.prec}
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    return emit_plot(records, args.command)


def main(argv: Sequence[str] | None = None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        if args.prec < 16:
            raise CliError("prec must be >= 16")
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit:  # ends of --prec bits print with ~0.3 prec digits, past 4300
            sys.set_int_max_str_digits(0)
        try:
            text = _emit(args, *_BUILDERS[args.command](args))
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (CliError, ValueError, ArithmeticError, OSError) as exc:
        payload = {"error": str(exc), "command": getattr(args, "command", None)}
        print(json.dumps(payload), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
