"""Independent checks of every benchmark item's output.

Matrices and guess vectors come from the library; every decision is made
here: PSD tests by fraction-free (Bareiss) elimination over the integers,
root brackets against A_n built from the explicit Eulerian-number sum,
and the soundness chain ``-D/N <= x_min <= q_right < 0`` with
interval-aware comparisons.  ``problems(argv, text)`` returns a list of
findings, empty when the output is accepted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

Interval = tuple[Fraction, Fraction]

BOUND_FIELDS = ("y", "D", "N", "lin_bound", "mult", "un", "diff", "xmin", "q_left", "q_right")


# ---------------------------------------------------------------------------
# Exact primitives


def is_psd(rows) -> bool:
    """PSD decision for a symmetric rational matrix by Bareiss elimination.

    The matrix is scaled to integers.  Each Bareiss pivot is a leading
    principal minor over the pivots kept so far, so a negative one refutes
    PSD.  A zero pivot is admissible only when its whole remaining row is
    zero; that row then drops out without changing the other minors.
    """
    den = 1
    for row in rows:
        for v in row:
            den = math.lcm(den, Fraction(v).denominator)
    a = [[int(Fraction(v) * den) for v in row] for row in rows]
    live = list(range(len(a)))
    prev = 1
    while live:
        k, rest = live[0], live[1:]
        pivot = a[k][k]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(a[k][j] for j in rest):
                return False
        else:
            for i in rest:
                aik, ai = a[i][k], a[i]
                for j in rest:
                    ai[j] = (pivot * ai[j] - aik * a[k][j]) // prev
            prev = pivot
        live = rest
    return True


@lru_cache(maxsize=None)
def eulerian_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients of A_n (x^0 first): Eulerian numbers of [n+1] by the explicit sum."""
    m = n + 1
    return tuple(
        sum((-1) ** j * math.comb(m + 1, j) * (k + 1 - j) ** m for j in range(k + 1))
        for k in range(n + 1)
    )


def _shifted(coeffs: tuple[int, ...], point: Fraction, step: int) -> list[int]:
    """Integer coefficients (t^0 first) of q^d * p((u + step*t)/q), point = u/q.

    For t > 0 these describe p to the right (step = 1) or to the left
    (step = -1) of ``point``; the constant term has the sign of p(point).
    """
    u, q = point.numerator, point.denominator
    d = len(coeffs) - 1
    acc = [coeffs[d]]
    qpow = 1
    for k in range(d - 1, -1, -1):
        qpow *= q
        nxt = [u * c for c in acc] + [0]
        for i, c in enumerate(acc):
            nxt[i + 1] += step * c
        nxt[0] += coeffs[k] * qpow
        acc = nxt
    return acc


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_changes(values: list[int]) -> int:
    signs = [_sign(v) for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def root_problems(n: int, q_left: Interval, q_right: Interval) -> list[str]:
    """q_left, q_right enclose the extreme roots of A_n.

    Each enclosure brackets a sign change of A_n, and by Descartes' rule
    A_n has no root left of q_left or right of q_right.
    """
    p = eulerian_coeffs(n)
    out = []
    for label, (lo, hi) in (("q_left", q_left), ("q_right", q_right)):
        if _sign(_shifted(p, lo, 1)[0]) * _sign(_shifted(p, hi, 1)[0]) > 0:
            out.append(f"n={n}: {label} does not bracket a sign change of A_n")
    if _sign_changes(_shifted(p, q_left[0], -1)):
        out.append(f"n={n}: A_n may have a root left of q_left")
    if _sign_changes(_shifted(p, q_right[1], 1)):
        out.append(f"n={n}: A_n may have a root right of q_right")
    if not q_right[1] < 0:
        out.append(f"n={n}: q_right is not certainly negative")
    return out


def _interval(d: dict) -> Interval:
    return Fraction(d["lo"]), Fraction(d["hi"])


def _overlap(a: Interval, b: Interval) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def _width_problems(label: str, enc: Interval, prec: int) -> list[str]:
    if enc[0] > enc[1]:
        return [f"{label}: lo > hi"]
    if enc[1] - enc[0] > Fraction(1, 2**prec):
        return [f"{label}: width exceeds 2^-{prec}"]
    return []


@lru_cache(maxsize=None)
def _diagonal(n: int):
    from eulerian_bounds.pencil import eulerian_diagonal_pencil

    dp = eulerian_diagonal_pencil(n)
    return dp.a0.entries, dp.a_sum.entries


def _at(n: int, x: Fraction):
    a0, a_sum = _diagonal(n)
    return [[a + x * b for a, b in zip(ra, rb)] for ra, rb in zip(a0, a_sum)]


def _quadratic_range(a: list[list[Fraction]], v: tuple, y: Interval) -> Interval:
    # Exact range of w^T a w over w = (y, v[1:]) with y in the interval.
    s = len(v)
    c2 = a[0][0]
    c1 = 2 * sum(a[0][j] * v[j] for j in range(1, s))
    c0 = sum(v[i] * a[i][j] * v[j] for i in range(1, s) for j in range(1, s))
    points = [y[0], y[1]]
    if c2 and y[0] < -c1 / (2 * c2) < y[1]:
        points.append(-c1 / (2 * c2))
    values = [c2 * t * t + c1 * t + c0 for t in points]
    return min(values), max(values)


def _dn_problems(n: int, kind: str, enc: dict[str, Interval]) -> list[str]:
    from eulerian_bounds.bounds import guess_vector

    v = guess_vector(kind, n).entries
    a0, a_sum = _diagonal(n)
    out = []
    for label, matrix in (("D", a0), ("N", a_sum)):
        if not _overlap(enc[label], _quadratic_range(matrix, v, enc["y"])):
            out.append(f"n={n} {kind}: {label} is not v^T A v at the reported y")
    return out


# ---------------------------------------------------------------------------
# Per-command checks


def _bounds_problems(argv: list[str], text: str) -> list[str]:
    doc = json.loads(text)
    n_min = int(argv[argv.index("--n-min") + 1])
    n_max = int(argv[argv.index("--n-max") + 1])
    expected = [(n, kind) for n in range(n_min, n_max + 1) for kind in ("new", "old")
                if kind == "old" or (n % 2 == 0 and n >= 4)]
    rows = doc["rows"]
    if [(r["n"], r["kind"]) for r in rows] != expected:
        return ["bounds rows do not cover the requested (n, kind) pairs in order"]
    out = []
    xmin_ok: dict[tuple, bool] = {}
    for r in rows:
        n, kind, prec = r["n"], r["kind"], int(r["prec_bits"])
        if any(r[f] is None for f in BOUND_FIELDS):
            out.append(f"n={n} {kind}: missing enclosure")
            continue
        enc = {f: _interval(r[f]) for f in BOUND_FIELDS}
        widths = [p for f in BOUND_FIELDS for p in _width_problems(f"n={n} {kind} {f}", enc[f], prec)]
        if widths:
            out += widths
            continue
        d, nn, lin, xmin = enc["D"], enc["N"], enc["lin_bound"], enc["xmin"]
        ql, qr, mult = enc["q_left"], enc["q_right"], enc["mult"]
        if not (d[0] > 0 and nn[0] > 0):
            out.append(f"n={n} {kind}: D and N are not certainly positive")
            continue
        if not _overlap(lin, (-d[1] / nn[0], -d[0] / nn[1])):
            out.append(f"n={n} {kind}: lin_bound is not -D/N")
        if not _overlap(mult, (nn[0] / d[1], nn[1] / d[0])):
            out.append(f"n={n} {kind}: mult is not N/D")
        un = enc["un"]
        if not _overlap(enc["diff"], (mult[0] - un[1], mult[1] - un[0])):
            out.append(f"n={n} {kind}: diff is not mult - un")
        out += _dn_problems(n, kind, enc)
        if not lin[0] <= xmin[1]:
            out.append(f"n={n} {kind}: -D/N > x_min")
        if not xmin[0] <= qr[1]:
            out.append(f"n={n} {kind}: x_min > q_right")
        if not mult[0] <= -ql[0]:
            out.append(f"n={n} {kind}: N/D > |q_left|")
        key = (n, xmin)
        if key not in xmin_ok:
            xmin_ok[key] = is_psd(_at(n, xmin[1])) and not is_psd(_at(n, xmin[0]))
        if not xmin_ok[key]:
            out.append(f"n={n} {kind}: x_min enclosure is not PSD at hi and not PSD at lo")
        out += root_problems(n, ql, qr)
    return out


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _arg(argv: list[str], flag: str, default: int) -> int:
    return int(argv[argv.index(flag) + 1]) if flag in argv else default


def _lform_problems(argv: list[str], text: str) -> list[str]:
    n = _arg(argv, "--n", 0)
    rows = _csv_rows(text)
    out = []
    if len(rows) != math.comb(n + 3, 3):
        out.append(f"lform n={n}: {len(rows)} rows, expected {math.comb(n + 3, 3)}")
    for r in rows:
        if r["equal"] != "True" or Fraction(r["closed_form"]) != Fraction(r["from_truncation"]):
            out.append(f"lform n={n}: routes disagree on {r['monomial']}")
    return out


def _counts_problems(argv: list[str], text: str) -> list[str]:
    n = _arg(argv, "--n", 0)
    rows = _csv_rows(text)
    out = []
    expected = sum(math.comb(n, s) for s in range(min(n, 3) + 1))
    if len(rows) != expected:
        out.append(f"counts n={n}: {len(rows)} rows, expected {expected}")
    for r in rows:
        routes = [r["brute_force"], r["complement"], r["deletion"]]
        if r["X"] != "{}":
            routes.append(r["closed_form"])
        if len(set(map(int, routes))) != 1:
            out.append(f"counts n={n}: routes disagree on X={r['X']}")
    return out


def _roots_problems(argv: list[str], text: str) -> list[str]:
    rows = _csv_rows(text)
    n_min, n_max = _arg(argv, "--n-min", 1), _arg(argv, "--n-max", 0)
    if [int(r["n"]) for r in rows] != list(range(n_min, n_max + 1)):
        return ["roots rows do not cover the requested n"]
    out = []
    for r in rows:
        n, prec = int(r["n"]), int(r["prec_bits"])
        ql = (Fraction(r["q_left_lo"]), Fraction(r["q_left_hi"]))
        qr = (Fraction(r["q_right_lo"]), Fraction(r["q_right_hi"]))
        widths = _width_problems(f"n={n} q_left", ql, prec) + _width_problems(
            f"n={n} q_right", qr, prec)
        out += widths or root_problems(n, ql, qr)
    return out


def _diff_problems(argv: list[str], text: str) -> list[str]:
    kind = argv[argv.index("--kind") + 1]
    lo, hi, target = (6, 20, 0.75) if kind == "old" else (5, 12, 1.125)
    lo, hi = _arg(argv, "--index-min", lo), _arg(argv, "--index-max", hi)
    rows = _csv_rows(text)
    if [int(r["index"]) for r in rows] != list(range(lo, hi + 1)):
        return [f"diff {kind}: rows do not cover indices {lo}..{hi}"]
    out = []
    prev = None
    for r in rows:
        value = float(r["difference"])
        if not value > 0:
            out.append(f"diff {kind}: difference at {r['index']} is not positive")
        if abs(float(r["target_ratio"]) - target) > 1e-12:
            out.append(f"diff {kind}: wrong target ratio")
        if prev is not None and abs(float(r["ratio"]) - value / prev) > 1e-8:
            out.append(f"diff {kind}: ratio at {r['index']} is not the consecutive ratio")
        prev = value
    return out


def _pencil_problems(argv: list[str], text: str) -> list[str]:
    n = _arg(argv, "--n", 0)
    s = n + 1
    mats: dict[str, list[list]] = {}
    verdict = None
    for r in _csv_rows(text):
        if r["matrix"] == "psd_A0":
            verdict = r["value"]
            continue
        m = mats.setdefault(r["matrix"], [[None] * s for _ in range(s)])
        m[int(r["row"])][int(r["col"])] = Fraction(r["value"])
    names = ["A0"] + [f"A{i}" for i in range(1, n + 1)] + ["ASum"]
    if sorted(mats) != sorted(names) or any(v is None for m in mats.values() for row in m for v in row):
        return [f"pencil n={n}: matrices missing or incomplete"]
    out = []
    for name, m in mats.items():
        if any(m[i][j] != m[j][i] for i in range(s) for j in range(i)):
            out.append(f"pencil n={n}: {name} is not symmetric")
    total = [[sum(mats[f"A{k}"][i][j] for k in range(1, n + 1)) for j in range(s)]
             for i in range(s)]
    if total != mats["ASum"]:
        out.append(f"pencil n={n}: ASum is not the sum of A1..An")
    if mats["A0"][0] != [Fraction(n)] + [Fraction(2**i - 1) for i in range(1, s)]:
        out.append(f"pencil n={n}: first row of A0 is not (n, 2^i - 1)")
    if verdict != "PSD" or not is_psd(mats["A0"]):
        out.append(f"pencil n={n}: A0 PSD verdict wrong")
    return out


def _eigvec_problems(argv: list[str], text: str) -> list[str]:
    import mpmath

    n_max = _arg(argv, "--n-max", 10)
    rows = _csv_rows(text)
    by_n: dict[int, list[dict]] = {}
    for r in rows:
        by_n.setdefault(int(r["n"]), []).append(r)
    if sorted(by_n) != list(range(1, n_max + 1)):
        return ["eigvec rows do not cover n = 1..n-max"]
    out = []
    for n, group in by_n.items():
        prec = int(group[0]["prec_bits"])
        if [int(r["index"]) for r in group] != list(range(n + 1)):
            out.append(f"eigvec n={n}: wrong entry indices")
            continue
        if any(abs(float(r["position"]) - int(r["index"]) / n) > 1e-9 for r in group):
            out.append(f"eigvec n={n}: wrong positions")
        a0, a_sum = _diagonal(n)
        with mpmath.workprec(2 * prec + 32):
            v = mpmath.matrix([mpmath.mpf(r["entry"]) for r in group])
            if group[0]["normalization"] == "last-entry" and v[n] != 1:
                out.append(f"eigvec n={n}: last entry is not 1")
            m0 = mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in a0])
            m1 = mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in a_sum])
            # The x that minimizes |(A0 + x A_sum) v|: a kernel vector of the
            # pencil leaves a tiny residual there.
            a, b = m0 * v, m1 * v
            bb = (b.T * b)[0]
            x = -(b.T * a)[0] / bb if bb else mpmath.mpf(0)
            m = m0 + x * m1
            rel = mpmath.norm(m * v) / (mpmath.mnorm(m, 1) * mpmath.norm(v))
            if rel > mpmath.mpf(2) ** (-(prec // 4)):
                out.append(f"eigvec n={n}: kernel residual {mpmath.nstr(rel, 3)} too large")
    return out


CHECKS = {
    "bounds": _bounds_problems,
    "lform": _lform_problems,
    "counts": _counts_problems,
    "roots": _roots_problems,
    "diff": _diff_problems,
    "pencil": _pencil_problems,
    "eigvec": _eigvec_problems,
}


def problems(argv: list[str], text: str) -> list[str]:
    """Findings against one item's stdout; empty when the output is accepted."""
    try:
        return CHECKS[argv[0]](argv, text)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"{argv[0]}: unreadable output ({type(exc).__name__}: {exc})"]
