"""Guess-vector linearizations and root-bound comparisons.

A fixed vector v turns the diagonal pencil PSD condition into the scalar
inequality v^T A0 v + x * v^T A_sum v >= 0, i.e. a certified bound
x >= -D/N on the PSD interval (hence on the rightmost Eulerian root),
equivalently N/D <= |leftmost root| by palindromicity.  Two families of
vectors are built in, both with a free first entry y:

- "old":  (y, 1, -1, ..., -1),
- "new":  (y, (-2^(m-i))_{i=3..m}, 0, 1/2, 1, ..., 1) for n = 2m.

D(y) and N(y) are exact quadratics in y, O(n) integer sums over the
closed-form entries of ``pencil.eulerian_diagonal_pencil``, no pencil built;
at a cell y they and N/D take integer ends over one denominator.  The
optimal y is a root of the integer quadratic N'D - ND', split from the other
at its vertex and refined to its dyadic cell by ``spectra`` like every other
certified root.  The new family reuses the optimum of the old family's
quadratics with the opposite sign, the choice that makes its D and N positive.

The univariate reference bound un(n) comes from the 2x2 pencil of the
univariate Eulerian polynomial: its PSD endpoint, split like y from the
other root of an integer quadratic, is checked by two 2x2 PSD tests.
``bound_reports`` certifies it and the old family's root once per n for all
kinds.  ``ratio_diagnostic`` gives consecutive-ratio trend data of bound
differences for the separation claims (old: (3/4)^n decay; new: (9/8)^m growth).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .enclosure import DEFAULT_PREC, AlgebraicBound, Rat
from .eulerian import univariate_eulerian
from .pencil import _integer_rows
from .spectra import _is_psd_at, _primitive, _refine_root

__all__ = [
    "GuessVector",
    "QuadraticInY",
    "BoundReport",
    "RatioDiagnostic",
    "guess_vector",
    "eulerian_guess_quadratics",
    "paper_y",
    "univariate_bound",
    "bound_report",
    "bound_reports",
    "optimize_y_numeric",
    "ratio_diagnostic",
]

class GuessVector(Record):
    """A linearizing vector in R^(n+1) with a free first entry.

    ``entries[0] is None`` marks the free parameter y; all other entries
    are exact rationals.
    """

    kind: str
    n: int
    entries: tuple[Fraction | None, ...]

    def __post_init__(self):
        if len(self.entries) != self.n + 1:
            raise ValueError("vector length must be n + 1")
        if self.entries[0] is not None or any(e is None for e in self.entries[1:]):
            raise ValueError("the first entry, and only it, must be the free y (None)")


def guess_vector(kind: str, n: int) -> GuessVector:
    """Build an old- or new-family vector with a free first entry y.

    >>> guess_vector("old", 4).entries[1:]
    (Fraction(1, 1), Fraction(-1, 1), Fraction(-1, 1), Fraction(-1, 1))
    >>> guess_vector("new", 10).entries[1:4]
    (Fraction(-4, 1), Fraction(-2, 1), Fraction(-1, 1))
    """
    if kind == "old":
        if n < 1:
            raise ValueError("old vector needs n >= 1")
        tail = (Fraction(1),) + (Fraction(-1),) * (n - 1)
    elif kind == "new":
        if n < 4 or n % 2:
            raise ValueError("new vector defined for even n >= 4")
        m = n // 2
        head = tuple(Fraction(-(2 ** (m - i))) for i in range(3, m + 1))
        tail = head + (Fraction(0), Fraction(1, 2)) + (Fraction(1),) * m
    else:
        raise ValueError(f"unknown vector kind {kind!r}")
    return GuessVector(kind=kind, n=n, entries=(None,) + tail)


class QuadraticInY(Record):
    """c2 y^2 + c1 y + c0 with exact rational coefficients."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def at(self, y: AlgebraicBound) -> AlgebraicBound:
        """The natural interval extension c2 [y] [y] + c1 [y] + c0: each end one
        integer over q^3, q the lcm of the coefficients' and y's denominators."""
        ((k2, k1, k0, a, b),), q = _integer_rows([(self.c2, self.c1, self.c0, y.lo, y.hi)])
        squares = (a * a, a * b, b * b)
        ends = (k2 * min(squares), k2 * max(squares)), (k1 * q * a, k1 * q * b)
        const, den = k0 * q * q, q * q * q
        return AlgebraicBound(Fraction(sum(map(min, ends)) + const, den),
                              Fraction(sum(map(max, ends)) + const, den))


def _eulerian_DN(tail: Sequence[Rat]) -> tuple[QuadraticInY, QuadraticInY]:
    # D = v^T A0 v and N = v^T A_sum v, v = (y, tail), n = len(tail), in O(n) integer
    # operations on pencil.eulerian_diagonal_pencil's closed forms (A_sum = L A0 - B),
    # the tail as u / t, u_0 = 0.  Off the diagonal: 2 sum u_c P_c and 2 sum u_c W_c 2^-c
    # for running sums P_c = sum_(r<c) u_r A0[r][c] and W_c = 2^c sum_(r<c) u_r B[r][c].
    (u,), t = _integer_rows([(0, *tail)])
    n, row_a, row_b, form_a, form_b, p, w = len(tail), 0, 0, 0, 0, 0, 0
    for c in range(1, n + 1):
        uc, pow3 = u[c], 3**c
        g, h, e = (1 << 2 * c) - pow3, pow3 - (1 << c), (1 << c) - 1
        row_a, row_b = row_a + e * uc, row_b + (h * uc << (n + 1 - c))
        form_a += uc * (uc * e * e + 2 * p)
        form_b += uc * ((uc * e * h << (n + 1 - c)) + 2 * (w >> c))
        p, w = 2 * (p + uc * g), 3 * w + (3 * uc * h << (n + c))
    a0, b = (n, 2 * row_a, form_a), (((n - 1) << (n + 1)) + 2, 2 * row_b, form_b)
    lead = (2 << n) - 1
    return tuple(QuadraticInY(Fraction(k2), Fraction(k1, t), Fraction(k0, t * t))
                 for k2, k1, k0 in (a0, [lead * x - y for x, y in zip(a0, b)]))


@lru_cache(maxsize=None)
def eulerian_guess_quadratics(n: int, kind: str) -> tuple[QuadraticInY, QuadraticInY]:
    return _eulerian_DN(guess_vector(kind, n).entries[1:])


def _critical_coefficients(n: int, kind: str) -> tuple[Fraction, Fraction, Fraction]:
    # N'D - N D' of the vector's quadratics is exactly quadratic: the cubic
    # coefficients cancel (2 n2 d2 - 2 d2 n2 = 0), leaving a y^2 + b y + c.
    d, nq = eulerian_guess_quadratics(n, kind)
    a = nq.c2 * d.c1 - nq.c1 * d.c2
    b = 2 * (nq.c2 * d.c0 - nq.c0 * d.c2)
    c = nq.c1 * d.c0 - nq.c0 * d.c1
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ArithmeticError(f"negative discriminant {disc} for n={n} kind={kind}")
    return a, b, c


def _vertex_split(a: Rat, b: Rat, c: Rat) -> tuple[list[int], list[tuple[Fraction, Fraction]]]:
    # The primitive f = [a, b, c], leading coefficient > 0, and isolating intervals
    # of its real roots: first the root where a y^2 + b y + c falls (for N'D - ND',
    # the local maximum of N/D), then the other; a double root is the point (v, v).
    # f has one root on each side of v = -b/2a, within 2^ceil(bitlen(disc)/2) / 2a.
    if a == 0:
        raise ZeroDivisionError("degenerate optimizer: leading coefficient is 0")
    f = _primitive(_integer_rows([[a, b, c]])[0][0])
    v, disc = Fraction(-f[1], 2 * f[0]), f[1] * f[1] - 4 * f[0] * f[2]
    r = Fraction(1 << -(-disc.bit_length() // 2), 2 * f[0])
    return f, [(v, v)] if disc == 0 else [(v - r, v), (v, v + r)][:: 1 if a > 0 else -1]


def paper_y(n: int, kind: str, prec: int = DEFAULT_PREC) -> AlgebraicBound:
    """The linearization parameter each vector family is analyzed at.

    The critical points of N/D in y are the roots of a y^2 + b y + c
    built from the OLD vector's quadratics at n, for both families.  The
    old family takes the local maximum of its N/D, the root where
    a y^2 + b y + c falls, (-b - sqrt(b^2-4ac)) / (2a); the new family
    takes the exact opposite value.
    """
    guess_vector(kind, n)  # the family must be defined at n
    f, intervals = _vertex_split(*_critical_coefficients(n, "old"))
    root = _refine_root(f, *intervals[0], prec)
    return root if kind == "old" else -root


def univariate_bound(n: int, prec: int = DEFAULT_PREC) -> AlgebraicBound:
    """un(n): the reciprocal magnitude of the univariate pencil endpoint.

    The 2x2 pencil of A_n is [[L0, L1], [L1, L2]] + x [[L1, L2], [L2, L3]]:
    L0 = n, L1 = a1, L2 = a1^2 - 2 a2 and L3 = 3 a3 - 3 a1 a2 + a1^3 for the
    Eulerian numbers a_k.  Its endpoint, the larger root of det(A0 + x A1), is
    split at the vertex like y and checked by two 2x2 PSD tests (not PSD at the
    cell's lo, PSD at hi).  un(n) bounds |leftmost root| below by palindromicity.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if prec < 0:  # checked here, as the guard bits below could hide it
        raise ValueError(f"prec must be >= 0, got {prec}")
    a1, a2, a3 = (univariate_eulerian(n).coefficient(k) for k in (1, 2, 3))
    l0, l1, l2, l3 = n, a1, a1 * a1 - 2 * a2, 3 * a3 - 3 * a1 * a2 + a1**3
    det = [l1 * l3 - l2 * l2, l0 * l3 - l1 * l2, l0 * l2 - l1 * l1]
    if any(det):  # -det falls at det's larger root
        f, intervals = _vertex_split(*(-c for c in det))
    else:  # det = 0 at n = 1, where the pencil is (1 + x) J: J's 1x1 block L0 + x L1
        f, intervals = [l1, l0], [(Fraction(-l0, l1),) * 2]
    # The endpoint is ~2^-(n+1): its reciprocal widens the cell ~2^(2n+2)-fold.
    x = _refine_root(f, *intervals[0], prec + 2 * n + 16, exact=False)
    rows = [[l0, l1], [l1, l2], [l1, l2], [l2, l3]]
    if _is_psd_at(rows, x.lo) or not _is_psd_at(rows, x.hi):
        raise ArithmeticError(f"un({n}) endpoint cell ({x.lo}, {x.hi}] fails its PSD tests")
    return (-x).reciprocal()


class BoundReport(Record):
    """The linearized bound of one (n, kind) pair and its gain over un(n)."""

    n: int
    kind: str
    y_policy: str
    prec: int
    y: AlgebraicBound
    d_value: AlgebraicBound
    n_value: AlgebraicBound
    lin_bound: AlgebraicBound  # -D/N, lower bound for the diagonal endpoint
    mult: AlgebraicBound  # N/D, lower bound on |leftmost root|
    un: AlgebraicBound
    difference: AlgebraicBound  # mult - un


def bound_reports(
    n: int, kinds: Sequence[str], y_policy: str = "paper", prec: int = DEFAULT_PREC
) -> list[BoundReport]:
    """The linearized bound of each vector kind in ``kinds`` at one n.

    ``y_policy`` selects the linearization parameter: "paper" (the
    family's reference choice, see ``paper_y``) or "numeric-optimal"
    (maximize N/D over the vector's own quadratics).  un(n) and the paper
    root depend on n alone and are certified once for all kinds.  The
    bounds are sound against x_min and the extreme roots of A_n, given
    by ``spectra.psd_interval_left`` and ``spectra.extreme_roots``.
    """
    quadratics = [eulerian_guess_quadratics(n, kind) for kind in kinds]
    if y_policy not in ("paper", "numeric-optimal"):
        raise ValueError(f"unknown y policy {y_policy!r}")
    un = univariate_bound(n, prec)
    root = None
    reports = []
    for kind, (d_q, n_q) in zip(kinds, quadratics):
        if n == 1:
            # D = N: N/D does not depend on y, so every y is optimal.
            y = AlgebraicBound.exact(0)
        elif y_policy == "paper":
            if root is None:
                # Guard bits: pencil entries grow like 8^n, so evaluating the
                # quadratics at an interval y loses about 3n bits of width.
                root = paper_y(n, "old", prec + 3 * n + 64)
            y = root if kind == "old" else -root
        else:
            y, _ = optimize_y_numeric(n, kind, prec)
        d_val = d_q.at(y)
        n_val = n_q.at(y)
        mult = n_val / d_val
        reports.append(BoundReport(
            n=n,
            kind=kind,
            y_policy=y_policy,
            prec=prec,
            y=y,
            d_value=d_val,
            n_value=n_val,
            lin_bound=-(d_val / n_val),
            mult=mult,
            un=un,
            difference=mult - un,
        ))
    return reports


def bound_report(
    n: int, kind: str, y_policy: str = "paper", prec: int = DEFAULT_PREC
) -> BoundReport:
    """The linearized bound for one n and vector kind; see ``bound_reports``."""
    return bound_reports(n, (kind,), y_policy, prec)[0]


def optimize_y_numeric(
    n: int, kind: str, prec: int = DEFAULT_PREC
) -> tuple[AlgebraicBound, AlgebraicBound]:
    """Maximize N(y)/D(y) over y for the vector's own quadratics.

    Every real critical point is evaluated (only those with certified
    D > 0 and N > 0 are admissible bounds); the y -> infinity limit
    N.c2/D.c2, attained by the degenerate vector e_0, is checked as the
    endpoint competitor but never wins at desk scale.
    """
    if prec < 0:
        raise ValueError(f"prec must be >= 0, got {prec}")
    d_q, n_q = eulerian_guess_quadratics(n, kind)
    best: tuple[AlgebraicBound, AlgebraicBound] | None = None
    f, intervals = _vertex_split(*_critical_coefficients(n, kind))
    for y in [_refine_root(f, *ends, prec + 3 * n + 64) for ends in intervals]:
        d_val = d_q.at(y)
        n_val = n_q.at(y)
        if not (d_val.is_certainly_positive() and n_val.is_certainly_positive()):
            continue
        ratio = n_val / d_val
        if best is None or best[1].certainly_lt(ratio):
            best = (y, ratio)
    if best is None:
        raise ArithmeticError(f"no admissible critical point for n={n} kind={kind}")
    if d_q.c2 > 0 and n_q.c2 > 0:
        at_infinity = Fraction(n_q.c2, d_q.c2)
        if best[1].certainly_lt(AlgebraicBound.exact(at_infinity)):
            raise ArithmeticError(
                "ratio supremum escapes to infinity; no finite optimizer"
            )
    return best


class RatioDiagnostic(Record):
    """Consecutive-ratio trend data for a sequence of (index, value).

    Ratios pair neighbouring same-sign nonzero entries, at the later
    index.  ``flagged`` reports that a sign change or zero interrupted the
    sequence.  The normalization track holds value / (prefactor * ratio^index).
    """

    entries: tuple[tuple[int, float], ...]
    target_ratio: float
    target_prefactor: float
    ratios: tuple[tuple[int, float], ...]
    relative_deviations: tuple[tuple[int, float], ...]
    normalization_track: tuple[tuple[int, float], ...]
    flagged: bool


def ratio_diagnostic(
    seq: Iterable[tuple[int, float]], target_ratio: float, target_prefactor: float
) -> RatioDiagnostic:
    """Trend diagnostics of (index, value) pairs against c * r^index.

    Requires at least 3 consecutive same-sign nonzero entries.
    """
    items = [(int(idx), float(val)) for idx, val in seq]
    if len(items) < 3:
        raise ValueError("need at least 3 entries")
    pairs = list(zip(items, items[1:]))
    # same[k]: entries k and k+1 are nonzero with one sign.  The sign test
    # is (v > 0), not v0 * v1 > 0, which underflows for tiny values.
    same = [v0 != 0 and v1 != 0 and (v0 > 0) == (v1 > 0) for (_, v0), (_, v1) in pairs]
    if not any(a and b for a, b in zip(same, same[1:])):
        raise ValueError(f"need at least 3 same-sign nonzero entries in a row, got {items}")
    ratios = [(i1, v1 / v0) for ((_, v0), (i1, v1)), ok in zip(pairs, same) if ok]
    deviations = tuple(
        (i, abs(r - target_ratio) / abs(target_ratio)) for i, r in ratios
    )
    track = tuple((i, v / (target_prefactor * target_ratio**i)) for i, v in items if v)
    return RatioDiagnostic(
        entries=tuple(items),
        target_ratio=float(target_ratio),
        target_prefactor=float(target_prefactor),
        ratios=tuple(ratios),
        relative_deviations=deviations,
        normalization_track=track,
        flagged=not all(same),
    )
