"""Guess-vector linearizations and root-bound comparisons.

A fixed vector v turns the diagonal pencil PSD condition into the scalar
inequality v^T A0 v + x * v^T A_sum v >= 0, i.e. a certified bound
x >= -D/N on the PSD interval (hence on the rightmost Eulerian root),
equivalently N/D <= |leftmost root| by palindromicity.  Two families of
vectors are built in, both with a free first entry y:

- "old":  (y, 1, -1, ..., -1),
- "new":  (y, (-2^(m-i))_{i=3..m}, 0, 1/2, 1, ..., 1) for n = 2m.

D(y) and N(y) are exact quadratics in y, read off the pencil cleared to
integers once; at a cell y they and N/D take integer ends over one
denominator, not a Fraction per operation.  The optimal y is a root of
the integer quadratic N'D - ND', isolated and refined to its dyadic cell
by ``spectra`` like every other certified root.  The new family reuses
the optimum of the old family's quadratics with the opposite sign, the
choice that makes its D and N positive.

The univariate reference bound un(n) comes from the 2x2 pencil of the
univariate Eulerian polynomial: its PSD endpoint is the root of an integer
quadratic, checked by two 2x2 PSD tests.
``ratio_diagnostic`` turns sequences of bound differences into
consecutive-ratio trend data for the asymptotic separation claims
(old: differences decay like (3/4)^n; new: they grow like (9/8)^m).
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .enclosure import DEFAULT_PREC, AlgebraicBound, Rat
from .eulerian import univariate_eulerian
from .pencil import DiagonalPencil, SymmetricRationalMatrix, eulerian_diagonal_pencil
from .pencil import _integer_form, _integer_rows
from .spectra import _is_psd_at, _isolate, _primitive, _refine_root, _rightmost_interval, _strip

__all__ = [
    "GuessVector",
    "QuadraticInY",
    "BoundReport",
    "RatioDiagnostic",
    "guess_vector",
    "linearized_DN",
    "eulerian_guess_quadratics",
    "paper_y",
    "univariate_bound",
    "bound_report",
    "optimize_y_numeric",
    "ratio_diagnostic",
]

KINDS = ("old", "new")


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


def linearized_DN(
    p: DiagonalPencil, v: GuessVector
) -> tuple[QuadraticInY, QuadraticInY]:
    """Expand D = v^T A0 v and N = v^T A_sum v as quadratics in y.

    Only the first entry is symbolic, so the y^2 coefficient is the
    matrix corner, the y coefficient is twice the first row paired with
    the concrete tail, and the constant is the quadratic form of the tail.
    With the tail cleared once to u / t (u[0] = 0) and each matrix to R / l,
    c2 = R00 / l, c1 = 2 R0.u / lt and c0 = u^T R u / lt^2.
    """
    if len(v.entries) != p.size:
        raise ValueError(f"vector length {len(v.entries)} does not match pencil size {p.size}")
    (u,), t = _integer_rows([(0,) + v.entries[1:]])

    def expand(mat: SymmetricRationalMatrix) -> QuadraticInY:
        rows, lcm = _integer_rows([row[i:] for i, row in enumerate(mat.entries)])  # upper rows
        cross = sum(r * x for r, x in zip(rows[0], u))
        return QuadraticInY(Fraction(rows[0][0], lcm), Fraction(2 * cross, lcm * t),
                            Fraction(_integer_form(rows, u), lcm * t * t))

    return expand(p.a0), expand(p.a_sum)


@lru_cache(maxsize=None)
def eulerian_guess_quadratics(n: int, kind: str) -> tuple[QuadraticInY, QuadraticInY]:
    return linearized_DN(eulerian_diagonal_pencil(n), guess_vector(kind, n))


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _critical_points(a: Rat, b: Rat, c: Rat, prec: int, count: int = 2) -> list[AlgebraicBound]:
    # The first ``count`` real roots of a y^2 + b y + c, cleared to integers,
    # as dyadic cells of width <= 2**-prec: first the root where it falls
    # (for N'D - ND', the local maximum of N/D), then the other one, if any.
    # Cached: both kinds of paper_y at one (n, prec) refine one quadratic.
    if a == 0:
        raise ZeroDivisionError("degenerate optimizer: leading coefficient is 0")
    sqf, intervals = _isolate(_integer_rows([[a, b, c]])[0][0])
    return [_refine_root(sqf, lo, hi, prec) for lo, hi in intervals[::1 if a > 0 else -1][:count]]


def paper_y(n: int, kind: str, prec: int = DEFAULT_PREC) -> AlgebraicBound:
    """The linearization parameter each vector family is analyzed at.

    The critical points of N/D in y are the roots of a y^2 + b y + c
    built from the OLD vector's quadratics at n, for both families.  The
    old family takes the local maximum of its N/D, the root where
    a y^2 + b y + c falls, (-b - sqrt(b^2-4ac)) / (2a); the new family
    takes the exact opposite value.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown vector kind {kind!r}")
    (root,) = _critical_points(*_critical_coefficients(n, "old"), prec, 1)
    return root if kind == "old" else -root


def univariate_bound(n: int, prec: int = DEFAULT_PREC) -> AlgebraicBound:
    """un(n): the reciprocal magnitude of the univariate pencil endpoint.

    The 2x2 pencil of A_n is [[L0, L1], [L1, L2]] + x [[L1, L2], [L2, L3]]:
    L0 = n, L1 = a1, L2 = a1^2 - 2 a2 and L3 = 3 a3 - 3 a1 a2 + a1^3 for the
    Eulerian numbers a_k.  Its endpoint is the root of an integer quadratic,
    det(A0 + x A1), checked by two 2x2 PSD tests: not PSD at the cell's lo,
    PSD at hi.  un(n) bounds |leftmost root| from below via palindromicity.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a1, a2, a3 = (int(univariate_eulerian(n).coefficient(k)) for k in (1, 2, 3))
    l0, l1, l2, l3 = n, a1, a1 * a1 - 2 * a2, 3 * a3 - 3 * a1 * a2 + a1**3
    det = [l1 * l3 - l2 * l2, l0 * l3 - l1 * l2, l0 * l2 - l1 * l1]
    # det = 0 at n = 1, where the pencil is (1 + x) J: take J's 1x1 block L0 + x L1.
    f = _primitive(_strip(det) if any(det) else [l1, l0])
    one = _rightmost_interval(f)
    f, intervals = (f, [one]) if one else _isolate(f, nonpositive=True)
    # The endpoint is ~2^-(n+1): its reciprocal widens the cell ~2^(2n+2)-fold.
    x = _refine_root(f, *intervals[-1], prec + 2 * n + 16, exact=False)
    rows = [[l0, l1], [l1, l2], [l1, l2], [l2, l3]]
    if _is_psd_at(rows, x.lo) or not _is_psd_at(rows, x.hi):
        raise ArithmeticError(f"un({n}) endpoint cell ({x.lo}, {x.hi}] fails its PSD tests")
    return (-x).reciprocal()


@lru_cache(maxsize=None)
def eulerian_un(n: int, prec: int) -> AlgebraicBound:
    """Certified un(n), once per (n, prec): both kinds at one n share it."""
    return univariate_bound(n, prec)


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


def bound_report(
    n: int, kind: str, y_policy: str = "paper", prec: int = DEFAULT_PREC
) -> BoundReport:
    """The linearized bound for one n and vector kind.

    ``y_policy`` selects the linearization parameter: "paper" (the
    family's reference choice, see ``paper_y``) or "numeric-optimal"
    (maximize N/D over the vector's own quadratics).  The bound is sound
    against x_min and the extreme roots of A_n, which depend on n alone:
    ``spectra.psd_interval_left`` and ``spectra.extreme_roots`` give them.
    """
    d_q, n_q = eulerian_guess_quadratics(n, kind)
    if y_policy not in ("paper", "numeric-optimal"):
        raise ValueError(f"unknown y policy {y_policy!r}")
    if not any(_critical_coefficients(n, kind)):
        # N/D does not depend on y (n = 1, where D = N), so every y is optimal.
        y = AlgebraicBound.exact(0)
    elif y_policy == "paper":
        # Guard bits: pencil entries grow like 8^n, so evaluating the
        # quadratics at an interval y loses about 3n bits of width.
        y = paper_y(n, kind, prec + 3 * n + 64)
    else:
        y, _ = optimize_y_numeric(n, kind, prec)
    d_val = d_q.at(y)
    n_val = n_q.at(y)
    mult = n_val / d_val
    un = eulerian_un(n, prec)
    return BoundReport(
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
    )


def optimize_y_numeric(
    n: int, kind: str, prec: int = DEFAULT_PREC
) -> tuple[AlgebraicBound, AlgebraicBound]:
    """Maximize N(y)/D(y) over y for the vector's own quadratics.

    Every real critical point is evaluated (only those with certified
    D > 0 and N > 0 are admissible bounds); the y -> infinity limit
    N.c2/D.c2, attained by the degenerate vector e_0, is checked as the
    endpoint competitor but never wins at desk scale.
    """
    d_q, n_q = eulerian_guess_quadratics(n, kind)
    best: tuple[AlgebraicBound, AlgebraicBound] | None = None
    for y in _critical_points(*_critical_coefficients(n, kind), prec + 3 * n + 64):
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
        raise ValueError("need at least 3 same-sign nonzero entries")
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
