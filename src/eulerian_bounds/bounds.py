"""Guess-vector linearizations and root-bound comparisons.

A fixed vector v turns the diagonal pencil PSD condition into the scalar
inequality v^T A0 v + x * v^T A_sum v >= 0, i.e. a certified bound
x >= -D/N on the PSD interval (hence on the rightmost Eulerian root),
equivalently N/D <= |leftmost root| by palindromicity.  Two families of
vectors are built in, both with a free first entry y:

- "old":  (y, 1, -1, ..., -1),
- "new":  (y, (-2^(m-i))_{i=3..m}, 0, 1/2, 1, ..., 1) for n = 2m.

D(y) and N(y) are exact quadratics in y.  The optimal y is a quadratic
surd; the new family deliberately reuses the optimum derived from the
old family's quadratics (with the opposite sign), which is the choice
that makes its D and N positive.

The univariate reference bound un(n) comes from the 2x2 pencil of the
univariate Eulerian polynomial; its PSD endpoint is a quadratic root.
``ratio_diagnostic`` turns sequences of bound differences into
consecutive-ratio trend data for the asymptotic separation claims
(old: differences decay like (3/4)^n; new: they grow like (9/8)^m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

from .enclosure import (
    DEFAULT_PREC,
    AlgebraicBound,
    quadratic_root_enclosure,
)
from .eulerian import univariate_eulerian
from .pencil import (
    DiagonalPencil,
    SymmetricRationalMatrix,
    eulerian_diagonal_pencil,
    psd_certificate,
)
from .spectra import extreme_roots, psd_interval_left

__all__ = [
    "GuessVector",
    "QuadraticInY",
    "BoundReport",
    "RatioDiagnostic",
    "guess_vector",
    "linearized_DN",
    "eulerian_guess_quadratics",
    "optimal_y",
    "paper_y",
    "univariate_bound",
    "univariate_pencil_endpoint",
    "bound_report",
    "optimize_y_numeric",
    "ratio_diagnostic",
]

Rat = Union[int, Fraction]

KINDS = ("old", "new")


@dataclass(frozen=True)
class GuessVector:
    """A linearizing vector in R^(n+1) whose first entry may be symbolic.

    ``entries[0] is None`` marks the free parameter y; all other entries
    are exact rationals.
    """

    kind: str
    n: int
    entries: tuple[Optional[Fraction], ...]

    def __post_init__(self):
        if len(self.entries) != self.n + 1:
            raise ValueError("vector length must be n + 1")
        if any(e is None for e in self.entries[1:]):
            raise ValueError("only the first entry may be symbolic")

    @property
    def symbolic(self) -> bool:
        return self.entries[0] is None

    def with_y(self, y: Rat) -> tuple[Fraction, ...]:
        head = Fraction(y) if self.symbolic else self.entries[0]
        return (head,) + self.entries[1:]


def guess_vector(kind: str, n: int, y: Optional[Rat] = None) -> GuessVector:
    """Build an old- or new-family vector; ``y=None`` keeps it symbolic.

    >>> guess_vector("old", 4).entries[1:]
    (Fraction(1, 1), Fraction(-1, 1), Fraction(-1, 1), Fraction(-1, 1))
    >>> guess_vector("new", 10).entries[1:4]
    (Fraction(-4, 1), Fraction(-2, 1), Fraction(-1, 1))
    """
    first = None if y is None else Fraction(y)
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
    return GuessVector(kind=kind, n=n, entries=(first,) + tail)


@dataclass(frozen=True)
class QuadraticInY:
    """c2 y^2 + c1 y + c0 with exact rational coefficients."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def __call__(self, y: Rat) -> Fraction:
        y = Fraction(y)
        return self.c2 * y * y + self.c1 * y + self.c0

    def at(self, y: AlgebraicBound) -> AlgebraicBound:
        return self.c2 * (y * y) + self.c1 * y + AlgebraicBound.exact(self.c0)


def linearized_DN(
    p: DiagonalPencil, v: GuessVector
) -> tuple[QuadraticInY, QuadraticInY]:
    """Expand D = v^T A0 v and N = v^T A_sum v as quadratics in y.

    Only the first entry is symbolic, so the y^2 coefficient is the
    matrix corner and the y coefficient is twice the first row paired
    with the concrete tail; a fully concrete v gives degenerate
    quadratics (c2 = c1 = 0).
    """
    if len(v.entries) != p.size:
        raise ValueError(
            f"vector length {len(v.entries)} does not match pencil size {p.size}"
        )

    def expand(mat: SymmetricRationalMatrix) -> QuadraticInY:
        tail = v.entries[1:]
        row0 = mat.entries[0]
        cross = sum(row0[r] * tail[r - 1] for r in range(1, mat.size))
        body = Fraction(0)
        for r in range(1, mat.size):
            vr = tail[r - 1]
            if vr:
                row = mat.entries[r]
                body += vr * sum(
                    row[c] * tail[c - 1] for c in range(1, mat.size) if tail[c - 1]
                )
        if v.symbolic:
            return QuadraticInY(c2=row0[0], c1=2 * cross, c0=body)
        y0 = v.entries[0]
        return QuadraticInY(
            c2=Fraction(0),
            c1=Fraction(0),
            c0=row0[0] * y0 * y0 + 2 * y0 * cross + body,
        )

    return expand(p.a0), expand(p.a_sum)


@lru_cache(maxsize=None)
def eulerian_x_min(n: int, prec: int) -> AlgebraicBound:
    """Certified x_min of the Eulerian diagonal pencil, once per (n, prec)."""
    return psd_interval_left(eulerian_diagonal_pencil(n), prec)


@lru_cache(maxsize=None)
def eulerian_guess_quadratics(n: int, kind: str) -> tuple[QuadraticInY, QuadraticInY]:
    return linearized_DN(eulerian_diagonal_pencil(n), guess_vector(kind, n))


def _critical_coefficients(
    d: QuadraticInY, nq: QuadraticInY
) -> tuple[Fraction, Fraction, Fraction]:
    # N'D - N D' is exactly quadratic: the cubic coefficients cancel
    # (2 n2 d2 - 2 d2 n2 = 0), leaving a y^2 + b y + c.
    a = nq.c2 * d.c1 - nq.c1 * d.c2
    b = 2 * (nq.c2 * d.c0 - nq.c0 * d.c2)
    c = nq.c1 * d.c0 - nq.c0 * d.c1
    return a, b, c


def optimal_y(
    kind: str,
    n: int,
    d: QuadraticInY,
    nq: QuadraticInY,
    prec: int = DEFAULT_PREC,
) -> AlgebraicBound:
    """The linearization parameter used by each vector family.

    The critical points of N/D in y are the roots of a y^2 + b y + c
    built from the two quadratics.  The old family takes
    (-b - sqrt(b^2-4ac)) / (2a) on its own quadratics; the new family
    takes the exact opposite value, (b + sqrt(b^2-4ac)) / (2a), still
    from the OLD family's (a, b, c) at the same n = 2m, so callers must
    pass old-vector quadratics for kind="new" (``paper_y`` does).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown vector kind {kind!r}")
    a, b, c = _critical_coefficients(d, nq)
    if a == 0:
        raise ZeroDivisionError("degenerate optimizer: leading coefficient is 0")
    root = quadratic_root_enclosure(a, b, c, "-", prec)
    return root if kind == "old" else -root


def paper_y(n: int, kind: str, prec: int = DEFAULT_PREC) -> AlgebraicBound:
    """The y each family is analyzed at; always from old-vector quadratics."""
    d_old, n_old = eulerian_guess_quadratics(n, "old")
    return optimal_y(kind, n, d_old, n_old, prec)


def _univariate_diagonal(n: int) -> tuple[DiagonalPencil, tuple[Fraction, ...]]:
    p = univariate_eulerian(n)
    a1 = p.coefficient(1)
    a2 = p.coefficient(2)
    a3 = p.coefficient(3)
    l1 = Fraction(n)
    lx = a1
    lx2 = -2 * a2 + a1 * a1
    lx3 = 3 * a3 - 3 * a1 * a2 + a1**3
    a0 = SymmetricRationalMatrix.from_rows([[l1, lx], [lx, lx2]])
    asum = SymmetricRationalMatrix.from_rows([[lx, lx2], [lx2, lx3]])
    return DiagonalPencil(a0=a0, a_sum=asum), (l1, lx, lx2, lx3)


def univariate_pencil_endpoint(n: int, prec: int = DEFAULT_PREC) -> AlgebraicBound:
    """Left PSD endpoint of the 2x2 pencil of the univariate polynomial.

    det(A0 + x A1) is quadratic in x and positive at 0, so the endpoint
    is its larger root, enclosed as a quadratic surd, not PSD at ``lo``
    and PSD at ``hi``; the degenerate det = 0 case (n = 1) falls back to
    ``psd_interval_left``.
    """
    dp, (l1, lx, lx2, lx3) = _univariate_diagonal(n)
    c2 = lx * lx3 - lx2 * lx2
    c1 = l1 * lx3 - lx * lx2
    c0 = l1 * lx2 - lx * lx
    if c2 == 0:
        return psd_interval_left(dp, prec)
    root = quadratic_root_enclosure(c2, c1, c0, "+", prec)
    if not root.is_certainly_negative():
        raise ArithmeticError("univariate pencil endpoint is not negative")
    if not psd_certificate(dp.at(root.hi)).is_psd:
        raise ArithmeticError("endpoint enclosure fails the exact PSD guard")
    if root.lo != root.hi and psd_certificate(dp.at(root.lo)).is_psd:
        raise ArithmeticError("endpoint enclosure is PSD at lo")
    return root


def univariate_bound(n: int, prec: int = DEFAULT_PREC) -> AlgebraicBound:
    """un(n): the reciprocal magnitude of the univariate pencil endpoint.

    A lower bound on |leftmost root| via palindromicity (a lower bound
    for the rightmost root flips into an upper bound for the leftmost).
    """
    # The endpoint is ~2^-(n+1); taking its reciprocal amplifies the
    # enclosure width by ~2^(2n+2), hence the guard bits.
    guard = prec + 2 * n + 16
    return (-univariate_pencil_endpoint(n, guard)).reciprocal()


@dataclass(frozen=True)
class BoundReport:
    """Everything the bound pipeline knows about one (n, kind) pair."""

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
    x_min: Optional[AlgebraicBound] = None
    q_left: Optional[AlgebraicBound] = None
    q_right: Optional[AlgebraicBound] = None


def bound_report(
    n: int,
    kind: str,
    y_policy: str = "paper",
    prec: int = DEFAULT_PREC,
    given_y: Optional[Rat] = None,
    with_endpoint: bool = True,
    with_roots: bool = True,
) -> BoundReport:
    """Run the full pipeline for one n and vector kind.

    ``y_policy`` selects the linearization parameter: "paper" (the
    family's reference choice, see ``paper_y``), "numeric-optimal"
    (maximize N/D over the vector's own quadratics), or "given" (an
    explicit rational).
    ``with_endpoint`` / ``with_roots`` control the expensive exact
    pencil-endpoint and root-enclosure fields.
    """
    d_q, n_q = eulerian_guess_quadratics(n, kind)
    if y_policy == "given":
        if given_y is None:
            raise ValueError("y_policy='given' needs given_y")
        y = AlgebraicBound.exact(given_y)
    elif y_policy not in ("paper", "numeric-optimal"):
        raise ValueError(f"unknown y policy {y_policy!r}")
    elif not any(_critical_coefficients(d_q, n_q)):
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
    lin = -(d_val / n_val)
    mult = n_val / d_val
    un = univariate_bound(n, prec)
    diff = mult - un
    x_min = eulerian_x_min(n, prec) if with_endpoint else None
    q_left = q_right = None
    if with_roots:
        q_left, q_right = extreme_roots(univariate_eulerian(n), prec)
    return BoundReport(
        n=n,
        kind=kind,
        y_policy=y_policy,
        prec=prec,
        y=y,
        d_value=d_val,
        n_value=n_val,
        lin_bound=lin,
        mult=mult,
        un=un,
        difference=diff,
        x_min=x_min,
        q_left=q_left,
        q_right=q_right,
    )


def optimize_y_numeric(
    n: int, kind: str, prec: int = DEFAULT_PREC
) -> tuple[AlgebraicBound, AlgebraicBound]:
    """Maximize N(y)/D(y) over y for the vector's own quadratics.

    Both critical branches are evaluated (only those with certified
    D > 0 and N > 0 are admissible bounds); the y -> infinity limit
    N.c2/D.c2, attained by the degenerate vector e_0, is checked as the
    endpoint competitor but never wins at desk scale.
    """
    guard = prec + 3 * n + 64
    d_q, n_q = eulerian_guess_quadratics(n, kind)
    a, b, c = _critical_coefficients(d_q, n_q)
    if a == 0:
        raise ZeroDivisionError("degenerate optimizer: leading coefficient is 0")
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ArithmeticError(f"negative discriminant {disc} for n={n} kind={kind}")
    best: Optional[tuple[AlgebraicBound, AlgebraicBound]] = None
    for branch in ("-", "+"):
        y = quadratic_root_enclosure(a, b, c, branch, guard)
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
        at_infinity = n_q.c2 / d_q.c2
        if best[1].certainly_lt(AlgebraicBound.exact(at_infinity)):
            raise ArithmeticError(
                "ratio supremum escapes to infinity; no finite optimizer"
            )
    return best


@dataclass(frozen=True)
class RatioDiagnostic:
    """Consecutive-ratio trend data for a sequence of (index, value).

    Ratios pair adjacent entries within maximal runs of same-sign
    nonzero values and are attached to the later index; runs shorter
    than two contribute none.  ``flagged`` reports that a sign change or
    zero interrupted the sequence.  When a prefactor is given, the
    normalization track holds value / (prefactor * ratio^index).
    """

    entries: tuple[tuple[int, float], ...]
    target_ratio: float
    target_prefactor: Optional[float]
    ratios: tuple[tuple[int, float], ...]
    relative_deviations: tuple[tuple[int, float], ...]
    normalization_track: tuple[tuple[int, float], ...]
    flagged: bool


def ratio_diagnostic(
    seq: Iterable,
    target_ratio: float,
    target_prefactor: Optional[float] = None,
) -> RatioDiagnostic:
    """Trend diagnostics against a geometric target c * r^index.

    ``seq`` is either (index, value) pairs or plain values (indexed from
    0).  Requires at least one run of 3 same-sign nonzero entries.
    """
    items: list[tuple[int, float]] = []
    for pos, item in enumerate(seq):
        if isinstance(item, tuple) and len(item) == 2:
            items.append((int(item[0]), float(item[1])))
        else:
            items.append((pos, float(item)))
    if len(items) < 3:
        raise ValueError("need at least 3 entries")

    runs: list[list[tuple[int, float]]] = []
    current: list[tuple[int, float]] = []
    for idx, val in items:
        if val == 0 or (current and (val > 0) != (current[-1][1] > 0)):
            if current:
                runs.append(current)
            current = []
        if val != 0:
            current.append((idx, val))
    if current:
        runs.append(current)
    if not runs or max(len(r) for r in runs) < 3:
        raise ValueError("need at least 3 same-sign nonzero entries")
    flagged = len(runs) > 1 or any(v == 0 for _, v in items)

    ratios: list[tuple[int, float]] = []
    for run in runs:
        for (i0, v0), (i1, v1) in zip(run, run[1:]):
            ratios.append((i1, v1 / v0))
    deviations = tuple(
        (i, abs(r - target_ratio) / abs(target_ratio)) for i, r in ratios
    )
    track: tuple[tuple[int, float], ...] = ()
    if target_prefactor is not None:
        track = tuple(
            (i, v / (target_prefactor * target_ratio**i)) for i, v in items if v
        )
    return RatioDiagnostic(
        entries=tuple(items),
        target_ratio=float(target_ratio),
        target_prefactor=None if target_prefactor is None else float(target_prefactor),
        ratios=tuple(ratios),
        relative_deviations=deviations,
        normalization_track=track,
        flagged=flagged,
    )
