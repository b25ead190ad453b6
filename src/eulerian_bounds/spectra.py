"""Exact-sign numerics on the diagonal pencil.

Three certified quantities live here:

- the left endpoint x_min of the PSD interval of a diagonal pencil, read
  off the roots of the integer polynomial det(A0 + x A_sum) and certified
  by two exact PSD tests; the tests, the determinant and the rank all
  come from the fraction-free elimination kernel of ``pencil`` (entries
  grow like 8^n, so floating eigensolvers lose certification long before
  the desk-scale range ends; exact sign tests do not);
- an approximate kernel vector of the pencil at that boundary, computed
  with extended-precision floats, with the exact corank there read off
  the multiplicity of x_min as a root of the same determinant;
- enclosures of the extreme (leftmost / rightmost) real roots of a
  real-rooted univariate polynomial, via exact root isolation, each
  re-checked for a sign change before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from sympy.polys.densebasic import dup_strip
from sympy.polys.domains import ZZ
from sympy.polys.rootisolation import dup_isolate_real_roots_sqf
from sympy.polys.sqfreetools import dup_sqf_list, dup_sqf_part

from .enclosure import DEFAULT_PREC, AlgebraicBound
from .eulerian import UnivariatePolynomial
from .pencil import DiagonalPencil, _bareiss, _integer_rows, psd_certificate

__all__ = [
    "KernelVector",
    "psd_interval_left",
    "boundary_kernel_vector",
    "extreme_roots",
    "DEFAULT_PREC",
]

def _is_psd_at(p: DiagonalPencil, x: Fraction) -> bool:
    return psd_certificate(p.at(x)).is_psd


def _det(a: list[list[int]]) -> int:
    # The last Bareiss pivot, signed by the parity of the pivot-row order;
    # fewer pivots than rows means a singular matrix.
    pivots = list(_bareiss(a))
    if len(pivots) < len(a):
        return 0
    order = [i for _, i, _ in pivots]
    inversions = sum(x > y for k, x in enumerate(order) for y in order[k + 1:])
    return (-1) ** inversions * pivots[-1][2][-1] if pivots else 1


def _det_polynomial(a0, a_sum) -> list[int]:
    # Descending integer coefficients of det(a0 + x a_sum) up to a positive
    # factor, degree <= s: values at x = 0..s, Newton forward differences
    # (the j-th is divisible by j!), then Horner in the falling factorials.
    s = len(a0)
    rows = _integer_rows(a0 + a_sum)
    a0, a_sum, newton = rows[:s], rows[s:], []
    values = [
        _det([[u + k * v for u, v in zip(r0, r1)] for r0, r1 in zip(a0, a_sum)])
        for k in range(s + 1)
    ]
    for j in range(s + 1):
        newton.append(values[0] // math.factorial(j))
        values = [b - a for a, b in zip(values, values[1:])]
    desc = [newton[s]]
    for j in range(s - 1, -1, -1):
        desc = [c - j * d for c, d in zip(desc + [0], [0] + desc)]
        desc[-1] += newton[j]
    return desc


def _range_restriction(a0, a_sum) -> list[list[list[Fraction]]]:
    # The Bareiss pivot rows b_1..b_r of [a0; a_sum] span the complement of
    # the common kernel, which every A0 + x A_sum kills; the congruence
    # B M B^T therefore keeps the PSD status of each M.
    basis = [row for _, _, row in _bareiss(a0 + a_sum)]
    return [[[sum(bi * mij * cj for bi, row in zip(b, m) for mij, cj in zip(row, c))
              for c in basis] for b in basis] for m in (a0, a_sum)]


@lru_cache(maxsize=1)
def _boundary_polynomial(p: DiagonalPencil) -> tuple[tuple[int, ...], int]:
    # det(A0 + x A_sum) up to a positive factor, taken on the complement
    # of the common kernel when it vanishes identically, and the dimension
    # of that kernel.  All zero when the restriction is singular too.
    # Cached for the last pencil, so the corank after psd_interval_left
    # (boundary_kernel_vector) reuses the determinant instead of redoing it.
    a0, a_sum = p.a0.entries, p.a_sum.entries
    desc = _det_polynomial(a0, a_sum)
    if any(desc):
        return tuple(desc), 0
    b0, b_sum = _range_restriction(a0, a_sum)
    return tuple(_det_polynomial(b0, b_sum)), len(a0) - len(b0)


def _fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def _isolate(
    desc: list[int], sup=None
) -> tuple[list[int], list[tuple[Fraction, Fraction]]]:
    # The squarefree part of an integer polynomial (descending
    # coefficients) and the isolating intervals of its real roots <= sup,
    # left to right, from exact continued-fraction isolation.
    fs = dup_sqf_part(dup_strip([ZZ(c) for c in desc]), ZZ)
    intervals = dup_isolate_real_roots_sqf(fs, ZZ, sup=sup, fast=True)
    return [int(c) for c in fs], [(_fraction(a), _fraction(b)) for a, b in intervals]


def psd_interval_left(p: DiagonalPencil, prec: int = DEFAULT_PREC) -> AlgebraicBound:
    """Enclose x_min = inf{x : A0 + x A_sum is PSD} to width 2**-prec.

    The PSD set on the line is an interval containing 0 on which, off the
    common kernel of A0 and A_sum, the pencil is nonsingular except at its
    ends; so x_min is a nonpositive root of f(x) = det(A0 + x A_sum) taken
    on that complement.  The roots of f are isolated exactly and walked
    right to left: the first whose enclosure is not PSD at ``lo`` is
    x_min.  The answer rests only on the two exact tests, not PSD at
    ``lo`` and PSD at ``hi``, so x_min lies in (lo, hi].
    """
    if prec < 16:
        raise ValueError("prec must be >= 16")
    if not _is_psd_at(p, Fraction(0)):
        raise ValueError("A0 is not PSD")
    desc, _ = _boundary_polynomial(p)
    if not any(desc):
        # Still singular everywhere: the PSD set has no interior, so it is {0}.
        desc = [1, 0]
    desc_sqf, intervals = _isolate(desc, sup=0)
    tol = Fraction(1, 2**prec)
    for a, b in reversed(intervals):
        enc = _refine_root(desc_sqf, a, b, tol, exact=False)
        if not _is_psd_at(p, enc.lo):
            if not _is_psd_at(p, enc.hi):
                raise ArithmeticError("x_min enclosure is not PSD at hi")
            return enc
    raise ValueError("unbounded below: pencil PSD left of every determinant root")


@dataclass(frozen=True)
class KernelVector:
    """Approximate null vector of the pencil at its PSD boundary.

    Entries are extended-precision floats; ``normalization`` records
    whether the final entry was scaled to 1 or, when that entry is
    negligible, the vector was scaled by its sup norm with the last
    nonzero entry positive.  ``degenerate`` flags an exact corank > 1 of
    the pencil at x_min.
    """

    entries: tuple[mpmath.mpf, ...]
    normalization: str
    degenerate: bool
    residual: mpmath.mpf
    prec: int


def boundary_kernel_vector(p: DiagonalPencil, prec: int = DEFAULT_PREC) -> KernelVector:
    """Kernel direction of A0 + x A_sum at its PSD boundary x_min.

    x_min is enclosed (``psd_interval_left``) at least to 2**-prec and
    tightly enough that the distance to the true boundary cannot push the
    smallest singular value above the residual target 2**(-prec/2); the
    singular triple is then computed at 2*prec working bits.

    The corank behind ``degenerate`` is exact.  For x_min < 0 the PSD
    interval has interior points, where the pencil is positive definite
    off the common kernel K of A0 and A_sum; so the corank at x_min is
    dim K plus the multiplicity of x_min as a root of the determinant
    taken off K.  For x_min = 0 the matrix is A0 itself.
    """
    s = p.size
    norm_bound = s * max(Fraction(1), p.a_sum.max_abs_entry())
    width = Fraction(1, 2 ** (prec // 2)) / (4 * norm_bound)
    bits = (width.denominator // width.numerator).bit_length()
    x = psd_interval_left(p, max(prec, bits))
    matrix = p.at(x.midpoint)

    with mpmath.workprec(2 * prec + 32):
        a = mpmath.matrix(s, s)
        for i in range(s):
            for j in range(s):
                e = matrix.entry(i, j)
                a[i, j] = mpmath.mpf(e.numerator) / mpmath.mpf(e.denominator)
        _, sigma, vt = mpmath.svd_r(a)
        order = sorted(range(s), key=lambda k: abs(sigma[k]))
        v = [vt[order[0], j] for j in range(s)]

        sup = max(abs(c) for c in v)
        if abs(v[-1]) >= sup * mpmath.mpf(2) ** (-(prec // 4)):
            v = [c / v[-1] for c in v]
            normalization = "last-entry"
        else:
            last_nonzero = max(
                (j for j in range(s) if abs(v[j]) > sup * mpmath.mpf(2) ** (-prec)),
                default=s - 1,
            )
            sign = mpmath.mpf(1) if v[last_nonzero] >= 0 else mpmath.mpf(-1)
            v = [c / (sign * sup) for c in v]
            normalization = "sup"

        residual = mpmath.norm(a * mpmath.matrix(v)) / mpmath.norm(mpmath.matrix(v))
        if residual > mpmath.mpf(2) ** (-(prec // 2)):
            raise ArithmeticError(
                f"kernel residual {mpmath.nstr(residual, 8)} exceeds 2^-{prec // 2}"
            )
        return KernelVector(
            entries=tuple(v),
            normalization=normalization,
            degenerate=_boundary_corank(p, x) > 1,
            residual=residual,
            prec=prec,
        )


def _sign_at(desc: list[int], point: Fraction) -> int:
    # Sign of p(num/den) from the integer value p(num/den) * den^deg.
    num, den = point.numerator, point.denominator
    acc = desc[0]
    dpow = 1
    for c in desc[1:]:
        dpow *= den
        acc = acc * num + c * dpow
    return (acc > 0) - (acc < 0)


def _deflate(desc: list[int], root: Fraction) -> list[int]:
    # Exact synthetic division by (x - root); the remainder must vanish.
    quot: list[Fraction] = []
    acc = Fraction(0)
    for c in desc:
        acc = acc * root + c
        quot.append(acc)
    if quot.pop() != 0:
        raise ValueError(f"{root} is not a root")
    return _integer_rows([quot])[0]


def _root_multiplicity(desc: list[int], enc: AlgebraicBound) -> int:
    # Multiplicity of the one root of desc in (lo, hi]: the power of the
    # squarefree factor that vanishes there (a root at lo is deflated).
    _, factors = dup_sqf_list(dup_strip([ZZ(c) for c in desc]), ZZ)
    for g, k in factors:
        g = [int(c) for c in g]
        if _sign_at(g, enc.hi) == 0:
            return k
        while _sign_at(g, enc.lo) == 0:
            g = _deflate(g, enc.lo)
        if _sign_at(g, enc.lo) != _sign_at(g, enc.hi):
            return k
    raise ArithmeticError("no determinant root in the x_min enclosure")


def _boundary_corank(p: DiagonalPencil, x: AlgebraicBound) -> int:
    # Exact corank of the pencil at x_min in (x.lo, x.hi], by the rule in
    # boundary_kernel_vector's docstring.
    desc, kernel_dim = _boundary_polynomial(p)
    if x.hi == 0 and _sign_at(desc, x.hi) == 0:  # x_min = 0: the matrix is A0
        return p.size - len(list(_bareiss(p.a0.entries)))
    return kernel_dim + _root_multiplicity(desc, x)


def _refine_root(
    desc: list[int], lo: Fraction, hi: Fraction, tol: Fraction, exact: bool = True
) -> AlgebraicBound:
    # Bisect a bracket around the single root inside the open isolating
    # interval.  An endpoint may be a *different* root of the polynomial
    # (isolating intervals share endpoints); deflating it restores a
    # clean sign change.  The bisection path is deterministic, so
    # enclosures at higher precision nest inside earlier ones.  With
    # ``exact`` false a rational root r is never returned as a point: it
    # stays the hi end of a bracket whose lo is not a root.
    if lo == hi:
        return AlgebraicBound.exact(lo) if exact else AlgebraicBound(lo - tol, lo)
    while _sign_at(desc, lo) == 0:
        desc = _deflate(desc, lo)
    while _sign_at(desc, hi) == 0:
        desc = _deflate(desc, hi)
    slo = _sign_at(desc, lo)
    if slo == _sign_at(desc, hi):
        raise ValueError("interval endpoints do not bracket a sign change")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        smid = _sign_at(desc, mid)
        if smid == 0 and exact:
            return AlgebraicBound.exact(mid)
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return AlgebraicBound(lo, hi)


def extreme_roots(
    p: UnivariatePolynomial, prec: int = DEFAULT_PREC
) -> tuple[AlgebraicBound, AlgebraicBound]:
    """Enclosures of the leftmost and rightmost real roots.

    The input must be real-rooted with every root negative (the Eulerian
    situation).  Disjoint isolating intervals come from exact
    continued-fraction isolation of the squarefree part; the extreme ones
    are then narrowed to 2**-prec by sign bisection with exact
    big-integer evaluation, so the enclosures are certified.
    """
    if p.degree < 1:
        raise ValueError("constant polynomial has no roots")
    desc = _integer_rows([list(reversed(p.coeffs))])[0]
    if desc[-1] == 0:
        raise ValueError("roots are not all negative: 0 is a root")
    desc_sqf, intervals = _isolate(desc)
    if len(intervals) != len(desc_sqf) - 1:
        raise ValueError(
            f"not real-rooted: {len(intervals)} distinct real roots, "
            f"squarefree degree {len(desc_sqf) - 1}"
        )
    tol = Fraction(1, 2**prec)
    left = _refine_root(desc_sqf, *intervals[0], tol)
    right = _refine_root(desc_sqf, *intervals[-1], tol)
    if right.hi > 0:
        raise ValueError("roots are not all negative")
    for enc in (left, right):
        slo, shi = _sign_at(desc_sqf, enc.lo), _sign_at(desc_sqf, enc.hi)
        exact_root = enc.lo == enc.hi and slo == 0
        if not exact_root and slo * shi >= 0:
            raise ArithmeticError(f"root enclosure [{enc.lo}, {enc.hi}] has no sign change")
    return left, right
