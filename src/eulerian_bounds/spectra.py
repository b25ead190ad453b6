"""Exact-sign numerics on the diagonal pencil.

Three certified quantities live here:

- the left endpoint x_min of the PSD interval of a diagonal pencil, a
  root of the integer polynomial det(A0 + x A_sum) certified by two exact
  PSD tests, which with the determinant's values come from the symmetric
  fraction-free elimination of ``pencil`` on the upper band of a congruent
  copy (entries grow like 8^n, so floating eigensolvers lose certification
  long before the desk-scale range ends; exact sign tests do not);
- an approximate kernel vector at that boundary: the integer witness of
  the banded PSD test just left of it, mapped back to the pencil, flagged
  degenerate (corank > 1) when a common kernel or a repeated root shows it;
- enclosures of the extreme (leftmost / rightmost) real roots of a
  univariate polynomial whose real roots are negative, each isolated by
  Descartes counts and re-checked for a sign change before it is returned.

Each root enclosure is the dyadic cell [k, k+1] / 2^prec holding the
root, clipped to its isolating interval: a function of the root and
prec alone, nesting as prec grows.  Quadratic interval refinement finds
k, reading each sign, the interval ends' and the re-check's too, off the
polynomial scaled by 2^prec at a grid integer (an end off the grid
excepted): once its secant guesses trap the root, each step squares the
factor by which the cell shrinks, so exact evaluations grow like log2(prec).
It is the one refinement primitive of the package: x_min, the extreme
roots, the univariate endpoint and the linearization parameter y of
``bounds`` (a root of an integer quadratic) are all such cells.

A rightmost root takes a short search of Descartes counts: if f(a + w)
has one sign variation, f has exactly one real root above a, and a sign
change of f on (a, b), b < 0, isolates it there.  It finds x_min, the
determinant's rightmost root, and the extreme roots: the leftmost by the
same search on the reversed coefficients or, for a palindromic input, as
the reciprocal of the rightmost.  Any other input has every root isolated,
over the integers: the squarefree part f / gcd(f, f') by a primitive-PRS
gcd (skipped when a gcd modulo a prime already certifies the input
squarefree), then a Descartes bisection of dyadic intervals below a
power-of-two root bound, on the same counts and Taylor shifts by 1.
"""

from __future__ import annotations

import decimal
import itertools
import math
from fractions import Fraction

from ._record import Record
from .enclosure import DEFAULT_PREC, AlgebraicBound
from .eulerian import UnivariatePolynomial
from .pencil import DiagonalPencil, PsdResult, SymmetricRationalMatrix, psd_certificate
from .pencil import _back_substitute, _bareiss, _integer_form, _integer_rows, _ldl, _psd_upper

__all__ = [
    "KernelVector",
    "psd_interval_left",
    "psd_boundary",
    "boundary_kernel_vector",
    "extreme_roots",
    "DEFAULT_PREC",
]


def _pencil_rows(rows: list[list[int]], num: int, den: int) -> list[list[int]]:
    # den A0 + num A_sum from the cleared rows, full or upper band, of
    # [A0; A_sum]: a positive multiple of A0 + (num/den) A_sum, in integers.
    return [[den * u + num * v for u, v in zip(r0, r1)]
            for r0, r1 in zip(rows, rows[len(rows) // 2:])]


def _is_psd_at(rows: list[list[int]], x: Fraction) -> PsdResult:
    # Truthy exactly when A0 + x A_sum is PSD, for the cleared rows of
    # [A0; A_sum]; a witness refutes it too.  The dense test of un(n)'s 2x2 pencil.
    m = _pencil_rows(rows, x.numerator, x.denominator)
    return psd_certificate(SymmetricRationalMatrix(tuple(map(tuple, m))))


def _band_psd_at(band: list[list[int]], x: Fraction) -> tuple[PsdResult, int]:
    # The PSD test of A0 + x A_sum on the integer upper band rows of [A0; A_sum],
    # and the determinant of its integer multiple if PSD (``_psd_upper``).
    return _psd_upper(_pencil_rows(band, x.numerator, x.denominator))


def _upper_band(rows: list[list[int]]) -> list[list[int]]:
    # Upper band rows [a_ii, ..., a_i,i+b] of both halves of [A0; A_sum], b read off.
    s = len(rows) // 2
    b = max((j - i % s for i, row in enumerate(rows) for j, v in enumerate(row) if v), default=0)
    return [row[i % s: i % s + b + 1] for i, row in enumerate(rows)]


def _det(upper: list[list[int]]) -> int:
    # The last pivot of _ldl on a symmetric matrix's upper band rows; a zero
    # row makes it singular, and a vanishing leading minor takes _bareiss_det.
    d, s = 1, len(upper)
    for col, rows in _ldl(upper):
        if not (d := rows[col][0]):
            full = [[0] * i + list(r) + [0] * (s - i - len(r)) for i, r in enumerate(upper)]
            return _bareiss_det([[full[min(i, j)][max(i, j)] for j in range(s)]
                                 for i in range(s)]) if any(rows[col]) else 0
    return d


def _bareiss_det(a: list[list[int]]) -> int:
    # The last Bareiss pivot, signed by the parity of the pivot-row order;
    # fewer pivots than rows means a singular matrix.
    pivots = list(_bareiss(a))
    order = [i for _, i, _ in pivots]
    sign = (-1) ** sum(x > y for k, x in enumerate(order) for y in order[k + 1:])
    return 0 if len(pivots) < len(a) else sign * pivots[-1][2][-1] if pivots else 1


def _det_polynomial(band: list[list[int]], at_zero: int) -> list[int]:
    # Descending integer coefficients of det(A0 + x A_sum) up to a positive factor,
    # degree <= s, for the integer upper band rows of [A0; A_sum]: values at x = 0..s
    # (det A0 given), Newton differences (the j-th divisible by j!), falling factorials.
    s, newton = len(band) // 2, []
    values = [at_zero] + [_det(_pencil_rows(band, k, 1)) for k in range(1, s + 1)]
    for j in range(s + 1):
        newton.append(values[0] // math.factorial(j))
        values = [b - a for a, b in zip(values, values[1:])]
    desc = [newton[s]]
    for j in range(s - 1, -1, -1):
        desc = [c - j * d for c, d in zip(desc + [0], [0] + desc)]
        desc[-1] += newton[j]
    return desc


_CUTS = ((2, 1, 2), (3, 2, 2), (1, 1, 1))  # (p, q, start) of T1, T2 and T3


def _banded(rows: list[list[int]]) -> list[list[int]]:
    # [T^T A0 T; T^T A_sum T] for the cleared rows [A0; A_sum]: T = T1 T2 T3, column
    # j >= start of each factor q e_j - p e_(j-1), annihilates (det T = 2^(s-2)) the
    # Eulerian entries' geometric terms in the column index, ratios 2, 3/2 and 1.
    def cut(row):  # row T: c_j -= 2 c_(j-1), c_j = 2 c_j - 3 c_(j-1), c_j -= c_(j-1)
        r = list(row)
        for p, q, start in _CUTS:
            for j in range(len(r) - 1, start - 1, -1):  # c_(j-1) still the old entry
                r[j] = q * r[j] - p * r[j - 1]
        return r
    s = len(rows) // 2
    return [cut(r) for half in (rows[:s], rows[s:]) for r in zip(*map(cut, half))]


def _unband(w) -> list[int]:
    # T w, a vector of the pencil, for a vector w of _banded's copy: T3, T2, T1 in turn.
    v = list(w)
    for p, q, start in reversed(_CUTS):
        for j in range(start, len(v)):  # column j is q e_j - p e_(j-1); v_j still the old entry
            v[j - 1] -= p * v[j]
            v[j] *= q
    return v


def _range_restriction(rows: list[list[int]]) -> list[list[int]]:
    # The Bareiss pivot columns J of the integer rows [A0; A_sum] are
    # independent, so R^J is a complement of the common kernel K, which
    # every M = A0 + x A_sum kills: v^T M v = u_J^T M_JJ u_J for v = u + k,
    # u in R^J, k in K.  The principal block M_JJ keeps M's PSD status, and
    # det(M_JJ) is det(B M B^T) for a basis B of K's complement up to a
    # positive constant.  Returned stacked, [A0_JJ; A_sum_JJ].
    cols, s = sorted(col for col, _, _ in _bareiss(rows)), len(rows) // 2
    return [[m[i][j] for j in cols] for m in (rows[:s], rows[s:]) for i in cols]


def _strip(f) -> list[int]:
    return list(f[next((k for k, c in enumerate(f) if c), len(f)):])


def _primitive(f: list[int]) -> list[int]:
    # Content divided out, leading coefficient made positive.
    g = math.gcd(*f) if f[0] > 0 else -math.gcd(*f)
    return [c // g for c in f]


def _derivative(f: list[int]) -> list[int]:
    return [(len(f) - 1 - k) * c for k, c in enumerate(f[:-1])]


def _gcd(f: list[int], g: list[int], p: int = 0) -> list[int]:
    # A gcd over GF(p) up to a unit when p is given; else the primitive
    # gcd over Z by the primitive PRS: pseudo-remainders, each divided by
    # its content so the coefficients stay small.
    while g:
        g = g if p else _primitive(g)
        inv = pow(g[0], -1, p) if p else 1
        while len(f) >= len(g):
            a, b = (f[0] * inv % p, 1) if p else (f[0], g[0])
            f = [b * u - a * v for u, v in zip(f[1:], g[1:] + [0] * (len(f) - len(g)))]
            f = _strip([c % p for c in f] if p else f)
        f, g = g, f
    return f if p else _primitive(f)


def _quo(f: list[int], g: list[int]) -> list[int]:
    # Exact quotient over Z: an inexact step stops the loop with f != 0.
    q = []
    while len(f) >= len(g) and f[0] % g[0] == 0:
        q.append(f[0] // g[0])
        f = [u - q[-1] * v for u, v in zip(f[1:], g[1:] + [0] * (len(f) - len(g)))]
    if any(f):
        raise ArithmeticError("inexact polynomial division")
    return q


def _squarefree(desc) -> list[int]:
    # The primitive squarefree part f / gcd(f, f') of a nonzero integer
    # polynomial (descending coefficients).  Fast path: gcd(f mod p,
    # f' mod p) = 1 for a prime p not dividing lc(f) certifies f squarefree,
    # since the primitive gcd(f, f') over Z reduces mod p, degree kept, to
    # a divisor of it.
    f, p = _primitive(_strip(desc)), 2**61 - 1
    df = _derivative(f)
    if f[0] % p and len(_gcd([c % p for c in f], [c % p for c in df], p)) == 1:
        return f
    return _quo(f, _gcd(f, df))


def _variations(f: list[int]) -> int:
    signs = [c > 0 for c in f if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _shift1(f: list[int]) -> list[int]:
    # Taylor shift f(x + 1): each pass is a running sum of a prefix.
    f = list(f)
    for i in range(len(f) - 1, 0, -1):
        f[: i + 1] = itertools.accumulate(f[: i + 1])
    return f


def _root_bound(f: list[int]) -> int:
    # u with every positive root of f below 2**u, for f with a sign
    # variation: Kioustelidis' bound 2 max (|a_k| / lc)^(1/k) over the
    # coefficients a_k of opposite sign to lc, from bit lengths.
    lead = f[0].bit_length()
    return 1 + max(
        -((lead - 1 - c.bit_length()) // k)
        for k, c in enumerate(f) if c and (c > 0) != (f[0] > 0)
    )


def _positive_roots(f: list[int]) -> set[tuple[Fraction, Fraction]]:
    # Descartes bisection (Vincent-Collins-Akritas) of the roots >= 0 of a
    # squarefree f, scaled to g(y) = f(2^u y) with its positive roots in (0, 1).
    # A piece (c, k) is x in 2^u (c, c + 1) / 2^k, x = 2^u (c + y) / 2^k for y in
    # (0, 1); (1 + y)^n g(1 / (1 + y)) counts its roots there.  Its halves are
    # 2^n g(y / 2) and that shifted by 1; a zero constant term is a root at the
    # piece's left end, which for a right half is the parent's midpoint.
    out: set[tuple[Fraction, Fraction]] = set()
    u = max(_root_bound(f), 0) if _variations(f) else 0
    stack = [([c << u * (len(f) - 1 - k) for k, c in enumerate(f)], 0, 0)]
    while stack:
        g, c, k = stack.pop()
        if g[-1] == 0:
            out.add((Fraction(c << u, 1 << k),) * 2)
            g = g[:-1]
        v = _variations(_shift1(g[::-1]))
        if v == 1:
            out.add((Fraction(c << u, 1 << k), Fraction(c + 1 << u, 1 << k)))
        elif v > 1:
            half = [a << j for j, a in enumerate(g)]
            stack += [(half, 2 * c, k + 1), (_shift1(half), 2 * c + 1, k + 1)]
    return out


def _isolate(
    desc: list[int], nonpositive: bool = False
) -> tuple[list[int], list[tuple[Fraction, Fraction]]]:
    # The squarefree part of an integer polynomial (descending
    # coefficients) and isolating intervals of its real roots (only those
    # <= 0 if ``nonpositive``), left to right, with dyadic ends.  A root at 0
    # or at a bisection midpoint r comes back as (r, r); every other
    # interval is open and holds one root; neighbours may share an endpoint.
    sqf = _squarefree(desc)
    n = len(sqf) - 1
    mirrored = _positive_roots([-c if (n - k) % 2 else c for k, c in enumerate(sqf)])
    positive = set() if nonpositive else _positive_roots(sqf)  # a root at 0: (0, 0) in both
    return sqf, sorted({(-b, -a) for a, b in mirrored} | positive)


def psd_interval_left(p: DiagonalPencil, prec: int = DEFAULT_PREC) -> AlgebraicBound:
    """Enclose x_min = inf{x : A0 + x A_sum is PSD} to width 2**-prec."""
    return psd_boundary(p, prec)[0]


def psd_boundary(
    p: DiagonalPencil, prec: int = DEFAULT_PREC
) -> tuple[AlgebraicBound, list[int], int, tuple[int, ...]]:
    """x_min as ``psd_interval_left`` encloses it, the determinant f it is a
    root of, the dimension of the common kernel f is taken off, and a witness.

    The PSD set on the line is an interval containing 0 on which, off the
    common kernel of A0 and A_sum, the pencil is nonsingular except at its
    ends; so x_min is a nonpositive root of f(x) = det(A0 + x A_sum) taken
    on that complement (descending integer coefficients, up to a positive
    factor).  f and the PSD tests at 0 (which gives f(0) = det A0 too), ``lo``
    and ``hi`` run on the upper band rows of the congruent copy ``_banded``.  A
    simple rightmost root of f below 0, isolated by ``_rightmost_interval``,
    is x_min: the pencil is positive definite from 0 down to it, and not PSD
    where f changes sign.  Any other f has its roots isolated and walked
    right to left: the first not PSD at its ``lo`` is x_min.  The answer
    rests only on the two exact tests, not PSD at ``lo`` and PSD at ``hi``,
    so x_min lies in (lo, hi]; the first one's integer witness w, a vector of
    the copy T^T M T, maps to T w (``_unband``), which refutes PSD at ``lo``.
    """
    if prec < 16:
        raise ValueError("prec must be >= 16")
    band = _upper_band(banded := _banded(_integer_rows(p.a0.entries + p.a_sum.entries)[0]))
    at_zero, a0_det = _band_psd_at(band, Fraction(0))
    if not at_zero:
        raise ValueError("A0 is not PSD")
    det, kernel_dim = _det_polynomial(band, a0_det), 0
    if not any(det):  # A0 and A_sum share a kernel: restrict to its complement.
        r = _upper_band(_range_restriction(banded))
        det, kernel_dim = _det_polynomial(r, _det(r[: len(r) // 2])), (len(band) - len(r)) // 2
    # Still singular everywhere: the PSD set has no interior, so it is {0}.
    one = _rightmost_interval(f := _primitive(_strip(det)) if any(det) else [1, 0])
    f, intervals = (f, [one]) if one else _isolate(f, nonpositive=True)
    for a, b in reversed(intervals):
        enc = _refine_root(f, a, b, prec, exact=False)
        if not (at_lo := _band_psd_at(band, enc.lo)[0]):
            if not _band_psd_at(band, enc.hi)[0]:
                raise ArithmeticError("x_min enclosure is not PSD at hi")
            return enc, det, kernel_dim, at_lo.witness
        if one:
            raise ArithmeticError("a simple rightmost determinant root is PSD at lo")
    raise ValueError("unbounded below: pencil PSD left of every determinant root")


class KernelVector(Record):
    """Approximate null vector of the pencil at its PSD boundary, in exact
    rationals (``boundary_kernel_vector``).  ``normalization`` records
    whether the final entry was scaled to 1 or, when that is negligible,
    the sup norm, with the last nonzero entry positive.  ``degenerate``
    flags an exact corank > 1 at x_min.  ``residual`` is ||M v|| / ||v|| at
    the boundary midpoint M, rounded up to a multiple of 2**(-2 prec)."""

    entries: tuple[Fraction, ...]
    normalization: str
    degenerate: bool
    residual: Fraction
    prec: int


def _null_vector(m: list[list[int]]) -> list[int]:
    # Lifted off the Bareiss echelon rows (zero left of their pivot), free columns 1.
    pivots = [(col, row) for col, _, row in _bareiss(m)]
    if len(pivots) == len(m):
        raise ArithmeticError("numerically singular boundary matrix is nonsingular")
    free = set(range(len(m))).difference(col for col, _ in pivots)
    return _back_substitute(pivots, dict.fromkeys(free, 1), len(m))


def _normalized(w: list[int], prec: int) -> tuple[list[Fraction], str]:
    # The final entry scaled to 1 or, when it is below sup * 2**(-prec/4),
    # the sup norm to 1 with the last entry above sup * 2**-prec positive.
    sup = max(abs(c) for c in w)
    if abs(w[-1]) << (prec // 4) >= sup:
        return [Fraction(c, w[-1]) for c in w], "last-entry"
    last = next((c for c in reversed(w) if abs(c) << prec > sup), w[-1])
    return [Fraction(c, sup if last >= 0 else -sup) for c in w], "sup"


def boundary_kernel_vector(p: DiagonalPencil, prec: int = DEFAULT_PREC) -> KernelVector:
    """Kernel direction of A0 + x A_sum at its PSD boundary x_min.

    The direction is T w, for the witness w of ``psd_boundary``'s banded test
    at the enclosure's lo, checked to refute PSD on the pencil's own rows.
    Both eliminations fail first at one leading block (T is upper triangular,
    so T^T M T's leading minors are M's times det(T_k)^2 > 0), and after a
    negative pivot T w is that block's adjugate column, up to a positive
    factor.  At a corank-1 boundary with unit kernel v the block ends at v's
    last nonzero entry v_k (a PSD matrix's leading-block kernel vector,
    zero-padded, is its own), and the witness tends to v as the enclosure
    shrinks.  A common kernel of A0 and A_sum makes the midpoint M singular
    (among Eulerian pencils only at n = 1); its exact null vector is taken.

    The integer vector w is checked and normalized exactly: ||M w|| / ||w||,
    rounded up to a multiple of 2**(-2 prec), must meet 2**(-prec/2).  The
    enclosure starts at 2**-prec or finer, so that the distance to the
    boundary cannot push M's smallest singular value above that target.
    The witness's residual is larger: about the width times
    v^T A_sum v / |v_k|, plus the rows past its block, and an earlier
    block with a small eigenvalue may fail first.  So while the residual
    misses the target, the enclosure's bits are doubled, up to 4 prec + 64.

    ``degenerate`` is exact.  For x_min < 0 the PSD interval has interior
    points, where the pencil is positive definite off the common kernel K
    of A0 and A_sum; so the corank at x_min is dim K plus the multiplicity
    of x_min as a root of the determinant f taken off K, and exceeds 1
    exactly when K is nonzero or x_min is also a root of f'.  For
    x_min = 0 the matrix is A0 itself, and its corank is counted.
    """
    if prec < 16:  # as psd_boundary, before bits, which depends on the pencil, can hide it
        raise ValueError("prec must be >= 16")
    target = Fraction(1, 2 ** (prec // 2))
    rows, den = _integer_rows(p.a0.entries + p.a_sum.entries)
    upper = [row[i % p.size:] for i, row in enumerate(rows)]
    a_sum_max = Fraction(max(abs(v) for row in rows[p.size:] for v in row), den)
    bits = max(prec, int(4 * p.size * max(1, a_sum_max) / target).bit_length())
    while True:
        x, det, kernel_dim, witness = psd_boundary(p, bits)
        mid = x.midpoint
        matrix = _pencil_rows(rows, mid.numerator, mid.denominator)  # (den mid.denominator) M
        w = _null_vector(matrix) if kernel_dim else _unband(witness)
        at_lo = _pencil_rows(upper, x.lo.numerator, x.lo.denominator)  # upper rows, scaled M(lo)
        if not kernel_dim and _integer_form(at_lo, w) >= 0:
            raise ArithmeticError("mapped witness T w does not refute PSD at lo")
        mw = [sum(e * c for e, c in zip(row, w) if c) for row in matrix]
        scale = den * mid.denominator
        scaled = -(-sum(y * y for y in mw) * 16**prec // (scale * scale * sum(c * c for c in w)))
        residual = Fraction(math.isqrt(scaled - 1) + 1 if scaled else 0, 4**prec)  # ceil sqrt
        if residual <= target or bits > 4 * prec + 64:
            break
        bits *= 2
    if residual > target:
        shown = decimal.Context(prec=8).divide(residual.numerator, residual.denominator)
        raise ArithmeticError(f"kernel residual {shown:g} exceeds 2^-{prec // 2}")
    v, normalization = _normalized(w, prec)
    degenerate = _boundary_degenerate(rows, x, det, kernel_dim)
    return KernelVector(tuple(v), normalization, degenerate, residual, prec)


def _value(desc: list[int], point: int | Fraction) -> int:
    # The integer p(num/den) den^deg, signed as p(num/den); no den powers if den = 1.
    num, den = point.numerator, point.denominator
    acc, dpow = desc[0], 1
    if den == 1:
        for c in desc[1:]:
            acc = acc * num + c
        return acc
    for c in desc[1:]:
        dpow *= den
        acc = acc * num + c * dpow
    return acc


def _sign_at(desc: list[int], point: int | Fraction) -> int:
    v = _value(desc, point)
    return (v > 0) - (v < 0)


def _boundary_degenerate(
    rows: list[list[int]], x: AlgebraicBound, det: list[int], kernel_dim: int
) -> bool:
    # Corank > 1 of the pencil at x_min in (x.lo, x.hi], by the rule in
    # boundary_kernel_vector's docstring, for the cleared rows of [A0; A_sum].
    if x.hi == 0 and _sign_at(det, x.hi) == 0:  # x_min = 0: the matrix is A0
        a0 = rows[: len(rows) // 2]
        return len(a0) - len(list(_bareiss(a0))) > 1
    def has_root(g):  # in (lo, hi], for a squarefree g: a root at lo is deflated
        if _sign_at(g, x.lo) == 0:
            g = _quo(g, [x.lo.denominator, -x.lo.numerator])
        return _sign_at(g, x.hi) == 0 or _sign_at(g, x.lo) != _sign_at(g, x.hi)
    # h = gcd(sqf, det') has det's repeated roots, each once; 1 if det is squarefree.
    sqf = _squarefree(det)
    h = [1] if len(sqf) == len(_strip(det)) else _gcd(sqf, _derivative(det))
    if not has_root(sqf):
        raise ArithmeticError("no determinant root in the x_min enclosure")
    return kernel_dim > 0 or has_root(h)


def _end_values(desc: list[int], lo: Fraction, hi: Fraction) -> tuple[list[int], int, int]:
    # desc with its roots at lo and hi deflated, and its values there (``_value``).
    values = []
    for r in (lo, hi):
        while not (v := _value(desc, r)):
            desc = _quo(desc, [r.denominator, -r.numerator])
            values = [_value(desc, lo) for _ in values]  # lo's, if taken, on the new desc
        values.append(v)
    return desc, *values


def _refine_root(
    desc: list[int], lo: Fraction, hi: Fraction, prec: int, exact: bool = True
) -> AlgebraicBound:
    # The dyadic cell [k, k+1] / 2^prec, k = ceil(r 2^prec) - 1, of the one
    # root r in the isolating interval, clipped to it; k is found over the
    # integers by quadratic interval refinement (Abbott 2014), each probe
    # judged by its exact Horner sign on coefficients scaled by 2^prec, as
    # are the ends (an on-grid end's value is the loop's f(a) or f(b)); an
    # end that is another root (neighbours share them) is deflated there.
    # With ``exact`` a root on the grid, or an exact isolated root, is a
    # point; without it the root is the hi end of its cell.
    if prec < 0:
        raise ValueError(f"prec must be >= 0, got {prec}")
    one = 1 << prec
    if lo == hi:
        k = math.ceil(lo * one) - 1
        return AlgebraicBound.exact(lo) if exact else AlgebraicBound(Fraction(k, one), lo)
    ends = [x.numerator * (one // x.denominator) if one % x.denominator == 0 else x * one
            for x in (lo, hi)]  # lo 2^prec and hi 2^prec, ints on the grid
    scaled, fa, fb = _end_values([c << (prec * i) for i, c in enumerate(desc)], *ends)
    if (fa > 0) == (fb > 0):
        raise ValueError("interval endpoints do not bracket a sign change")
    slo, a, b = fa, math.floor(ends[0]), math.ceil(ends[1])
    # Each step probes the secant point of f(a), f(b) (values cut to the
    # bits b - a needs), then its neighbour w = max(1, (b - a) // subs) toward
    # r; or the midpoint alone, if their signs agree or a miss left subs at 4.
    # Trapping r squares subs; missing it takes its square root, down to 4.
    fa = fa if ends[0].denominator == 1 else _value(scaled, a)
    fb, subs, bisect = fb if ends[1].denominator == 1 else _value(scaled, b), 4, False
    while b - a > 1:  # r in (max(lo, a / 2^prec), min(hi, b / 2^prec)]
        w = max(1, (b - a) // subs)
        k = max(0, (fa - fb).bit_length() - (b - a).bit_length() - 16)
        secant = (fa < 0) != (fb < 0) and not bisect
        t = a + (b - a) * (fa >> k) // ((fa >> k) - (fb >> k)) if secant else (a + b) // 2
        t = min(max(t, a + 1), b - 1)
        for _ in range(1 + secant):
            if not a < t < b:
                break
            ft = _value(scaled, t)
            if ft == 0:  # t is the root
                if exact:
                    return AlgebraicBound.exact(Fraction(t, one))
                a, b = t - 1, t
            elif (ft > 0) == (slo > 0):
                a, fa, t = t, ft, t + w
            else:
                b, fb, t = t, ft, t - w
        subs = subs * subs if b - a <= w else max(4, math.isqrt(subs))
        bisect = secant and b - a > w and subs == 4
    return AlgebraicBound(max(lo, Fraction(a, one)), min(hi, Fraction(b, one)))


def _rightmost_interval(f: list[int]) -> tuple[Fraction, Fraction] | None:
    # (a, b), b < 0, holding the rightmost real root of f (descending,
    # one-signed, f(0) != 0) and no other, or (r, r) for that root r; None if
    # a short search does not show it.  One sign variation of f(a + |a| w)
    # means exactly one real root above a, simple (Descartes' rule); a sign
    # change on (a, b) puts it there.  a = -2^-k, k = bitlen(c_1) - bitlen(c_0)
    # - 1, and b = a/4 first bracket -c_0/c_1, at or right of the rightmost
    # root if f is real-rooted.  A count of 0 moves b to a and a four times left
    # (to (y + a)/2 after a count >= 2 at y); a count >= 2 bisects (a, b).  Every
    # real root lies above floor, Kioustelidis' bound for f(-x), and none is real
    # if f(-x) has no sign variation; b only moves left, so b <= floor ends the
    # search, as does (a, b) narrower than |b| 2^-32: a repeated root never counts 1.
    n, y, flip = len(f) - 1, None, lambda g: [-c if j % 2 else c for j, c in enumerate(g)]
    if n < 1 or not f[-1] or _variations(f) or not _variations(flip(f)):
        return None
    a = -Fraction(2) ** (f[-1].bit_length() + 1 - f[-2].bit_length())
    b, floor = a / 4, -Fraction(2) ** _root_bound(flip(f))
    while floor < b and (b - a) * 2**32 >= -b:
        # g = f(a + |a| w) 2^(e n), a = -p / 2^e dyadic: roots over |a| shifted by 1.
        p, e = -a.numerator, a.denominator.bit_length() - 1
        g = flip(_shift1(flip([c * p ** (n - j) << e * j for j, c in enumerate(f)])))
        v = _variations(g)  # and g[-1] has the sign of f(a)
        if v == 1 and g[-1]:  # the sign of f(b), b = -q / 2^k, at the integer -q
            s = _value([c << (b.denominator.bit_length() - 1) * j for j, c in enumerate(f)],
                       b.numerator)
            return (b, b) if not s else (a, b) if (s > 0) != (g[-1] > 0) else None
        if v == 0 and not g[-1]:  # a is a root, and no root lies above it
            return (a, a) if g[-2] else None
        if v == 0:
            b, a = a, 4 * a if y is None else (y + a) / 2
        else:
            y, a = a, (a + b) / 2
    return None


def extreme_roots(
    p: UnivariatePolynomial, prec: int = DEFAULT_PREC
) -> tuple[AlgebraicBound, AlgebraicBound]:
    """Enclosures of the leftmost and rightmost real roots.

    Every real root must be negative (the Eulerian situation).  The
    rightmost one is isolated in (a, b), b < 0, or as a point, by the
    Descartes counts of ``_rightmost_interval``; the leftmost, the
    reciprocal of the reversed polynomial's rightmost, in (1/b', 1/a'),
    and a palindromic input is its own reverse.  These intervals isolate
    the extreme real roots whatever the other roots are, so real-rootedness
    is checked only for an input failing a count: every root of its
    squarefree part is isolated, by Descartes bisection over the integers
    (``_isolate``).  Each extreme root, the rightmost first, is then
    narrowed to its dyadic cell [k, k+1] / 2**prec, clipped to its
    isolating interval, and re-checked for a sign change, on f scaled by
    2**prec at the cell's ends, grid integers unless clipped: the enclosures
    are certified, of width at most 2**-prec, and nest as prec grows.  A
    palindromic input's leftmost root starts from the reciprocal cell.

    >>> from eulerian_bounds.eulerian import univariate_eulerian
    >>> left, right = extreme_roots(univariate_eulerian(2), 16)  # -2 -+ sqrt(3)
    >>> left.lo < -2 - 3 ** 0.5 < left.hi and right.lo < -2 + 3 ** 0.5 < right.hi
    True
    """
    if p.degree < 1:
        raise ValueError("constant polynomial has no roots")
    (desc,), _ = _integer_rows([list(reversed(p.coeffs))])
    if desc[-1] == 0:
        raise ValueError("roots are not all negative: 0 is a root")
    f = _primitive(desc)
    right = _rightmost_interval(f)
    left = right if f == f[::-1] else right and _rightmost_interval(f[::-1])
    if left:  # x -> 1/x takes the reversed f's rightmost root to f's leftmost
        ends = (1 / left[1], 1 / left[0]), right
    else:
        f, intervals = _isolate(desc)
        if len(intervals) != len(f) - 1:
            raise ValueError(f"not real-rooted: {len(intervals)} distinct real roots, "
                             f"squarefree degree {len(f) - 1}")
        ends = intervals[0], intervals[-1]
    cells, scaled = [], None
    for lo, hi in ends[::-1]:  # the rightmost root first
        if cells and f == f[::-1]:  # the leftmost is 1/(cells[0]'s root),
            # in [1/hi, 1/lo] of it: widened to the grid, its cell clips as (lo, hi) does.
            if cells[0].hi:  # a cell ending at 0 bounds 1/root above only
                lo = max(lo, Fraction(math.floor(one / cells[0].hi), one))
            hi = min(hi, Fraction(math.ceil(one / cells[0].lo), one))
        cells.append(enc := _refine_root(f, lo, hi, prec))  # which refuses a negative prec
        if enc.hi > 0:
            raise ValueError("roots are not all negative")
        one, scaled = 1 << prec, scaled or [c << (prec * i) for i, c in enumerate(f)]
        # A root at an end, a neighbour's or a point cell's own, is deflated first.
        g, slo, shi = _end_values(scaled, enc.lo * one, enc.hi * one)
        if len(g) == len(scaled) if enc.lo == enc.hi else (slo > 0) == (shi > 0):
            raise ArithmeticError(f"root enclosure [{enc.lo}, {enc.hi}] has no sign change")
    return cells[1], cells[0]
