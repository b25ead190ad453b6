"""Relaxation pencils and exact positive-semidefiniteness certificates.

The linear matrix pencil of a polynomial applies its L-form entrywise to
the rank-one mold matrix (1, x_1, ..., x_n)^T (1, x_1, ..., x_n): A_0
takes L of each product monomial, A_i takes L of x_i times it.  Setting
every variable equal gives A_0 + x * sum(A_i) on the diagonal line, where
the univariate root bounds are read off.  For the Eulerian family
``eulerian_diagonal_pencil`` writes that restriction in closed form, O(n^2)
entries of a few big-integer operations each, with no L-form table and
no A_i; the full pencil is molded from the table only by ``build_pencil``.

PSD decisions and determinants are exact, by fraction-free elimination on
the upper band rows, and row bases and ranks by Bareiss's row-exchanging
kernel; a negative answer carries an integer witness v with v^T M v < 0.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .lform import LFormTable, eulerian_lform_table

__all__ = [
    "SymmetricRationalMatrix",
    "LinearMatrixPencil",
    "DiagonalPencil",
    "PsdResult",
    "build_pencil",
    "psd_certificate",
    "eulerian_pencil",
    "eulerian_diagonal_pencil",
]


class SymmetricRationalMatrix(Record):
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        s = len(self.entries)
        for row in self.entries:
            if len(row) != s:
                raise ValueError("matrix is not square")
        for i in range(s):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i}, {j})")

    @property
    def size(self) -> int:
        return len(self.entries)


class LinearMatrixPencil(Record):
    """A_0 + sum_i x_i A_i with symmetric (n+1) x (n+1) coefficients."""

    n: int
    a0: SymmetricRationalMatrix
    ai: tuple[SymmetricRationalMatrix, ...]


class DiagonalPencil(Record):
    """The univariate restriction A_0 + x * A_sum of a pencil."""

    a0: SymmetricRationalMatrix
    a_sum: SymmetricRationalMatrix

    def __post_init__(self):
        if self.a0.size != self.a_sum.size:
            raise ValueError(f"a0 and a_sum differ in size: {self.a0.size} != {self.a_sum.size}")

    @property
    def size(self) -> int:
        return self.a0.size


def build_pencil(table: LFormTable) -> LinearMatrixPencil:
    """Mold the L-form table into the relaxation pencil.

    Row/column r of the mold carries the monomial m_r, 1 (r = 0) or x_r, and
    row r of A_i is L(m_i m_r m_c): row i of A_r, with A_0 the case i = 0.  So
    each row is looked up once per pair i <= r, keys built sorted, and shared;
    a missing table value raises (the table must be total up to degree 3).
    """
    n, values = table.n, table.values
    rows = [[()] * (n + 1) for _ in range(n + 1)]
    for i, r in itertools.combinations_with_replacement(range(n + 1), 2):
        keys = ((c, i, r) if c <= i else (i, c, r) if c <= r else (i, r, c) for c in range(n + 1))
        rows[i][r] = rows[r][i] = tuple(  # 0, for 1, sorts first and drops out
            values[k] if (k := key[key.count(0):]) in values else table(k) for key in keys)
    a0, *ai = (SymmetricRationalMatrix(tuple(m)) for m in rows)
    return LinearMatrixPencil(n, a0, tuple(ai))


def eulerian_pencil(n: int) -> LinearMatrixPencil:
    return build_pencil(eulerian_lform_table(n))


@lru_cache(maxsize=None)
def eulerian_diagonal_pencil(n: int) -> DiagonalPencil:
    """A_0 + x * A_sum of the n-variable Eulerian pencil, in closed form.

    With the L values of ``lform.eulerian_lform``, A_0[0][0] = n,
    A_0[0][c] = 2^c - 1, A_0[r][r] = (2^r - 1)^2 and A_0[r][c] =
    (4^r - 3^r) 2^(c-r) for 1 <= r < c.  A_sum[r][c] = sum_i L(m_r m_c x_i)
    splits at i = r and i = c into geometric sums in 2, 3, 4 and 6, which
    collapse to A_sum = (2^(n+1) - 1) A_0 - B, B symmetric with
    B[0][0] = (n - 1) 2^(n+1) + 2, B[0][c] = (3^c - 2^c) 2^(n+1-c),
    B[r][r] = (2^r - 1)(3^r - 2^r) 2^(n+1-r) and
    B[r][c] = (3^r - 2^r) 3^(c-r) 2^(n+r-c).  Summing the table is the
    oracle in the tests.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pow3 = [3**k for k in range(n + 1)]
    a0 = [[n] + [(1 << c) - 1 for c in range(1, n + 1)]]
    b = [[((n - 1) << (n + 1)) + 2]
         + [(pow3[c] - (1 << c)) << (n + 1 - c) for c in range(1, n + 1)]]
    for r in range(1, n + 1):  # columns c < r mirror the rows already built
        g, h, e = (1 << 2 * r) - pow3[r], pow3[r] - (1 << r), (1 << r) - 1
        a0.append([row[r] for row in a0] + [e * e] + [g << (c - r) for c in range(r + 1, n + 1)])
        b.append([row[r] for row in b] + [e * h << (n + 1 - r)]
                 + [h * pow3[c - r] << (n + r - c) for c in range(r + 1, n + 1)])
    lead = (2 << n) - 1
    a_sum = tuple(tuple(lead * u - v for u, v in zip(ra, rb)) for ra, rb in zip(a0, b))
    return DiagonalPencil(
        SymmetricRationalMatrix(tuple(map(tuple, a0))), SymmetricRationalMatrix(a_sum)
    )


class PsdResult(Record):
    is_psd: bool
    witness: tuple[int, ...] | None = None
    witness_value: Fraction | None = None

    def __bool__(self) -> bool:
        return self.is_psd


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Rational rows times the lcm of their denominators, and that lcm; fresh lists."""
    if all(type(v) is int for row in rows for v in row):
        return [list(row) for row in rows], 1
    lcm = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (lcm // v.denominator) for v in row] for row in rows], lcm


def _integer_form(upper, u) -> int:
    # u^T M u for integer upper band rows [m_ii, m_i,i+1, ...] of M and integer u.
    return sum(ui * (2 * sum(r * uj for r, uj in zip(row, u[i:]) if uj) - row[0] * ui)
               for i, (ui, row) in enumerate(zip(u, upper)) if ui)


def _bareiss(rows) -> Iterator[tuple[int, int, list[int]]]:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968).

    On integer rows, each column's pivot row is the first remaining row
    nonzero there (an all-zero column is skipped); every other remaining row
    r becomes (d r - r[col] p) / prev, exact.  Remaining entries are then
    minors of the input, so the pivot rows are an echelon basis of the row
    space and the last pivot of a nonsingular square matrix is its
    determinant up to the sign of the pivot-row order.  Yields (col, input
    index of the pivot row, that row) lazily, before eliminating with it.
    """
    remaining, prev = [(i, list(row)) for i, row in enumerate(rows)], 1
    for col in range(len(rows[0]) if rows else 0):
        at = next((k for k, (_, row) in enumerate(remaining) if row[col]), None)
        if at is None:
            continue
        i, pivot = remaining.pop(at)
        yield col, i, pivot
        d = pivot[col]
        for _, row in remaining:
            f = row[col]
            row[col:] = [(v * d - f * w) // prev for v, w in zip(row[col:], pivot[col:])]
        prev = d


def _ldl(upper) -> Iterator[tuple[int, list[list[int]]]]:
    """Bareiss without row exchanges on the upper band rows [a_ii, ..., a_i,i+b]
    of a symmetric integer matrix, b = len(upper[0]) - 1: pivot d = a_cc sets
    a_rj = (d a_rj - a_cr a_cj) / prev, c < r <= j <= c + b; column c + b enters
    scaled by prev.  A zero row is skipped, a zero pivot in a nonzero row ends
    it.  Yields (col, its copy of the rows) before eliminating with rows[col]."""
    rows, prev, b = [list(row) for row in upper], 1, len(upper[0]) - 1 if upper else 0
    for col in range(len(rows)):
        for r in range(col, col + b + 1) if col + b < len(rows) else ():
            rows[r][col + b - r] *= prev
        yield col, rows
        if d := (pivot := rows[col])[0]:
            for k in range(1, len(pivot)):
                f, row = pivot[k], rows[col + k]
                row[: len(pivot) - k] = [(v * d - f * w) // prev for v, w in zip(row, pivot[k:])]
            prev = d
        elif any(pivot):
            return


def _back_substitute(pivots: list[tuple[int, list[int]]], fixed: dict, size: int) -> list[int]:
    # w with r . w = 0 for each fraction-free pivot row (col, r), the fixed entries
    # times |last pivot|, the minor on the pivot rows and columns: so by
    # Cramer's rule w is integral and each // exact (Nakos et al. 1997).
    scale = abs(pivots[-1][1][pivots[-1][0]]) if pivots else 1
    w = [scale * fixed.get(j, 0) for j in range(size)]
    for col, r in reversed(pivots):  # w[col] is still 0 while its row is summed
        w[col] = -sum(a * b for a, b in zip(r, w) if b) // r[col]
    return w


def _psd_upper(upper: list[list[int]], lcm: int = 1) -> tuple[PsdResult, int]:
    # psd_certificate of the matrix with integer upper band rows upper / lcm and,
    # if PSD, the integer matrix's determinant: the last pivot, 0 past a zero row.
    pivots, size, det = [], len(upper), 1
    for col, rows in _ldl(upper):
        if (row := rows[col])[0] > 0:
            pivots.append((col, [0] * col + row + [0] * (size - col - len(row))))
        elif any(row):  # a negative pivot refutes e_col; a zero diagonal coupled to
            # row i = col + k, 2b (t e_col + e_i) for t = -(|a_ii| + 1) / 2b: 2 t b + a_ii < 0.
            k = next(k for k, v in enumerate(row) if v)
            fixed = {col: 1} if not k else {col: -(abs(rows[col + k][0]) + 1), col + k: 2 * row[k]}
            witness = tuple(_back_substitute(pivots, fixed, size))
            value = Fraction(_integer_form(upper, witness), lcm)
            if not value < 0:
                raise ArithmeticError("PSD witness failed exact verification")
            return PsdResult(False, witness, value), 0
        det = det and row[0]
    return PsdResult(True), det


def psd_certificate(m: SymmetricRationalMatrix) -> PsdResult:
    """Exact PSD decision by ``_ldl`` on the cleared upper triangle.

    A pivot is, up to a positive factor, the principal minor on its column
    and the earlier pivot columns: m is PSD exactly when every pivot is
    positive, all-zero rows skipped.  A negative pivot, or a zero diagonal in
    a nonzero row, gives an integer witness v, v^T m v < 0, lifted off the
    zero-padded pivot rows and verified exactly on the cleared rows.

    >>> res = psd_certificate(SymmetricRationalMatrix(((0, 1), (1, 0))))
    >>> res.is_psd, res.witness, res.witness_value
    (False, (-1, 2), Fraction(-4, 1))
    """
    return _psd_upper(*_integer_rows([row[i:] for i, row in enumerate(m.entries)]))[0]
