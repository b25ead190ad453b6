"""Relaxation pencils and exact positive-semidefiniteness certificates.

The linear matrix pencil of a polynomial is assembled by applying its
L-form entrywise to the rank-one mold matrix (1, x_1, ..., x_n)^T
(1, x_1, ..., x_n): the constant matrix A_0 takes L of each product
monomial, the coefficient matrix A_i takes L of x_i times it.  Setting
every variable equal collapses the pencil to A_0 + x * sum(A_i) on the
diagonal line, which is where the univariate root bounds are read off.

PSD decisions are exact, by one fraction-free (Bareiss) elimination kernel
that also gives determinants and ranks; a negative answer carries a
rational witness vector v with v^T M v < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .lform import LFormTable, eulerian_lform_table

__all__ = [
    "SymmetricRationalMatrix",
    "LinearMatrixPencil",
    "DiagonalPencil",
    "PsdResult",
    "build_pencil",
    "diagonal_pencil",
    "psd_certificate",
    "eulerian_pencil",
    "eulerian_diagonal_pencil",
]


@dataclass(frozen=True)
class SymmetricRationalMatrix:
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

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "SymmetricRationalMatrix":
        return SymmetricRationalMatrix(
            tuple(tuple(Fraction(v) for v in row) for row in rows)
        )

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def __add__(self, other: "SymmetricRationalMatrix") -> "SymmetricRationalMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        return SymmetricRationalMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def scale(self, c) -> "SymmetricRationalMatrix":
        c = Fraction(c)
        return SymmetricRationalMatrix(
            tuple(tuple(c * v for v in row) for row in self.entries)
        )

    def quadratic_form(self, v: Sequence) -> Fraction:
        vec = [Fraction(x) for x in v]
        if len(vec) != self.size:
            raise ValueError("vector length mismatch")
        total = Fraction(0)
        for i, vi in enumerate(vec):
            if vi:
                row = self.entries[i]
                total += vi * sum(row[j] * vj for j, vj in enumerate(vec) if vj)
        return total

    def max_abs_entry(self) -> Fraction:
        return max(abs(v) for row in self.entries for v in row)


@dataclass(frozen=True)
class LinearMatrixPencil:
    """A_0 + sum_i x_i A_i with symmetric (n+1) x (n+1) coefficients."""

    n: int
    a0: SymmetricRationalMatrix
    ai: tuple[SymmetricRationalMatrix, ...]


@dataclass(frozen=True)
class DiagonalPencil:
    """The univariate restriction A_0 + x * A_sum of a pencil."""

    a0: SymmetricRationalMatrix
    a_sum: SymmetricRationalMatrix

    @property
    def size(self) -> int:
        return self.a0.size

    def at(self, x) -> SymmetricRationalMatrix:
        return self.a0 + self.a_sum.scale(x)


def build_pencil(table: LFormTable) -> LinearMatrixPencil:
    """Mold the L-form table into the relaxation pencil.

    Row/column r of the mold carries the monomial 1 (r = 0) or x_r, so
    entries depend only on the product monomial; a missing table value
    raises (the table must be total up to degree 3).
    """
    n = table.n
    row_monos: list[tuple[int, ...]] = [()] + [(r,) for r in range(1, n + 1)]

    def molded(extra: tuple[int, ...]) -> SymmetricRationalMatrix:
        rows = []
        for mr in row_monos:
            rows.append(
                tuple(table(tuple(sorted(mr + mc + extra))) for mc in row_monos)
            )
        return SymmetricRationalMatrix(tuple(rows))

    a0 = molded(())
    ai = tuple(molded((i,)) for i in range(1, n + 1))
    return LinearMatrixPencil(n=n, a0=a0, ai=ai)


def diagonal_pencil(p: LinearMatrixPencil) -> DiagonalPencil:
    """Sum every coefficient matrix A_1 .. A_n entrywise, in one pass."""
    a_sum = tuple(
        tuple(sum(cell) for cell in zip(*rows))
        for rows in zip(*(m.entries for m in p.ai))
    )
    return DiagonalPencil(a0=p.a0, a_sum=SymmetricRationalMatrix(a_sum))


def eulerian_pencil(n: int) -> LinearMatrixPencil:
    return build_pencil(eulerian_lform_table(n))


@lru_cache(maxsize=None)
def eulerian_diagonal_pencil(n: int) -> DiagonalPencil:
    return diagonal_pencil(eulerian_pencil(n))


@dataclass(frozen=True)
class PsdResult:
    is_psd: bool
    witness: tuple[Fraction, ...] | None = None
    witness_value: Fraction | None = None

    def __bool__(self) -> bool:
        return self.is_psd


def _integer_rows(rows) -> list[list[int]]:
    """Rational rows times the lcm of their denominators: a positive factor."""
    lcm = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (lcm // v.denominator) for v in row] for row in rows]


def _bareiss(rows) -> Iterator[tuple[int, int, list[int]]]:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968).

    After clearing denominators, each column's pivot row is the first
    remaining row nonzero there (an all-zero column is skipped); every
    other remaining row r becomes (d r - r[col] p) / prev, an exact
    division by the previous pivot.  Remaining entries are then minors of
    the input, so the pivot rows are an echelon basis of the row space and
    the last pivot of a nonsingular square matrix is its determinant up to
    the sign of the pivot-row order.  Yields (col, input index of the
    pivot row, that row) lazily, before eliminating with it.
    """
    remaining = list(enumerate(_integer_rows(rows)))
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        at = next((k for k, (_, row) in enumerate(remaining) if row[col]), None)
        if at is None:
            continue
        i, pivot = remaining.pop(at)
        yield col, i, pivot
        d = pivot[col]
        for _, row in remaining:
            f = row[col]
            row[col:] = [
                (v * d - f * w) // prev for v, w in zip(row[col:], pivot[col:])
            ]
        prev = d


def psd_certificate(m: SymmetricRationalMatrix) -> PsdResult:
    """Exact PSD decision by symmetric fraction-free elimination.

    A diagonal pivot is, up to a positive factor, the principal minor on
    its column and the earlier pivot columns, so m is PSD exactly when
    every pivot is on the diagonal and positive, an all-zero remaining
    column being skipped.  A negative pivot, or a zero diagonal whose
    column is not zero, gives a rational witness v with v^T m v < 0,
    verified exactly before returning.

    >>> res = psd_certificate(SymmetricRationalMatrix.from_rows([[0, 1], [1, 0]]))
    >>> res.is_psd, res.witness, res.witness_value
    (False, (Fraction(-1, 2), Fraction(1, 1)), Fraction(-1, 1))
    """
    pivots: list[tuple[int, list[int]]] = []
    for col, i, row in _bareiss(m.entries):
        if i == col and row[col] > 0:
            pivots.append((col, row))
            continue
        if i == col:
            w = {col: Fraction(1)}
        else:
            # A zero diagonal coupled to row i: w = t e_col + e_i gives
            # 2 t b + a_ii on the remaining block, which t forces < 0.
            w = {col: Fraction(-(abs(row[i]) + 1), 2 * row[col]), i: Fraction(1)}
        # Undo the congruence: pivot k gets -(r . w) / r[k], the LDL^T ratio,
        # as a Bareiss row and its pivot carry the same positive factor.
        for k, r in reversed(pivots):
            w[k] = -sum(r[j] * wj for j, wj in w.items()) / r[k]
        witness = tuple(w.get(j, Fraction(0)) for j in range(m.size))
        value = m.quadratic_form(witness)
        if not value < 0:
            raise ArithmeticError("PSD witness failed exact verification")
        return PsdResult(False, witness, value)
    return PsdResult(True)
