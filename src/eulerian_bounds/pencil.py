"""Relaxation pencils and exact positive-semidefiniteness certificates.

The linear matrix pencil of a polynomial is assembled by applying its
L-form entrywise to the rank-one mold matrix (1, x_1, ..., x_n)^T
(1, x_1, ..., x_n): the constant matrix A_0 takes L of each product
monomial, the coefficient matrix A_i takes L of x_i times it.  Setting
every variable equal collapses the pencil to A_0 + x * sum(A_i) on the
diagonal line, which is where the univariate root bounds are read off.

PSD decisions are exact: rational LDL^T elimination, with a rational
witness vector v satisfying v^T M v < 0 whenever the answer is negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

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


def _lift_witness(
    size: int,
    local: dict[int, Fraction],
    eliminations: list[tuple[int, Fraction, list[Fraction]]],
) -> tuple[Fraction, ...]:
    # Undo the congruence: each eliminated pivot k with pivot d and stored
    # row r gets coordinate -(r . w)/d.
    w = dict(local)
    for k, d, row in reversed(eliminations):
        dot = sum(row[j - k - 1] * wj for j, wj in w.items() if j > k)
        w[k] = -dot / d
    return tuple(w.get(i, Fraction(0)) for i in range(size))


def psd_certificate(m: SymmetricRationalMatrix) -> PsdResult:
    """Exact PSD decision by rational LDL^T elimination.

    A zero diagonal pivot is admissible only when its whole remaining row
    is zero; otherwise the offending 2x2 block yields a witness.  Any
    NOT_PSD answer carries a rational v with v^T m v < 0, verified before
    returning.
    """
    s = m.size
    a = [[Fraction(v) for v in row] for row in m.entries]
    elims: list[tuple[int, Fraction, list[Fraction]]] = []

    def refuted(local: dict[int, Fraction]) -> PsdResult:
        witness = _lift_witness(s, local, elims)
        value = m.quadratic_form(witness)
        assert value < 0, "witness failed exact verification"
        return PsdResult(False, witness, value)

    for k in range(s):
        d = a[k][k]
        if d < 0:
            return refuted({k: Fraction(1)})
        if d == 0:
            for j in range(k + 1, s):
                b = a[k][j]
                if b:
                    # w = t e_k + e_j gives 2 t b + a_jj; pick t to force < 0.
                    t = -(abs(a[j][j]) + 1) / (2 * b)
                    return refuted({k: t, j: Fraction(1)})
            continue
        row = [a[k][j] for j in range(k + 1, s)]
        elims.append((k, d, row))
        for i in range(k + 1, s):
            f = a[i][k] / d
            if f:
                arow = a[i]
                krow = a[k]
                for j in range(k + 1, s):
                    arow[j] -= f * krow[j]
    return PsdResult(True)
