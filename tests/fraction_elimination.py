"""Exact elimination over the rationals: test oracles for the kernel.

``eulerian_bounds.pencil`` decides PSD, and ``spectra`` takes
determinants and row bases, with one fraction-free (Bareiss) kernel.
This module keeps the Fraction elimination they replaced: an LDL^T PSD
decision with its witness lift, an echelon row basis, the Fraction
double loop for v^T M v that the PSD witness check and the dense
guess-quadratic oracle ``summed_pencil.linearized_DN`` replaced with one
integer sum, and ``pencil_at``, the rational matrix
A0 + x A_sum that the library builds only as the integer q A0 + p A_sum
for x = p / q, and ``congruence_restriction``, the congruence off a common
kernel that ``spectra`` replaced with a principal block.  They share
nothing with the kernel but the matrix types.
"""

import math
from fractions import Fraction

from eulerian_bounds.pencil import DiagonalPencil, PsdResult, SymmetricRationalMatrix


def pencil_at(p: DiagonalPencil, x) -> SymmetricRationalMatrix:
    """A0 + x A_sum, entry by entry in Fractions."""
    x = Fraction(x)
    return SymmetricRationalMatrix(tuple(
        tuple(Fraction(a) + x * b for a, b in zip(r0, r1))
        for r0, r1 in zip(p.a0.entries, p.a_sum.entries)
    ))


def fraction_quadratic_form(m: SymmetricRationalMatrix, v) -> Fraction:
    """v^T m v, entry by entry in Fractions."""
    vec = [Fraction(x) for x in v]
    assert len(vec) == m.size, "vector length mismatch"
    return sum(
        (vi * sum(Fraction(mij) * vj for mij, vj in zip(row, vec))
         for vi, row in zip(vec, m.entries)),
        Fraction(0),
    )


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


def ldlt_psd_certificate(m: SymmetricRationalMatrix) -> PsdResult:
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
        value = fraction_quadratic_form(m, witness)
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


def fraction_row_basis(rows) -> list[list[Fraction]]:
    """Echelon rows spanning the row space, by exact elimination."""
    rows, basis = [[Fraction(v) for v in row] for row in rows], []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is not None:
            basis.append(pivot)
            rows = [[v - row[col] / pivot[col] * w for v, w in zip(row, pivot)]
                    for row in rows if row is not pivot]
    return basis


def congruence_restriction(rows) -> list[list[int]]:
    """[B A0 B^T; B A_sum B^T] for the integer rows [A0; A_sum], with B the
    echelon basis of their row space, each row scaled to integers.

    The row space is the complement of the common kernel K of A0 and A_sum
    that is orthogonal to it, so the congruence keeps the PSD status of
    each A0 + x A_sum and takes off exactly K.
    """
    s, basis = len(rows) // 2, []
    for row in fraction_row_basis(rows):
        den = math.lcm(*(v.denominator for v in row))
        basis.append([int(v * den) for v in row])
    return [[sum(bi * mij * cj for bi, r in zip(b, m) for mij, cj in zip(r, c))
             for c in basis] for m in (rows[:s], rows[s:]) for b in basis]
