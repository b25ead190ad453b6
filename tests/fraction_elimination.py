"""Exact elimination over the rationals: test oracles for the kernel.

``eulerian_bounds.pencil`` decides PSD, and ``spectra`` takes
determinants and row bases, with one fraction-free (Bareiss) kernel.
This module keeps the Fraction elimination they replaced: an LDL^T PSD
decision with its witness lift, and an echelon row basis.  They share
nothing with the kernel but the matrix type.
"""

from fractions import Fraction

from eulerian_bounds.pencil import PsdResult, SymmetricRationalMatrix


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
