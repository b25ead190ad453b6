"""Pencils molded from L values: test oracles.

``eulerian_bounds.pencil.eulerian_diagonal_pencil`` writes A_0 + x * A_sum
of the Eulerian family in closed form, with no L-form table.  Two routes
here build the same restriction from a table instead:

- ``diagonal_pencil`` molds it straight from the table, one sum over i
  of L values per entry;
- ``summed_diagonal_pencil`` is what restricting the full pencil to the
  diagonal means: build every coefficient matrix with ``build_pencil``
  and add them up.

``molded_pencil`` is ``build_pencil``'s oracle: one table call per entry,
on the concatenated product monomial.  ``linearized_DN`` is the oracle of
``bounds.eulerian_guess_quadratics``, which reads D(y) and N(y) off the
closed-form entries in O(n) sums: it expands the two quadratic forms over
any pencil's dense matrices.  ``univariate_un`` is the oracle of
``bounds.univariate_bound``: the x_min route, ``psd_boundary`` on the 2x2
pencil molded from the truncation of A_n in one variable.
"""

import itertools
from fractions import Fraction

from eulerian_bounds.bounds import GuessVector, QuadraticInY
from eulerian_bounds.eulerian import univariate_eulerian
from eulerian_bounds.lform import LFormTable, Truncation3, lform_from_truncation
from eulerian_bounds.pencil import (
    DiagonalPencil,
    LinearMatrixPencil,
    SymmetricRationalMatrix,
    _integer_form,
    _integer_rows,
)
from eulerian_bounds.spectra import psd_boundary


def molded_pencil(table: LFormTable) -> LinearMatrixPencil:
    """A_0[r][c] = L(m_r m_c) and A_i[r][c] = L(m_r m_c x_i), each a table call."""
    n = table.n
    row_monos = [()] + [(r,) for r in range(1, n + 1)]

    def molded(extra):
        return SymmetricRationalMatrix(tuple(
            tuple(table(mr + mc + extra) for mc in row_monos) for mr in row_monos
        ))

    return LinearMatrixPencil(n=n, a0=molded(()), ai=tuple(molded((i,)) for i in range(1, n + 1)))


def univariate_diagonal(n: int) -> DiagonalPencil:
    """The one-variable pencil of A_n, whose A_sum is its A_1."""
    a = univariate_eulerian(n).coefficient
    t = Truncation3(n=1, degree=n, coeffs={(1,) * k: a(k) for k in (1, 2, 3)})
    p = molded_pencil(lform_from_truncation(t))
    return DiagonalPencil(p.a0, p.ai[0])


def univariate_un(n: int, prec: int):
    """un(n) as the reciprocal magnitude of x_min of ``univariate_diagonal(n)``,
    certified at prec + 2n + 16 bits."""
    return (-psd_boundary(univariate_diagonal(n), prec + 2 * n + 16)[0]).reciprocal()


def summed_diagonal_pencil(p: LinearMatrixPencil) -> DiagonalPencil:
    """A_0 and the entrywise sum of A_1 .. A_n, in one pass."""
    a_sum = tuple(
        tuple(sum(cell) for cell in zip(*rows))
        for rows in zip(*(m.entries for m in p.ai))
    )
    return DiagonalPencil(a0=p.a0, a_sum=SymmetricRationalMatrix(a_sum))


def diagonal_pencil(table: LFormTable) -> DiagonalPencil:
    """Mold A_0 + x * A_sum from the table: for the mold's m_0 = 1, m_r = x_r,
    A_0[r][c] = L(m_r m_c) and A_sum[r][c] = sum_i L(m_r m_c x_i) for r <= c,
    mirrored.  Keys are built sorted: the factors of m_r m_c split 1..n into
    ranges, and x_i goes in at the place of the range holding i.
    """
    n, upper = table.n, {}
    try:
        for r, c in itertools.combinations_with_replacement(range(n + 1), 2):
            base = tuple(v for v in (r, c) if v)
            ends = (0,) + base + (n,)
            upper[r, c] = upper[c, r] = table.values[base], sum(
                table.values[base[:j] + (i,) + base[j:]]
                for j in range(len(base) + 1) for i in range(ends[j] + 1, ends[j + 1] + 1))
    except KeyError as exc:
        raise KeyError(f"incomplete L-form table: missing {exc.args[0]}") from None
    return DiagonalPencil(*(SymmetricRationalMatrix(tuple(
        tuple(upper[r, c][k] for c in range(n + 1)) for r in range(n + 1))) for k in (0, 1)))


def linearized_DN(p: DiagonalPencil, v: GuessVector) -> tuple[QuadraticInY, QuadraticInY]:
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
