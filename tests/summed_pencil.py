"""The diagonal pencil summed from L values: test oracles.

``eulerian_bounds.pencil.eulerian_diagonal_pencil`` writes A_0 + x * A_sum
of the Eulerian family in closed form, with no L-form table.  Two routes
here build the same restriction from a table instead:

- ``diagonal_pencil`` molds it straight from the table, one sum over i
  of L values per entry;
- ``summed_diagonal_pencil`` is what restricting the full pencil to the
  diagonal means: build every coefficient matrix with ``build_pencil``
  and add them up.
"""

import itertools

from eulerian_bounds.lform import LFormTable
from eulerian_bounds.pencil import (
    DiagonalPencil,
    LinearMatrixPencil,
    SymmetricRationalMatrix,
)


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
