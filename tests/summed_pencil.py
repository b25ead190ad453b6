"""The diagonal pencil as the entrywise sum of A_1 .. A_n: a test oracle.

``eulerian_bounds.pencil.diagonal_pencil`` molds A_0 + x * A_sum straight
from the L-form table, one sum over i of L values per entry.  This route
is what restricting the full pencil to the diagonal means: build every
coefficient matrix with ``build_pencil`` and add them up.
"""

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
