"""The PSD certificate as it ran on the row-exchanging Bareiss kernel.

``pencil.psd_certificate`` now eliminates without row exchanges on the
upper band rows (``pencil._ldl``).  This is the certificate it replaced,
kept as the oracle: on a symmetric matrix both must give the same
decision, the same integer witness and the same value.  The witness value
is checked here by the Fraction quadratic form, not the library's integer
one.
"""

from eulerian_bounds.pencil import (
    PsdResult,
    SymmetricRationalMatrix,
    _back_substitute,
    _bareiss,
    _integer_rows,
)

from fraction_elimination import fraction_quadratic_form


def bareiss_psd_certificate(m: SymmetricRationalMatrix) -> PsdResult:
    """A diagonal Bareiss pivot is, up to a positive factor, the principal
    minor on its column and the earlier pivot columns, so m is PSD exactly
    when every pivot is on the diagonal and positive, an all-zero remaining
    column being skipped.  A negative pivot refutes e_col; a zero diagonal
    coupled to the pivot row i, 2b (t e_col + e_i) for t = -(|a_ii| + 1) / 2b,
    as 2 t b + a_ii < 0; either is lifted off the earlier pivot rows."""
    rows, _ = _integer_rows(m.entries)
    pivots = []
    for col, i, row in _bareiss(rows):
        if i == col and row[col] > 0:
            pivots.append((col, row))
            continue
        fixed = {col: 1} if i == col else {col: -(abs(row[i]) + 1), i: 2 * row[col]}
        witness = tuple(_back_substitute(pivots, fixed, m.size))
        value = fraction_quadratic_form(m, witness)
        assert value < 0, "witness failed exact verification"
        return PsdResult(False, witness, value)
    return PsdResult(True)
