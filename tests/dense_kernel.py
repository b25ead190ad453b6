"""The dense route to the boundary kernel vector, kept as a test oracle.

``spectra.boundary_kernel_vector`` takes its direction from the witness
``psd_boundary`` returns: the one of its own PSD test at the enclosure's
lo, run on the banded copy T^T M T, mapped back to T w.  Here the
direction is the witness of a separate dense PSD test on the pencil
itself at that lo, ``psd_certificate`` of the rational matrix, as the
library took it before.  The bit doubling, the residual, the
normalization and the degenerate flag are the library's steps, written
out again.
"""

import math
from fractions import Fraction

from eulerian_bounds import spectra
from eulerian_bounds.pencil import DiagonalPencil, _integer_rows, psd_certificate
from eulerian_bounds.spectra import KernelVector

from fraction_elimination import pencil_at


def dense_kernel_vector(p: DiagonalPencil, prec: int) -> KernelVector:
    """``boundary_kernel_vector`` with the dense witness at the enclosure's lo."""
    target = Fraction(1, 2 ** (prec // 2))
    rows, den = _integer_rows(p.a0.entries + p.a_sum.entries)
    a_sum_max = Fraction(max(abs(v) for row in rows[p.size:] for v in row), den)
    bits = max(prec, int(4 * p.size * max(1, a_sum_max) / target).bit_length())
    while True:
        x, det, kernel_dim, _ = spectra.psd_boundary(p, bits)
        mid = x.midpoint
        matrix = spectra._pencil_rows(rows, mid.numerator, mid.denominator)
        if kernel_dim:
            w = spectra._null_vector(matrix)
        else:
            w = psd_certificate(pencil_at(p, x.lo)).witness
        mw = [sum(e * c for e, c in zip(row, w)) for row in matrix]
        scale = den * mid.denominator
        scaled = -(-sum(y * y for y in mw) * 16**prec // (scale * scale * sum(c * c for c in w)))
        residual = Fraction(math.isqrt(scaled - 1) + 1 if scaled else 0, 4**prec)
        if residual <= target or bits > 4 * prec + 64:
            break
        bits *= 2
    assert residual <= target
    v, normalization = spectra._normalized(w, prec)
    degenerate = spectra._boundary_degenerate(rows, x, det, kernel_dim)
    return KernelVector(tuple(v), normalization, degenerate, residual, prec)
