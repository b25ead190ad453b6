"""Spectrahedral relaxations of multivariate Eulerian polynomials.

Exact construction of the relaxation pencil from descent-top counting,
certified PSD-interval endpoints on the diagonal, and linearized bounds
for the extreme roots of the univariate Eulerian polynomials, including
the growth diagnostics separating the multivariate bounds from the
univariate one.
"""

from .bounds import (
    BoundReport,
    GuessVector,
    QuadraticInY,
    RatioDiagnostic,
    bound_report,
    eulerian_guess_quadratics,
    guess_vector,
    linearized_DN,
    optimal_y,
    optimize_y_numeric,
    paper_y,
    ratio_diagnostic,
    univariate_bound,
    univariate_pencil_endpoint,
)
from .enclosure import DEFAULT_PREC, AlgebraicBound, quadratic_root_enclosure, sqrt_enclosure
from .eulerian import (
    BRUTE_FORCE_MAX_N,
    UnivariatePolynomial,
    closed_form_R,
    count_exact_bruteforce,
    count_formula,
    descent_top_counts,
    univariate_eulerian,
)
from .lform import (
    LFormTable,
    Truncation3,
    eulerian_lform,
    eulerian_lform_table,
    lform_from_truncation,
    monomials_up_to_3,
)
from .pencil import (
    DiagonalPencil,
    LinearMatrixPencil,
    PsdResult,
    SymmetricRationalMatrix,
    build_pencil,
    diagonal_pencil,
    eulerian_diagonal_pencil,
    eulerian_pencil,
    psd_certificate,
)
from .spectra import (
    KernelVector,
    boundary_kernel_vector,
    extreme_roots,
    psd_boundary,
    psd_interval_left,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicBound",
    "BRUTE_FORCE_MAX_N",
    "BoundReport",
    "DEFAULT_PREC",
    "DiagonalPencil",
    "GuessVector",
    "KernelVector",
    "LFormTable",
    "LinearMatrixPencil",
    "PsdResult",
    "QuadraticInY",
    "RatioDiagnostic",
    "SymmetricRationalMatrix",
    "Truncation3",
    "UnivariatePolynomial",
    "bound_report",
    "boundary_kernel_vector",
    "build_pencil",
    "closed_form_R",
    "count_exact_bruteforce",
    "count_formula",
    "descent_top_counts",
    "diagonal_pencil",
    "eulerian_diagonal_pencil",
    "eulerian_guess_quadratics",
    "eulerian_lform",
    "eulerian_lform_table",
    "eulerian_pencil",
    "extreme_roots",
    "guess_vector",
    "linearized_DN",
    "lform_from_truncation",
    "monomials_up_to_3",
    "optimal_y",
    "optimize_y_numeric",
    "paper_y",
    "psd_certificate",
    "psd_boundary",
    "psd_interval_left",
    "quadratic_root_enclosure",
    "ratio_diagnostic",
    "sqrt_enclosure",
    "univariate_bound",
    "univariate_eulerian",
    "univariate_pencil_endpoint",
]
