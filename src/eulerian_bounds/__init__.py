"""Spectrahedral relaxations of multivariate Eulerian polynomials.

Exact construction of the relaxation pencil from descent-top counting,
certified PSD-interval endpoints on the diagonal, and linearized bounds
for the extreme roots of the univariate Eulerian polynomials, including
the growth diagnostics separating the multivariate bounds from the
univariate one.
"""

from . import bounds, enclosure, eulerian, lform, pencil, spectra
from .bounds import *  # noqa: F403
from .enclosure import *  # noqa: F403
from .eulerian import *  # noqa: F403
from .lform import *  # noqa: F403
from .pencil import *  # noqa: F403
from .spectra import *  # noqa: F403

__version__ = "0.1.0"

# Each layer module lists its own exports; the package exports their union.
_LAYERS = (bounds, enclosure, eulerian, lform, pencil, spectra)
__all__ = sorted({name for layer in _LAYERS for name in layer.__all__})
