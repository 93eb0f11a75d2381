"""Riemannian geometry of the log-volume barrier on cones cut out by
symmetric intersection tensors.

The volume polynomial of a degree-``n`` symmetric tensor defines the convex
potential ``-log Vol`` on its positivity cone; this package computes the
resulting Hessian metric, its curvature and geodesics, two exactly solvable
comparison models (a Lorentzian quadratic-form model for degree 2 and the
trace metric on Hermitian positive-definite matrices), and sampling tools
for sectional-curvature and signature surveys.
"""

from . import curvature, errors, geodesics, io, lorentz, maass, metric, scan, tensors
from .errors import *
from .tensors import *
from .metric import *
from .curvature import *
from .geodesics import *
from .lorentz import *
from .scan import *
from .io import *

__version__ = "0.1.0"

# Each module's __all__ is its public surface; the package re-exports them all.
__all__ = [
    *errors.__all__,
    *tensors.__all__,
    *metric.__all__,
    *curvature.__all__,
    *geodesics.__all__,
    *lorentz.__all__,
    *scan.__all__,
    *io.__all__,
    "maass",
    "__version__",
]
