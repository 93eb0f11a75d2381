"""Riemannian geometry of the log-volume barrier on cones cut out by
symmetric intersection tensors.

The volume polynomial of a degree-``n`` symmetric tensor defines the convex
potential ``-log Vol`` on its positivity cone; this package computes the
resulting Hessian metric, its curvature and geodesics, two exactly solvable
comparison models (a Lorentzian quadratic-form model for degree 2 and the
trace metric on Hermitian positive-definite matrices), and sampling tools
for sectional-curvature and signature surveys.
"""

from .errors import (
    ConeGeometryError,
    DegeneratePlane,
    DimensionMismatch,
    NoValidPoints,
    NotPositiveDefinite,
    NotPrimitive,
    SingularMetric,
    TensorFormatError,
    VolumeNotPositive,
    WrongSignature,
)
from .tensors import (
    IntersectionTensor,
    contract,
    vol_derivatives,
    volume,
)
from .metric import (
    MetricAtPoint,
    PullbackReport,
    levelset_metric,
    metric_at,
    primitive_decompose,
    pullback_check,
)
from .curvature import (
    CurvatureAtPoint,
    christoffel_at,
    fd_curvature_oracle,
    riemann_at,
    sectional,
    sectional_from_curvature,
)
from .geodesics import (
    GeodesicPath,
    LengthBoundReport,
    RayStudy,
    boundary_ray_study,
    geodesic_shoot,
    length_bound_check,
    path_length,
)
from .lorentz import (
    ConeExtensionReport,
    IsometryReport,
    LorentzModel,
    full_cone_check,
    lorentz_isometry_check,
    reduce_to_standard,
)
from . import maass
from .scan import ScanReport, sample_cone_points, scan_sectional, signature_profile
from .io import (
    TensorFile,
    emit_report,
    fixture_path,
    list_fixtures,
    load_fixture,
    load_tensor,
    read_tensor_file,
    save_tensor_file,
)

__version__ = "0.1.0"

__all__ = [
    "ConeGeometryError",
    "DegeneratePlane",
    "DimensionMismatch",
    "NoValidPoints",
    "NotPositiveDefinite",
    "NotPrimitive",
    "SingularMetric",
    "TensorFormatError",
    "VolumeNotPositive",
    "WrongSignature",
    "IntersectionTensor",
    "contract",
    "vol_derivatives",
    "volume",
    "MetricAtPoint",
    "PullbackReport",
    "levelset_metric",
    "metric_at",
    "primitive_decompose",
    "pullback_check",
    "CurvatureAtPoint",
    "christoffel_at",
    "fd_curvature_oracle",
    "riemann_at",
    "sectional",
    "sectional_from_curvature",
    "GeodesicPath",
    "LengthBoundReport",
    "RayStudy",
    "boundary_ray_study",
    "geodesic_shoot",
    "length_bound_check",
    "path_length",
    "ConeExtensionReport",
    "IsometryReport",
    "LorentzModel",
    "full_cone_check",
    "lorentz_isometry_check",
    "reduce_to_standard",
    "maass",
    "ScanReport",
    "sample_cone_points",
    "scan_sectional",
    "signature_profile",
    "TensorFile",
    "emit_report",
    "fixture_path",
    "list_fixtures",
    "load_fixture",
    "load_tensor",
    "read_tensor_file",
    "save_tensor_file",
    "__version__",
]
