"""The Hessian metric of the log-volume barrier on a volume-positive cone.

For a degree-``n`` volume polynomial ``Vol`` the potential is
``F = -log Vol`` and the metric is its Hessian in the flat coordinates:

    g(u, v) = P_1(u) P_1(v) / Vol^2 - P_2(u, v) / Vol,

with ``P_k`` the tensor contractions from :mod:`conegeom.tensors`.  The
module also provides the radial/primitive splitting of tangent vectors, the
induced metric on volume level sets, and a sampling check that a linear map
intertwining two volume polynomials is an isometry.  Points and tangents go
in and come out as plain arrays, checked once by :func:`conegeom.tensors._vector`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPrimitive, VolumeNotPositive
from .tensors import IntersectionTensor, _freeze, _jet, _vector

__all__ = [
    "MetricAtPoint",
    "metric_at",
    "primitive_decompose",
    "levelset_metric",
    "pullback_check",
    "PullbackReport",
    "is_positive_definite",
    "signature_counts",
]

PRIMITIVITY_RTOL = 1e-8
SIGNATURE_RTOL = 1e-10


@dataclass(frozen=True)
class MetricAtPoint:
    """Metric data at one base point.

    Attributes
    ----------
    g : ndarray
        Symmetric N x N metric matrix.
    vol : float
        Volume polynomial value, positive.
    grad_logvol : ndarray
        First derivatives of the potential ``F = -log Vol`` (note the sign:
        these are the negatives of the log-volume gradient).
    point : ndarray
        Base point coordinates.
    """

    g: np.ndarray
    vol: float
    grad_logvol: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        _freeze(self, "g", "grad_logvol", "point")

    def norm_sq(self, u) -> float:
        u = _vector(self.g.shape[0], u, "tangent vector")
        return float(u @ self.g @ u)

    def inner(self, u, v) -> float:
        N = self.g.shape[0]
        return float(_vector(N, u, "tangent vector") @ self.g @ _vector(N, v, "tangent vector"))


def signature_counts(m) -> tuple[int, int, int]:
    """Eigenvalue sign counts ``(positive, negative, null)`` of a symmetric matrix
    from one ``eigvalsh``: the package's one definiteness test.

    ``|lambda| <= SIGNATURE_RTOL * max |lambda|`` counts as null, so rescaling
    changes nothing; a matrix with a non-finite entry is null in every direction.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        return 0, 0, m.shape[0]
    return _sign_counts(np.linalg.eigvalsh(m))


def _sign_counts(eig: np.ndarray) -> tuple[int, int, int]:
    # The counting rule of signature_counts, for eigenvalues already at hand.
    thresh = SIGNATURE_RTOL * max(np.max(np.abs(eig)), 1e-300)
    pos = int(np.sum(eig > thresh))
    neg = int(np.sum(eig < -thresh))
    return pos, neg, eig.shape[0] - pos - neg


def is_positive_definite(g) -> bool:
    """Whether all ``N`` eigenvalues of ``g`` count as positive in :func:`signature_counts`."""
    return signature_counts(g)[0] == np.shape(g)[0]


def _hessian_metric(vol: float, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    # g = V1 V1^T / Vol^2 - V2 / Vol = Hess(-log Vol), made exactly symmetric.
    g = np.outer(v1, v1) / vol**2 - v2 / vol
    return 0.5 * (g + g.T)


def _cone_jet(c: IntersectionTensor, t: np.ndarray, order: int):
    """The volume jet ``(Vol, V_1, ..., V_order)`` at coordinates already checked:
    the one place that raises :class:`VolumeNotPositive`."""
    jet = _jet(c, t, order)
    if jet[0] <= 0.0:
        raise VolumeNotPositive(f"volume {jet[0]!r} at point {t.tolist()} is not positive")
    return jet


def _metric_jet(c: IntersectionTensor, t: np.ndarray, order: int = 2):
    """The metric and the volume jet ``(Vol, V_1, ..., V_order)`` at
    coordinates already checked; inner loops call this with plain arrays."""
    jet = _cone_jet(c, t, order)
    return _hessian_metric(*jet[:3]), jet


def _metric_at(c: IntersectionTensor, t: np.ndarray, order: int = 2):
    """:func:`metric_at` at coordinates already checked, with the jet it took."""
    g, jet = _metric_jet(c, t, order)
    vol, v1 = jet[:2]
    return MetricAtPoint(g=g, vol=vol, grad_logvol=-v1 / vol, point=t), jet


def metric_at(c: IntersectionTensor, point) -> MetricAtPoint:
    """Evaluate the Hessian metric ``-Hess log Vol`` at a point.

    The metric need not be positive-definite there; :func:`is_positive_definite`
    tells.  Raises :class:`VolumeNotPositive` if ``Vol(t) <= 0``.
    """
    return _metric_at(c, _vector(c.N, point, "base point"))[0]


def primitive_decompose(c: IntersectionTensor, point, u):
    """Split ``u = u0 * t + u1`` with ``u1`` primitive at ``t``.

    ``u0 = P_1(u; t) / (n Vol(t))``, which makes ``P_1(u1; t) = 0``.  Returns
    the pair ``(u0, u1)`` of a float and an array.
    """
    t = _vector(c.N, point, "base point")
    uvec = _vector(c.N, u, "tangent vector")
    vol, v1 = _cone_jet(c, t, 1)
    u0 = float(v1 @ uvec) / (c.n * vol)
    u1 = uvec - u0 * t
    # A radial input leaves only rounding junk in u1; make it exactly zero so
    # the primitive part stays primitive by the levelset tolerance.
    if np.linalg.norm(u1) <= 1e-14 * max(np.linalg.norm(uvec), abs(u0) * np.linalg.norm(t)):
        u1 = np.zeros_like(u1)
    return u0, u1


def _primitivity_bound(c: IntersectionTensor, t: np.ndarray, u: np.ndarray) -> float:
    tn = np.linalg.norm(t)
    return PRIMITIVITY_RTOL * np.linalg.norm(u) * tn ** (c.n - 1) * c.max_abs_entry()


def levelset_metric(c: IntersectionTensor, point, u, v) -> float:
    """Metric induced on the volume level set: ``-(1/Vol) P_2(u, v; t)``.

    Both arguments must be primitive at the base point; a vector whose radial
    pairing exceeds the documented tolerance raises :class:`NotPrimitive`.
    """
    t = _vector(c.N, point, "base point")
    uvec = _vector(c.N, u, "tangent vector")
    vvec = _vector(c.N, v, "tangent vector")
    vol, v1, v2 = _cone_jet(c, t, 2)
    for name, w in (("u", uvec), ("v", vvec)):
        p1 = float(v1 @ w)
        if abs(p1) > _primitivity_bound(c, t, w):
            raise NotPrimitive(f"{name} is not primitive at the base point (P_1 = {p1!r})")
    return float(-(uvec @ v2 @ vvec) / vol)


def _pullback_residual(cX: IntersectionTensor, cY: IntersectionTensor, A: np.ndarray, t: np.ndarray):
    """``(Vol_X(A t), Vol_Y(t), r)`` at a checked source point ``t``, with ``r`` the
    largest entry of ``A^T g_X(A t) A - g_Y(t)`` relative to that of ``g_Y(t)``."""
    gy, (vol_y, _, _) = _metric_jet(cY, t)
    gx, (vol_x, _, _) = _metric_jet(cX, A @ t)
    resid = np.max(np.abs(A.T @ gx @ A - gy)) / max(np.max(np.abs(gy)), 1e-300)
    return vol_x, vol_y, resid


@dataclass(frozen=True)
class PullbackReport:
    """Residuals of the volume and metric intertwining identities."""

    max_vol_residual: float
    max_metric_residual: float
    tol: float
    n_points: int

    @property
    def passed(self) -> bool:
        # Written so that a nan residual fails.
        return self.max_vol_residual < self.tol and self.max_metric_residual < self.tol


def pullback_check(
    cX: IntersectionTensor,
    cY: IntersectionTensor,
    A: np.ndarray,
    p: float,
    points,
    tol: float = 1e-10,
) -> PullbackReport:
    """Verify ``Vol_X(A t) = p Vol_Y(t)`` and ``A^T g_X(A t) A = g_Y(t)``.

    Both identities hold exactly when ``A`` intertwines the two volume
    polynomials with positive degree factor ``p``; the report records the
    largest relative residual over the supplied sample points, each taking one
    metric per side; :func:`conegeom.lorentz.lorentz_isometry_check` reads the
    same metric residual.  ``Vol_X(A t) <= 0`` raises :class:`VolumeNotPositive`.

    Parameters
    ----------
    cX, cY : IntersectionTensor
        Target and source tensors; ``A`` maps source coordinates (dim ``N_Y``)
        to target coordinates (dim ``N_X``).
    A : ndarray of shape (N_X, N_Y), finite
    p : float, finite and positive
    points : iterable of source-cone points; ``Vol_Y <= 0`` raises :class:`VolumeNotPositive`
    tol : float, finite and positive
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (cX.N, cY.N):
        raise DimensionMismatch(f"map has shape {A.shape}, expected ({cX.N}, {cY.N})")
    if not np.all(np.isfinite(A)):
        raise ValueError("map A has a non-finite entry")
    for name, value in (("degree factor p", p), ("tol", tol)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if cX.n != cY.n:
        raise DimensionMismatch("tensors must have the same degree")
    vol_res, met_res = [], []
    for point in points:
        vol_x, vol_y, resid = _pullback_residual(cX, cY, A, _vector(cY.N, point, "sample point"))
        vol_res.append(abs(vol_x - p * vol_y) / abs(p * vol_y))
        met_res.append(resid)
    if not vol_res:
        raise ValueError("pullback_check requires at least one sample point")
    # np.max, unlike the builtin max, carries a nan residual into the report.
    max_vol, max_met = float(np.max(vol_res)), float(np.max(met_res))
    return PullbackReport(max_vol_residual=max_vol, max_metric_residual=max_met, tol=tol, n_points=len(vol_res))
