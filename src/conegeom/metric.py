"""The Hessian metric of the log-volume barrier on a volume-positive cone.

For a degree-``n`` volume polynomial ``Vol`` the potential is
``F = -log Vol`` and the metric is its Hessian in the flat coordinates:

    g(u, v) = P_1(u) P_1(v) / Vol^2 - P_2(u, v) / Vol,

with ``P_k`` the tensor contractions from :mod:`conegeom.tensors`.  The
module also provides the radial/primitive splitting of tangent vectors, the
induced metric on volume level sets, and a sampling check that a linear map
intertwining two volume polynomials is an isometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotPrimitive,
    VolumeNotPositive,
)
from .tensors import (
    ConePoint,
    IntersectionTensor,
    TangentVector,
    _check_dim,
    _coords,
    _jet,
    _tangent,
    as_point,
)

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
        for name in ("g", "grad_logvol", "point"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def norm_sq(self, u) -> float:
        u = _tangent(self.g.shape[0], u)
        return float(u @ self.g @ u)

    def inner(self, u, v) -> float:
        N = self.g.shape[0]
        return float(_tangent(N, u) @ self.g @ _tangent(N, v))


def signature_counts(m) -> tuple[int, int, int]:
    """Eigenvalue sign counts ``(positive, negative, null)`` of a symmetric matrix
    from one ``eigvalsh``: the package's one definiteness test.

    ``|lambda| <= SIGNATURE_RTOL * max |lambda|`` counts as null, so rescaling
    changes nothing; a matrix with a non-finite entry is null in every direction.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        return 0, 0, m.shape[0]
    eig = np.linalg.eigvalsh(m)
    thresh = SIGNATURE_RTOL * max(np.max(np.abs(eig)), 1e-300)
    pos = int(np.sum(eig > thresh))
    neg = int(np.sum(eig < -thresh))
    return pos, neg, m.shape[0] - pos - neg


def is_positive_definite(g) -> bool:
    """Whether all ``N`` eigenvalues of ``g`` count as positive in :func:`signature_counts`."""
    return signature_counts(g)[0] == np.shape(g)[0]


def _hessian_metric(vol: float, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    # g = V1 V1^T / Vol^2 - V2 / Vol = Hess(-log Vol), made exactly symmetric.
    g = np.outer(v1, v1) / vol**2 - v2 / vol
    return 0.5 * (g + g.T)


def _metric_jet(c: IntersectionTensor, t: np.ndarray, order: int = 2):
    """The metric and the volume jet ``(Vol, V_1, ..., V_order)`` at
    coordinates already checked; inner loops call this with plain arrays."""
    jet = _jet(c, t, order)
    if jet[0] <= 0.0:
        raise VolumeNotPositive(f"volume {jet[0]!r} at point {t.tolist()} is not positive")
    return _hessian_metric(*jet[:3]), jet


def _metric_at(c: IntersectionTensor, pt: ConePoint, order: int = 2):
    """:func:`metric_at` for a validated point, with the jet it took."""
    _check_dim(c.N, pt.t, "base point")
    g, jet = _metric_jet(c, pt.t, order)
    vol, v1 = jet[:2]
    data = MetricAtPoint(g=g, vol=vol, grad_logvol=-v1 / vol, point=pt.t)
    if pt.claimed_kahler and not is_positive_definite(g):
        raise NotPositiveDefinite("metric is not positive-definite at a point claimed to lie in the cone")
    return data, jet


def metric_at(c: IntersectionTensor, point) -> MetricAtPoint:
    """Evaluate the Hessian metric ``-Hess log Vol`` at a point.

    Raises
    ------
    VolumeNotPositive
        If ``Vol(t) <= 0``.
    NotPositiveDefinite
        If the point is claimed to lie in the positivity cone but the metric
        is not positive-definite (the claim is then untenable).
    """
    return _metric_at(c, as_point(point))[0]


def primitive_decompose(c: IntersectionTensor, point, u):
    """Split ``u = u0 * t + u1`` with ``u1`` primitive at ``t``.

    ``u0 = P_1(u; t) / (n Vol(t))``, which makes ``P_1(u1; t) = 0``.  Returns
    the pair ``(u0, u1)``.
    """
    t = _coords(c, point)
    uvec = _tangent(c.N, u)
    vol, v1 = _jet(c, t, 1)
    if vol <= 0.0:
        raise VolumeNotPositive(f"volume {vol!r} is not positive")
    u0 = float(v1 @ uvec) / (c.n * vol)
    u1 = uvec - u0 * t
    # A radial input leaves only rounding junk in u1; make it exactly zero so
    # the primitive part stays primitive by the levelset tolerance.
    if np.linalg.norm(u1) <= 1e-14 * max(np.linalg.norm(uvec), abs(u0) * np.linalg.norm(t)):
        u1 = np.zeros_like(u1)
    return u0, TangentVector(u1)


def _primitivity_bound(c: IntersectionTensor, t: np.ndarray, u: np.ndarray) -> float:
    tn = np.linalg.norm(t)
    return PRIMITIVITY_RTOL * np.linalg.norm(u) * tn ** (c.n - 1) * c.max_abs_entry()


def levelset_metric(c: IntersectionTensor, point, u, v) -> float:
    """Metric induced on the volume level set: ``-(1/Vol) P_2(u, v; t)``.

    Both arguments must be primitive at the base point; a vector whose radial
    pairing exceeds the documented tolerance raises :class:`NotPrimitive`.
    """
    t = _coords(c, point)
    uvec = _tangent(c.N, u)
    vvec = _tangent(c.N, v)
    vol, v1, v2 = _jet(c, t, 2)
    if vol <= 0.0:
        raise VolumeNotPositive(f"volume {vol!r} is not positive")
    for name, w in (("u", uvec), ("v", vvec)):
        p1 = float(v1 @ w)
        if abs(p1) > _primitivity_bound(c, t, w):
            raise NotPrimitive(f"{name} is not primitive at the base point (P_1 = {p1!r})")
    return float(-(uvec @ v2 @ vvec) / vol)


@dataclass(frozen=True)
class PullbackReport:
    """Residuals of the volume and metric intertwining identities."""

    max_vol_residual: float
    max_metric_residual: float
    tol: float
    n_points: int

    @property
    def passed(self) -> bool:
        return max(self.max_vol_residual, self.max_metric_residual) < self.tol


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
    largest relative residual over the supplied sample points.

    Parameters
    ----------
    cX, cY : IntersectionTensor
        Target and source tensors; ``A`` maps source coordinates (dim ``N_Y``)
        to target coordinates (dim ``N_X``).
    A : ndarray of shape (N_X, N_Y)
    p : float, positive
    points : iterable of source-cone points with ``Vol_Y > 0``
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (cX.N, cY.N):
        raise DimensionMismatch(f"map has shape {A.shape}, expected ({cX.N}, {cY.N})")
    if p <= 0:
        raise ValueError(f"degree factor p must be positive, got {p!r}")
    if cX.n != cY.n:
        raise DimensionMismatch("tensors must have the same degree")
    max_vol = 0.0
    max_met = 0.0
    count = 0
    for point in points:
        ty = _coords(cY, point)
        tx = A @ ty
        vol_y = _jet(cY, ty, 0)[0]
        if vol_y <= 0:
            raise VolumeNotPositive(f"sample point {ty.tolist()} has nonpositive volume")
        gx, (vol_x, _, _) = _metric_jet(cX, tx)
        max_vol = max(max_vol, abs(vol_x - p * vol_y) / abs(p * vol_y))
        gy = _metric_jet(cY, ty)[0]
        resid = A.T @ gx @ A - gy
        max_met = max(max_met, float(np.max(np.abs(resid)) / max(np.max(np.abs(gy)), 1e-300)))
        count += 1
    if count == 0:
        raise ValueError("pullback_check requires at least one sample point")
    return PullbackReport(max_vol_residual=max_vol, max_metric_residual=max_met, tol=tol, n_points=count)
