"""Geodesics, path lengths and boundary-ray diagnostics for the cone metric.

The geodesic equation ``t''^l + Gamma^l_{jk} t'^j t'^k = 0`` is integrated
with an embedded Dormand-Prince 5(4) scheme.  Steps are rejected both on the
embedded error estimate and on drift of the conserved speed ``g(t', t')``,
because the curvature blows up near the volume-cone boundary and fixed steps
fail there.  Lengths of piecewise-linear paths use per-segment Gauss-Legendre
quadrature, and every length is compared against the lower bound

    L >= |log Vol(end) - log Vol(start)| / sqrt(n),

which radial paths achieve exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, VolumeNotPositive
from .metric import _hessian_metric, _metric_jet, metric_at
from .tensors import IntersectionTensor, _coords, _jet, _tangent, as_point

__all__ = [
    "GeodesicPath",
    "geodesic_shoot",
    "path_length",
    "length_bound_check",
    "LengthBoundReport",
    "boundary_ray_study",
    "RayStudy",
]

STEP_FLOOR = 1e-14
VOLUME_EXIT_FACTOR = 1e-12

# Dormand-Prince 5(4) tableau; the last row of _DP_A is the 5th-order solution.
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


@dataclass(frozen=True)
class GeodesicPath:
    """Discretized geodesic: arc parameter, points, velocities and speeds.

    ``status`` is ``"completed"`` when the arc length was covered.  Otherwise
    the step shrank below ``STEP_FLOOR``: ``"exited_volume_cone"`` if the last
    rejection was a stage point with ``Vol <= VOLUME_EXIT_FACTOR * Vol(t0)``
    or a singular metric, ``"step_underflow"`` if it was the error estimate
    or the speed drift (as on the metric-degeneracy locus).
    """

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    speeds: np.ndarray
    status: str

    def __post_init__(self):
        for name in ("s", "points", "velocities", "speeds"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]

    @property
    def end_velocity(self) -> np.ndarray:
        return self.velocities[-1]

    @property
    def arclength(self) -> float:
        return float(self.s[-1])


class _BoundaryHit(Exception):
    pass


def geodesic_shoot(c: IntersectionTensor, t0, u0, arclength: float, tol: float = 1e-10) -> GeodesicPath:
    """Shoot a unit-speed geodesic from ``t0`` in direction ``u0``.

    The initial velocity is normalized to ``g(u, u) = 1``, so the run covers
    the requested arc length unless the volume-cone boundary intervenes.

    Parameters
    ----------
    c : IntersectionTensor
    t0 : starting point, ``Vol > 0``
    u0 : initial direction with positive metric norm
    arclength : float, total arc length to cover
    tol : float
        Bound on the speed drift ``|g(t', t') - 1|`` over the run; steps
        violating a proportional share of it are rejected.
    """
    pt = as_point(t0)
    u = _tangent(c.N, u0)
    data = metric_at(c, pt)
    vol0 = data.vol
    speed2 = float(u @ data.g @ u)
    if speed2 <= 0:
        raise ValueError("initial direction has nonpositive metric norm")
    if arclength <= 0:
        raise ValueError("arclength must be positive")
    y = np.concatenate([pt.t, u / math.sqrt(speed2)])
    N = c.N
    exit_level = VOLUME_EXIT_FACTOR * vol0

    def rhs(state):
        # Geodesic right-hand side and the metric: one volume jet, one solve.
        vel = state[N:]
        vol, v1, v2, v3 = _jet(c, state[:N], 3)
        if vol <= exit_level:
            raise _BoundaryHit
        g = _hessian_metric(vol, v1, v2)
        # F_{ijk} v^j v^k contracted directly; F is the log-volume potential.
        v1v = float(v1 @ vel)
        v2v = v2 @ vel
        f3vv = (
            -(v3 @ vel @ vel) / vol
            + (2.0 * v2v * v1v + v1 * float(vel @ v2v)) / vol**2
            - 2.0 * v1 * v1v**2 / vol**3
        )
        try:
            acc = -np.linalg.solve(g, 0.5 * f3vv)
        except np.linalg.LinAlgError:
            raise _BoundaryHit from None
        return np.concatenate([vel, acc]), g

    # Local budgets: embedded error and per-step speed drift proportional to
    # the step fraction of the run.
    err_tol_per_unit = 0.1 * tol / arclength

    s_val = 0.0
    h = min(arclength, 1e-2)
    samples = [(0.0, y.copy(), 1.0)]
    status = "completed"
    # First same as last: stage 7 is evaluated at y5, the next step's stage 1.
    k = [None] * 7
    boundary_reject = False
    while s_val < arclength:
        h = min(h, arclength - s_val)
        if h < STEP_FLOOR:
            status = "exited_volume_cone" if boundary_reject else "step_underflow"
            break
        try:
            if k[0] is None:
                k[0] = rhs(y)[0]
            for i in range(1, 7):
                yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
                k[i], g = rhs(yi)
        except _BoundaryHit:
            boundary_reject = True
            h *= 0.5
            continue
        y5 = yi
        y4 = y + h * sum(b * ki for b, ki in zip(_DP_B4, k))
        err = float(np.max(np.abs(y5 - y4))) / max(1.0, float(np.max(np.abs(y5))))
        sp = float(y5[N:] @ g @ y5[N:])
        drift = abs(sp - 1.0)
        if err > err_tol_per_unit * h or drift > max(tol, err_tol_per_unit * h * 10):
            boundary_reject = False
            h *= 0.5
            continue
        s_val += h
        y = y5
        k[0] = k[6]
        samples.append((s_val, y.copy(), sp))
        boundary_reject = False
        # Standard 5th-order step growth, capped.
        if err > 0:
            h *= min(4.0, max(0.2, 0.9 * (err_tol_per_unit * h / err) ** 0.2))
        else:
            h *= 4.0
    s_arr = np.array([s for s, _, _ in samples])
    pts = np.array([st[:N] for _, st, _ in samples])
    vels = np.array([st[N:] for _, st, _ in samples])
    speeds = np.array([sp for _, _, sp in samples])
    return GeodesicPath(s=s_arr, points=pts, velocities=vels, speeds=speeds, status=status)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _speed(g, w, x):
    # sqrt(g(w, w)) at the point x of a path or ray with velocity w.
    q = float(w @ g @ w)
    if q < 0:
        raise NotPositiveDefinite(f"metric is indefinite at path point {x.tolist()}: g(w, w) = {q!r}")
    return math.sqrt(q)


def _segment_length(c, a, b):
    delta = b - a
    total = 0.0
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        x = a + 0.5 * (node + 1.0) * delta
        total += weight * _speed(_metric_jet(c, x)[0], delta, x)
    return 0.5 * total


def path_length(c: IntersectionTensor, points) -> float:
    """Length of a piecewise-linear path through the given points.

    Each segment is integrated with 8-point Gauss-Legendre quadrature of
    ``sqrt(g(delta, delta))``.  Every supplied point must have positive
    volume; quadrature nodes outside the volume cone raise as well, and a node
    where ``g(delta, delta) < 0`` raises :class:`NotPositiveDefinite`.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 1 or pts.shape[1] != c.N:
        raise ValueError(f"expected a list of points of dimension {c.N}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("path points must be finite")
    for p in pts:
        if _jet(c, p, 0)[0] <= 0:
            raise VolumeNotPositive(f"path sample {p.tolist()} has nonpositive volume")
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if np.array_equal(a, b):
            continue
        total += _segment_length(c, a, b)
    return float(total)


@dataclass(frozen=True)
class LengthBoundReport:
    """Path length against the log-volume lower bound."""

    length: float
    bound: float
    slack: float
    passed: bool


def length_bound_check(c: IntersectionTensor, points, slack: float = 1e-9) -> LengthBoundReport:
    """Check ``L >= |log Vol(end) - log Vol(start)| / sqrt(n)`` for a path."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    length = path_length(c, pts)
    va = _jet(c, pts[0], 0)[0]
    vb = _jet(c, pts[-1], 0)[0]
    bound = abs(math.log(vb) - math.log(va)) / math.sqrt(c.n)
    return LengthBoundReport(
        length=length,
        bound=bound,
        slack=length - bound,
        passed=bool(length >= bound - slack),
    )


@dataclass(frozen=True)
class RayStudy:
    """Lengths of the ray ``alpha + t * omega`` over ``[t_min, 1]``.

    ``rows`` is a list of ``(t_min, length, bound)`` triples, where ``bound``
    is the log-volume lower bound for the same parameter range.  ``flag`` is
    ``"converged"``, ``"diverging"`` or ``"inconclusive"``: convergence is an
    empirical statement about this single ray, never a completeness claim.
    """

    rows: list[tuple[float, float, float]]
    flag: str

    @property
    def lengths(self) -> list[float]:
        return [r[1] for r in self.rows]

    @property
    def bounds(self) -> list[float]:
        return [r[2] for r in self.rows]


def _ray_length(c, alpha, omega, t_lo, t_hi, panels_per_octave=4):
    # Geometrically spaced panels resolve the 1/t-type blowup of the
    # integrand near a volume-zero endpoint.
    n_oct = max(1, math.ceil(math.log2(t_hi / t_lo)))
    edges = np.geomspace(t_lo, t_hi, n_oct * panels_per_octave + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            tau = mid + half * node
            x = alpha + tau * omega
            vol, v1, v2 = _jet(c, x, 2)
            if vol <= 0:
                raise VolumeNotPositive(f"ray point at parameter {tau!r} has nonpositive volume")
            total += weight * half * _speed(_hessian_metric(vol, v1, v2), omega, x)
    return total


def boundary_ray_study(
    c: IntersectionTensor,
    alpha,
    omega,
    t_mins=None,
    panels_per_octave: int = 4,
) -> RayStudy:
    """Measure lengths of the affine ray ``alpha + t * omega`` as ``t_min`` drops.

    ``alpha`` is a (typically boundary) class supplied by the caller, ``omega``
    an interior direction; the default ``t_min`` sequence is ``2**-k`` for
    ``k = 1..20``.  The report flags ``converged`` when successive lengths
    differ by less than ``1e-4`` of the last value, and ``diverging`` when the
    lengths track a log-volume bound that has grown past ten times the first
    segment's length.  A ray point where ``Vol <= 0`` or ``g(omega, omega) < 0``
    raises :class:`VolumeNotPositive` or :class:`NotPositiveDefinite`.
    """
    a = _coords(c, alpha)
    w = _tangent(c.N, omega, "ray direction")
    if t_mins is None:
        t_mins = [2.0**-k for k in range(1, 21)]
    t_mins = sorted((float(x) for x in t_mins), reverse=True)
    rows = []
    vol_top = _jet(c, a + w, 0)[0]
    if vol_top <= 0:
        raise VolumeNotPositive("ray endpoint at t = 1 has nonpositive volume")
    for t_min in t_mins:
        if not 0 < t_min < 1:
            raise ValueError(f"t_min values must lie in (0, 1), got {t_min!r}")
        length = _ray_length(c, a, w, t_min, 1.0, panels_per_octave)
        vol_lo = _jet(c, a + t_min * w, 0)[0]
        bound = abs(math.log(vol_top) - math.log(vol_lo)) / math.sqrt(c.n)
        rows.append((t_min, length, bound))
    flag = "inconclusive"
    if len(rows) >= 2:
        last, prev = rows[-1][1], rows[-2][1]
        if abs(last - prev) < 1e-4 * abs(last):
            flag = "converged"
        elif rows[-1][2] >= 10.0 * rows[0][1] and last >= rows[-1][2] - 1e-9:
            flag = "diverging"
    return RayStudy(rows=rows, flag=flag)
