"""Geodesics, path lengths and boundary-ray diagnostics for the cone metric.

The geodesic equation ``t''^l + Gamma^l_{jk} t'^j t'^k = 0`` is integrated
with the 8th-order Dormand-Prince pair DOP853 and its combined 5th/3rd-order
error estimate.  Steps are rejected on the error estimate, because the
curvature blows up near the volume-cone boundary and fixed steps fail there,
and a step that drifts the conserved speed ``g(t', t')`` ends the shot.
Piecewise-linear paths and boundary rays share one Gauss-Legendre line
integral, and every length is compared against the lower bound

    L >= |log Vol(end) - log Vol(start)| / sqrt(n),

which radial paths achieve exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite
from .metric import _cone_jet, _hessian_metric, _metric_jet
from .tensors import IntersectionTensor, _freeze, _jet, _vector

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
# The embedded error test never asks for less than a few ulps of the state.
ERROR_FLOOR = 4 * np.finfo(float).eps
DEGENERACY_RATIO = 1e-3
VOLUME_EXIT_FACTOR = 1e-12
PANELS_PER_OCTAVE = 4

# DOP853, the 12-stage 8th-order pair of E. Hairer, S. P. Norsett and
# G. Wanner (Solving Ordinary Differential Equations I, 2nd ed., sec. II.10),
# as in their code DOP853 and SciPy's dop853_coefficients.py, without the
# dense-output stages.  Row i of _DOP_A builds stage i; _DOP_B is the 8th-order
# solution, where the next step's first stage is evaluated.  _DOP_E5 and
# _DOP_E3 weigh the 5th- and 3rd-order error estimates.
_DOP_A = np.array(
    [
        row + [0.0] * (12 - len(row))
        for row in (
            [],
            [0.05260015195876773],
            [0.0197250569845379, 0.0591751709536137],
            [0.02958758547680685, 0.0, 0.08876275643042054],
            [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
            [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
            [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
            [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
             0.008273789163814023],
            [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
             20.154067550477894, -43.48988418106996],
            [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
             15.279233632882423, -33.28821096898486, -0.020331201708508627],
            [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
             -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
            [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
             27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636],
        )
    ]
)
_DOP_B = np.array(
    [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259]
)
_DOP_E5 = np.array(
    [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
     -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294]
)
_DOP_E3 = np.array(
    [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082]
)


@dataclass(frozen=True)
class GeodesicPath:
    """Discretized geodesic: arc parameter, points, velocities and speeds.

    ``status`` is ``"completed"`` when the arc length was covered, and
    ``"metric_degenerate"`` when the shot reached a point ``t`` where
    ``lambda_min(g) * |t|^2 <= DEGENERACY_RATIO * n``; that point is the last
    one kept.  Since ``g(t, t) = n`` gives ``lambda_max >= n / |t|^2``, such a
    point also has ``lambda_min <= DEGENERACY_RATIO * lambda_max``.
    ``"ill_conditioned"`` means a step passed the error test but ended with
    ``|g(t', t') - 1| > tol``: rounding in the metric, about
    ``cond(g) * eps``, has outgrown the speed budget, so the shot ends at the
    last accepted point and every reported speed is within ``tol``.
    Otherwise the step shrank below ``STEP_FLOOR``: ``"exited_volume_cone"``
    if the last rejection was a stage point with
    ``Vol <= VOLUME_EXIT_FACTOR * Vol(t0)`` or a singular metric (a start
    whose first stage or starting-step probe meets one ends so at once),
    ``"step_underflow"`` if it was the error estimate.

    The samples are the accepted steps.  ``noether_residual`` is the largest
    ``|g(t, t') - g(t0, t'0)|`` over them: ``g(t, t') = D_t' log Vol`` is
    constant along a geodesic, so it checks the shot independently of the
    speed drift.
    """

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    speeds: np.ndarray
    status: str
    noether_residual: float

    def __post_init__(self):
        _freeze(self, "s", "points", "velocities", "speeds")

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
    the requested arc length unless the volume-cone boundary or the
    degeneracy locus (``Vol > 0`` but ``lambda_min(g) -> 0``) intervenes.

    The first step is the starting-step estimate of Hairer, Norsett & Wanner
    (Solving ODEs I, sec. II.4), with the error budget per unit of arc length
    as tolerance; its Euler probe costs one right-hand side.  Each step
    evaluates twelve right-hand sides.  The last, at the new point ``t``, is
    reused as the next step's first stage, and the step takes the eigenvalues
    of the metric it built there; the run ends ``"metric_degenerate"`` at the
    first point where ``lambda_min * |t|^2 <= DEGENERACY_RATIO * n``.
    The test is scale-free: ``g`` is homogeneous of degree -2, and
    ``lambda_min / lambda_max`` alone can be tiny on a complete geodesic.
    Such an ending is evidence about this one geodesic, not a completeness
    statement.  The error test accepts a step whose normalized estimate is
    at most ``max(0.1 * tol / arclength * h, ERROR_FLOOR)``, so no step is
    asked for accuracy below rounding.

    Parameters
    ----------
    c : IntersectionTensor
    t0 : starting point, ``Vol > 0``
    u0 : initial direction with positive metric norm
    arclength : float, total arc length to cover, finite and positive
    tol : float
        Bound on the speed drift ``|g(t', t') - 1|`` at every point of the run,
        finite and positive; the shot ends ``"ill_conditioned"`` at the first
        step, accurate by the error test, that ends beyond it.
    """
    for name, value in (("arclength", arclength), ("tol", tol)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    t = _vector(c.N, t0, "base point")
    u = _vector(c.N, u0, "tangent vector")
    g, (vol0, _, _) = _metric_jet(c, t)
    speed2 = float(u @ g @ u)
    if speed2 <= 0:
        raise ValueError("initial direction has nonpositive metric norm")
    y = np.concatenate([t, u / math.sqrt(speed2)])
    N = c.N
    exit_level = VOLUME_EXIT_FACTOR * vol0

    def rhs(state):
        # Geodesic right-hand side, the metric and the Noether quantity
        # g(t, v) = V_1 v / Vol: one volume jet, one solve.
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
        return np.concatenate([vel, acc]), g, v1v / vol

    # The error budget per unit of arc length.
    err_tol_per_unit = 0.1 * tol / arclength

    s_val = 0.0
    samples = [(0.0, y.copy(), 1.0)]
    status = "completed"
    degenerate_level = DEGENERACY_RATIO * c.n
    noether_residual = 0.0
    # Stage derivatives, one row each.  First same as last: the stage at the
    # new point becomes the next step's stage 0.
    K = np.empty((12, 2 * N))
    boundary_reject = False
    try:
        K[0], _, noether0 = rhs(y)
        # The starting step: h^8 0.01 max(|y'|, |y''|) = budget, at most 100 probes.
        d1 = float(np.max(np.abs(K[0])))
        h0 = 0.01 * float(np.max(np.abs(y))) / d1
        d2 = float(np.max(np.abs(rhs(y + h0 * K[0])[0] - K[0]))) / h0
        sc = err_tol_per_unit * max(1.0, float(np.max(np.abs(y))))
        h = min(arclength, 100.0 * h0, (0.01 * sc / max(d1, d2)) ** 0.125)
    except _BoundaryHit:
        # No step can start where the first stage or its probe fails.
        h, boundary_reject = 0.0, True
    while s_val < arclength:
        h = min(h, arclength - s_val)
        if h < STEP_FLOOR:
            status = "exited_volume_cone" if boundary_reject else "step_underflow"
            break
        try:
            for i in range(1, 12):
                K[i] = rhs(y + h * (_DOP_A[i, :i] @ K[:i]))[0]
            y_new = y + h * (_DOP_B @ K)
            k_new, g, noether = rhs(y_new)
        except _BoundaryHit:
            boundary_reject = True
            h *= 0.5
            continue
        scale = max(1.0, float(np.max(np.abs(y_new))))
        err5 = float(np.max(np.abs(_DOP_E5 @ K))) / scale
        err3 = float(np.max(np.abs(_DOP_E3 @ K))) / scale
        err = h * err5**2 / math.sqrt(err5**2 + 0.01 * err3**2) if err5 > 0 else 0.0
        err_tol = max(err_tol_per_unit * h, ERROR_FLOOR)
        if err > err_tol:
            boundary_reject = False
            h *= 0.5
            continue
        sp = float(y_new[N:] @ g @ y_new[N:])
        if abs(sp - 1.0) > tol:
            status = "ill_conditioned"
            break
        # The last step lands on arclength exactly, whatever s_val + h rounds to.
        s_val = arclength if h == arclength - s_val else s_val + h
        y = y_new
        K[0] = k_new
        samples.append((s_val, y, sp))
        noether_residual = max(noether_residual, abs(noether - noether0))
        boundary_reject = False
        if np.linalg.eigvalsh(g)[0] * float(y[:N] @ y[:N]) <= degenerate_level:
            status = "metric_degenerate"
            break
        # Step growth with DOP853's exponent 1/8, capped.
        if err > 0:
            h *= min(4.0, max(0.2, 0.9 * (err_tol / err) ** 0.125))
        else:
            h *= 4.0
    s_arr = np.array([s for s, _, _ in samples])
    pts = np.array([st[:N] for _, st, _ in samples])
    vels = np.array([st[N:] for _, st, _ in samples])
    speeds = np.array([sp for _, _, sp in samples])
    return GeodesicPath(
        s=s_arr, points=pts, velocities=vels, speeds=speeds, status=status, noether_residual=noether_residual
    )


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _line_length(c, a, w, edges):
    # Length of a + tau * w over the panels between consecutive edges: 8-point
    # Gauss-Legendre quadrature of sqrt(g(w, w)) on each panel.
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            x = a + (mid + half * node) * w
            q = float(w @ _metric_jet(c, x)[0] @ w)
            if q < 0:
                raise NotPositiveDefinite(f"metric is indefinite at path point {x.tolist()}: g(w, w) = {q!r}")
            total += weight * half * math.sqrt(q)
    return total


def _path_length(c: IntersectionTensor, points):
    # The volumes at the path points and the length of the path through them.
    pts = np.atleast_2d(np.asarray(points))
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError(f"expected a (k, {c.N}) array of path points, got shape {pts.shape}")
    pts = np.array([_vector(c.N, p, "path point") for p in pts])
    vols = [_cone_jet(c, p, 0)[0] for p in pts]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if np.array_equal(a, b):
            continue
        total += _line_length(c, a, b - a, (0.0, 1.0))
    return vols, float(total)


def path_length(c: IntersectionTensor, points) -> float:
    """Length of a piecewise-linear path through the rows of a ``(k, N)`` array.

    Each segment is one panel of the 8-point Gauss-Legendre rule for
    ``sqrt(g(delta, delta))`` that ray studies use too.  Every supplied point
    must have positive volume; quadrature nodes outside the volume cone raise
    as well, and a node where ``g(delta, delta) < 0`` raises
    :class:`NotPositiveDefinite`.
    """
    return _path_length(c, points)[1]


@dataclass(frozen=True)
class LengthBoundReport:
    """Path length against the log-volume lower bound."""

    length: float
    bound: float
    slack: float
    passed: bool


def length_bound_check(c: IntersectionTensor, points, slack: float = 1e-9) -> LengthBoundReport:
    """Check ``L >= |log Vol(end) - log Vol(start)| / sqrt(n)`` for a path,
    up to a finite ``slack >= 0``."""
    if not 0 <= slack < math.inf:
        raise ValueError(f"slack must be finite and nonnegative, got {slack!r}")
    vols, length = _path_length(c, points)
    bound = abs(math.log(vols[-1]) - math.log(vols[0])) / math.sqrt(c.n)
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


def boundary_ray_study(c: IntersectionTensor, alpha, omega, t_mins=None) -> RayStudy:
    """Measure lengths of the affine ray ``alpha + t * omega`` as ``t_min`` drops.

    ``alpha`` is a (typically boundary) class supplied by the caller, ``omega``
    an interior direction; the default ``t_min`` sequence is ``2**-k`` for
    ``k = 1..20``.  Rows are running sums: a row adds the length of its new
    stretch ``[t_min, previous t_min]`` (``[t_min, 1]`` first), integrated on
    ``PANELS_PER_OCTAVE`` geometric panels per octave of the stretch.  The
    report flags ``converged`` when successive lengths differ by less than
    ``1e-4`` of the last value, and ``diverging`` when the lengths track a
    log-volume bound that has grown to ten times its first row (both carry
    ``1/sqrt(n)``, so the rule does not depend on the degree).
    A ray point where ``Vol <= 0`` raises :class:`VolumeNotPositive`: the end
    ``t = 1``, the end ``t_min`` of every row and every quadrature node are
    checked.  A node where ``g(omega, omega) < 0`` raises
    :class:`NotPositiveDefinite`.
    """
    a = _vector(c.N, alpha, "base point")
    w = _vector(c.N, omega, "ray direction")
    if t_mins is None:
        t_mins = [2.0**-k for k in range(1, 21)]
    t_mins = sorted((float(x) for x in t_mins), reverse=True)
    if not t_mins:
        raise ValueError("boundary_ray_study requires at least one t_min value")
    rows = []
    vol_top = _cone_jet(c, a + w, 0)[0]
    length, t_hi = 0.0, 1.0
    for t_min in t_mins:
        if not 0 < t_min < 1:
            raise ValueError(f"t_min values must lie in (0, 1), got {t_min!r}")
        if t_min < t_hi:
            # Geometrically spaced panels resolve the 1/t-type blowup of the
            # integrand near a volume-zero endpoint.
            n_oct = max(1, math.ceil(math.log2(t_hi / t_min)))
            edges = np.geomspace(t_min, t_hi, n_oct * PANELS_PER_OCTAVE + 1)
            length += _line_length(c, a, w, edges)
            t_hi = t_min
        vol_lo = _cone_jet(c, a + t_min * w, 0)[0]
        bound = abs(math.log(vol_top) - math.log(vol_lo)) / math.sqrt(c.n)
        rows.append((t_min, length, bound))
    flag = "inconclusive"
    if len(rows) >= 2:
        last, prev = rows[-1][1], rows[-2][1]
        if abs(last - prev) < 1e-4 * abs(last):
            flag = "converged"
        elif rows[-1][2] >= 10.0 * rows[0][2] > 0 and last >= rows[-1][2] - 1e-9:
            flag = "diverging"
    return RayStudy(rows=rows, flag=flag)
