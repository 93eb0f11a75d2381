"""Sampling-based exploration of sectional curvature and metric signature.

The scanner draws tangent 2-planes at sampled base points, evaluates their
sectional curvature, optionally refines the largest value by an ascent over
nearby planes made of closed-form line searches, and can also profile the
eigenvalue signs of the metric across the volume-positive region.  Everything
is reported as evidence: no negativity statement is asserted for degree >= 3,
where the question is open.

Reproducibility: all randomness for a sample with index ``i`` comes from
``default_rng((seed, i))``, so each sample's draws depend only on the seed
and its index.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePlane, NoValidPoints, NotPositiveDefinite, SingularMetric, VolumeNotPositive
from .curvature import _sectional, christoffel_at
from .metric import _hessian_metric, is_positive_definite, signature_counts
from .tensors import IntersectionTensor, _coords, _jet

__all__ = [
    "ScanReport",
    "scan_sectional",
    "signature_profile",
    "sample_cone_points",
    "tensor_id",
]

HISTOGRAM_BINS = 20


def tensor_id(c: IntersectionTensor) -> str:
    """Stable identifier for a tensor: hash of its canonical content.

    Computed once per tensor object and kept on it, since the tensor is
    immutable.
    """
    cached = vars(c).get("_tensor_id")
    if cached is None:
        payload = json.dumps(
            {"n": c.n, "N": c.N, "entries": sorted((list(k), v) for k, v in c.entries.items())},
            sort_keys=True,
        )
        cached = hashlib.sha256(payload.encode()).hexdigest()[:12]
        object.__setattr__(c, "_tensor_id", cached)
    return cached


def sample_cone_points(
    c: IntersectionTensor,
    anchor,
    count: int,
    seed: int = 0,
    spread: float = 0.25,
    require_pd: bool = True,
    max_tries: int = 200,
):
    """Rejection-sample points near an anchor subject to ``Vol > 0`` (and
    optionally a positive-definite metric).

    Raises :class:`NoValidPoints` when the acceptance rate collapses.
    """
    t0 = _coords(c, anchor)
    if _jet(c, t0, 0)[0] <= 0:
        raise NoValidPoints("anchor point has nonpositive volume")
    scale = spread * float(np.linalg.norm(t0)) / np.sqrt(c.N)
    points = []
    for i in range(count):
        rng = np.random.default_rng((seed, 7, i))
        accepted = None
        for _ in range(max_tries):
            candidate = t0 + scale * rng.normal(size=c.N)
            jet = _jet(c, candidate, 2)
            if jet[0] <= 0:
                continue
            if require_pd and not is_positive_definite(_hessian_metric(*jet)):
                continue
            accepted = candidate
            break
        if accepted is None:
            raise NoValidPoints(
                f"could not sample point {i} near anchor {t0.tolist()} after {max_tries} tries"
            )
        points.append(accepted)
    return points


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a curvature scan and/or signature profile.

    ``k_samples`` rows are ``(sample_index, point_index, K)``; the attaining
    planes of the extreme values are stored explicitly so each reported value
    can be reproduced by a direct sectional-curvature call.  Signature entries
    are ``(point, n_positive, n_negative, n_null)`` with counts summing to N.
    """

    tensor: str
    seed: int
    points: list
    k_samples: list = field(default_factory=list)
    k_min: float | None = None
    k_max: float | None = None
    k_min_plane: tuple | None = None  # (point, u, v)
    k_max_plane: tuple | None = None
    histogram: dict | None = None
    signature_entries: list = field(default_factory=list)
    fraction_positive_definite: float | None = None
    planes_per_point: int = 0
    optimized: bool = False

    def __post_init__(self):
        if self.k_min is not None and self.k_max is not None and self.k_min > self.k_max:
            raise ValueError("scan produced k_min > k_max")
        for entry in self.signature_entries:
            _, pos, neg, null = entry
            if pos + neg + null != len(self.points[0]):
                raise ValueError("signature counts must sum to the space dimension")

    def to_dict(self) -> dict:
        def arr(x):
            return [float(v) for v in x]

        out = {
            "tensor": self.tensor,
            "seed": self.seed,
            "planes_per_point": self.planes_per_point,
            "optimized": self.optimized,
            "points": [arr(p) for p in self.points],
        }
        if self.k_samples:
            out["k_samples"] = [
                {"sample": int(i), "point": int(pi), "K": float(k)} for i, pi, k in self.k_samples
            ]
            out["k_min"] = float(self.k_min)
            out["k_max"] = float(self.k_max)
            out["k_min_plane"] = {
                "point": arr(self.k_min_plane[0]),
                "u": arr(self.k_min_plane[1]),
                "v": arr(self.k_min_plane[2]),
            }
            out["k_max_plane"] = {
                "point": arr(self.k_max_plane[0]),
                "u": arr(self.k_max_plane[1]),
                "v": arr(self.k_max_plane[2]),
            }
            out["histogram"] = {
                "edges": arr(self.histogram["edges"]),
                "counts": [int(n) for n in self.histogram["counts"]],
            }
        if self.signature_entries:
            out["signature_entries"] = [
                {"point": arr(p), "positive": int(a), "negative": int(b), "null": int(c)}
                for p, a, b, c in self.signature_entries
            ]
            out["fraction_positive_definite"] = float(self.fraction_positive_definite)
        return out


def _orthonormal_pair(g: np.ndarray, rng, max_tries: int = 16):
    n = g.shape[0]
    for _ in range(max_tries):
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        nx = float(x @ g @ x)
        if nx <= 0:
            continue
        u = x / np.sqrt(nx)
        w = y - float(y @ g @ u) * u
        nw = float(w @ g @ w)
        if nw <= 1e-12 * float(y @ g @ y):
            continue
        return u, w / np.sqrt(nw)
    raise NoValidPoints("failed to draw a nondegenerate tangent plane")


def _fixed_quadric(curv, f):
    """``Q`` with ``R(y, f, f, z) = y^T Q z``, in ``O(N^3)`` from the Christoffel symbols:
    ``Q = (Gamma f) (Gamma2 f) - Gamma(Gamma2(f, f))`` by the identity of
    :func:`~conegeom.curvature.riemann_at`."""
    N = f.shape[0]
    second = (curv.gamma_second.reshape(N * N, N) @ f).reshape(N, N)
    first = (curv.gamma_first.reshape(N * N, N) @ np.array([f, second @ f]).T).reshape(N, N, 2)
    return first[..., 0] @ second - first[..., 1]


def _stationary_tangents(a, b, c):
    # Real roots of a t^2 + b t + c in the cancellation-free form; a negative
    # discriminant is rounding at a double root and counts as zero.
    q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
    if q == 0.0:
        return [0.0] if a != 0.0 else []
    return [c / q] + ([q / a] if a != 0.0 else [])


def _line_max(curv, fixed, x, e):
    """Best ``(K, theta)`` over the planes ``span{cos(theta) x + sin(theta) e, fixed}``
    with ``|theta| <= 0.6``, or ``None`` if every candidate plane is degenerate.

    With ``z = (cos theta, sin theta)``, ``y = (x, e)`` and ``f = fixed``,
    ``K = z^T num z / z^T gram z`` for the 2x2 matrices
    ``num_ij = R(y_i, f, f, y_j) = y_i^T Q y_j`` (``Q`` from
    :func:`_fixed_quadric`) and
    ``gram_ij = g(y_i, y_j) g(f, f) - g(y_i, f) g(y_j, f)``.  The quotient is
    stationary where ``num z`` is parallel to ``gram z``, a quadratic in
    ``tan theta``; its roots in the interval and both ends are the candidates.
    They are ranked by the quotient, and the best one that spans a plane is
    evaluated by :func:`~conegeom.curvature._sectional`, which gives ``K``.
    """
    g = curv.metric.g
    y = np.array([x, e])
    (n00, n01), (n10, n11) = (y @ _fixed_quadric(curv, fixed) @ y.T).tolist()
    n01 = 0.5 * (n01 + n10)
    gy = y @ g
    (y00, y01), (_, y11) = (gy @ y.T).tolist()
    f0, f1 = (gy @ fixed).tolist()
    ff = float(fixed @ g @ fixed)
    g00, g01, g11 = y00 * ff - f0 * f0, y01 * ff - f0 * f1, y11 * ff - f1 * f1
    thetas = [-0.6, 0.6]
    for root in _stationary_tangents(n01 * g11 - n11 * g01, n00 * g11 - n11 * g00, n00 * g01 - n01 * g00):
        theta = math.atan(root)
        if abs(theta) <= 0.6:
            thetas.append(theta)

    def quotient(theta):
        cs, sn = math.cos(theta), math.sin(theta)
        zgz = g00 * cs * cs + 2.0 * g01 * cs * sn + g11 * sn * sn
        znz = n00 * cs * cs + 2.0 * n01 * cs * sn + n11 * sn * sn
        return znz / zgz if zgz > 0.0 else -math.inf

    for theta in sorted(thetas, key=quotient, reverse=True):
        try:
            return _sectional(curv, np.cos(theta) * x + np.sin(theta) * e, fixed), theta
        except DegeneratePlane:
            continue
    return None


def _refine_plane(curv, u, v):
    """Coordinate-wise ascent of K over nearby 2-planes by exact line searches.

    Each vector of the pair in turn is rotated toward each complement direction
    of a g-orthonormal frame by the best angle :func:`_line_max` finds, and the
    pair is re-orthonormalized after every accepted move.
    """
    g = curv.metric.g
    n = g.shape[0]

    def gs_pair(a, b):
        a = a / np.sqrt(float(a @ g @ a))
        b = b - float(b @ g @ a) * a
        return a, b / np.sqrt(float(b @ g @ b))

    u, v = gs_pair(u, v)
    best = _sectional(curv, u, v)
    # Complete {u, v} to a g-orthonormal frame from the coordinate basis.
    frame = [u, v]
    for i in range(n):
        cand = np.eye(n)[i]
        for f in frame:
            cand = cand - float(cand @ g @ f) * f
        norm = float(cand @ g @ cand)
        if norm > 1e-10:
            frame.append(cand / np.sqrt(norm))
    frame = frame[: n]
    for _ in range(3):
        improved = False
        # K(u, v) = K(v, u), so either vector of the pair is rotated the same way.
        for which in (0, 1):
            for e in frame[2:]:
                found = _line_max(curv, frame[1 - which], frame[which], e)
                if found is not None and found[0] > best + 1e-15:
                    best, theta = found
                    frame[which] = np.cos(theta) * frame[which] + np.sin(theta) * e
                    frame[0], frame[1] = gs_pair(frame[0], frame[1])
                    improved = True
        if not improved:
            break
    return best, frame[0], frame[1]


def scan_sectional(
    c: IntersectionTensor,
    points,
    planes_per_point: int = 32,
    optimize: bool = False,
    seed: int = 0,
) -> ScanReport:
    """Sample sectional curvatures over tangent 2-planes at the given points.

    Parameters
    ----------
    c : IntersectionTensor
    points : iterable of base points, each with positive volume and
        positive-definite metric (violating points are dropped).
    planes_per_point : number of g-orthonormal random planes per point.
    optimize : refine the largest sample by plane-space ascent.
    seed : drives all plane randomness, per-sample substreams.
    """
    if planes_per_point < 1:
        raise ValueError(f"planes_per_point must be at least 1, got {planes_per_point!r}")
    curvs = []
    for p in points:
        try:
            curv = christoffel_at(c, p)
        except (VolumeNotPositive, NotPositiveDefinite, SingularMetric):
            continue
        if is_positive_definite(curv.metric.g):
            curvs.append(curv)
    if not curvs:
        raise NoValidPoints("no sampled point has positive volume and positive-definite metric")
    if c.N < 2:
        raise NoValidPoints("no tangent 2-planes exist in a one-dimensional cone")
    results = []
    for pi, curv in enumerate(curvs):
        idx = range(pi * planes_per_point, (pi + 1) * planes_per_point)
        us, vs = zip(*(_orthonormal_pair(curv.metric.g, np.random.default_rng((seed, i))) for i in idx))
        k = _sectional(curv, np.array(us), np.array(vs)).tolist()
        results.extend(zip(idx, [pi] * planes_per_point, k, us, vs))

    k_values = np.array([r[2] for r in results])
    i_min = int(np.argmin(k_values))
    i_max = int(np.argmax(k_values))
    k_min, k_max = float(k_values[i_min]), float(k_values[i_max])
    min_plane = (curvs[results[i_min][1]].base, results[i_min][3], results[i_min][4])
    max_plane = (curvs[results[i_max][1]].base, results[i_max][3], results[i_max][4])

    optimized = False
    if optimize:
        pi = results[i_max][1]
        refined, u_ref, v_ref = _refine_plane(curvs[pi], results[i_max][3], results[i_max][4])
        # The optimizer never reports less than the best raw sample.
        if refined > k_max:
            k_max = refined
            max_plane = (curvs[pi].base, u_ref, v_ref)
        optimized = True

    counts, edges = np.histogram(k_values, bins=HISTOGRAM_BINS)
    return ScanReport(
        tensor=tensor_id(c),
        seed=seed,
        points=[curv.base for curv in curvs],
        k_samples=[(r[0], r[1], r[2]) for r in results],
        k_min=k_min,
        k_max=k_max,
        k_min_plane=min_plane,
        k_max_plane=max_plane,
        histogram={"edges": edges, "counts": counts},
        planes_per_point=planes_per_point,
        optimized=optimized,
    )


def signature_profile(c: IntersectionTensor, points, seed: int = 0) -> ScanReport:
    """Eigenvalue sign counts of the metric at each volume-positive point.

    Reports per-point signatures and the fraction of positive-definite
    samples; makes no assertion about what the signatures should be away
    from the positivity cone.
    """
    entries = []
    for p in points:
        t = _coords(c, p)
        jet = _jet(c, t, 2)
        if jet[0] > 0:
            entries.append((t, *signature_counts(_hessian_metric(*jet))))
    if not entries:
        raise NoValidPoints("no sampled point has positive volume")
    return ScanReport(
        tensor=tensor_id(c),
        seed=seed,
        points=[e[0] for e in entries],
        signature_entries=entries,
        fraction_positive_definite=sum(e[1] == c.N for e in entries) / len(entries),
    )
