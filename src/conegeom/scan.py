"""Sampling-based exploration of sectional curvature and metric signature.

The scanner draws tangent 2-planes at sampled base points, evaluates their
sectional curvature, optionally refines the largest value by a derivative-free
ascent over nearby planes, and can also profile the eigenvalue signs of the
metric across the volume-positive region.  Everything is reported as
evidence: no negativity statement is asserted for degree >= 3, where the
question is open.

Reproducibility: all randomness for a sample with index ``i`` comes from
``default_rng((seed, i))``, so each sample's draws depend only on the seed
and its index.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePlane, NoValidPoints, NotPositiveDefinite, SingularMetric, VolumeNotPositive
from .curvature import _sectional, riemann_at
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
    """Stable identifier for a tensor: hash of its canonical content."""
    payload = json.dumps(
        {"n": c.n, "N": c.N, "entries": sorted((list(k), v) for k, v in c.entries.items())},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


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


def _golden_max(f, lo, hi, iters=24):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(iters):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = f(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = f(c1)
    x = 0.5 * (a + b)
    return x, f(x)


def _refine_plane(curv, u, v):
    """Coordinate-wise golden-section ascent of K over nearby 2-planes.

    The pair is rotated toward each complement direction of a g-orthonormal
    frame in turn and re-orthonormalized after every accepted move.
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
        for which in (0, 1):
            for k in range(2, len(frame)):
                e = frame[k]
                base_u, base_v = frame[0], frame[1]

                def k_of(theta, which=which, e=e, base_u=base_u, base_v=base_v):
                    uu, vv = base_u, base_v
                    if which == 0:
                        uu = np.cos(theta) * base_u + np.sin(theta) * e
                    else:
                        vv = np.cos(theta) * base_v + np.sin(theta) * e
                    try:
                        return _sectional(curv, uu, vv)
                    except DegeneratePlane:
                        return -np.inf

                theta, val = _golden_max(k_of, -0.6, 0.6)
                if val > best + 1e-15:
                    best = val
                    if which == 0:
                        frame[0] = np.cos(theta) * base_u + np.sin(theta) * e
                    else:
                        frame[1] = np.cos(theta) * base_v + np.sin(theta) * e
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
    curvs = []
    for p in points:
        try:
            curv = riemann_at(c, p)
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
        for j in range(planes_per_point):
            idx = pi * planes_per_point + j
            u, v = _orthonormal_pair(curv.metric.g, np.random.default_rng((seed, idx)))
            results.append((idx, pi, _sectional(curv, u, v), u, v))

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
