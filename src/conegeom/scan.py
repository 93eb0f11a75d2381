"""Sampling-based exploration of sectional curvature and metric signature.

The scanner draws tangent 2-planes at sampled base points, evaluates their
sectional curvature, optionally refines the largest value by an ascent whose
steps are exact maxima over the planes through one vector (top eigenvectors
of the Jacobi operator), and can also profile the eigenvalue signs of the
metric across the volume-positive region.  Everything is reported as
evidence: no negativity statement is asserted for degree >= 3, where the
question is open.

Planes through the radial direction are flat: log-homogeneity gives
``Gamma(t, x) = -g x``, so ``R(x, t, t, x) = 0`` for every ``x`` at every point
where ``g`` is invertible, and ``sup K >= 0`` everywhere.  A ``k_max`` of
rounding size is such a flat radial plane; a negative ``k_max`` means the
planes were undersampled.

Reproducibility: the candidates for sampled point ``i`` come from
``default_rng((seed, 7, i))``, and the planes of the ``pi``-th point a scan
keeps from ``default_rng((seed, pi))``, drawn as one batch; plane ``j`` of a
point depends only on ``seed``, ``pi`` and ``j``, not on ``planes_per_point``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NoValidPoints, SingularMetric, VolumeNotPositive
from .curvature import _fixed_quadric, _sectional, _whitening, christoffel_at
from .metric import _hessian_metric, _sign_counts, is_positive_definite, signature_counts
from .tensors import IntersectionTensor, _jet, _vector

__all__ = [
    "ScanReport",
    "scan_sectional",
    "signature_profile",
    "sample_cone_points",
    "tensor_id",
]

HISTOGRAM_BINS = 20
SAMPLE_TRIES = 200  # candidate points per sample before NoValidPoints
ASCENT_STEPS = 8  # cap on the steps of the --optimize plane ascent


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
):
    """Rejection-sample ``count >= 1`` points near an anchor subject to
    ``Vol > 0`` (and optionally a positive-definite metric); ``spread``, finite
    and positive, scales the Gaussian steps relative to the anchor's norm.

    Raises :class:`NoValidPoints` when the acceptance rate collapses.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    if not 0 < spread < np.inf:
        raise ValueError(f"spread must be finite and positive, got {spread!r}")
    t0 = _vector(c.N, anchor, "anchor point")
    if _jet(c, t0, 0)[0] <= 0:
        raise NoValidPoints("anchor point has nonpositive volume")
    scale = spread * float(np.linalg.norm(t0)) / np.sqrt(c.N)
    points = []
    for i in range(count):
        rng = np.random.default_rng((seed, 7, i))
        accepted = None
        for _ in range(SAMPLE_TRIES):
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
                f"could not sample point {i} near anchor {t0.tolist()} after {SAMPLE_TRIES} tries"
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


def _best_partner(curv, f):
    """The g-unit vector ``x`` with ``g(x, f) = 0`` that maximizes ``K(x, f)``.

    For such ``x``, ``K(x, f) = x^T Q x / g(f, f)`` with ``Q`` the Jacobi
    operator ``R(., f, f, .)`` from :func:`~conegeom.curvature._fixed_quadric`,
    so ``x`` is its top eigenvector on the g-complement of ``f``.  A complete QR
    of ``f`` in the coordinates of :func:`~conegeom.curvature._whitening` gives
    an orthonormal basis of its complement there; mapped back by ``W``, that
    is a g-orthonormal basis ``B`` of the g-complement of ``f``.
    """
    white, unwhite = _whitening(curv.eigvals, curv.eigvecs)
    basis = white @ np.linalg.qr((unwhite @ f)[:, None], mode="complete")[0][:, 1:]
    q = _fixed_quadric(curv, f)
    return basis @ np.linalg.eigh(basis.T @ (0.5 * (q + q.T)) @ basis)[1][:, -1]


def _refine_plane(curv, u, v):
    """Ascent of K over 2-planes by alternating exact steps on the Jacobi operator.

    Each step keeps one vector ``f`` of the plane and replaces the other by
    :func:`_best_partner` of ``f``, which gives the best plane through ``f``.
    A plane is taken only if it raises K by more than ``1e-15``; either way the
    next step keeps the other vector.  Once a step after the first gains
    nothing, neither vector can improve the plane, and the ascent ends; it
    takes at most ``ASCENT_STEPS`` steps.  The new vector is g-orthogonal to
    ``f``, so the plane's Gram determinant is ``g(f, f) > 0``.
    """
    best = _sectional(curv, u, v)
    for step in range(ASCENT_STEPS):
        x = _best_partner(curv, v)
        k = _sectional(curv, x, v)
        if k > best + 1e-15:
            best, u, v = k, v, x
        elif step:
            break
        else:
            u, v = v, u
    return best, u, v


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
    optimize : refine the largest sample by the plane ascent of
        :func:`_refine_plane`; ``k_max`` is never below the best sample.
    seed : the planes of point ``pi`` come from ``default_rng((seed, pi))``;
        plane ``j`` depends only on ``seed``, ``pi`` and ``j``.
    """
    if planes_per_point < 1:
        raise ValueError(f"planes_per_point must be at least 1, got {planes_per_point!r}")
    if c.N < 2:
        raise NoValidPoints("no tangent 2-planes exist in a one-dimensional cone")
    curvs = []
    for p in points:
        try:
            curv = christoffel_at(c, p)
        except (VolumeNotPositive, SingularMetric):
            continue
        if _sign_counts(curv.eigvals)[0] == c.N:
            curvs.append(curv)
    if not curvs:
        raise NoValidPoints("no sampled point has positive volume and positive-definite metric")
    # Each plane is the g-Gram-Schmidt of two iid N(0, I) vectors: one QR per
    # point, batched over its planes, in the whitened coordinates of g.
    planes, k_values = [], []
    for pi, curv in enumerate(curvs):
        white, unwhite = _whitening(curv.eigvals, curv.eigvecs)
        pairs = np.random.default_rng((seed, pi)).standard_normal((planes_per_point, 2, c.N))
        planes.append((white @ np.linalg.qr(unwhite @ pairs.swapaxes(1, 2))[0]).transpose(2, 0, 1))
        k_values.append(_sectional(curv, *planes[-1]))
    k_values = np.concatenate(k_values)

    def plane(i):
        pi, j = divmod(i, planes_per_point)
        return curvs[pi].metric.point, planes[pi][0][j], planes[pi][1][j]

    i_min, i_max = int(np.argmin(k_values)), int(np.argmax(k_values))
    k_min, k_max = float(k_values[i_min]), float(k_values[i_max])
    min_plane, max_plane = plane(i_min), plane(i_max)

    if optimize:
        refined, u_ref, v_ref = _refine_plane(curvs[i_max // planes_per_point], *max_plane[1:])
        # The optimizer never reports less than the best raw sample.
        if refined > k_max:
            k_max = refined
            max_plane = (max_plane[0], u_ref, v_ref)

    counts, edges = np.histogram(k_values, bins=HISTOGRAM_BINS)
    return ScanReport(
        tensor=tensor_id(c),
        seed=seed,
        points=[curv.metric.point for curv in curvs],
        k_samples=[(i, i // planes_per_point, k) for i, k in enumerate(k_values.tolist())],
        k_min=k_min,
        k_max=k_max,
        k_min_plane=min_plane,
        k_max_plane=max_plane,
        histogram={"edges": edges, "counts": counts},
        planes_per_point=planes_per_point,
        optimized=bool(optimize),
    )


def signature_profile(c: IntersectionTensor, points, seed: int = 0) -> ScanReport:
    """Eigenvalue sign counts of the metric at each volume-positive point.

    Reports per-point signatures and the fraction of positive-definite
    samples; makes no assertion about what the signatures should be away
    from the positivity cone.
    """
    entries = []
    for p in points:
        t = _vector(c.N, p, "base point")
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
