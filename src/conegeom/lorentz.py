"""Exact surface model: reduction of a degree-2 volume form to Lorentz shape.

For ``n = 2`` the volume polynomial is a quadratic form.  When its Gram
matrix has signature ``(1, N-1)`` there is a basis change ``B`` with
``B^T M B = diag(2, -2, ..., -2)``, normalized so that the reduced volume is
literally the standard form ``q(s) = s_0^2 - sum s_j^2`` (not just a multiple
of it).  On the positive component ``{q > 0, s_0 > 0}`` the scaling group
times the orthochronous Lorentz group acts by isometries of the metric, and
the metric stays positive-definite on the whole component; both facts are
verified on samples here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, WrongSignature
from .metric import _cone_jet, _metric_jet, _pullback_residual, is_positive_definite, signature_counts
from .tensors import IntersectionTensor, _freeze, _vector

__all__ = [
    "LorentzModel",
    "reduce_to_standard",
    "lorentz_isometry_check",
    "full_cone_check",
    "IsometryReport",
    "ConeExtensionReport",
]


@dataclass(frozen=True)
class LorentzModel:
    """Adapted-basis data for a signature-(1, N-1) surface tensor.

    ``B`` maps reduced coordinates to the original ones and satisfies
    ``B^T M B = 2 diag(eta)`` with ``eta = (1, -1, ..., -1)``, which makes
    ``Vol(B s) = q(s)`` exactly.
    """

    tensor: IntersectionTensor
    B: np.ndarray
    B_inv: np.ndarray
    eta: np.ndarray
    gram: np.ndarray

    def __post_init__(self):
        _freeze(self, "B", "B_inv", "eta", "gram")

    @property
    def dim(self) -> int:
        return self.tensor.N

    def q(self, s) -> float:
        s = np.asarray(s, dtype=float)
        return float(s[0] ** 2 - np.sum(s[1:] ** 2))

    def to_original(self, s) -> np.ndarray:
        return self.B @ np.asarray(s, dtype=float)


def gram_matrix(c: IntersectionTensor) -> np.ndarray:
    """Gram matrix ``M[i, j] = c(e_i, e_j)`` of a degree-2 tensor."""
    if c.n != 2:
        raise DimensionMismatch(f"surface reduction requires degree 2, got n = {c.n}")
    return np.array(c.dense)


def reduce_to_standard(c: IntersectionTensor, omega0) -> LorentzModel:
    """Build the adapted basis sending the volume form to the standard one.

    The first basis vector is proportional to ``omega0``; the rest span its
    Gram-orthogonal complement, orthonormalized against the negative of the
    form.  Raises :class:`WrongSignature` when the Gram matrix is not of
    signature ``(1, N-1)`` and :class:`VolumeNotPositive` when ``omega0``
    has nonpositive volume.
    """
    m = gram_matrix(c)
    pos, neg, null = signature_counts(m)
    if (pos, neg, null) != (1, c.N - 1, 0):
        raise WrongSignature(
            f"Gram matrix has signature ({pos}, {neg}) with {null} null directions; expected (1, {c.N - 1})"
        )
    w0 = _vector(c.N, omega0, "base point")
    vol0 = _cone_jet(c, w0, 0)[0]
    b0 = w0 / np.sqrt(vol0)  # b0^T M b0 = 2 Vol(b0) = 2
    if c.N == 1:
        basis = b0.reshape(1, 1)
    else:
        proj = np.eye(c.N) - 0.5 * np.outer(b0, m @ b0)
        u_svd, s_svd, _ = np.linalg.svd(proj)
        comp = u_svd[:, : c.N - 1]
        # Signature (1, N-1) and Vol(b0) > 0 make the form negative-definite on
        # the M-orthogonal complement of b0 (interlacing); only rounding fails.
        try:
            r = np.linalg.cholesky(-(comp.T @ m @ comp)).T
        except np.linalg.LinAlgError as exc:
            raise WrongSignature("the form is not negative-definite on the orthogonal complement") from exc
        perp = np.sqrt(2.0) * comp @ np.linalg.solve(r, np.eye(c.N - 1))
        basis = np.column_stack([b0, perp])
    eta = np.array([1.0] + [-1.0] * (c.N - 1))
    resid = basis.T @ m @ basis - 2.0 * np.diag(eta)
    if np.max(np.abs(resid)) > 1e-8 * np.max(np.abs(m)):
        raise WrongSignature("basis reduction failed to reproduce the standard form")
    return LorentzModel(
        tensor=c,
        B=basis,
        B_inv=np.linalg.solve(basis, np.eye(c.N)),
        eta=eta,
        gram=m,
    )


def _sample_reduced_points(model: LorentzModel, count, rng, radius=0.9):
    # Points of the positive component {q > 0, s_0 > 0} in reduced coordinates.
    pts = []
    for _ in range(count):
        s0 = rng.uniform(0.5, 2.0)
        if model.dim == 1:
            pts.append(np.array([s0]))
            continue
        direction = rng.normal(size=model.dim - 1)
        norm = np.linalg.norm(direction)
        if norm == 0:
            direction = np.zeros(model.dim - 1)
        else:
            direction = direction / norm
        r = s0 * radius * rng.uniform(0, 1) ** (1.0 / max(1, model.dim - 1))
        pts.append(np.concatenate([[s0], r * direction]))
    return pts


def _random_group_element(model: LorentzModel, rng):
    # Product of elementary boosts/rotations and a dilation: a generic element
    # of R_+ x O^+(1, N-1) acting in reduced coordinates, exactly in the group.
    N = model.dim
    lam = np.eye(N)
    for _ in range(3):
        if N == 1:
            break
        j = int(rng.integers(1, N))
        phi = rng.uniform(-1.0, 1.0)
        block = np.eye(N)
        block[0, 0] = np.cosh(phi)
        block[0, j] = np.sinh(phi)
        block[j, 0] = np.sinh(phi)
        block[j, j] = np.cosh(phi)
        lam = block @ lam
        if N > 2:
            jj, kk = sorted(rng.choice(np.arange(1, N), size=2, replace=False))
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.eye(N)
            rot[jj, jj] = np.cos(theta)
            rot[kk, kk] = np.cos(theta)
            rot[jj, kk] = -np.sin(theta)
            rot[kk, jj] = np.sin(theta)
            lam = rot @ lam
    scale = rng.uniform(0.5, 2.0)
    return scale * lam


@dataclass(frozen=True)
class IsometryReport:
    max_residual: float
    n_samples: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol


def lorentz_isometry_check(
    model: LorentzModel,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
) -> IsometryReport:
    """Verify ``A^T g(A t) A = g(t)`` for random scaled Lorentz group elements.

    Group elements are built in reduced coordinates and conjugated back by the
    adapted basis, so they preserve the volume form up to the dilation factor.
    Each sample's residual is the metric residual of
    :func:`conegeom.metric.pullback_check` for the map ``A`` from the tensor
    to itself.  The check passes when the largest relative residual is below
    ``tol``, which must be finite and positive.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    rng = np.random.default_rng(seed)
    c = model.tensor
    max_resid = 0.0
    for point in _sample_reduced_points(model, samples, rng):
        a_mat = model.B @ _random_group_element(model, rng) @ model.B_inv
        resid = _pullback_residual(c, c, a_mat, model.to_original(point))[2]
        max_resid = max(max_resid, float(resid))
    return IsometryReport(max_residual=max_resid, n_samples=samples, tol=tol)


@dataclass(frozen=True)
class ConeExtensionReport:
    fraction_positive_definite: float
    failures: list
    n_samples: int

    @property
    def passed(self) -> bool:
        return self.fraction_positive_definite == 1.0


def full_cone_check(
    model: LorentzModel,
    samples: int = 200,
    seed: int = 0,
    radius: float = 0.98,
) -> ConeExtensionReport:
    """Sample the whole positive component and test positive-definiteness of g.

    Points are drawn from ``{q > 0, s_0 > 0}`` up to ``radius`` (in ``(0, 1)``)
    of the light cone, including points far outside any given sub-cone of it.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    if not 0 < radius < 1:
        raise ValueError(f"radius must lie strictly between 0 and 1, got {radius!r}")
    rng = np.random.default_rng(seed)
    c = model.tensor
    pts = [model.to_original(s) for s in _sample_reduced_points(model, samples, rng, radius=radius)]
    failures = [t.tolist() for t in pts if not is_positive_definite(_metric_jet(c, t)[0])]
    return ConeExtensionReport(
        fraction_positive_definite=(len(pts) - len(failures)) / len(pts),
        failures=failures,
        n_samples=len(pts),
    )
