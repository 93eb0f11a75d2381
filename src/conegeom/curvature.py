"""Christoffel symbols, Riemann tensor and sectional curvature of the cone metric.

All coordinate derivatives of the potential ``F = -log Vol`` are polynomial
and evaluated exactly, so the Christoffel symbols (``Gamma_{ijk} = F_{ijk}/2``
in the flat coordinates, where the metric derivative is totally symmetric)
and the Riemann tensor come out at machine precision.

Every curvature value comes from one pairing of whitened Christoffel
symbols.  With ``g = V diag(lambda) V^T``, ``W = V |lambda|^-1/2`` and
``s = sign(lambda)``, the inverse metric is ``W diag(s) W^T``, so the
Hessian-metric identity of :func:`riemann_at` reads
``sum_p s_p Gt(x, y)_p Gt(z, w)_p`` in ``Gt = W^T Gamma``, taken from the
``eigh`` of ``g`` with no inverse formed.  Three readers contract it: the
Riemann array, the per-plane :func:`_sectional` and the Jacobi operator
:func:`_fixed_quadric`.  The public :func:`sectional` contracts the Riemann
array and the scanner uses :func:`_sectional`, so the two routes agree to
rounding; the independent checks are :func:`fd_curvature_oracle`, built
from metric evaluations alone, and the exact curvature of the determinant
form in :mod:`conegeom.maass`.

Index conventions, fixed once for the whole package:

* ``R(x, y)z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_{[x,y]} z``;
* the covariant array is ``R[a, b, k, l] = g(R(e_k, e_l) e_a, e_b)``;
* sectional curvature ``K(u, v) = R(u, v, v, u) / (g(u,u) g(v,v) - g(u,v)^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegeneratePlane, SingularMetric
from .metric import MetricAtPoint, _metric_at, _metric_jet
from .tensors import IntersectionTensor, _freeze, _vector

__all__ = [
    "CurvatureAtPoint",
    "christoffel_at",
    "riemann_at",
    "sectional",
    "sectional_from_curvature",
    "fd_curvature_oracle",
]

CONDITION_LIMIT = 1e12
GRAM_RTOL = 1e-12


@dataclass(frozen=True)
class CurvatureAtPoint:
    """Connection and curvature data of the cone metric at one point.

    ``gamma_first`` holds ``Gamma_{ijk}`` (totally symmetric) and
    ``gamma_white`` its whitening ``Gt = W^T Gamma``, indexed ``[p, j, k]``,
    which every curvature contraction reads (module docstring).  ``riemann``
    is the covariant array described there (``None`` when only the
    Christoffel part was requested).  ``eigvals`` and ``eigvecs`` are the
    decomposition ``g = V diag(lambda) V^T`` of the metric at ``metric.point``
    that gives ``W = V |lambda|^-1/2`` and ``s = sign(lambda)``, and ``cond``
    is its 2-norm condition number ``max |lambda| / min |lambda|``.
    """

    gamma_first: np.ndarray
    gamma_white: np.ndarray
    riemann: np.ndarray | None
    metric: MetricAtPoint
    eigvals: np.ndarray
    eigvecs: np.ndarray
    cond: float

    def __post_init__(self):
        _freeze(self, "gamma_first", "gamma_white", "riemann", "eigvals", "eigvecs")


def _potential_third(vol, v1, v2, v3):
    # F_{ijk} for F = -log Vol, assembled from the exact Vol derivatives.
    sym3 = (
        np.einsum("ij,k->ijk", v2, v1)
        + np.einsum("ik,j->ijk", v2, v1)
        + np.einsum("jk,i->ijk", v2, v1)
    )
    log3 = v3 / vol - sym3 / vol**2 + 2.0 * np.einsum("i,j,k->ijk", v1, v1, v1) / vol**3
    return -log3


def _metric_eigh(g: np.ndarray):
    """``(lambda, V, cond)`` from one ``eigh`` ``g = V diag(lambda) V^T``, with
    ``cond = max |lambda| / min |lambda|``, which must not exceed
    ``CONDITION_LIMIT``."""
    if not np.all(np.isfinite(g)):
        raise SingularMetric("metric has non-finite entries")
    lam, vecs = np.linalg.eigh(g)
    mags = np.abs(lam)
    cond = float(np.max(mags) / np.min(mags)) if np.min(mags) > 0 else np.inf
    if cond > CONDITION_LIMIT:
        raise SingularMetric(f"metric condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    return lam, vecs, cond


def _whitening(lam: np.ndarray, vecs: np.ndarray):
    """``W = V |lambda|^-1/2`` and ``W^-1`` for ``g = V diag(lambda) V^T``, so
    that ``W^T g W = diag(s)``."""
    root = np.sqrt(np.abs(lam))
    return vecs / root, root[:, None] * vecs.T


def _connection(data: MetricAtPoint, gamma: np.ndarray) -> CurvatureAtPoint:
    # Curvature data without the Riemann part, from the metric and Gamma_{ijk}.
    lam, vecs, cond = _metric_eigh(data.g)
    N = lam.shape[0]
    white = _whitening(lam, vecs)[0].T @ gamma.reshape(N, N * N)
    return CurvatureAtPoint(
        gamma_first=gamma, gamma_white=white.reshape(N, N, N), riemann=None,
        metric=data, eigvals=lam, eigvecs=vecs, cond=cond,
    )


def christoffel_at(c: IntersectionTensor, point) -> CurvatureAtPoint:
    """Christoffel symbols of the cone metric (Riemann part left unset)."""
    data, (vol, v1, v2, v3) = _metric_at(c, _vector(c.N, point, "base point"), 3)
    return _connection(data, 0.5 * _potential_third(vol, v1, v2, v3))


def riemann_at(c: IntersectionTensor, point) -> CurvatureAtPoint:
    """Riemann curvature of the cone metric from the Hessian-metric identity.

    For a Hessian metric ``g = Hess F`` the curvature is quadratic in the
    Christoffel symbols ``Gamma_{ijk} = F_{ijk} / 2``:

        R[a, b, k, l] = Gamma_{akp} g^{pq} Gamma_{blq} - Gamma_{alp} g^{pq} Gamma_{bkq}

    (Duistermaat, "On Hessian Riemannian structures", 2001; Totaro, "The
    curvature of a Hessian metric", 2004), evaluated as
    ``sum_p s_p Gt_{pak} Gt_{pbl} - sum_p s_p Gt_{pal} Gt_{pbk}``.  The
    identity needs no definiteness, so indefinite metrics away from the
    positivity cone are handled the same way.
    """
    curv = christoffel_at(c, point)
    N = c.N
    # pairs[(a, k), (b, l)] = sum_p s_p Gt_{pak} Gt_{pbl}, made exactly symmetric:
    # that alone gives R[a, b] = -R[b, a] bit for bit, and keeps the pair and
    # Bianchi residuals at rounding level even where g is indefinite.
    white = curv.gamma_white.reshape(N, N * N)
    pairs = (white.T * np.sign(curv.eigvals)) @ white
    pairs = 0.5 * (pairs + pairs.T)
    first = pairs.reshape(N, N, N, N).transpose(0, 2, 1, 3)
    return replace(curv, riemann=first - first.transpose(0, 1, 3, 2))


def sectional_from_curvature(curv: CurvatureAtPoint, u, v) -> float:
    """Sectional curvature of span{u, v} from precomputed curvature data."""
    if curv.riemann is None:
        raise ValueError("curvature data lacks the Riemann tensor")
    N = curv.eigvals.shape[0]
    uvec, vvec = _vector(N, u, "tangent vector"), _vector(N, v, "tangent vector")
    g = curv.metric.g
    gram = _gram(float(uvec @ g @ uvec), float(vvec @ g @ vvec), float(uvec @ g @ vvec))
    num = float(np.einsum("abkl,a,b,k,l->", curv.riemann, uvec, vvec, vvec, uvec))
    return num / gram


def _gram(guu, gvv, guv):
    # g(u,u) g(v,v) - g(u,v)^2, per plane for arrays; raises if any plane is degenerate.
    gram = guu * gvv - guv**2
    if (gram <= GRAM_RTOL * np.abs(guu * gvv)).any():
        raise DegeneratePlane("tangent vectors do not span a 2-plane")
    return gram


def _sectional(curv: CurvatureAtPoint, u: np.ndarray, v: np.ndarray):
    """Sectional curvature of span{u, v} from the whitened Christoffel symbols.

    The identity of :func:`riemann_at` contracted with the plane gives, with
    ``Gt(x, y)_p = Gt_{pjk} x^j y^k``,

        K * gram = sum_p s_p (Gt(u, v)_p^2 - Gt(u, u)_p Gt(v, v)_p)

    in ``O(N^3)``; ``curv.riemann`` is never read.  ``u`` and ``v`` are one
    plane ``(N,)``, giving a float, or a stack of planes ``(B, N)``, giving an
    array of ``B`` values.
    """
    N = u.shape[-1]
    pair = np.array([u, v]).swapaxes(0, -2)
    # Rows u(x)u, u(x)v, v(x)v of the flattened outer products, per plane.
    # The plane axes come last, so each row of a stack goes through the same
    # products as a single plane and gives the same bits.
    outer = (pair[..., [0, 0, 1], :, None] * pair[..., [0, 1, 1], None, :]).reshape(*pair.shape[:-2], 3, N * N)
    gp = outer @ curv.metric.g.reshape(N * N)
    gram = _gram(gp[..., 0], gp[..., 2], gp[..., 1])
    white = outer @ curv.gamma_white.reshape(N, N * N).T  # Gt(u, u), Gt(u, v), Gt(v, v)
    terms = (white[..., 1, :] ** 2 - white[..., 0, :] * white[..., 2, :]) * np.sign(curv.eigvals)
    k = terms.sum(axis=-1) / gram
    return float(k) if k.ndim == 0 else k


def _fixed_quadric(curv: CurvatureAtPoint, f: np.ndarray) -> np.ndarray:
    """``Q`` with ``R(y, f, f, z) = y^T Q z``, in ``O(N^3)``: by the identity of
    :func:`riemann_at`, ``Q = A^T S A - sum_p s_p Gt(f, f)_p Gt_p`` with
    ``A = Gt(., f)`` and ``S = diag(s)``."""
    N = f.shape[0]
    signs = np.sign(curv.eigvals)
    along = (curv.gamma_white.reshape(N * N, N) @ f).reshape(N, N)  # A[p, y] = Gt(y, f)_p
    return (along.T * signs) @ along - ((signs * (along @ f)) @ curv.gamma_white.reshape(N, N * N)).reshape(N, N)


def sectional(c: IntersectionTensor, point, u, v) -> float:
    """Sectional curvature of the 2-plane spanned by ``u`` and ``v`` at a point.

    Uses the Gram-normalized quotient, so the result is invariant under any
    invertible reparametrization of the plane and under dilations of the base
    point.
    """
    return sectional_from_curvature(riemann_at(c, point), u, v)


def fd_curvature_oracle(c: IntersectionTensor, point, step: float) -> CurvatureAtPoint:
    """Curvature via central finite differences of the metric alone.

    Independent of the exact-derivative route: only metric evaluations
    enter, combined through the Koszul formula and the coordinate expression
    for the curvature.  Intended for tests; accuracy is ``O(step^2)``.
    """
    t = _vector(c.N, point, "base point")
    N = c.N
    scale = 1.0 + float(np.max(np.abs(t)))
    if not 1e-12 * scale <= step < np.inf:
        raise ValueError(f"step {step!r} is not finite or underflows at this point scale")

    def gmat(x):
        return _metric_jet(c, x)[0]

    data = _metric_at(c, t)[0]
    g0 = data.g
    h = float(step)
    eye = np.eye(N)

    gp = [gmat(t + h * eye[i]) for i in range(N)]
    gm = [gmat(t - h * eye[i]) for i in range(N)]
    dg = np.stack([(gp[i] - gm[i]) / (2 * h) for i in range(N)])

    d2g = np.zeros((N, N, N, N))
    for i in range(N):
        d2g[i, i] = (gp[i] - 2 * g0 + gm[i]) / h**2
        for j in range(i + 1, N):
            gpp = gmat(t + h * eye[i] + h * eye[j])
            gpm = gmat(t + h * eye[i] - h * eye[j])
            gmp = gmat(t - h * eye[i] + h * eye[j])
            gmm = gmat(t - h * eye[i] - h * eye[j])
            mixed = (gpp - gpm - gmp + gmm) / (4 * h**2)
            d2g[i, j] = mixed
            d2g[j, i] = mixed

    # Koszul: Gamma_{ijk} = (d_j g_{ik} + d_k g_{ij} - d_i g_{jk}) / 2.
    gamma1 = 0.5 * (
        np.einsum("jik->ijk", dg)
        - np.einsum("ijk->ijk", dg)
        + np.einsum("kij->ijk", dg)
    )
    curv = _connection(data, gamma1)
    g_inv = np.linalg.inv(g0)
    gamma2 = np.einsum("lm,mjk->ljk", g_inv, gamma1)

    # d_i Gamma_{mjk} from second differences of the metric.
    dgamma1 = 0.5 * (
        np.einsum("ijmk->imjk", d2g)
        + np.einsum("ikmj->imjk", d2g)
        - np.einsum("imjk->imjk", d2g)
    )
    dginv = -np.einsum("la,iab,bm->ilm", g_inv, dg, g_inv)
    dgamma2 = np.einsum("ilm,mjk->iljk", dginv, gamma1) + np.einsum(
        "lm,imjk->iljk", g_inv, dgamma1
    )

    r_up = (
        np.einsum("iljk->lijk", dgamma2)
        - np.einsum("jlik->lijk", dgamma2)
        + np.einsum("lim,mjk->lijk", gamma2, gamma2)
        - np.einsum("ljm,mik->lijk", gamma2, gamma2)
    )
    return replace(curv, riemann=np.einsum("bm,mkla->abkl", g0, r_up))
