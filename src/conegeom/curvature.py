"""Christoffel symbols, Riemann tensor and sectional curvature of the cone metric.

All coordinate derivatives of the potential ``F = -log Vol`` are polynomial
and evaluated exactly, so the Christoffel symbols (``Gamma_{ijk} = F_{ijk}/2``
in the flat coordinates, where the metric derivative is totally symmetric)
and the Riemann tensor come out at machine precision.  A finite-difference
oracle built only from metric evaluations is provided for cross-validation.

Sectional curvature has two routes.  The public :func:`sectional` contracts
the Riemann array ``R`` with the plane.  The scanner's planes go through
:func:`_sectional`, the same Hessian-metric identity contracted with the
plane before ``R`` is formed: ``O(N^3)`` per plane from the Christoffel
symbols alone, for one plane or a stack of them.

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
from .tensors import IntersectionTensor, _tangent, as_point

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

    ``gamma_first`` holds ``Gamma_{ijk}`` (first index lowered, symmetric in
    the last two), ``gamma_second`` holds ``Gamma^l_{jk}`` indexed
    ``[l, j, k]``, and ``riemann`` is the covariant array described in the
    module docstring (``None`` when only the Christoffel part was requested).
    ``eigvals`` and ``eigvecs`` are the decomposition
    ``g = V diag(lambda) V^T`` of the metric at ``base``, and ``cond`` is its
    2-norm condition number ``max |lambda| / min |lambda|``.
    """

    gamma_first: np.ndarray
    gamma_second: np.ndarray
    riemann: np.ndarray | None
    base: np.ndarray
    metric: MetricAtPoint
    eigvals: np.ndarray
    eigvecs: np.ndarray
    cond: float

    def __post_init__(self):
        for name in ("gamma_first", "gamma_second", "riemann", "base", "eigvals", "eigvecs"):
            a = getattr(self, name)
            if a is None:
                continue
            a = np.asarray(a, dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def _potential_third(vol, v1, v2, v3):
    # F_{ijk} for F = -log Vol, assembled from the exact Vol derivatives.
    sym3 = (
        np.einsum("ij,k->ijk", v2, v1)
        + np.einsum("ik,j->ijk", v2, v1)
        + np.einsum("jk,i->ijk", v2, v1)
    )
    log3 = v3 / vol - sym3 / vol**2 + 2.0 * np.einsum("i,j,k->ijk", v1, v1, v1) / vol**3
    return -log3


def _metric_inverse(g: np.ndarray):
    """``(g^-1, lambda, V, cond)`` from one ``eigh`` ``g = V diag(lambda) V^T``:
    ``g^-1 = V diag(1/lambda) V^T`` and ``cond = max |lambda| / min |lambda|``,
    which must not exceed ``CONDITION_LIMIT``."""
    if not np.all(np.isfinite(g)):
        raise SingularMetric("metric has non-finite entries")
    lam, vecs = np.linalg.eigh(g)
    mags = np.abs(lam)
    cond = float(np.max(mags) / np.min(mags)) if np.min(mags) > 0 else np.inf
    if cond > CONDITION_LIMIT:
        raise SingularMetric(f"metric condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    return (vecs / lam) @ vecs.T, lam, vecs, cond


def christoffel_at(c: IntersectionTensor, point) -> CurvatureAtPoint:
    """Christoffel symbols of the cone metric (Riemann part left unset)."""
    pt = as_point(point)
    data, (vol, v1, v2, v3) = _metric_at(c, pt, 3)
    f3 = _potential_third(vol, v1, v2, v3)
    g_inv, lam, vecs, cond = _metric_inverse(data.g)
    gamma1 = 0.5 * f3
    gamma2 = np.einsum("lm,mjk->ljk", g_inv, gamma1)
    return CurvatureAtPoint(
        gamma_first=gamma1,
        gamma_second=gamma2,
        riemann=None,
        base=pt.t,
        metric=data,
        eigvals=lam,
        eigvecs=vecs,
        cond=cond,
    )


def riemann_at(c: IntersectionTensor, point) -> CurvatureAtPoint:
    """Riemann curvature of the cone metric from the Hessian-metric identity.

    For a Hessian metric ``g = Hess F`` the curvature is quadratic in the
    Christoffel symbols ``Gamma_{ijk} = F_{ijk} / 2``:

        R[a, b, k, l] = Gamma_{akp} g^{pq} Gamma_{blq} - Gamma_{alp} g^{pq} Gamma_{bkq}

    (Duistermaat, "On Hessian Riemannian structures", 2001; Totaro, "The
    curvature of a Hessian metric", 2004).  Only ``F_{ijk}`` and the inverse
    metric enter, and the identity needs no definiteness, so indefinite
    metrics away from the positivity cone are handled the same way.
    """
    curv = christoffel_at(c, point)
    N = c.N
    # pairs[(a, k), (b, l)] = Gamma_{akp} Gamma^p_{bl}, made exactly symmetric:
    # that alone gives R[a, b] = -R[b, a] bit for bit, and keeps the pair and
    # Bianchi residuals at rounding level even where g is indefinite.
    pairs = curv.gamma_first.reshape(N * N, N) @ curv.gamma_second.reshape(N, N * N)
    pairs = 0.5 * (pairs + pairs.T)
    first = pairs.reshape(N, N, N, N).transpose(0, 2, 1, 3)
    return replace(curv, riemann=first - first.transpose(0, 1, 3, 2))


def sectional_from_curvature(curv: CurvatureAtPoint, u, v) -> float:
    """Sectional curvature of span{u, v} from precomputed curvature data."""
    if curv.riemann is None:
        raise ValueError("curvature data lacks the Riemann tensor")
    N = curv.base.shape[0]
    uvec, vvec = _tangent(N, u), _tangent(N, v)
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
    """Sectional curvature of span{u, v} from the Christoffel symbols alone.

    The Hessian-metric identity of :func:`riemann_at` contracted with the
    plane gives, with ``Gamma(x, y)_i = Gamma_{ijk} x^j y^k`` and
    ``Gamma2(x, y) = g^-1 Gamma(x, y)``,

        K * gram = Gamma(u, v) . Gamma2(u, v) - Gamma(u, u) . Gamma2(v, v)

    in ``O(N^3)``; ``curv.riemann`` is never read.  ``u`` and ``v`` are one
    plane ``(N,)``, giving a float, or a stack of planes ``(B, N)``, giving an
    array of ``B`` values.  The scanner evaluates its planes here; the public
    :func:`sectional` contracts ``R`` instead, so the two routes check each
    other.
    """
    N = u.shape[-1]
    pair = np.array([u, v]).swapaxes(0, -2)
    # Rows u(x)u, u(x)v, v(x)u, v(x)v of the flattened outer products, per plane.
    # The plane axes come last, so each row of a stack goes through the same
    # products as a single plane and gives the same bits.
    outer = (pair[..., :, None, :, None] * pair[..., None, :, None, :]).reshape(*pair.shape[:-2], 4, N * N)
    gp = outer @ curv.metric.g.reshape(N * N)
    gram = _gram(gp[..., 0], gp[..., 3], gp[..., 1])
    first = outer[..., :2, :] @ curv.gamma_first.reshape(N, N * N).T  # Gamma(u, u), Gamma(u, v)
    second = outer[..., 1::2, :] @ curv.gamma_second.reshape(N, N * N).T  # Gamma2(u, v), Gamma2(v, v)
    terms = (first * second[..., ::-1, :]).sum(axis=-1)
    k = (terms[..., 1] - terms[..., 0]) / gram
    return float(k) if k.ndim == 0 else k


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
    pt = as_point(point)
    t = pt.t
    N = c.N
    scale = 1.0 + float(np.max(np.abs(t)))
    if step <= 0 or step < 1e-12 * scale:
        raise ValueError(f"step {step!r} underflows at this point scale")

    def gmat(x):
        return _metric_jet(c, x)[0]

    data = _metric_at(c, pt)[0]
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
    g_inv, lam, vecs, cond = _metric_inverse(g0)
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
    riem = np.einsum("bm,mkla->abkl", g0, r_up)
    return CurvatureAtPoint(
        gamma_first=gamma1,
        gamma_second=gamma2,
        riemann=riem,
        base=t,
        metric=data,
        eigvals=lam,
        eigvecs=vecs,
        cond=cond,
    )
