"""Trace metric on Hermitian positive-definite matrices: connection, bracket
and curvature, each checked against an independent derivative expansion.

At a base point ``Omega`` the metric on matrix tangents is

    G(U, V) = Re tr(Omega^-1 U Omega^-1 V*),

which on Hermitian pairs reduces to ``tr(Omega^-1 U Omega^-1 V)`` and stays
positive on all nonzero matrices, so bracket values (anti-Hermitian on
Hermitian inputs) have positive norm.  The connection for constant fields is
``nabla_Z U = -(Z Omega^-1 U + U Omega^-1 Z) / 2``.  The trace-weight term of
the general connection vanishes identically here because the pointwise trace
equals its own average in this finite model; it does not affect curvature
either way.  The curvature operator is

    R(Z, W) U = -{{Z, W}, U} / 4,    {Z, W} = Z Omega^-1 W - W Omega^-1 Z,

and the module verifies it against a product-rule expansion of
``nabla_Z nabla_W U - nabla_W nabla_Z U`` that never forms a bracket.

Each public function checks its input once, at entry (a Hermitian
positive-definite base point, finite tangents of its size), and returns
plain complex arrays; :func:`verify_identities` reports the identity battery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import _gram
from .errors import DimensionMismatch, NotPositiveDefinite
from .lorentz import gram_matrix
from .metric import _metric_jet, signature_counts
from .tensors import IntersectionTensor

__all__ = [
    "HermitianPoint",
    "inner",
    "bracket",
    "connection",
    "curvature_algebraic",
    "curvature_quadform",
    "curvature_oracle",
    "sectional_curvature",
    "torus_consistency",
    "TorusReport",
    "verify_identities",
    "IdentityReport",
    "det_form_tensor",
    "params_to_matrix",
    "matrix_to_params",
]

HERMITICITY_TOL = 1e-12


def _is_hermitian(a: np.ndarray) -> bool:
    scale = max(float(np.max(np.abs(a))), 1.0)
    return float(np.max(np.abs(a - a.conj().T))) <= HERMITICITY_TOL * scale


@dataclass(frozen=True)
class HermitianPoint:
    """Hermitian positive-definite base point and its read-only inverse."""

    omega: np.ndarray
    inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # A copy: it is made read-only, and the caller's array must not be.
        m = np.array(self.omega, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("base point has a non-finite entry")
        if not _is_hermitian(m):
            raise ValueError("base point must be Hermitian")
        eig = np.linalg.eigvalsh(m)
        if np.min(eig) <= 0:
            raise NotPositiveDefinite(f"base point has nonpositive eigenvalue {np.min(eig)!r}")
        m.setflags(write=False)
        object.__setattr__(self, "omega", m)
        inverse = np.linalg.solve(m, np.eye(m.shape[0], dtype=complex))
        inverse.setflags(write=False)
        object.__setattr__(self, "inverse", inverse)


def _checked(omega, *tangents) -> list[np.ndarray]:
    """The array cores' input ``[Omega^-1, *tangents]``; tangents finite, of its size."""
    pt = omega if isinstance(omega, HermitianPoint) else HermitianPoint(omega)
    out = [pt.inverse]
    for x in tangents:
        m = np.asarray(x, dtype=complex)
        if m.shape != pt.omega.shape:
            raise DimensionMismatch(f"tangent matrix has shape {m.shape}, base point has {pt.omega.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("tangent matrix has a non-finite entry")
        out.append(m)
    return out


def _inner(oi, a, b) -> float:
    return float(np.trace(oi @ a @ oi @ b.conj().T).real)


def _bracket(oi, z, w) -> np.ndarray:
    return z @ oi @ w - w @ oi @ z


def _connection(oi, z, u) -> np.ndarray:
    return -0.5 * (z @ oi @ u + u @ oi @ z)


def _curvature_oracle(oi, z, w, u) -> np.ndarray:
    # The connection depends on the base point only through Omega^-1, so its
    # derivative along Z is the connection with D_Z Omega^-1 in its place.
    first = _connection(-oi @ z @ oi, w, u) + _connection(oi, z, _connection(oi, w, u))
    second = _connection(-oi @ w @ oi, z, u) + _connection(oi, w, _connection(oi, z, u))
    return first - second


def _sectional(oi, u, v) -> float:
    gram = _gram(_inner(oi, u, u), _inner(oi, v, v), _inner(oi, u, v))
    br = _bracket(oi, u, v)
    return -0.25 * _inner(oi, br, br) / gram


def inner(omega, a, b) -> float:
    """Metric pairing ``Re tr(Omega^-1 A Omega^-1 B*)``.

    Restricts to the trace form on Hermitian pairs and is positive-definite
    on all nonzero matrices.
    """
    return _inner(*_checked(omega, a, b))


def bracket(omega, z, w) -> np.ndarray:
    """The twisted commutator ``{Z, W} = Z Omega^-1 W - W Omega^-1 Z``."""
    return _bracket(*_checked(omega, z, w))


def connection(omega, z, u) -> np.ndarray:
    """Covariant derivative for constant fields:
    ``-(Z Omega^-1 U + U Omega^-1 Z) / 2``."""
    return _connection(*_checked(omega, z, u))


def curvature_algebraic(omega, z, w, u) -> np.ndarray:
    """Curvature operator via the bracket shortcut: ``-{{Z, W}, U} / 4``."""
    oi, z, w, u = _checked(omega, z, w, u)
    return -0.25 * _bracket(oi, _bracket(oi, z, w), u)


def curvature_quadform(omega, u, v, z, w) -> float:
    """Quadruple curvature form ``R(U, V, Z, W) = G({Z, W}, {U, V}) / 4``."""
    oi, u, v, z, w = _checked(omega, u, v, z, w)
    return 0.25 * _inner(oi, _bracket(oi, z, w), _bracket(oi, u, v))


def curvature_oracle(omega, z, w, u) -> np.ndarray:
    """Curvature operator by direct product-rule expansion.

    Computes ``nabla_Z (nabla_W U) - nabla_W (nabla_Z U)`` for constant
    fields, differentiating the base-point dependence of the connection with
    the inverse-derivative rule ``D_Z Omega^-1 = -Omega^-1 Z Omega^-1``.
    Shares nothing with the bracket shortcut beyond matrix multiplication.
    """
    return _curvature_oracle(*_checked(omega, z, w, u))


def sectional_curvature(omega, u, v) -> float:
    """Sectional curvature ``-‖{U, V}‖^2 / (4 Gram)``; zero iff the bracket
    vanishes, negative otherwise."""
    return _sectional(*_checked(omega, u, v))


def params_to_matrix(p) -> np.ndarray:
    """Real coordinates ``(a, c, Re b, Im b)`` to the 2x2 Hermitian matrix
    ``[[a, b], [conj(b), c]]``."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise DimensionMismatch(f"expected 4 real coordinates, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("coordinates have a non-finite entry")
    b = p[2] + 1j * p[3]
    return np.array([[p[0], b], [np.conj(b), p[1]]], dtype=complex)


def matrix_to_params(m) -> np.ndarray:
    """Inverse of :func:`params_to_matrix`."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise DimensionMismatch("parametrization is for 2x2 matrices")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has a non-finite entry")
    return np.array([m[0, 0].real, m[1, 1].real, m[0, 1].real, m[0, 1].imag])


def det_form_tensor():
    """Degree-2 tensor on R^4 whose volume polynomial is the 2x2 determinant
    ``a c - (Re b)^2 - (Im b)^2`` in the coordinates of
    :func:`params_to_matrix`."""
    return IntersectionTensor(n=2, N=4, entries={(0, 1): 1.0, (2, 2): -2.0, (3, 3): -2.0})


def _random_pd(rng, m) -> np.ndarray:
    raw = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return raw @ raw.conj().T + 0.2 * np.eye(m)


def _random_hermitian(rng, m) -> np.ndarray:
    x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return 0.5 * (x + x.conj().T)


@dataclass(frozen=True)
class TorusReport:
    """Cross-module comparison of the determinant-form cone metric with the
    matrix trace metric."""

    max_residual: float
    n_samples: int
    signature: tuple[int, int, int]
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol and self.signature == (1, 3, 0)


def torus_consistency(samples: int = 100, seed: int = 0, tol: float = 1e-10) -> TorusReport:
    """Compare the cone metric of the 2x2 determinant form with the trace
    metric under the real parametrization, over random positive-definite
    base points and Hermitian tangent pairs.  ``tol``, the bound on the largest
    residual, must be finite and positive."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    rng = np.random.default_rng(seed)
    tensor = det_form_tensor()
    max_resid = 0.0
    for _ in range(samples):
        om = _random_pd(rng, 2)
        oi = HermitianPoint(om).inverse
        g = _metric_jet(tensor, matrix_to_params(om))[0]
        for _ in range(2):
            hu = _random_hermitian(rng, 2)
            hv = _random_hermitian(rng, 2)
            cone_value = float(matrix_to_params(hu) @ g @ matrix_to_params(hv))
            trace_value = _inner(oi, hu, hv)
            scale = max(abs(trace_value), 1.0)
            max_resid = max(max_resid, abs(cone_value - trace_value) / scale)
    sig = signature_counts(gram_matrix(tensor))
    return TorusReport(max_residual=max_resid, n_samples=samples, signature=sig, tol=tol)


@dataclass(frozen=True)
class IdentityReport:
    """Identity battery of the trace metric; ``passed`` asks for residuals below
    ``tol``, sampled ``K <= 1e-10`` and ``K = -1/2`` on the worked plane."""

    curvature_paths_max_diff: float
    jacobi_max_residual: float
    adjoint_max_residual: float
    sectional_max: float
    reference_plane_k: float
    torus: TorusReport
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.curvature_paths_max_diff < self.tol
            and self.jacobi_max_residual < self.tol
            and self.adjoint_max_residual < self.tol
            and self.sectional_max <= 1e-10
            and abs(self.reference_plane_k + 0.5) < 1e-15
            and self.torus.passed
        )


def verify_identities(samples: int = 100, seed: int = 0, tol: float = 1e-12) -> IdentityReport:
    """The identity battery at ``samples`` random base points of each size 2
    and 3, with four random Hermitian tangents each.  ``tol``, finite and
    positive, bounds the curvature-route, Jacobi and adjoint residuals."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    # Its own generator, so it may run first, and it refuses samples < 1.
    torus = torus_consistency(samples=samples, seed=seed)
    rng = np.random.default_rng(seed)
    worst_pair = worst_jacobi = worst_adjoint = 0.0
    max_k = -math.inf
    for m in (2, 3):
        for _ in range(samples):
            oi = HermitianPoint(_random_pd(rng, m)).inverse
            z, w, u, v = (_random_hermitian(rng, m) for _ in range(4))
            zw = _bracket(oi, z, w)
            zwu = _bracket(oi, zw, u)
            worst_pair = max(worst_pair, float(np.max(np.abs(-0.25 * zwu - _curvature_oracle(oi, z, w, u)))))
            jac = zwu + _bracket(oi, _bracket(oi, w, u), z) + _bracket(oi, _bracket(oi, u, z), w)
            worst_jacobi = max(worst_jacobi, float(np.max(np.abs(jac))))
            lhs = _inner(oi, zwu, v)
            rhs = -_inner(oi, zw, _bracket(oi, u, v))
            worst_adjoint = max(worst_adjoint, abs(lhs - rhs) / max(abs(rhs), 1.0))
            max_k = max(max_k, _sectional(oi, u, v))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return IdentityReport(
        curvature_paths_max_diff=worst_pair,
        jacobi_max_residual=worst_jacobi,
        adjoint_max_residual=worst_adjoint,
        sectional_max=max_k,
        reference_plane_k=sectional_curvature(np.eye(2), sx, sz),
        torus=torus,
        tol=tol,
    )
