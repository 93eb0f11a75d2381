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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePlane, DimensionMismatch, NotPositiveDefinite

__all__ = [
    "HermitianPoint",
    "MatrixTangent",
    "inner",
    "bracket",
    "connection",
    "curvature_algebraic",
    "curvature_quadform",
    "curvature_oracle",
    "sectional_curvature",
    "torus_consistency",
    "TorusReport",
    "det_form_tensor",
    "params_to_matrix",
    "matrix_to_params",
]

HERMITICITY_TOL = 1e-12


def _as_matrix(a) -> np.ndarray:
    # A copy: the constructors below make their matrix read-only, and must
    # not do that to the caller's own array.
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _is_hermitian(a: np.ndarray) -> bool:
    scale = max(float(np.max(np.abs(a))), 1.0)
    return float(np.max(np.abs(a - a.conj().T))) <= HERMITICITY_TOL * scale


@dataclass(frozen=True)
class HermitianPoint:
    """Hermitian positive-definite base point and its read-only inverse."""

    omega: np.ndarray
    inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _as_matrix(self.omega)
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

    @property
    def size(self) -> int:
        return self.omega.shape[0]


@dataclass(frozen=True)
class MatrixTangent:
    """Tangent matrix; ``hermitian_flag`` records whether ``A = A*``."""

    a: np.ndarray
    hermitian_flag: bool = None

    def __post_init__(self):
        m = _as_matrix(self.a)
        flag = self.hermitian_flag
        if flag is None:
            flag = _is_hermitian(m)
        elif flag and not _is_hermitian(m):
            raise ValueError("matrix claimed Hermitian is not")
        m.setflags(write=False)
        object.__setattr__(self, "a", m)
        object.__setattr__(self, "hermitian_flag", flag)


def _as_point(omega) -> HermitianPoint:
    return omega if isinstance(omega, HermitianPoint) else HermitianPoint(omega)


def _as_tangent_matrix(x) -> np.ndarray:
    return x.a if isinstance(x, MatrixTangent) else _as_matrix(x)


def inner(omega, a, b) -> float:
    """Metric pairing ``Re tr(Omega^-1 A Omega^-1 B*)``.

    Restricts to the trace form on Hermitian pairs and is positive-definite
    on all nonzero matrices.
    """
    pt = _as_point(omega)
    am = _as_tangent_matrix(a)
    bm = _as_tangent_matrix(b)
    if am.shape != pt.omega.shape or bm.shape != pt.omega.shape:
        raise DimensionMismatch("tangent matrices must match the base point size")
    oi = pt.inverse
    return float(np.trace(oi @ am @ oi @ bm.conj().T).real)


def bracket(omega, z, w) -> MatrixTangent:
    """The twisted commutator ``{Z, W} = Z Omega^-1 W - W Omega^-1 Z``."""
    pt = _as_point(omega)
    zm = _as_tangent_matrix(z)
    wm = _as_tangent_matrix(w)
    oi = pt.inverse
    return MatrixTangent(zm @ oi @ wm - wm @ oi @ zm)


def connection(omega, z, u) -> MatrixTangent:
    """Covariant derivative for constant fields:
    ``-(Z Omega^-1 U + U Omega^-1 Z) / 2``."""
    pt = _as_point(omega)
    zm = _as_tangent_matrix(z)
    um = _as_tangent_matrix(u)
    oi = pt.inverse
    return MatrixTangent(-0.5 * (zm @ oi @ um + um @ oi @ zm))


def curvature_algebraic(omega, z, w, u) -> MatrixTangent:
    """Curvature operator via the bracket shortcut: ``-{{Z, W}, U} / 4``."""
    pt = _as_point(omega)
    inner_bracket = bracket(pt, z, w)
    outer_bracket = bracket(pt, inner_bracket, u)
    return MatrixTangent(-0.25 * outer_bracket.a)


def curvature_quadform(omega, u, v, z, w) -> float:
    """Quadruple curvature form ``R(U, V, Z, W) = G({Z, W}, {U, V}) / 4``."""
    pt = _as_point(omega)
    return 0.25 * inner(pt, bracket(pt, z, w), bracket(pt, u, v))


def curvature_oracle(omega, z, w, u) -> MatrixTangent:
    """Curvature operator by direct product-rule expansion.

    Computes ``nabla_Z (nabla_W U) - nabla_W (nabla_Z U)`` for constant
    fields, differentiating the base-point dependence of the connection with
    the inverse-derivative rule ``D_Z Omega^-1 = -Omega^-1 Z Omega^-1``.
    Shares nothing with the bracket shortcut beyond matrix multiplication.
    """
    pt = _as_point(omega)
    zm = _as_tangent_matrix(z)
    wm = _as_tangent_matrix(w)
    um = _as_tangent_matrix(u)
    oi = pt.inverse

    def s_term(x, y):
        return -0.5 * (x @ oi @ y + y @ oi @ x)

    def d_s_term(direction, x, y):
        # Directional derivative of (x, y) -> s_term(x, y) in the base point.
        d_inv = -oi @ direction @ oi
        return -0.5 * (x @ d_inv @ y + y @ d_inv @ x)

    first = d_s_term(zm, wm, um) + s_term(zm, s_term(wm, um))
    second = d_s_term(wm, zm, um) + s_term(wm, s_term(zm, um))
    return MatrixTangent(first - second)


def sectional_curvature(omega, u, v) -> float:
    """Sectional curvature ``-‖{U, V}‖^2 / (4 Gram)``; zero iff the bracket
    vanishes, negative otherwise."""
    pt = _as_point(omega)
    guu = inner(pt, u, u)
    gvv = inner(pt, v, v)
    guv = inner(pt, u, v)
    gram = guu * gvv - guv**2
    if gram <= 1e-12 * abs(guu * gvv):
        raise DegeneratePlane("tangent matrices do not span a 2-plane")
    br = bracket(pt, u, v)
    return -0.25 * inner(pt, br, br) / gram


def params_to_matrix(p) -> np.ndarray:
    """Real coordinates ``(a, c, Re b, Im b)`` to the 2x2 Hermitian matrix
    ``[[a, b], [conj(b), c]]``."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise DimensionMismatch(f"expected 4 real coordinates, got shape {p.shape}")
    b = p[2] + 1j * p[3]
    return np.array([[p[0], b], [np.conj(b), p[1]]], dtype=complex)


def matrix_to_params(m) -> np.ndarray:
    """Inverse of :func:`params_to_matrix`."""
    m = _as_matrix(m)
    if m.shape != (2, 2):
        raise DimensionMismatch("parametrization is for 2x2 matrices")
    return np.array([m[0, 0].real, m[1, 1].real, m[0, 1].real, m[0, 1].imag])


def det_form_tensor():
    """Degree-2 tensor on R^4 whose volume polynomial is the 2x2 determinant
    ``a c - (Re b)^2 - (Im b)^2`` in the coordinates of
    :func:`params_to_matrix`."""
    from .tensors import IntersectionTensor

    return IntersectionTensor(
        n=2,
        N=4,
        entries={(0, 1): 1.0, (2, 2): -2.0, (3, 3): -2.0},
    )


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
    from .lorentz import gram_matrix
    from .metric import _metric_jet, signature_counts

    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    rng = np.random.default_rng(seed)
    tensor = det_form_tensor()
    max_resid = 0.0
    for _ in range(samples):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        om = raw @ raw.conj().T + 0.2 * np.eye(2)
        base = HermitianPoint(om)
        g = _metric_jet(tensor, matrix_to_params(om))[0]
        for _ in range(2):
            hu = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            hu = 0.5 * (hu + hu.conj().T)
            hv = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            hv = 0.5 * (hv + hv.conj().T)
            pu = matrix_to_params(hu)
            pv = matrix_to_params(hv)
            cone_value = float(pu @ g @ pv)
            trace_value = inner(base, hu, hv)
            scale = max(abs(trace_value), 1.0)
            max_resid = max(max_resid, abs(cone_value - trace_value) / scale)
    sig = signature_counts(gram_matrix(tensor))
    return TorusReport(max_residual=max_resid, n_samples=samples, signature=sig, tol=tol)
