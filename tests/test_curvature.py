import itertools

import numpy as np
import pytest

from conegeom import load_fixture
from conegeom.curvature import (
    _fixed_quadric,
    _metric_eigh,
    _sectional,
    _whitening,
    christoffel_at,
    fd_curvature_oracle,
    riemann_at,
    sectional,
    sectional_from_curvature,
)
from conegeom.errors import DegeneratePlane, SingularMetric
from conegeom.maass import det_form_tensor, matrix_to_params, params_to_matrix, sectional_curvature
from conegeom.metric import is_positive_definite, metric_at
from conegeom.tensors import IntersectionTensor, vol_derivatives, volume

from conftest import anchor_of, random_interior_point

CUBIC = IntersectionTensor(n=3, N=1, entries={(0, 0, 0): 6.0})
BLOWUP = IntersectionTensor(n=2, N=2, entries={(0, 0): 1.0, (1, 1): -1.0})
RANK3 = IntersectionTensor(n=2, N=3, entries={(0, 1): 1.0, (2, 2): -2.0})
CURVED3 = IntersectionTensor(n=3, N=3, entries={(0, 0, 0): 0.6, (0, 1, 2): 1.0})
# Every cubic monomial present: the elementary symmetric polynomial e3 in six
# variables (hyperbolic, so g > 0 near (1, ..., 1)) plus small other entries.
_DENSE_RNG = np.random.default_rng(6)
DENSE6 = IntersectionTensor(
    n=3,
    N=6,
    entries={
        idx: 1.0 if len(set(idx)) == 3 else 0.1 * float(_DENSE_RNG.uniform(-1.0, 1.0))
        for idx in itertools.combinations_with_replacement(range(6), 3)
    },
)

# The benchmark's hyperbolic form t0^2 (t0^2 - sum_j t_j^2) in six variables
# plus a seeded perturbation on every sorted multi-index: g > 0 near e_0.
_HYPER_RNG = np.random.default_rng(46)
HYPER46 = IntersectionTensor(
    n=4,
    N=6,
    entries={
        idx: 0.02 * float(_HYPER_RNG.standard_normal())
        + (24.0 if idx == (0, 0, 0, 0) else -4.0 if idx[:2] == (0, 0) and idx[2] == idx[3] else 0.0)
        for idx in itertools.combinations_with_replacement(range(6), 4)
    },
)


def symmetry_residuals(r):
    scale = max(float(np.max(np.abs(r))), 1e-300)
    return {
        "antisym_front": float(np.max(np.abs(r + np.einsum("abkl->bakl", r)))) / scale,
        "antisym_back": float(np.max(np.abs(r + np.einsum("abkl->ablk", r)))) / scale,
        "pair": float(np.max(np.abs(r - np.einsum("abkl->klab", r)))) / scale,
        "bianchi": float(
            np.max(np.abs(r + np.einsum("abkl->aklb", r) + np.einsum("abkl->albk", r)))
        )
        / scale,
    }


def rel_tensor_err(a, b, g):
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(g))) ** 2)
    return float(np.max(np.abs(a - b))) / scale


def coordinate_riemann(c, t):
    """Reference curvature: the general coordinate formula
    ``R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} + Gamma Gamma - Gamma Gamma``
    with exact third and fourth potential derivatives, where
    ``d_i Gamma^l_{jk} = (g^{lm} F_{mjki} - g^{la} F_{aib} g^{bm} F_{mjk}) / 2``.
    It shares no algebra with the Hessian-metric identity in ``riemann_at``.
    """
    vol = volume(c, t)
    v1, v2, v3, v4 = vol_derivatives(c, t, 4)
    sym3 = (
        np.einsum("ij,k->ijk", v2, v1)
        + np.einsum("ik,j->ijk", v2, v1)
        + np.einsum("jk,i->ijk", v2, v1)
    )
    f3 = -(v3 / vol - sym3 / vol**2 + 2.0 * np.einsum("i,j,k->ijk", v1, v1, v1) / vol**3)
    sym31 = (
        np.einsum("ijk,l->ijkl", v3, v1)
        + np.einsum("ijl,k->ijkl", v3, v1)
        + np.einsum("ikl,j->ijkl", v3, v1)
        + np.einsum("jkl,i->ijkl", v3, v1)
    )
    sym22 = (
        np.einsum("ij,kl->ijkl", v2, v2)
        + np.einsum("ik,jl->ijkl", v2, v2)
        + np.einsum("il,jk->ijkl", v2, v2)
    )
    sym211 = (
        np.einsum("ij,k,l->ijkl", v2, v1, v1)
        + np.einsum("ik,j,l->ijkl", v2, v1, v1)
        + np.einsum("il,j,k->ijkl", v2, v1, v1)
        + np.einsum("jk,i,l->ijkl", v2, v1, v1)
        + np.einsum("jl,i,k->ijkl", v2, v1, v1)
        + np.einsum("kl,i,j->ijkl", v2, v1, v1)
    )
    f4 = -(
        v4 / vol
        - (sym31 + sym22) / vol**2
        + 2.0 * sym211 / vol**3
        - 6.0 * np.einsum("i,j,k,l->ijkl", v1, v1, v1, v1) / vol**4
    )
    g = metric_at(c, t).g
    g_inv = np.linalg.inv(g)
    gamma2 = 0.5 * np.einsum("lm,mjk->ljk", g_inv, f3)
    dgamma2 = 0.5 * (
        np.einsum("lm,mjki->iljk", g_inv, f4)
        - np.einsum("la,aib,bm,mjk->iljk", g_inv, f3, g_inv, f3)
    )
    r_up = (
        np.einsum("iljk->lijk", dgamma2)
        - np.einsum("jlik->lijk", dgamma2)
        + np.einsum("lim,mjk->lijk", gamma2, gamma2)
        - np.einsum("ljm,mik->lijk", gamma2, gamma2)
    )
    # R[a, b, k, l] = g(R(e_k, e_l) e_a, e_b) has components r_up[m, k, l, a].
    return np.einsum("bm,mkla->abkl", g, r_up)


class TestChristoffel:
    def test_one_modulus_closed_form(self):
        # F = -3 log t: F''' = -6/t^3 and g = 3/t^2, so at t = 1 Gamma_first = -3
        # and the whitened Gt = Gamma_first / sqrt(g) = -sqrt(3), up to the sign
        # of the eigenvector.  W Gt = g^-1 Gamma gives Gamma^1_11 = -1/t,
        # matching the geodesic equation t'' = t'^2 / t of the log metric
        # (unit-speed solution exp(s/sqrt(3))).
        curv = christoffel_at(CUBIC, [1.0])
        assert curv.gamma_first[0, 0, 0] == pytest.approx(-3.0, abs=1e-13)
        assert curv.gamma_white[0, 0, 0] * curv.eigvecs[0, 0] == pytest.approx(-np.sqrt(3.0), abs=1e-13)
        for t in (1.0, 2.0):
            curv = christoffel_at(CUBIC, [t])
            white = _whitening(curv.eigvals, curv.eigvecs)[0]
            assert white[0, 0] * curv.gamma_white[0, 0, 0] == pytest.approx(-1.0 / t, abs=1e-13)

    def test_lower_pair_symmetry(self):
        rng = np.random.default_rng(0)
        t = random_interior_point(RANK3, np.array([1.0, 1.0, 0.0]), rng)
        curv = christoffel_at(RANK3, t)
        assert np.allclose(curv.gamma_first, np.swapaxes(curv.gamma_first, 1, 2))
        assert np.allclose(curv.gamma_white, np.swapaxes(curv.gamma_white, 1, 2))
        # Gt = W^T Gamma, and W^-1 undoes it.
        unwhite = _whitening(curv.eigvals, curv.eigvecs)[1]
        assert np.allclose(np.einsum("pi,pjk->ijk", unwhite, curv.gamma_white), curv.gamma_first)

    def test_matches_fd_koszul_on_surfaces(self):
        rng = np.random.default_rng(1)
        for c, anchor in ((BLOWUP, [2.0, 1.0]), (RANK3, [1.0, 1.0, 0.0])):
            for _ in range(5):
                t = random_interior_point(c, np.asarray(anchor, float), rng)
                exact = christoffel_at(c, t)
                fd = fd_curvature_oracle(c, t, 1e-4)
                scale = max(
                    float(np.max(np.abs(exact.gamma_first))),
                    float(np.max(np.abs(exact.metric.g))) ** 1.5,
                )
                err = float(np.max(np.abs(exact.gamma_first - fd.gamma_first))) / scale
                assert err < 1e-6

    def test_degree_two_uses_no_third_derivative(self):
        # For n = 2 the cubic Vol-derivative vanishes, yet the potential still
        # has nonzero third derivatives from the log.
        curv = christoffel_at(BLOWUP, [2.0, 1.0])
        assert np.max(np.abs(curv.gamma_first)) > 0

    def test_singular_metric_detected(self):
        degenerate = IntersectionTensor(n=2, N=2, entries={(0, 0): 2.0, (0, 1): 1e-9})
        with pytest.raises(SingularMetric):
            christoffel_at(degenerate, [1.0, 0.0])
        with pytest.raises(SingularMetric):
            _metric_eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestRiemann:
    def test_one_dimensional_cone_is_flat(self):
        curv = riemann_at(CUBIC, [1.3])
        assert np.all(curv.riemann == 0.0)

    def test_symmetries_and_bianchi(self):
        rng = np.random.default_rng(2)
        for c, anchor in ((RANK3, [1.0, 1.0, 0.0]), (CURVED3, [1.0, 1.0, 1.0])):
            t = random_interior_point(c, np.asarray(anchor, float), rng)
            res = symmetry_residuals(riemann_at(c, t).riemann)
            for value in res.values():
                assert value < 1e-12

    def test_matches_fd_oracle(self):
        rng = np.random.default_rng(3)
        for c, anchor in (
            (BLOWUP, [2.0, 1.0]),
            (RANK3, [1.0, 1.0, 0.0]),
            (CURVED3, [1.0, 1.0, 1.0]),
            (DENSE6, np.ones(6)),
        ):
            for _ in range(4):
                t = random_interior_point(c, np.asarray(anchor, float), rng, spread=0.15)
                exact = riemann_at(c, t)
                fd = fd_curvature_oracle(c, t, 3e-4)
                assert rel_tensor_err(exact.riemann, fd.riemann, exact.metric.g) < 1e-5

    def test_matches_coordinate_formula(self):
        rng = np.random.default_rng(14)
        n3b = load_fixture("synthetic_n3_b").tensor
        for c, anchor in (
            (RANK3, [1.0, 1.0, 0.0]),
            (CURVED3, [1.0, 1.0, 1.0]),
            (n3b, [1.0, 1.0, 1.0]),
            (DENSE6, np.ones(6)),
        ):
            for _ in range(5):
                t = random_interior_point(c, np.asarray(anchor, float), rng, spread=0.15)
                ref = coordinate_riemann(c, t)
                scale = max(float(np.max(np.abs(ref))), 1e-12)
                curv = riemann_at(c, t)
                assert float(np.max(np.abs(curv.riemann - ref))) / scale < 1e-10
                # The eigenvalue ratio is the 2-norm condition number.
                assert curv.cond == pytest.approx(np.linalg.cond(curv.metric.g), rel=1e-12)

    def test_indefinite_metric_matches_coordinate_formula(self):
        # Vol > 0 but g indefinite: the identity needs only an invertible g.
        # Here the reference itself is off by 7e-10 relative (cancellation in
        # F4; against a 50-digit evaluation the identity is off by 1.4e-12).
        t = np.array([1.08563099, -0.52591432, -0.22499772, -0.6805052, 0.59766188, 0.03588425])
        curv = riemann_at(DENSE6, t)
        assert curv.metric.vol > 0 and np.linalg.eigvalsh(curv.metric.g)[0] < 0
        ref = coordinate_riemann(DENSE6, t)
        assert float(np.max(np.abs(curv.riemann - ref))) / float(np.max(np.abs(ref))) < 1e-8
        for value in symmetry_residuals(curv.riemann).values():
            assert value < 1e-12

    def test_dilation_invariance(self):
        rng = np.random.default_rng(4)
        t = random_interior_point(CURVED3, np.array([1.0, 1.0, 1.0]), rng)
        s = 2.3
        r_t = riemann_at(CURVED3, t).riemann
        r_st = riemann_at(CURVED3, s * t).riemann
        assert np.allclose(r_st, r_t / s**4, rtol=1e-10, atol=1e-12)
        u, v = rng.normal(size=3), rng.normal(size=3)
        assert sectional(CURVED3, t, u, v) == pytest.approx(
            sectional(CURVED3, s * t, u, v), rel=1e-10
        )

    def test_surface_sectional_nonpositive(self):
        # Raw random pairs may be nearly parallel, which amplifies rounding in
        # the exactly-zero directions; 1e-8 absorbs that. g-orthonormalized
        # planes (as the scanner draws them) stay at 1e-10.
        rng = np.random.default_rng(5)
        for c, anchor in ((BLOWUP, [2.0, 1.0]), (RANK3, [1.0, 1.0, 0.0])):
            for _ in range(10):
                t = random_interior_point(c, np.asarray(anchor, float), rng)
                u, v = rng.normal(size=c.N), rng.normal(size=c.N)
                assert sectional(c, t, u, v) <= 1e-8
                g = metric_at(c, t).g
                u = u / np.sqrt(u @ g @ u)
                w = v - (v @ g @ u) * u
                w = w / np.sqrt(w @ g @ w)
                assert sectional(c, t, u, w) <= 1e-10

    def test_surface_level_plane_value(self):
        # Degree-2 cones split as a flat radial line times a rescaled
        # hyperboloid; planes tangent to the level set have K = -1/2 and
        # planes containing the radial direction are flat.
        rng = np.random.default_rng(6)
        t = random_interior_point(RANK3, np.array([1.0, 1.0, 0.0]), rng)
        from conegeom.metric import primitive_decompose

        _, p1 = primitive_decompose(RANK3, t, rng.normal(size=3))
        _, p2 = primitive_decompose(RANK3, t, rng.normal(size=3))
        assert sectional(RANK3, t, p1, p2) == pytest.approx(-0.5, abs=1e-10)
        # Radial planes are flat at every degree, definite g or not:
        # log-homogeneity gives Gamma(t, x) = -g x, so R(x, t, t, x) = 0.
        n3b = load_fixture("synthetic_n3_b").tensor
        cases = [
            (RANK3, t, p1 + 0.3 * np.asarray(t)),
            (CURVED3, random_interior_point(CURVED3, np.ones(3), rng), rng.normal(size=3)),
            (DENSE6, random_interior_point(DENSE6, np.ones(6), rng), rng.normal(size=6)),
            (n3b, np.ones(3), rng.normal(size=3)),
            (n3b, np.array([1.792, 0.182, -1.506]), np.array([0.0, 1.0, 0.0])),  # Vol > 0, g indefinite
        ]
        for c, point, x in cases:
            curv = christoffel_at(c, point)
            g = curv.metric.g
            assert float(x @ g @ x) * float(point @ g @ point) - float(x @ g @ point) ** 2 > 0
            assert sectional(c, point, point, x) == pytest.approx(0.0, abs=1e-10)
            assert _sectional(curv, point, x) == pytest.approx(0.0, abs=1e-10)
            g_inv = np.linalg.inv(g)
            scale = np.max(np.abs(curv.gamma_first)) ** 2 * np.max(np.abs(g_inv)) * float(point @ point)
            assert np.max(np.abs(_fixed_quadric(curv, point))) <= 1e-12 * scale
        assert not is_positive_definite(metric_at(n3b, cases[-1][1]).g)


class TestSectional:
    def test_parallel_vectors_rejected(self):
        with pytest.raises(DegeneratePlane):
            sectional(BLOWUP, [2.0, 1.0], [1.0, 0.3], [2.0, 0.6])

    def test_reparametrization_invariance(self):
        rng = np.random.default_rng(7)
        t = random_interior_point(CURVED3, np.array([1.0, 1.0, 1.0]), rng)
        u, v = rng.normal(size=3), rng.normal(size=3)
        base = sectional(CURVED3, t, u, v)
        for _ in range(5):
            a, b = rng.uniform(0.2, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            mix = rng.normal()
            assert sectional(CURVED3, t, a * u, b * v + mix * u) == pytest.approx(base, rel=1e-9)

    def test_from_curvature_matches_direct(self):
        rng = np.random.default_rng(8)
        t = random_interior_point(CURVED3, np.array([1.0, 1.0, 1.0]), rng)
        curv = riemann_at(CURVED3, t)
        u, v = rng.normal(size=3), rng.normal(size=3)
        assert sectional_from_curvature(curv, u, v) == sectional(CURVED3, t, u, v)


def near_degeneracy_points(c, start, end, offsets):
    """Points on the segment from ``start`` (g > 0) toward ``end`` (g indefinite),
    at the given relative offsets inside the first point where g degenerates."""
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if is_positive_definite(metric_at(c, start + mid * (end - start)).g):
            lo = mid
        else:
            hi = mid
    return [start + lo * (1.0 - d) * (end - start) for d in offsets]


class TestGammaForm:
    """The scanner's per-plane form against the contraction of the Riemann array."""

    @staticmethod
    def assert_matches_riemann(c, points, rng, planes=20):
        for p in points:
            curv = riemann_at(c, p)
            g = curv.metric.g
            for _ in range(planes):
                u, v = rng.normal(size=(2, c.N))
                gram = float(u @ g @ u) * float(v @ g @ v) - float(u @ g @ v) ** 2

                def gam(x, y):
                    return float(np.linalg.norm(np.einsum("ijk,j,k->i", curv.gamma_white, x, y)))

                # Size of the two terms of K * gram, which cancel where K is small.
                scale = gam(u, v) ** 2 + gam(u, u) * gam(v, v)
                diff = abs(_sectional(curv, u, v) - sectional_from_curvature(curv, u, v)) * gram
                assert diff <= 1e-10 * scale

    @pytest.mark.parametrize(
        "tensor, anchor",
        [(CURVED3, [1.0, 1.0, 1.0]), (DENSE6, np.ones(6)), (HYPER46, np.eye(6)[0])],
        ids=["curved3", "dense6", "hyper46"],
    )
    def test_matches_riemann_contraction(self, tensor, anchor):
        rng = np.random.default_rng(31)
        points = [random_interior_point(tensor, np.asarray(anchor, dtype=float), rng) for _ in range(4)]
        self.assert_matches_riemann(tensor, points, rng)

    def test_matches_riemann_contraction_near_degeneracy(self):
        c = load_fixture("synthetic_n3_b").tensor
        points = near_degeneracy_points(c, [1.0, 1.0, 1.0], [1.792, 0.182, -1.506], (1e-3, 1e-4, 1e-5, 1e-6))
        assert min(christoffel_at(c, p).cond for p in points) >= 1e3
        self.assert_matches_riemann(c, points, np.random.default_rng(32))

    def test_batched_rows_equal_single_planes(self):
        rng = np.random.default_rng(33)
        for tensor, anchor in ((CURVED3, [1.0, 1.0, 1.0]), (DENSE6, np.ones(6)), (HYPER46, np.eye(6)[0])):
            curv = christoffel_at(tensor, anchor)  # no Riemann array
            us, vs = rng.normal(size=(2, 17, tensor.N))
            batched = _sectional(curv, us, vs)
            assert batched.shape == (17,)
            assert batched.tolist() == [_sectional(curv, u, v) for u, v in zip(us, vs)]

    def test_degenerate_row_rejected(self):
        curv = christoffel_at(CURVED3, [1.0, 1.0, 1.0])
        us = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        vs = np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        with pytest.raises(DegeneratePlane):
            _sectional(curv, us, vs)
        assert _sectional(curv, us[0], vs[0]) == _sectional(curv, us[:1], vs[:1])[0]


class TestExactTorus:
    """Both sectional routes against the exact curvature of the determinant form."""

    # Up to cond 1e6 the whitened pairing is good to 1e-9.  At cond 1e8 the
    # floor is set by g and Gamma as the volume jet evaluates them near the
    # boundary, not by the pairing: the worst error over 150 seeds of 100
    # planes was 9.2e-9, while rounding the exact Gt to floats cost at most
    # 1.3e-10 on the worst planes of three of those seeds.  The explicit
    # inverse g^-1 gave errors up to 3.4e-4 at cond 1e8.
    @pytest.mark.parametrize("eps, tol", [(1e-2, 1e-9), (1e-3, 1e-9), (1e-4, 1e-8)])
    def test_sectional_exact_at_high_condition(self, eps, tol):
        # At Omega = Q diag(1, eps) Q* the cone metric of det is the trace
        # metric, with cond(g) about 1 / eps^2, and its K lies in [-1/2, 0] at
        # every point, so an absolute tolerance fits every point.
        rng = np.random.default_rng(42)
        tensor = det_form_tensor()
        for _ in range(5):
            q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            point = matrix_to_params(q @ np.diag([1.0, eps]) @ q.conj().T)
            omega = params_to_matrix(point)
            curv = christoffel_at(tensor, point)
            assert 0.1 / eps**2 <= curv.cond <= 10.0 / eps**2
            for _ in range(20):
                hu, hv = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
                hu, hv = hu + hu.conj().T, hv + hv.conj().T
                exact = sectional_curvature(omega, hu, hv)
                u, v = matrix_to_params(hu), matrix_to_params(hv)
                assert abs(_sectional(curv, u, v) - exact) <= tol
                assert abs(sectional(tensor, point, u, v) - exact) <= tol


class TestFdOracle:
    def test_richardson_order(self):
        # Halving the step should cut the Christoffel error about fourfold.
        rng = np.random.default_rng(9)
        t = random_interior_point(CURVED3, np.array([1.0, 1.0, 1.0]), rng)
        exact = christoffel_at(CURVED3, t).gamma_first
        err = {}
        for h in (2e-2, 1e-2):
            fd = fd_curvature_oracle(CURVED3, t, h).gamma_first
            err[h] = float(np.max(np.abs(fd - exact)))
        ratio = err[2e-2] / err[1e-2]
        assert 2.5 < ratio < 6.0

    def test_one_dimensional_zero_curvature(self):
        fd = fd_curvature_oracle(CUBIC, [1.0], 1e-4)
        assert np.max(np.abs(fd.riemann)) < 1e-9

    def test_lower_index_symmetry(self):
        fd = fd_curvature_oracle(BLOWUP, [2.0, 1.0], 1e-4)
        assert np.allclose(fd.gamma_first, np.swapaxes(fd.gamma_first, 1, 2))

    def test_step_underflow(self):
        with pytest.raises(ValueError):
            fd_curvature_oracle(BLOWUP, [2.0, 1.0], 1e-15)

    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_step_must_be_finite(self, step):
        # Both used to return an all-nan Riemann array without an error.
        with pytest.raises(ValueError, match="not finite"):
            fd_curvature_oracle(BLOWUP, [2.0, 1.0], step)
