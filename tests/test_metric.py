import math

import numpy as np
import pytest

from conegeom.errors import (
    DimensionMismatch,
    NotPrimitive,
    VolumeNotPositive,
)
from conegeom.metric import (
    is_positive_definite,
    levelset_metric,
    metric_at,
    primitive_decompose,
    pullback_check,
    signature_counts,
)
from conegeom.tensors import IntersectionTensor, volume, vol_derivatives

from conftest import ALL_FIXTURES, anchor_of, random_interior_point

BLOWUP = IntersectionTensor(n=2, N=2, entries={(0, 0): 1.0, (1, 1): -1.0})
CUBIC = IntersectionTensor(n=3, N=1, entries={(0, 0, 0): 6.0})
LORENTZ3 = IntersectionTensor(n=2, N=3, entries={(0, 0): 2.0, (1, 1): -2.0, (2, 2): -2.0})


def fd_hessian_of_potential(c, t, h=1e-4):
    # Independent oracle: central-difference Hessian of -log Vol.
    t = np.asarray(t, dtype=float)
    n = t.size
    out = np.zeros((n, n))

    def f(x):
        return -math.log(volume(c, x))

    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            out[i, j] = (
                f(t + h * (eye[i] + eye[j]))
                - f(t + h * (eye[i] - eye[j]))
                - f(t - h * (eye[i] - eye[j]))
                + f(t - h * (eye[i] + eye[j]))
            ) / (4 * h**2)
    return out


class TestMetricAt:
    def test_one_modulus_example(self):
        assert metric_at(CUBIC, [1.0]).g[0, 0] == pytest.approx(3.0, abs=1e-14)

    def test_blowup_value(self):
        g = metric_at(BLOWUP, [2.0, 1.0]).g
        assert g[0, 0] == pytest.approx(10.0 / 9.0, abs=1e-14)

    def test_lorentz_apex_is_twice_identity(self):
        g = metric_at(LORENTZ3, [1.0, 0.0, 0.0]).g
        assert np.allclose(g, 2.0 * np.eye(3), atol=1e-14)

    def test_matches_fd_hessian(self):
        rng = np.random.default_rng(2)
        for c, anchor in ((BLOWUP, [2.0, 1.0]), (LORENTZ3, [1.2, 0.3, -0.2])):
            t = random_interior_point(c, np.asarray(anchor, float), rng)
            g = metric_at(c, t).g
            assert np.allclose(g, fd_hessian_of_potential(c, t), rtol=1e-6, atol=1e-8)

    def test_volume_not_positive(self):
        with pytest.raises(VolumeNotPositive):
            metric_at(BLOWUP, [1.0, 2.0])

    def test_symmetry_and_gradient_field(self):
        data = metric_at(BLOWUP, [2.0, 1.0])
        assert np.array_equal(data.g, data.g.T)
        (v1,) = vol_derivatives(BLOWUP, [2.0, 1.0], 1)
        assert np.allclose(data.grad_logvol, -v1 / data.vol)

    def test_radial_norm_is_degree(self, fixture_files):
        rng = np.random.default_rng(4)
        for name in ALL_FIXTURES:
            tf = fixture_files[name]
            t = random_interior_point(tf.tensor, anchor_of(tf), rng)
            data = metric_at(tf.tensor, t)
            assert data.norm_sq(t) == pytest.approx(tf.tensor.n, abs=1e-10)

    def test_gradient_identity(self, fixture_files):
        # g(u, t) equals the directional derivative of log Vol.
        rng = np.random.default_rng(5)
        for name in ALL_FIXTURES:
            tf = fixture_files[name]
            c = tf.tensor
            t = random_interior_point(c, anchor_of(tf), rng)
            data = metric_at(c, t)
            u = rng.normal(size=c.N)
            (v1,) = vol_derivatives(c, t, 1)
            assert data.inner(u, t) == pytest.approx(float(v1 @ u) / data.vol, abs=1e-10)

    def test_dilation_scaling(self):
        rng = np.random.default_rng(6)
        t = random_interior_point(BLOWUP, np.array([2.0, 1.0]), rng)
        s = 1.7
        assert np.allclose(metric_at(BLOWUP, s * t).g, metric_at(BLOWUP, t).g / s**2, rtol=1e-12)


class TestPrimitiveDecompose:
    def test_radial_vector(self):
        u0, u1 = primitive_decompose(BLOWUP, [2.0, 1.0], [2.0, 1.0])
        assert u0 == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(u1, 0.0, atol=1e-14)

    def test_worked_example(self):
        u0, u1 = primitive_decompose(BLOWUP, [2.0, 1.0], [1.0, 0.0])
        assert u0 == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert isinstance(u1, np.ndarray)
        assert np.allclose(u1, [-1.0 / 3.0, -2.0 / 3.0], atol=1e-14)

    def test_reconstruction_and_primitivity(self, fixture_files):
        rng = np.random.default_rng(8)
        for name in ALL_FIXTURES:
            tf = fixture_files[name]
            c = tf.tensor
            t = random_interior_point(c, anchor_of(tf), rng)
            u = rng.normal(size=c.N)
            u0, u1 = primitive_decompose(c, t, u)
            assert np.allclose(u0 * t + u1, u, atol=1e-12)
            (v1,) = vol_derivatives(c, t, 1)
            assert abs(float(v1 @ u1)) < 1e-10 * max(1.0, float(np.abs(v1) @ np.abs(u)))

    def test_splitting_identity_radial_coefficient_n(self, fixture_files):
        # g(u, v) = n u0 v0 + g_level(u1, v1): the radial block carries the
        # factor n = g(t, t), forced by homogeneity of the volume.
        rng = np.random.default_rng(9)
        for name in ALL_FIXTURES:
            tf = fixture_files[name]
            c = tf.tensor
            t = random_interior_point(c, anchor_of(tf), rng)
            data = metric_at(c, t)
            for _ in range(5):
                u = rng.normal(size=c.N)
                v = rng.normal(size=c.N)
                u0, u1 = primitive_decompose(c, t, u)
                v0, v1 = primitive_decompose(c, t, v)
                split = c.n * u0 * v0 + levelset_metric(c, t, u1, v1)
                assert data.inner(u, v) == pytest.approx(split, abs=1e-10)


class TestLevelsetMetric:
    def test_zero_vector(self):
        assert levelset_metric(BLOWUP, [2.0, 1.0], [0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_worked_example_and_cross_check(self):
        t = [2.0, 1.0]
        u = np.array([-1.0 / 3.0, -2.0 / 3.0])
        value = levelset_metric(BLOWUP, t, u, u)
        assert value == pytest.approx(2.0 / 9.0, abs=1e-14)
        # Consistency with the full metric on the original vector (1, 0).
        g = metric_at(BLOWUP, t)
        u0, _ = primitive_decompose(BLOWUP, t, [1.0, 0.0])
        assert g.norm_sq([1.0, 0.0]) == pytest.approx(BLOWUP.n * u0**2 + value, abs=1e-12)

    def test_lorentz_apex_primitive_norm(self):
        # At the apex the primitive directions are the spatial axes and
        # -(1/q) of the polarized form gives twice the euclidean square.
        u = np.array([0.0, 0.3, -0.4])
        got = levelset_metric(LORENTZ3, [1.0, 0.0, 0.0], u, u)
        assert got == pytest.approx(2 * (0.3**2 + 0.4**2), abs=1e-14)

    def test_rejects_non_primitive(self):
        with pytest.raises(NotPrimitive):
            levelset_metric(BLOWUP, [2.0, 1.0], [1.0, 0.0], [1.0, 0.0])

    def test_positive_definite_on_primitive_space(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            t = random_interior_point(LORENTZ3, np.array([1.2, 0.3, -0.2]), rng)
            u = rng.normal(size=3)
            _, u1 = primitive_decompose(LORENTZ3, t, u)
            if np.linalg.norm(u1) < 1e-8:
                continue
            assert levelset_metric(LORENTZ3, t, u1, u1) > 0


class TestPositiveDefiniteCheck:
    def test_accepts_pd(self):
        assert is_positive_definite(np.array([[2.0, 0.3], [0.3, 1.0]]))

    def test_rejects_indefinite_and_semidefinite(self):
        assert not is_positive_definite(np.diag([1.0, -1.0]))
        assert not is_positive_definite(np.diag([1.0, 0.0]))
        assert not is_positive_definite(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_scale_invariance(self):
        m = np.array([[1.0, 0.999999], [0.999999, 1.0]])
        assert is_positive_definite(m) == is_positive_definite(1e12 * m)

    def test_one_verdict_with_signature_counts(self):
        # Definiteness is read off the eigenvalue counts, with one threshold.
        near = np.array([[1.0, 0.999999], [0.999999, 1.0]])
        for m in (np.diag([1.0, 1.0, 8e-11]), near, 1e12 * near):
            assert is_positive_definite(m) == (signature_counts(m)[0] == m.shape[0])
        assert signature_counts(np.diag([1.0, 1.0, 8e-11])) == (2, 0, 1)


class TestPullbackCheck:
    def sample_points(self, rng, count=10):
        return [np.array([rng.uniform(0.5, 2.0)]) for _ in range(count)]

    def test_identity_map(self):
        points = [np.array([2.0, 1.0]), np.array([3.0, 1.5]), np.array([2.5, -0.5])]
        rep = pullback_check(BLOWUP, BLOWUP, np.eye(2), 1.0, points)
        assert rep.passed
        assert rep.max_vol_residual == 0.0
        assert rep.max_metric_residual == 0.0

    def test_scaling_cover(self):
        # Vol(2t) = 4 Vol(t) for the degree-2 one-parameter form.
        c = IntersectionTensor(n=2, N=1, entries={(0, 0): 2.0})
        rng = np.random.default_rng(12)
        rep = pullback_check(c, c, np.array([[2.0]]), 4.0, self.sample_points(rng))
        assert rep.passed
        assert rep.max_vol_residual < 1e-12
        assert rep.max_metric_residual < 1e-12

    def test_negative_control(self):
        c = IntersectionTensor(n=2, N=1, entries={(0, 0): 2.0})
        c_off = IntersectionTensor(n=2, N=1, entries={(0, 0): 2.0 * 1.01})
        rng = np.random.default_rng(13)
        rep = pullback_check(c_off, c, np.array([[2.0]]), 4.0, self.sample_points(rng))
        assert not rep.passed
        assert rep.max_vol_residual == pytest.approx(0.01, rel=1e-6)

    def test_volume_preserving_map_is_isometry(self):
        # A linear map preserving the form preserves the metric (p = 1).
        phi = 0.4
        boost = np.array([[math.cosh(phi), math.sinh(phi)], [math.sinh(phi), math.cosh(phi)]])
        points = [np.array([2.0, 1.0]), np.array([1.5, 0.2]), np.array([3.0, -1.0])]
        rep = pullback_check(BLOWUP, BLOWUP, boost, 1.0, points)
        assert rep.passed

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pullback_check(BLOWUP, BLOWUP, np.eye(3), 1.0, [np.array([2.0, 1.0])])

    @pytest.mark.parametrize(
        "A, p, tol, match",
        [
            (np.eye(3), math.nan, 1e-10, "degree factor p"),
            (np.eye(3), math.inf, 1e-10, "degree factor p"),
            (np.full((3, 3), math.nan), 1.0, 1e-10, "non-finite"),
            (np.eye(3), 1.0, math.inf, "tol"),
            (np.eye(3), 1.0, math.nan, "tol"),
            (np.eye(3), 1.0, 0.0, "tol"),
        ],
    )
    def test_rejects_nonfinite_map_factor_or_tol(self, A, p, tol, match):
        # Each of these used to report residuals 0.0 (or an infinite tol) and
        # pass on synthetic_n3_b, whatever the map.
        from conegeom.io import load_fixture

        c = load_fixture("synthetic_n3_b").tensor
        with pytest.raises(ValueError, match=match):
            pullback_check(c, c, A, p, [[1.0, 1.0, 1.0]], tol=tol)

    def test_nonfinite_residual_fails(self):
        # Vol overflows at t = 1e200, so both residuals are nan; the builtin
        # max used to drop them and report 0.0.
        c = IntersectionTensor(n=2, N=1, entries={(0, 0): 2.0})
        with np.errstate(over="ignore", invalid="ignore"):
            rep = pullback_check(c, c, np.array([[2.0]]), 4.0, [np.array([1e200])])
        assert math.isnan(rep.max_vol_residual) and math.isnan(rep.max_metric_residual)
        assert not rep.passed
