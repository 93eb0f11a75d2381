import numpy as np
import pytest

from conegeom.errors import VolumeNotPositive, WrongSignature
from conegeom.lorentz import (
    full_cone_check,
    gram_matrix,
    lorentz_isometry_check,
    reduce_to_standard,
    signature_counts,
)
from conegeom.metric import is_positive_definite, metric_at
from conegeom.tensors import IntersectionTensor, volume

BLOWUP = IntersectionTensor(n=2, N=2, entries={(0, 0): 1.0, (1, 1): -1.0})
RANK3 = IntersectionTensor(n=2, N=3, entries={(0, 1): 1.0, (2, 2): -2.0})
TORUS = IntersectionTensor(n=2, N=4, entries={(0, 1): 1.0, (2, 2): -2.0, (3, 3): -2.0})


class TestReduction:
    def test_blowup_reduction_reproduces_volume(self):
        model = reduce_to_standard(BLOWUP, [2.0, 1.0])
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = rng.normal(size=2)
            assert volume(BLOWUP, model.to_original(s)) == pytest.approx(model.q(s), abs=1e-10)

    def test_first_basis_vector_is_reference(self):
        model = reduce_to_standard(BLOWUP, [2.0, 1.0])
        b0 = model.B[:, 0]
        ratio = b0 / np.array([2.0, 1.0])
        assert ratio[0] == pytest.approx(ratio[1], rel=1e-12)

    def test_hyperbolic_plane(self):
        c = IntersectionTensor(n=2, N=2, entries={(0, 1): 1.0})  # Vol = t0 t1
        model = reduce_to_standard(c, [1.0, 1.0])
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = rng.normal(size=2)
            assert volume(c, model.to_original(s)) == pytest.approx(s[0] ** 2 - s[1] ** 2, abs=1e-12)

    def test_wrong_signature_rejected(self):
        c = IntersectionTensor(n=2, N=2, entries={(0, 0): 1.0, (1, 1): 1.0})
        with pytest.raises(WrongSignature):
            reduce_to_standard(c, [1.0, 0.0])

    def test_degenerate_form_rejected(self):
        c = IntersectionTensor(n=2, N=2, entries={(0, 0): 1.0})
        with pytest.raises(WrongSignature):
            reduce_to_standard(c, [1.0, 0.0])

    def test_volume_not_positive_reference(self):
        with pytest.raises(VolumeNotPositive):
            reduce_to_standard(BLOWUP, [1.0, 2.0])

    def test_wrong_degree_rejected(self):
        c = IntersectionTensor(n=3, N=1, entries={(0, 0, 0): 6.0})
        from conegeom.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            reduce_to_standard(c, [1.0])

    def test_reduced_gram_table(self):
        for c, ref in ((BLOWUP, [2.0, 1.0]), (RANK3, [1.0, 1.0, 0.0]), (TORUS, [1.0, 1.0, 0.0, 0.0])):
            model = reduce_to_standard(c, ref)
            target = 2.0 * np.diag(model.eta)
            assert np.allclose(model.B.T @ model.gram @ model.B, target, atol=1e-10)

    def test_signature_counts(self):
        assert signature_counts(gram_matrix(TORUS)) == (1, 3, 0)
        assert signature_counts(np.diag([1.0, 1.0])) == (2, 0, 0)
        assert signature_counts(np.diag([1.0, 0.0])) == (1, 0, 1)
        assert signature_counts([[1.0, 0.0], [0.0, -1.0]]) == (1, 1, 0)
        assert signature_counts(np.array([[np.nan, 0.0], [0.0, 1.0]])) == (0, 0, 2)


class TestIsometries:
    @pytest.mark.parametrize(
        "tensor,ref",
        [(BLOWUP, [2.0, 1.0]), (RANK3, [1.0, 1.0, 0.0]), (TORUS, [1.0, 1.0, 0.0, 0.0])],
    )
    def test_group_action_preserves_metric(self, tensor, ref):
        model = reduce_to_standard(tensor, ref)
        rep = lorentz_isometry_check(model, samples=100, seed=0)
        assert rep.passed
        assert rep.max_residual < 1e-8

    def test_zero_samples_rejected(self):
        # No sample would make the check pass vacuously with residual 0.
        with pytest.raises(ValueError, match="samples"):
            lorentz_isometry_check(reduce_to_standard(BLOWUP, [2.0, 1.0]), samples=0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1e-8])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # An infinite tolerance would pass whatever the residual.
        with pytest.raises(ValueError, match="tol"):
            lorentz_isometry_check(reduce_to_standard(BLOWUP, [2.0, 1.0]), samples=3, tol=tol)

    @pytest.mark.parametrize("radius", [np.nan, 1.5, -1.0, 0.0, 1.0])
    def test_cone_radius_must_lie_inside_the_light_cone(self, radius):
        # nan blamed the metric for every point, 1.5 sampled outside the cone
        # and -1.0 passed.
        with pytest.raises(ValueError, match="radius"):
            full_cone_check(reduce_to_standard(BLOWUP, [2.0, 1.0]), samples=3, radius=radius)

    def test_identity_is_isometry(self):
        model = reduce_to_standard(BLOWUP, [2.0, 1.0])
        g = metric_at(BLOWUP, [2.0, 1.0]).g
        a_mat = np.eye(2)
        assert np.max(np.abs(a_mat.T @ g @ a_mat - g)) == 0.0

    def test_explicit_boost(self):
        phi = 0.73
        model = reduce_to_standard(BLOWUP, [2.0, 1.0])
        lam = np.array([[np.cosh(phi), np.sinh(phi)], [np.sinh(phi), np.cosh(phi)]])
        a_mat = model.B @ lam @ model.B_inv
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = np.array([rng.uniform(1.0, 2.0), 0.0])
            s[1] = rng.uniform(-0.9, 0.9) * s[0]
            t = model.to_original(s)
            g_t = metric_at(BLOWUP, t).g
            g_at = metric_at(BLOWUP, a_mat @ t).g
            assert np.max(np.abs(a_mat.T @ g_at @ a_mat - g_t)) < 1e-10

    def test_dilation_is_isometry(self):
        rng = np.random.default_rng(4)
        for s in rng.uniform(0.3, 3.0, size=5):
            g1 = metric_at(BLOWUP, [2.0, 1.0]).g
            g2 = metric_at(BLOWUP, [2.0 * s, s]).g
            assert np.allclose((s * np.eye(2)).T @ g2 @ (s * np.eye(2)), g1, atol=1e-12)


class TestFullCone:
    def test_metric_extends_to_whole_component(self):
        for tensor, ref in ((BLOWUP, [2.0, 1.0]), (RANK3, [1.0, 1.0, 0.0]), (TORUS, [1.0, 1.0, 0.0, 0.0])):
            model = reduce_to_standard(tensor, ref)
            rep = full_cone_check(model, samples=300, seed=0)
            assert rep.passed
            assert rep.fraction_positive_definite == 1.0
            assert rep.failures == []

    def test_volume_positive_non_kahler_point(self):
        # (2, -1) is volume-positive but on the far side of the flipped
        # exceptional class; the surface metric is still positive-definite.
        g = metric_at(BLOWUP, [2.0, -1.0]).g
        assert is_positive_definite(g)

    def test_apex_metric(self):
        g = metric_at(RANK3_STD := IntersectionTensor(
            n=2, N=3, entries={(0, 0): 2.0, (1, 1): -2.0, (2, 2): -2.0}
        ), [1.0, 0.0, 0.0]).g
        assert np.allclose(g, 2.0 * np.eye(3), atol=1e-14)

    def test_sectional_nonpositive_across_component(self):
        # Not just near a chosen sub-cone: planes sampled over the whole
        # positive component stay nonpositive.
        from conegeom.curvature import riemann_at, sectional_from_curvature
        from conegeom.lorentz import _sample_reduced_points

        rng = np.random.default_rng(6)
        for tensor, ref in ((RANK3, [1.0, 1.0, 0.0]), (TORUS, [1.0, 1.0, 0.0, 0.0])):
            model = reduce_to_standard(tensor, ref)
            for s in _sample_reduced_points(model, 30, rng, radius=0.95):
                t = model.to_original(s)
                curv = riemann_at(tensor, t)
                g = curv.metric.g
                u = rng.normal(size=tensor.N)
                u = u / np.sqrt(u @ g @ u)
                w = rng.normal(size=tensor.N)
                w = w - (w @ g @ u) * u
                w = w / np.sqrt(w @ g @ w)
                assert sectional_from_curvature(curv, u, w) <= 1e-8

    def test_geodesics_stay_in_component(self):
        # Completeness evidence: long unit-speed runs never exit.
        from conegeom.geodesics import geodesic_shoot

        rng = np.random.default_rng(5)
        model = reduce_to_standard(RANK3, [1.0, 1.0, 0.0])
        for _ in range(3):
            s = np.array([1.0, 0.0, 0.0]) + 0.3 * rng.normal(size=3)
            if model.q(s) <= 0 or s[0] <= 0:
                continue
            path = geodesic_shoot(RANK3, model.to_original(s), rng.normal(size=3), 4.0)
            assert path.status == "completed"
