import numpy as np
import pytest

from conegeom.curvature import CurvatureAtPoint
from conegeom import maass
from conegeom.errors import DegeneratePlane, DimensionMismatch, NotPositiveDefinite
from conegeom.geodesics import GeodesicPath
from conegeom.lorentz import LorentzModel
from conegeom.metric import MetricAtPoint
from conegeom.maass import (
    HermitianPoint,
    bracket,
    connection,
    curvature_algebraic,
    curvature_oracle,
    curvature_quadform,
    det_form_tensor,
    inner,
    matrix_to_params,
    params_to_matrix,
    sectional_curvature,
    torus_consistency,
    verify_identities,
)

# Each class that stores arrays: a build from the caller's 2x2 array, and the stored copy.
ARRAY_HOLDERS = {
    HermitianPoint: (HermitianPoint, lambda obj: obj.omega),
    MetricAtPoint: (
        lambda a: MetricAtPoint(g=a, vol=1.0, grad_logvol=np.zeros(2), point=np.ones(2)),
        lambda obj: obj.g,
    ),
    CurvatureAtPoint: (
        lambda a: CurvatureAtPoint(
            gamma_first=np.zeros((2, 2, 2)),
            gamma_white=np.zeros((2, 2, 2)),
            riemann=None,
            metric=None,
            eigvals=np.ones(2),
            eigvecs=a,
            cond=1.0,
        ),
        lambda obj: obj.eigvecs,
    ),
    GeodesicPath: (
        lambda a: GeodesicPath(
            s=np.arange(2.0), points=a, velocities=a, speeds=np.ones(2), status="completed", noether_residual=0.0
        ),
        lambda obj: obj.points,
    ),
    LorentzModel: (
        lambda a: LorentzModel(tensor=None, B=a, B_inv=np.eye(2), eta=np.array([1.0, -1.0]), gram=np.eye(2)),
        lambda obj: obj.B,
    ),
}

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_pd(rng, m):
    raw = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return raw @ raw.conj().T + 0.2 * np.eye(m)


def random_hermitian(rng, m):
    raw = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return 0.5 * (raw + raw.conj().T)


class TestTypes:
    def test_base_point_must_be_pd(self):
        with pytest.raises(NotPositiveDefinite):
            HermitianPoint(np.diag([1.0, -1.0]).astype(complex))

    def test_inverse_is_computed_once(self, monkeypatch):
        rng = np.random.default_rng(4)
        pt = HermitianPoint(random_pd(rng, 3))
        z, w, u = (random_hermitian(rng, 3) for _ in range(3))
        assert np.allclose(pt.inverse @ pt.omega, np.eye(3), atol=1e-12)
        assert not pt.inverse.flags.writeable

        def no_solve(*args, **kwargs):
            raise AssertionError("base point inverted again")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        inner(pt, z, w)
        bracket(pt, z, w)
        connection(pt, z, u)
        curvature_oracle(pt, z, w, u)

    def test_base_point_must_be_hermitian(self):
        with pytest.raises(ValueError):
            HermitianPoint(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))

    def test_nonfinite_base_point(self):
        # A nan matrix used to fail the Hermiticity test instead.
        with pytest.raises(ValueError, match="non-finite"):
            HermitianPoint(np.full((2, 2), np.nan))

    def test_nonfinite_matrix_to_params(self):
        # It used to return [nan nan nan 0.].
        with pytest.raises(ValueError, match="non-finite"):
            matrix_to_params(np.full((2, 2), np.nan))

    def test_nonfinite_params_to_matrix(self):
        # It used to return a matrix holding inf.
        with pytest.raises(ValueError, match="non-finite"):
            params_to_matrix([np.inf, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("cls", list(ARRAY_HOLDERS))
    def test_caller_array_stays_writeable(self, cls):
        # The stored array is read-only; the caller's array is not.
        build, stored_of = ARRAY_HOLDERS[cls]
        a = np.eye(2, dtype=complex if cls is HermitianPoint else float)
        stored = stored_of(build(a))
        assert a.flags.writeable
        a[0, 0] = 5.0
        assert stored[0, 0] == 1.0 and not stored.flags.writeable


# Every public function that takes tangent matrices, with its tangent count.
TANGENT_FUNCTIONS = [
    (inner, 2),
    (bracket, 2),
    (connection, 2),
    (curvature_algebraic, 3),
    (curvature_quadform, 4),
    (curvature_oracle, 3),
    (sectional_curvature, 2),
]


class TestInputCheck:
    @pytest.mark.parametrize("func, count", TANGENT_FUNCTIONS, ids=lambda x: getattr(x, "__name__", ""))
    def test_size_mismatch(self, func, count):
        # A mismatched size used to escape from bracket and connection as
        # numpy's matmul error.
        for bad in (np.eye(3), np.ones(2), np.eye(2)[None]):
            with pytest.raises(DimensionMismatch):
                func(np.eye(2), *([SX] * (count - 1)), bad)

    @pytest.mark.parametrize("func, count", TANGENT_FUNCTIONS, ids=lambda x: getattr(x, "__name__", ""))
    def test_nonfinite_tangent(self, func, count):
        # A nan tangent used to make inner return nan.
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                func(np.eye(2), np.array([[1.0, bad], [bad, 1.0]]), *([SZ] * (count - 1)))

    def test_results_are_plain_arrays(self):
        for func, count in TANGENT_FUNCTIONS:
            got = func(np.eye(2), *([SX, SZ, SX, SZ][:count]))
            assert type(got) in (float, np.ndarray)


class TestInner:
    def test_identity_pairing(self):
        assert inner(np.eye(2), np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_traceless_orthogonal_to_identity(self):
        assert inner(np.eye(2), SZ, np.eye(2)) == pytest.approx(0.0, abs=1e-15)

    def test_positive_on_nonzero(self):
        rng = np.random.default_rng(0)
        for m in (2, 3):
            om = random_pd(rng, m)
            for _ in range(10):
                a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
                assert inner(om, a, a) > 0

    def test_symmetric_on_hermitian_pairs(self):
        rng = np.random.default_rng(1)
        om = random_pd(rng, 3)
        u, v = random_hermitian(rng, 3), random_hermitian(rng, 3)
        assert inner(om, u, v) == pytest.approx(inner(om, v, u), rel=1e-13)


class TestBracket:
    def test_commuting_diagonals_vanish(self):
        z = np.diag([1.0, 2.0]).astype(complex)
        w = np.diag([-3.0, 5.0]).astype(complex)
        assert np.all(bracket(np.eye(2), z, w) == 0)

    def test_worked_2x2(self):
        got = bracket(np.eye(2), SX, SZ)
        assert np.allclose(got, np.array([[0.0, -2.0], [2.0, 0.0]]))

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        om = random_pd(rng, 3)
        z, w = random_hermitian(rng, 3), random_hermitian(rng, 3)
        assert np.allclose(bracket(om, z, w), -bracket(om, w, z))

    def test_anti_hermitian_on_hermitian_inputs(self):
        rng = np.random.default_rng(3)
        om = random_pd(rng, 3)
        z, w = random_hermitian(rng, 3), random_hermitian(rng, 3)
        b = bracket(om, z, w)
        assert np.max(np.abs(b + b.conj().T)) < 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_jacobi_identity(self):
        rng = np.random.default_rng(4)
        for m in (2, 3):
            om = random_pd(rng, m)
            for _ in range(20):
                z, w, u = (random_hermitian(rng, m) for _ in range(3))
                total = (
                    bracket(om, bracket(om, z, w), u)
                    + bracket(om, bracket(om, w, u), z)
                    + bracket(om, bracket(om, u, z), w)
                )
                assert np.max(np.abs(total)) < 1e-12


class TestConnection:
    def test_identity_example(self):
        got = connection(np.eye(2), np.eye(2), np.eye(2))
        assert np.allclose(got, -np.eye(2))

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(5)
        om = random_pd(rng, 3)
        z, u = random_hermitian(rng, 3), random_hermitian(rng, 3)
        assert np.allclose(connection(om, z, u), connection(om, u, z))

    def test_hermitian_output(self):
        rng = np.random.default_rng(6)
        om = random_pd(rng, 2)
        z, u = random_hermitian(rng, 2), random_hermitian(rng, 2)
        got = connection(om, z, u)
        assert np.max(np.abs(got - got.conj().T)) < 1e-12 * max(1.0, np.max(np.abs(got)))

    def test_trace_weight_collapses(self):
        # The pairing of a tangent with the base point equals the plain trace
        # tr(Omega^-1 Z), so the trace-weight term of the general connection
        # vanishes identically in this finite model.
        rng = np.random.default_rng(20)
        for m in (2, 3):
            om = random_pd(rng, m)
            z = random_hermitian(rng, m)
            pointwise = inner(om, z, om)
            averaged = float(np.trace(np.linalg.solve(om, z)).real)
            assert pointwise == pytest.approx(averaged, rel=1e-12)

    def test_metric_compatibility(self):
        # Z . G(U, V) = G(nabla_Z U, V) + G(U, nabla_Z V) for constant U, V,
        # with the directional derivative expanded analytically through
        # D_Z Omega^-1 = -Omega^-1 Z Omega^-1.
        rng = np.random.default_rng(7)
        for m in (2, 3):
            omega = random_pd(rng, m)
            oi = np.linalg.inv(omega)
            z, u, v = (random_hermitian(rng, m) for _ in range(3))
            d_inv = -oi @ z @ oi
            lhs = float(np.trace(d_inv @ u @ oi @ v + oi @ u @ d_inv @ v).real)
            rhs = inner(omega, connection(omega, z, u), v) + inner(
                omega, u, connection(omega, z, v)
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestCurvature:
    def test_commuting_pair_flat(self):
        z = np.diag([1.0, 2.0]).astype(complex)
        w = np.diag([3.0, -1.0]).astype(complex)
        u = random_hermitian(np.random.default_rng(8), 2)
        assert np.all(curvature_algebraic(np.eye(2), z, w, u) == 0)

    def test_worked_sectional_value(self):
        assert sectional_curvature(np.eye(2), SX, SZ) == pytest.approx(-0.5, abs=1e-15)

    def test_algebraic_equals_oracle(self):
        rng = np.random.default_rng(9)
        for m in (2, 3):
            for _ in range(50):
                om = random_pd(rng, m)
                z, w, u = (random_hermitian(rng, m) for _ in range(3))
                alg = curvature_algebraic(om, z, w, u)
                orc = curvature_oracle(om, z, w, u)
                assert np.max(np.abs(alg - orc)) < 1e-12

    def test_oracle_antisymmetric_and_scalar_flat(self):
        rng = np.random.default_rng(10)
        om = random_pd(rng, 3)
        z, w, u = (random_hermitian(rng, 3) for _ in range(3))
        assert np.allclose(curvature_oracle(om, z, w, u), -curvature_oracle(om, w, z, u))
        om1 = np.array([[2.3 + 0j]])
        z1, w1, u1 = (np.array([[x + 0j]]) for x in (1.0, -0.7, 0.4))
        assert np.max(np.abs(curvature_oracle(om1, z1, w1, u1))) < 1e-15

    def test_adjoint_identity(self):
        rng = np.random.default_rng(11)
        for m in (2, 3):
            om = random_pd(rng, m)
            for _ in range(20):
                z, w, u, v = (random_hermitian(rng, m) for _ in range(4))
                lhs = inner(om, bracket(om, bracket(om, z, w), u), v)
                rhs = -inner(om, bracket(om, z, w), bracket(om, u, v))
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_quadform_matches_operator(self):
        rng = np.random.default_rng(12)
        om = random_pd(rng, 2)
        z, w, u, v = (random_hermitian(rng, 2) for _ in range(4))
        quad = curvature_quadform(om, u, v, z, w)
        op = inner(om, curvature_algebraic(om, z, w, u), v)
        assert quad == pytest.approx(op, rel=1e-12, abs=1e-12)

    def test_sectional_nonpositive_and_zero_iff_commuting(self):
        rng = np.random.default_rng(13)
        for m in (2, 3):
            om = random_pd(rng, m)
            for _ in range(25):
                u, v = random_hermitian(rng, m), random_hermitian(rng, m)
                k = sectional_curvature(om, u, v)
                assert k <= 0.0
                if np.max(np.abs(bracket(om, u, v))) > 1e-10:
                    assert k < 0

    def test_degenerate_plane_rejected(self):
        with pytest.raises(DegeneratePlane):
            sectional_curvature(np.eye(2), SX, 2.0 * SX)


class TestTorusConsistency:
    def test_parametrization_roundtrip(self):
        p = np.array([1.3, 0.8, -0.2, 0.5])
        assert np.allclose(matrix_to_params(params_to_matrix(p)), p)

    def test_det_form_volume(self):
        from conegeom.tensors import volume

        rng = np.random.default_rng(14)
        for _ in range(10):
            p = rng.normal(size=4)
            det = p[0] * p[1] - p[2] ** 2 - p[3] ** 2
            assert volume(det_form_tensor(), p) == pytest.approx(det, abs=1e-13)

    def test_identity_point_is_frobenius_form(self):
        from conegeom.metric import metric_at

        g = metric_at(det_form_tensor(), [1.0, 1.0, 0.0, 0.0]).g
        rng = np.random.default_rng(15)
        u = random_hermitian(rng, 2)
        pu = matrix_to_params(u)
        assert float(pu @ g @ pu) == pytest.approx(float(np.trace(u @ u).real), rel=1e-12)

    def test_full_report(self):
        rep = torus_consistency(samples=100, seed=0)
        assert rep.passed
        assert rep.max_residual < 1e-10
        assert rep.signature == (1, 3, 0)

    def test_zero_samples_rejected(self):
        # No sample would make the check pass vacuously with residual 0.
        with pytest.raises(ValueError, match="samples"):
            torus_consistency(samples=0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1e-10])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # An infinite tolerance would pass whatever the residual.
        with pytest.raises(ValueError, match="tol"):
            torus_consistency(samples=3, tol=tol)


class TestVerifyIdentities:
    def test_report(self):
        rep = verify_identities(samples=20, seed=3)
        assert rep.passed
        assert max(rep.curvature_paths_max_diff, rep.jacobi_max_residual, rep.adjoint_max_residual) < 1e-12
        assert rep.sectional_max < 0
        assert rep.reference_plane_k == -0.5
        assert rep.torus == torus_consistency(samples=20, seed=3)

    def test_tolerance_sets_the_verdict(self):
        rep = verify_identities(samples=5, seed=0, tol=1e-30)
        assert not rep.passed and rep.torus.passed

    def test_hermiticity_tested_once_per_base_point(self, monkeypatch):
        # One test per HermitianPoint: one per sample and size in the battery,
        # one per torus sample and one for the reference plane, and none on a
        # computed bracket or curvature.
        calls = []

        def counted(a, original=maass._is_hermitian):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(maass, "_is_hermitian", counted)
        samples = 7
        assert verify_identities(samples=samples, seed=1).passed
        assert sorted(calls) == sorted([(2, 2)] * (2 * samples + 1) + [(3, 3)] * samples)

    @pytest.mark.parametrize("samples, tol", [(0, 1e-12), (3, np.inf), (3, np.nan), (3, 0.0)])
    def test_rejects_no_samples_or_bad_tolerance(self, samples, tol):
        with pytest.raises(ValueError, match="samples" if samples < 1 else "tol"):
            verify_identities(samples=samples, tol=tol)
