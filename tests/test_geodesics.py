import math

import numpy as np
import pytest

from conegeom import load_fixture
from conegeom.errors import VolumeNotPositive
from conegeom.geodesics import (
    DEGENERACY_RATIO,
    boundary_ray_study,
    geodesic_shoot,
    length_bound_check,
    path_length,
)
from conegeom.maass import det_form_tensor, matrix_to_params, params_to_matrix
from conegeom.metric import metric_at
from conegeom.tensors import IntersectionTensor

from conftest import random_interior_point

CUBIC = IntersectionTensor(n=3, N=1, entries={(0, 0, 0): 6.0})
BLOWUP = IntersectionTensor(n=2, N=2, entries={(0, 0): 1.0, (1, 1): -1.0})
BLOWUP_FILE = load_fixture("blowup_p2")


def count_metric_jets(monkeypatch):
    """Record each metric evaluation of the line integral: one per node."""
    import conegeom.geodesics as geodesics

    calls = []
    metric_jet = geodesics._metric_jet

    def counted(*args):
        calls.append(None)
        return metric_jet(*args)

    monkeypatch.setattr(geodesics, "_metric_jet", counted)
    return calls


def bounded_jets(monkeypatch, budget):
    """Count the volume jets of geodesic shots, one per right-hand side.

    Past ``budget`` jets the shot raises, so a shot that stops stopping fails
    the test at once instead of grinding."""
    import conegeom.geodesics as geodesics

    calls = []

    def counted(*args, original=geodesics._jet):
        calls.append(None)
        if len(calls) > budget:
            raise AssertionError(f"geodesic shot exceeded its budget of {budget} jets")
        return original(*args)

    monkeypatch.setattr(geodesics, "_jet", counted)
    return calls


def torus_closed_form(path):
    """The trace-metric geodesic ``Omega^1/2 exp(s X) Omega^1/2`` of a shot on
    the 2x2 determinant form, with ``X = Omega^-1/2 U Omega^-1/2``, at the
    shot's last arc parameter, and the shot's endpoint, both as matrices."""
    lam, vecs = np.linalg.eigh(params_to_matrix(path.points[0]))
    root = (vecs * np.sqrt(lam)) @ vecs.conj().T
    inv_root = (vecs / np.sqrt(lam)) @ vecs.conj().T
    mu, w = np.linalg.eigh(inv_root @ params_to_matrix(path.velocities[0]) @ inv_root)
    want = root @ ((w * np.exp(path.arclength * mu)) @ w.conj().T) @ root
    return want, params_to_matrix(path.endpoint)


def metric_profile(c, path):
    """Per point of a path: ``lambda_min |t|^2``, ``lambda_min / lambda_max``,
    and the largest speed drift ``|g(t', t') - 1|``, from fresh metrics."""
    scaled, ratio, drift = [], [], 0.0
    for t, v in zip(path.points, path.velocities):
        g = metric_at(c, t).g
        lam = np.linalg.eigvalsh(g)
        scaled.append(lam[0] * float(t @ t))
        ratio.append(lam[0] / lam[-1])
        drift = max(drift, abs(float(v @ g @ v) - 1.0))
    return np.array(scaled), np.array(ratio), drift


class TestGeodesicShoot:
    def test_one_modulus_closed_form(self):
        # Unit-speed geodesic of the log metric g = 3/t^2 is exp(s/sqrt(3)).
        path = geodesic_shoot(CUBIC, [1.0], [1.0], math.sqrt(3.0))
        assert path.status == "completed"
        assert path.endpoint[0] == pytest.approx(math.e, abs=1e-8)
        assert np.allclose(path.points[:, 0], np.exp(path.s / math.sqrt(3.0)), atol=1e-8)

    def test_reversal(self):
        out = geodesic_shoot(BLOWUP, [2.0, 1.0], [-0.4, 0.7], 1.2)
        assert out.status == "completed"
        back = geodesic_shoot(BLOWUP, out.endpoint, -out.end_velocity, 1.2)
        assert back.status == "completed"
        assert np.allclose(back.endpoint, [2.0, 1.0], atol=1e-8)

    def test_speed_conservation_long_run(self):
        path = geodesic_shoot(BLOWUP, [2.0, 1.0], [1.0, 0.3], 5.0, tol=1e-7)
        assert path.status == "completed"
        assert float(np.max(np.abs(path.speeds - 1.0))) < 1e-7

    def test_boundary_guard_keeps_volume_positive(self):
        # Aim at the light cone; the surface metric is complete, so the run
        # either finishes or stops with the boundary status, and every sample
        # stays strictly inside the volume cone.
        from conegeom.tensors import volume

        path = geodesic_shoot(BLOWUP, [1.2, 1.0], [-1.0, 0.5], 6.0)
        assert path.status in ("completed", "exited_volume_cone")
        assert all(volume(BLOWUP, p) > 0 for p in path.points)

    def test_locus_shot_ends_metric_degenerate(self, monkeypatch):
        # On synthetic_n3_b this direction meets the degeneracy locus near
        # s = 0.4461, where Vol stays near 1.94 but lambda_min(g) -> 0.  Once
        # the error budget fell below rounding the shot used to take about
        # 150,000 jets to reach step_underflow; DOP853 needs about 2,400.
        bounded_jets(monkeypatch, 4_000)
        c = load_fixture("synthetic_n3_b").tensor
        path = geodesic_shoot(c, (1, 1, 1), (1, 0.3, -0.2), 2.0)
        assert path.status == "metric_degenerate"
        scaled, ratio, drift = metric_profile(c, path)
        # The stop criterion holds at the last point and nowhere before it.
        assert np.flatnonzero(scaled <= DEGENERACY_RATIO * c.n).tolist() == [len(path.s) - 1]
        assert ratio[-1] <= DEGENERACY_RATIO
        assert drift <= 1e-10
        assert float(np.max(np.abs(path.speeds - 1.0))) <= 1e-10

    def test_degeneracy_stop_is_scale_free(self):
        # The complete geodesic of test_boundary_guard_keeps_volume_positive
        # runs far out along the light cone of blowup_p2: lambda_min/lambda_max
        # falls below 1e-6 while lambda_min |t|^2 / n stays at 1/2.  A stop on
        # the condition number alone would cut it short.
        path = geodesic_shoot(BLOWUP, [1.2, 1.0], [-1.0, 0.5], 6.0)
        assert path.status == "completed"
        scaled, ratio, _ = metric_profile(BLOWUP, path)
        assert float(np.min(ratio)) < 1e-6
        assert float(np.min(scaled)) > 0.4 * BLOWUP.n

    def test_rejects_bad_inputs(self):
        with pytest.raises(VolumeNotPositive):
            geodesic_shoot(BLOWUP, [1.0, 2.0], [1.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            geodesic_shoot(CUBIC, [1.0], [1.0], -1.0)
        # A complex direction used to be truncated to its real part.
        with pytest.raises(ValueError, match="real numbers"):
            geodesic_shoot(BLOWUP, [2.0, 1.0], np.array([1.0, 0.3 + 0.1j]), 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0])
    def test_rejects_nonfinite_or_nonpositive_arclength_and_tol(self, bad):
        # A nan arclength or tol used to "complete" with vacuous checks, and a
        # zero or negative tol ended as step_underflow.
        with pytest.raises(ValueError, match="arclength"):
            geodesic_shoot(BLOWUP, [2.0, 1.0], [1.0, 0.3], bad)
        with pytest.raises(ValueError, match="tol"):
            geodesic_shoot(BLOWUP, [2.0, 1.0], [1.0, 0.3], 1.0, tol=bad)

    def test_first_same_as_last_stage_reuse(self, monkeypatch):
        # The stage at the new point of an accepted step is the next step's
        # first stage, and its metric serves the speed check: twelve jets per
        # step, plus the first stage and the starting-step probe, and one
        # metric at the start point to normalize the direction.
        import conegeom.geodesics as geodesics

        calls = {"_jet": 0, "_metric_jet": 0}
        for name in calls:

            def counted(*args, name=name, original=getattr(geodesics, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(geodesics, name, counted)
        tf = load_fixture("blowup_p2")
        (t0,) = tf.metadata["kahler_points"]
        path = geodesic_shoot(tf.tensor, t0, (1, 0.3), 1.0)
        assert path.status == "completed"
        assert calls == {"_jet": 12 * (len(path.s) - 1) + 2, "_metric_jet": 1}

    @pytest.mark.parametrize(
        "name, u0",
        [("torus_det", (0.3, -0.2, 0.5, 0.1)), ("blowup_p2", (1.0, 0.3)), ("synthetic_n3_a", (0.2, -0.5, 0.4))],
    )
    def test_starting_step_estimate(self, name, u0):
        # The first step comes from the starting-step estimate, not a fixed
        # 1e-2 that the 4x growth cap needs three steps to leave.
        tf = load_fixture(name)
        path = geodesic_shoot(tf.tensor, tf.metadata["kahler_points"][0], u0, 2.0)
        assert path.status == "completed"
        assert path.s[1] > 0.02
        assert len(path.s) - 1 <= 10

    @pytest.mark.parametrize(
        "name, u0, arclength",
        [("blowup_p2", (1.0, 0.3), 0.11694380550462406), ("synthetic_n3_a", (0.2, -0.5, 0.4), 0.38905094236275733)],
    )
    def test_last_step_lands_on_arclength(self, name, u0, arclength):
        # On these shots s + (arclength - s) rounds one ulp short of
        # arclength, which left a remainder below STEP_FLOOR and ended the
        # shot step_underflow.
        tf = load_fixture(name)
        path = geodesic_shoot(tf.tensor, tf.metadata["kahler_points"][0], u0, arclength)
        assert path.status == "completed"
        assert path.s[-1] == arclength

    def test_tableau_quadrature_conditions(self):
        # An 8th-order pair integrates t^k exactly for k < 8 at the nodes
        # c_i = sum_j a_ij; both error weights annihilate constants.
        from conegeom.geodesics import _DOP_A, _DOP_B, _DOP_E3, _DOP_E5

        nodes = _DOP_A.sum(axis=1)
        for k in range(8):
            assert _DOP_B @ nodes**k == pytest.approx(1 / (k + 1), abs=1e-14)
        assert abs(_DOP_E5.sum()) < 1e-14
        assert abs(_DOP_E3.sum()) < 1e-14

    @pytest.mark.parametrize(
        "name, u0",
        [
            ("torus_det", (0.3, -0.2, 0.5, 0.1)),
            ("blowup_p2", (1.0, 0.3)),
            ("synthetic_n3_a", (0.2, -0.5, 0.4)),
            ("synthetic_n3_b", (1, 0.3, -0.2)),
        ],
    )
    def test_noether_residual(self, name, u0):
        # g(t, t') = D_t' log Vol is constant along a geodesic; the path
        # reports its largest change, and fresh metrics agree.  The shot on
        # synthetic_n3_b is the one into the degeneracy locus.
        tf = load_fixture(name)
        (t0,) = tf.metadata["kahler_points"]
        path = geodesic_shoot(tf.tensor, t0, u0, 2.0)
        assert path.status == ("metric_degenerate" if name == "synthetic_n3_b" else "completed")
        assert path.noether_residual <= 1e-12
        slopes = [float(metric_at(tf.tensor, t).grad_logvol @ v) for t, v in zip(path.points, path.velocities)]
        assert max(abs(q - slopes[0]) for q in slopes) <= 1e-12

    def test_torus_endpoints_match_closed_form(self):
        # On the 2x2 determinant form the cone metric is the trace metric, whose
        # unit-speed geodesics are Omega^1/2 exp(s X) Omega^1/2 with
        # X = Omega^-1/2 U Omega^-1/2.
        c = det_form_tensor()
        rng = np.random.default_rng(0)
        shots = 0
        while shots < 10:
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            omega = raw @ raw.conj().T
            lam, vecs = np.linalg.eigh(omega)
            if lam[0] <= 0.05:
                continue
            shots += 1
            path = geodesic_shoot(c, matrix_to_params(omega), rng.normal(size=4), 1.5)
            assert path.status == "completed"
            want, got = torus_closed_form(path)
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_torus_short_shot_completes(self, monkeypatch):
        jets = bounded_jets(monkeypatch, 200)
        path = geodesic_shoot(load_fixture("torus_det").tensor, (1, 1, 0, 0), (1, 0, 0.5, 0), 2.0)
        assert path.status == "completed"
        assert len(path.s) - 1 == 13
        assert len(jets) == 12 * 13 + 2

    @pytest.mark.parametrize("arclength", [8.0, 12.0, 16.0, 24.0])
    def test_torus_long_shots_end_ill_conditioned(self, monkeypatch, arclength):
        # Along this torus geodesic cond(g) grows exponentially; past s = 6.3
        # to 6.6 its rounding, cond(g) * eps, exceeds tol, and the first step
        # whose speed drifts beyond tol ends the shot.  A shot that
        # halved its step and retried there ran 6,614 jets to step_underflow
        # at L = 8, and more than 450,000 without an end at L = 16 and 24.
        tol = 1e-10
        c = load_fixture("torus_det").tensor
        bounded_jets(monkeypatch, 1_000)
        path = geodesic_shoot(c, (1, 1, 0, 0), (1, 0, 0.5, 0), arclength, tol=tol)
        assert path.status == "ill_conditioned"
        assert 6.0 < path.arclength < 7.0
        assert float(np.max(np.abs(path.speeds - 1.0))) <= tol
        want, got = torus_closed_form(path)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        assert np.linalg.cond(metric_at(c, path.endpoint).g) * np.finfo(float).eps >= tol

    @pytest.mark.parametrize("failing_solve", [1, 2])
    def test_start_that_cannot_step_exits_at_once(self, monkeypatch, failing_solve):
        # The solve of the first stage (1) or of the starting-step probe (2)
        # fails.  The start used to be retried with halved steps, 47 times,
        # before the shot ended exited_volume_cone.
        solve = np.linalg.solve
        solves = []

        def failing(*args):
            solves.append(None)
            if len(solves) >= failing_solve:
                raise np.linalg.LinAlgError("singular matrix")
            return solve(*args)

        jets = bounded_jets(monkeypatch, 10)
        monkeypatch.setattr(np.linalg, "solve", failing)
        path = geodesic_shoot(BLOWUP_FILE.tensor, (2, 1), (1, 0.3), 1.0)
        assert path.status == "exited_volume_cone"
        assert len(path.s) == 1 and path.noether_residual == 0.0
        assert len(jets) == failing_solve <= 2


class TestPathLength:
    def test_constant_path(self):
        assert path_length(BLOWUP, [[2.0, 1.0], [2.0, 1.0]]) == 0.0

    def test_one_modulus_segment(self):
        # g = 3/t^2 over [1, e]: integral of sqrt(3)/t dt = sqrt(3).
        ts = np.linspace(1.0, math.e, 200).reshape(-1, 1)
        assert path_length(CUBIC, ts) == pytest.approx(math.sqrt(3.0), abs=1e-9)

    def test_refinement_convergence(self):
        def poly(k):
            s = np.linspace(0.0, 1.0, k)
            return np.column_stack([2.0 + s, 1.0 - 0.5 * s])

        coarse = path_length(BLOWUP, poly(200))
        fine = path_length(BLOWUP, poly(400))
        assert abs(fine - coarse) < 1e-6

    def test_additivity(self):
        a, b, c = [2.0, 1.0], [2.5, 1.2], [3.0, 1.0]
        whole = path_length(BLOWUP, [a, b, c])
        parts = path_length(BLOWUP, [a, b]) + path_length(BLOWUP, [b, c])
        assert whole == pytest.approx(parts, abs=1e-14)

    def test_volume_not_positive_sample(self):
        with pytest.raises(VolumeNotPositive):
            path_length(BLOWUP, [[2.0, 1.0], [1.0, 2.0]])


class TestLengthBound:
    def test_radial_equality(self):
        ts = np.linspace(1.0, math.e, 400).reshape(-1, 1)
        rep = length_bound_check(CUBIC, ts)
        assert rep.passed
        assert rep.length == pytest.approx(rep.bound, abs=1e-9)
        assert rep.bound == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_constant_path(self):
        rep = length_bound_check(BLOWUP, [[2.0, 1.0], [2.0, 1.0]])
        assert rep.length == 0.0 and rep.bound == 0.0 and rep.passed

    def test_random_paths_respect_bound(self):
        rng = np.random.default_rng(21)
        anchor = np.array([2.0, 1.0])
        for _ in range(200):
            pts = [random_interior_point(BLOWUP, anchor, rng, spread=0.3) for _ in range(4)]
            try:
                rep = length_bound_check(BLOWUP, np.array(pts))
            except VolumeNotPositive:
                continue  # a segment wandered outside; precondition violated
            assert rep.passed

    def test_radial_scaling_equality_general(self):
        # Radial paths t -> s t meet the bound exactly for any fixture.
        c = IntersectionTensor(n=3, N=3, entries={(0, 0, 0): 0.6, (0, 1, 2): 1.0})
        base = np.array([1.0, 1.0, 1.0])
        scales = np.linspace(1.0, 2.5, 300)
        pts = np.array([s * base for s in scales])
        rep = length_bound_check(c, pts)
        assert rep.length == pytest.approx(rep.bound, abs=1e-8)

    @pytest.mark.parametrize("check", [path_length, length_bound_check])
    def test_points_must_be_a_2d_array(self, check):
        # A 3-D array used to pass the shape test and fail inside the volume jet.
        with pytest.raises(ValueError, match="array of path points"):
            check(BLOWUP, np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="array of path points"):
            check(BLOWUP, [])

    @pytest.mark.parametrize("points", [np.array([[2.0, 1.0], [2.5 + 1j, 1.2]]), [[2.0, 1.0], [2.5 + 1j, 1.2]]])
    def test_complex_points_rejected(self, points):
        # A complex array used to be truncated to its real part.
        with pytest.raises(ValueError, match="real numbers"):
            path_length(BLOWUP, points)

    @pytest.mark.parametrize("slack", [math.inf, math.nan, -1e-9])
    def test_slack_must_be_finite_and_nonnegative(self, slack):
        # An infinite slack would pass whatever the length.
        with pytest.raises(ValueError, match="slack"):
            length_bound_check(BLOWUP, [[2.0, 1.0], [3.0, 1.0]], slack=slack)


class TestBoundaryRay:
    def test_blowup_positive_volume_boundary_converges(self):
        study = boundary_ray_study(BLOWUP, [1.0, 0.0], [2.0, 1.0])
        assert study.flag == "converged"
        # Finite limit, stable to 1% between the last two refinements.
        last, prev = study.lengths[-1], study.lengths[-2]
        assert abs(last - prev) < 0.01 * last
        for _, length, bound in study.rows:
            assert length >= bound - 1e-9

    def test_volume_zero_ray_diverges(self):
        study = boundary_ray_study(CUBIC, [0.0], [1.0], t_mins=[2.0**-k for k in range(1, 26)])
        assert study.flag == "diverging"
        # The ray is radial, so every row meets the bound with equality.
        for _, length, bound in study.rows:
            assert length == pytest.approx(bound, rel=1e-10)
        assert study.lengths[-1] > 10 * study.lengths[0]

    def test_lorentz_null_ray_diverges(self):
        # alpha on the light cone of the blowup form.
        study = boundary_ray_study(
            BLOWUP, [1.0, 1.0], [2.0, 1.0], t_mins=[2.0**-k for k in range(1, 31)]
        )
        assert study.flag == "diverging"
        for _, length, bound in study.rows:
            assert length >= bound - 1e-9

    @pytest.mark.parametrize("n", range(2, 7))
    def test_diverging_flag_does_not_depend_on_the_degree(self, n):
        # Vol = t_0 ... t_{n-1} along (1, ..., 1, t): each octave adds exactly
        # log 2 of length and log(2) / sqrt(n) of bound, so the ray diverges at
        # every degree; ten octaves of bound growth are needed to say so.
        c = IntersectionTensor(n=n, N=n, entries={tuple(range(n)): 1.0})
        alpha, omega = [1.0] * (n - 1) + [0.0], np.eye(n)[n - 1]
        study = boundary_ray_study(c, alpha, omega)
        assert study.flag == "diverging"
        assert study.lengths[-1] == pytest.approx(20 * math.log(2), rel=1e-12)
        for rows in (2, 9):
            short = boundary_ray_study(c, alpha, omega, t_mins=[2.0**-k for k in range(1, rows + 1)])
            assert short.flag == "inconclusive"

    def test_volume_must_stay_positive(self):
        with pytest.raises(VolumeNotPositive):
            boundary_ray_study(BLOWUP, [0.0, 1.0], [1.0, 0.0], t_mins=[0.5])

    def test_octave_count_is_exact(self, monkeypatch):
        # 2**-29 spans exactly 29 octaves; a float log with base 2 rounds the
        # count up to 30 and integrates an extra octave of panels.
        calls = count_metric_jets(monkeypatch)
        boundary_ray_study(BLOWUP, [1.0, 0.0], [2.0, 1.0], t_mins=[2.0**-29])
        assert len(calls) == 8 * 4 * 29

    def test_quadrature_refinement_stable(self, monkeypatch):
        import conegeom.geodesics as geodesics

        monkeypatch.setattr(geodesics, "PANELS_PER_OCTAVE", 4)
        coarse = boundary_ray_study(BLOWUP, [1.0, 0.0], [2.0, 1.0], t_mins=[1e-4])
        monkeypatch.setattr(geodesics, "PANELS_PER_OCTAVE", 8)
        fine = boundary_ray_study(BLOWUP, [1.0, 0.0], [2.0, 1.0], t_mins=[1e-4])
        assert abs(coarse.lengths[0] - fine.lengths[0]) < 0.01 * fine.lengths[0]

    def test_each_stretch_is_integrated_once(self, monkeypatch):
        # 20 rows, one new octave each: 20 * 4 panels * 8 nodes, where
        # integrating every row over [t_min, 1] takes 8 * 4 * 210.
        tf = load_fixture("blowup_p2")
        (alpha,) = tf.metadata["boundary_points"]
        (omega,) = tf.metadata["kahler_points"]
        calls = count_metric_jets(monkeypatch)
        study = boundary_ray_study(tf.tensor, alpha, omega)
        assert len(study.rows) == 20
        assert len(calls) == 640

    def test_nested_rows_match_fresh_studies(self):
        t_mins = [2.0**-k for k in range(1, 13)]
        study = boundary_ray_study(BLOWUP, [1.0, 0.0], [2.0, 1.0], t_mins=t_mins)
        for t_min, length, _ in study.rows:
            (fresh,) = boundary_ray_study(BLOWUP, [1.0, 0.0], [2.0, 1.0], t_mins=[t_min]).lengths
            assert length == pytest.approx(fresh, rel=1e-13, abs=0.0)
        assert all(a <= b for a, b in zip(study.lengths, study.lengths[1:]))

    def test_repeated_t_min_adds_nothing(self):
        study = boundary_ray_study(BLOWUP, [1.0, 0.0], [2.0, 1.0], t_mins=[0.5, 0.25, 0.25])
        assert study.rows[1] == study.rows[2]

    def test_rejects_bad_t_mins(self):
        for t_mins in ([], [0.5, 0.0], [1.0], [float("nan")]):
            with pytest.raises(ValueError):
                boundary_ray_study(BLOWUP, [1.0, 0.0], [2.0, 1.0], t_mins=t_mins)


class TestValidateOnce:
    """Points and vectors are checked at the public call, not in its loops."""

    @pytest.fixture
    def validations(self, monkeypatch):
        # Count calls of the one check in every module that binds it.
        import sys

        from conegeom import tensors

        check = tensors._vector
        binders = {
            name.rpartition(".")[2]: module
            for name, module in list(sys.modules.items())
            if name.startswith("conegeom.") and vars(module).get("_vector") is check
        }
        assert set(binders) >= {"tensors", "metric", "curvature", "geodesics", "scan", "lorentz"}
        calls = []

        def counted(*args):
            calls.append(None)
            return check(*args)

        for module in binders.values():
            monkeypatch.setattr(module, "_vector", counted)
        return calls

    def test_boundary_ray_study(self, validations):
        tf = BLOWUP_FILE
        (alpha,) = tf.metadata["boundary_points"]
        (omega,) = tf.metadata["kahler_points"]
        boundary_ray_study(tf.tensor, alpha, omega)
        assert len(validations) == 2

    def test_geodesic_shoot(self, validations):
        tf = BLOWUP_FILE
        (t0,) = tf.metadata["kahler_points"]
        geodesic_shoot(tf.tensor, t0, (1, 0.3), 1.0)
        assert len(validations) == 2
