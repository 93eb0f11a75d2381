import itertools

import numpy as np
import pytest

from conegeom.curvature import _sectional, christoffel_at, riemann_at, sectional
from conegeom import load_fixture
from conegeom.errors import DimensionMismatch, NoValidPoints
from conegeom.scan import (
    ASCENT_STEPS,
    _best_partner,
    sample_cone_points,
    scan_sectional,
    signature_profile,
    tensor_id,
)
from conegeom.tensors import IntersectionTensor

from test_curvature import DENSE6

BLOWUP = IntersectionTensor(n=2, N=2, entries={(0, 0): 1.0, (1, 1): -1.0})
RANK3 = IntersectionTensor(n=2, N=3, entries={(0, 1): 1.0, (2, 2): -2.0})
CUBIC = IntersectionTensor(n=3, N=1, entries={(0, 0, 0): 6.0})
CURVED3 = IntersectionTensor(n=3, N=3, entries={(0, 0, 0): 0.6, (0, 1, 2): 1.0})
# The hyperbolic form t0 (t0^2 - sum_j t_j^2) in six variables with a large
# seeded perturbation on every sorted multi-index: g > 0 near e_0, and the
# plane ascent there runs past its step cap.
_STRONG_RNG = np.random.default_rng(2)
STRONG6 = IntersectionTensor(
    n=3,
    N=6,
    entries={
        idx: 0.6 * float(_STRONG_RNG.standard_normal())
        + (6.0 if idx == (0, 0, 0) else -2.0 if idx[0] == 0 and idx[1] == idx[2] else 0.0)
        for idx in itertools.combinations_with_replacement(range(6), 3)
    },
)


def points_for(tensor, anchor, count=25, seed=0, **kw):
    return sample_cone_points(tensor, anchor, count, seed=seed, **kw)


def record_planes(monkeypatch):
    """Record ``(curv, u, v)`` of each batched plane evaluation of a scan."""
    import conegeom.scan as scan_module

    drawn = []

    def recording(curv, u, v):
        if np.ndim(u) == 2:
            drawn.append((curv, np.array(u), np.array(v)))
        return _sectional(curv, u, v)

    monkeypatch.setattr(scan_module, "_sectional", recording)
    return drawn


class TestSampler:
    def test_points_satisfy_preconditions(self):
        from conegeom.metric import is_positive_definite, metric_at
        from conegeom.tensors import volume

        pts = points_for(CURVED3, [1.0, 1.0, 1.0])
        assert len(pts) == 25
        for p in pts:
            assert volume(CURVED3, p) > 0
            assert is_positive_definite(metric_at(CURVED3, p).g)

    def test_deterministic(self):
        a = points_for(BLOWUP, [2.0, 1.0], seed=5)
        b = points_for(BLOWUP, [2.0, 1.0], seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("require_pd", [False, True])
    @pytest.mark.parametrize(
        "count, spread, name",
        [(5, np.nan, "spread"), (5, np.inf, "spread"), (5, 0.0, "spread"), (5, -0.25, "spread"),
         (0, 0.25, "count"), (-3, 0.25, "count")],
    )
    def test_count_and_spread_must_be_valid(self, count, spread, name, require_pd):
        # A nan spread gave nan points, an infinite one +-inf points and a
        # negative count an empty list; with require_pd the geometry was blamed.
        with pytest.raises(ValueError, match=name):
            sample_cone_points(CURVED3, [1.0, 1.0, 1.0], count, spread=spread, require_pd=require_pd)

    def test_bad_anchor(self):
        with pytest.raises(NoValidPoints):
            points_for(BLOWUP, [1.0, 2.0])


class TestScanSectional:
    def test_surface_nonpositive(self):
        for tensor, anchor in ((BLOWUP, [2.0, 1.0]), (RANK3, [1.0, 1.0, 0.0])):
            report = scan_sectional(tensor, points_for(tensor, anchor), planes_per_point=40)
            assert report.k_max <= 1e-8
            assert report.k_min <= report.k_max

    def test_no_planes_in_one_dimension(self, monkeypatch):
        # The dimension is checked before any Christoffel data is built.
        import conegeom.scan as scan

        points = points_for(CUBIC, [1.0])

        def unused(*args):
            raise AssertionError("christoffel_at called in a one-dimensional cone")

        monkeypatch.setattr(scan, "christoffel_at", unused)
        with pytest.raises(NoValidPoints, match="2-planes"):
            scan_sectional(CUBIC, points)

    def test_drops_points_outside_the_cone(self):
        # Vol < 0 at -(1, 1, 1); Vol > 0 but g indefinite at the second point.
        c = load_fixture("synthetic_n3_b").tensor
        good = [1.0, 1.0, 1.0]
        report = scan_sectional(c, [good, [1.792, 0.182, -1.506], [-1.0, -1.0, -1.0]], planes_per_point=2)
        assert [p.tolist() for p in report.points] == [good]
        with pytest.raises(DimensionMismatch):
            scan_sectional(c, [good, [1.0, 1.0]])

    def test_deterministic_given_seed(self):
        pts = points_for(CURVED3, [1.0, 1.0, 1.0], count=10)
        a = scan_sectional(CURVED3, pts, planes_per_point=8, seed=3)
        b = scan_sectional(CURVED3, pts, planes_per_point=8, seed=3)
        assert a.to_dict() == b.to_dict()

    def test_drawn_planes_are_g_orthonormal(self, monkeypatch):
        torus = load_fixture("torus_det")
        (torus_point,) = torus.metadata["kahler_points"]
        for tensor, anchor in ((CURVED3, [1.0, 1.0, 1.0]), (DENSE6, np.ones(6)), (torus.tensor, torus_point)):
            drawn = record_planes(monkeypatch)
            scan_sectional(tensor, points_for(tensor, anchor, count=5), planes_per_point=16, seed=7)
            assert len(drawn) == 5
            for curv, u, v in drawn:
                g = curv.metric.g
                assert np.abs(np.einsum("pi,ij,pj->p", u, g, u) - 1.0).max() <= 1e-12
                assert np.abs(np.einsum("pi,ij,pj->p", v, g, v) - 1.0).max() <= 1e-12
                assert np.abs(np.einsum("pi,ij,pj->p", u, g, v)).max() <= 1e-12

    def test_planes_do_not_depend_on_planes_per_point(self, monkeypatch):
        # Plane j of point pi depends only on (seed, pi, j): a shorter scan
        # draws the same leading planes, bit for bit, and the same K values.
        pts = points_for(DENSE6, np.ones(6), count=4)
        drawn = record_planes(monkeypatch)
        short = scan_sectional(DENSE6, pts, planes_per_point=4, seed=9)
        long = scan_sectional(DENSE6, pts, planes_per_point=8, seed=9)
        assert len(drawn) == 8
        for pi, ((_, u4, v4), (_, u8, v8)) in enumerate(zip(drawn[:4], drawn[4:])):
            assert np.array_equal(u4, u8[:4]) and np.array_equal(v4, v8[:4])
            ks_short = [k for _, point, k in short.k_samples if point == pi]
            ks_long = [k for _, point, k in long.k_samples if point == pi]
            assert ks_short == ks_long[:4]

    def test_reported_values_reproducible_by_direct_call(self):
        pts = points_for(CURVED3, [1.0, 1.0, 1.0], count=6)
        report = scan_sectional(CURVED3, pts, planes_per_point=6, seed=1)
        for plane, value in ((report.k_min_plane, report.k_min), (report.k_max_plane, report.k_max)):
            point, u, v = plane
            assert sectional(CURVED3, point, u, v) == pytest.approx(value, abs=1e-12)

    def test_optimizer_never_below_best_sample(self):
        pts = points_for(CURVED3, [1.0, 1.0, 1.0], count=8)
        raw = scan_sectional(CURVED3, pts, planes_per_point=10, seed=2, optimize=False)
        opt = scan_sectional(CURVED3, pts, planes_per_point=10, seed=2, optimize=True)
        assert opt.k_max >= raw.k_max
        point, u, v = opt.k_max_plane
        assert sectional(CURVED3, point, u, v) == pytest.approx(opt.k_max, abs=1e-12)

    def test_pencil_step_is_the_best_plane_through_its_vector(self):
        # The top eigenvector of the Jacobi operator beats 2,000 random planes
        # through the same vector, and is g-unit and g-orthogonal to it.
        rng = np.random.default_rng(11)
        for tensor, anchor in ((CURVED3, [1.0, 1.0, 1.0]), (DENSE6, np.ones(6))):
            for p in points_for(tensor, anchor, count=4, seed=5):
                curv = christoffel_at(tensor, p)
                g = curv.metric.g
                for _ in range(3):
                    f = rng.normal(size=tensor.N)
                    x = _best_partner(curv, f)
                    assert float(x @ g @ x) == pytest.approx(1.0, abs=1e-12)
                    assert abs(float(x @ g @ f)) <= 1e-12 * np.sqrt(float(f @ g @ f))
                    k = _sectional(curv, x, f)
                    ys = rng.normal(size=(2000, tensor.N))
                    ks = _sectional(curv, ys, np.broadcast_to(f, ys.shape))
                    assert k >= ks.max() - 1e-12 * max(1.0, float(np.abs(ks).max()))

    def test_ascent_ends_within_its_step_cap(self, monkeypatch):
        # One _fixed_quadric per step: never more than ASCENT_STEPS per
        # refinement, and on STRONG6 the cap is reached.  On DENSE6 the first
        # step's plane is final and the ascent stops after the second.
        import conegeom.scan as scan_module

        real = scan_module._fixed_quadric
        calls = []

        def counting(curv, f):
            calls.append(None)
            return real(curv, f)

        monkeypatch.setattr(scan_module, "_fixed_quadric", counting)
        per_refinement = []
        for tensor, anchor in ((CURVED3, [1.0, 1.0, 1.0]), (DENSE6, np.ones(6)), (STRONG6, np.eye(6)[0])):
            for s in range(3):
                calls.clear()
                pts = points_for(tensor, anchor, count=1, seed=s)
                scan_sectional(tensor, pts, planes_per_point=32, optimize=True, seed=s)
                per_refinement.append(len(calls))
        assert min(per_refinement) == 2 and max(per_refinement) == ASCENT_STEPS

    def test_optimizer_propagates_unexpected_errors(self, monkeypatch):
        # The ascent catches no error: one inside it reaches the caller.
        import conegeom.scan as scan_module

        real = scan_module._sectional
        single_plane_calls = []

        def failing_after_start(curv, u, v):
            # The raw samples are batched calls; the ascent's start is the first
            # single-plane call, and every later one is inside an ascent step.
            if np.ndim(u) == 1:
                single_plane_calls.append(None)
                if len(single_plane_calls) > 1:
                    raise RuntimeError("defect inside the curvature contraction")
            return real(curv, u, v)

        monkeypatch.setattr(scan_module, "_sectional", failing_after_start)
        pts = points_for(CURVED3, [1.0, 1.0, 1.0], count=2)
        with pytest.raises(RuntimeError):
            scan_sectional(CURVED3, pts, planes_per_point=4, optimize=True)

    def test_scan_builds_no_riemann_array(self, monkeypatch):
        # Scan planes use the Christoffel form; the N^4 array is never formed.
        import conegeom.curvature as curvature_module
        import conegeom.scan as scan_module

        calls = []

        def recording_riemann_at(*args):
            calls.append(args)
            return riemann_at(*args)

        monkeypatch.setattr(curvature_module, "riemann_at", recording_riemann_at)
        monkeypatch.setattr(scan_module, "riemann_at", recording_riemann_at, raising=False)
        pts = points_for(DENSE6, np.ones(6), count=3)
        report = scan_sectional(DENSE6, pts, planes_per_point=5, optimize=True, seed=4)
        assert calls == []
        assert len(report.k_samples) == 15

    def test_histogram_counts_match_samples(self):
        pts = points_for(CURVED3, [1.0, 1.0, 1.0], count=5)
        report = scan_sectional(CURVED3, pts, planes_per_point=7, seed=0)
        assert int(np.sum(report.histogram["counts"])) == len(report.k_samples)

    def test_invalid_points_filtered(self):
        good = points_for(BLOWUP, [2.0, 1.0], count=3)
        mixed = good + [np.array([1.0, 2.0])]  # negative volume point
        report = scan_sectional(BLOWUP, mixed, planes_per_point=4)
        assert len(report.points) == 3

    def test_all_invalid_raises(self):
        with pytest.raises(NoValidPoints):
            scan_sectional(BLOWUP, [np.array([1.0, 2.0])], planes_per_point=4)


class TestSignatureProfile:
    def test_surface_extension_is_positive_definite(self):
        pts = points_for(BLOWUP, [2.0, 1.0], count=40, spread=0.7, require_pd=False)
        report = signature_profile(BLOWUP, pts)
        assert report.fraction_positive_definite == 1.0
        # Includes the flipped-class point explicitly.
        report2 = signature_profile(BLOWUP, [np.array([2.0, -1.0])])
        assert report2.signature_entries[0][1:] == (2, 0, 0)

    def test_kahler_asserted_points_have_full_signature(self):
        pts = points_for(CURVED3, [1.0, 1.0, 1.0], count=10, require_pd=True)
        report = signature_profile(CURVED3, pts)
        assert report.fraction_positive_definite == 1.0
        for _, pos, neg, null in report.signature_entries:
            assert (pos, neg, null) == (3, 0, 0)

    def test_mixed_signatures_reported_without_assertion(self):
        pts = points_for(CURVED3, [1.0, 1.0, 1.0], count=60, spread=0.8, require_pd=False)
        report = signature_profile(CURVED3, pts)
        sigs = {entry[1:] for entry in report.signature_entries}
        assert all(sum(sig) == 3 for sig in sigs)
        assert report.fraction_positive_definite < 1.0  # the region really is mixed

    def test_counts_always_sum_to_dimension(self):
        pts = points_for(RANK3, [1.0, 1.0, 0.0], count=15, spread=0.5, require_pd=False)
        report = signature_profile(RANK3, pts)
        for _, pos, neg, null in report.signature_entries:
            assert pos + neg + null == 3


class TestTensorId:
    def test_stable_and_content_sensitive(self):
        a = tensor_id(BLOWUP)
        b = tensor_id(IntersectionTensor(n=2, N=2, entries={(0, 0): 1.0, (1, 1): -1.0}))
        c = tensor_id(RANK3)
        assert a == b
        assert a != c

    def test_computed_once_per_tensor(self, monkeypatch):
        import conegeom.scan as scan_module

        c = IntersectionTensor(n=2, N=2, entries={(0, 0): 1.0, (1, 1): -1.0})
        assert tensor_id(c) == "cc52ce02ab71"
        assert tensor_id(load_fixture("synthetic_n3_b").tensor) == "5f2a5278ab98"

        def no_encoding(*args, **kwargs):
            raise AssertionError("tensor content encoded again")

        monkeypatch.setattr(scan_module.json, "dumps", no_encoding)
        assert tensor_id(c) == "cc52ce02ab71"
        report = signature_profile(c, [np.array([2.0, 1.0])])
        assert report.tensor == "cc52ce02ab71"
