import numpy as np
import pytest

from conegeom.curvature import _sectional, riemann_at, sectional
from conegeom import load_fixture
from conegeom.errors import DegeneratePlane, DimensionMismatch, NoValidPoints
from conegeom.scan import (
    _line_max,
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


def points_for(tensor, anchor, count=25, seed=0, **kw):
    return sample_cone_points(tensor, anchor, count, seed=seed, **kw)


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

    def test_bad_anchor(self):
        with pytest.raises(NoValidPoints):
            points_for(BLOWUP, [1.0, 2.0])


class TestScanSectional:
    def test_surface_nonpositive(self):
        for tensor, anchor in ((BLOWUP, [2.0, 1.0]), (RANK3, [1.0, 1.0, 0.0])):
            report = scan_sectional(tensor, points_for(tensor, anchor), planes_per_point=40)
            assert report.k_max <= 1e-8
            assert report.k_min <= report.k_max

    def test_no_planes_in_one_dimension(self):
        with pytest.raises(NoValidPoints):
            scan_sectional(CUBIC, points_for(CUBIC, [1.0]))

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

    def test_line_search_is_the_maximum_on_its_interval(self):
        # The closed form beats a dense grid of direct evaluations on [-0.6, 0.6].
        rng = np.random.default_rng(11)
        thetas = np.linspace(-0.6, 0.6, 1201)
        for tensor, anchor in ((CURVED3, [1.0, 1.0, 1.0]), (DENSE6, np.ones(6))):
            for p in points_for(tensor, anchor, count=4, seed=5):
                curv = riemann_at(tensor, p)
                for _ in range(3):
                    x, e, f = rng.normal(size=(3, tensor.N))
                    grid = []
                    for th in thetas:
                        try:
                            grid.append(_sectional(curv, np.cos(th) * x + np.sin(th) * e, f))
                        except DegeneratePlane:
                            continue
                    k, theta = _line_max(curv, f, x, e)
                    assert abs(theta) <= 0.6
                    assert k == _sectional(curv, np.cos(theta) * x + np.sin(theta) * e, f)
                    assert k >= max(grid) - 1e-12 * max(abs(v) for v in grid)

    def test_optimizer_propagates_unexpected_errors(self, monkeypatch):
        # Only a degenerate plane may be skipped during refinement.
        import conegeom.scan as scan_module

        real = scan_module._sectional
        calls = []

        def failing_after_start(curv, u, v):
            calls.append(None)
            if len(calls) > 2 * 4 + 1:  # the raw samples and the ascent's start
                raise RuntimeError("defect inside the curvature contraction")
            return real(curv, u, v)

        monkeypatch.setattr(scan_module, "_sectional", failing_after_start)
        pts = points_for(CURVED3, [1.0, 1.0, 1.0], count=2)
        with pytest.raises(RuntimeError):
            scan_sectional(CURVED3, pts, planes_per_point=4, optimize=True)

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
