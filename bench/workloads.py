"""The four benchmark workloads: seeded inputs, the timed library calls, and
the check of each result.

A workload object is built once per process (the set-up: fixtures with their
``kahler_points`` validation, and the seeded synthetic tensors).  ``items(p)``
then returns pass ``p``: a fixed mix of items whose inputs come from
``(seed, p)`` alone.  Every item calls the public library API with the
arguments the matching CLI subcommand passes, and nothing more (no
``workers=``, no ``whiten=``).  A check runs outside the timed section; it
raises ``CheckFailed`` or returns counts ("facts") for the traced run.

Why these workloads, and the seed baseline, are in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import conegeom as cg
from oracle import DenseTensor

# CLI defaults that the items reproduce.
GEODESIC_TOL = 1e-10  # geodesic --tol
RAY_T_MINS = [2.0**-k for k in range(1, 21)]  # boundary-ray --samples 20
PLANES_PER_POINT = 32  # scan --planes-per-point
VERIFY_SAMPLES = 100  # lorentz-verify / maass-verify --samples
LORENTZ_TOL = 1e-8  # lorentz-verify --tol
MAASS_TOL = 1e-12  # maass-verify --tol

# Geodesic shots.  The deadlines are enforced by the benchmark, not the library.
SHOT_ARCLENGTH = 1.0
# Arclengths of the shots on the (3, 10) tensor, one of each per pass: from
# 1/16 to 1/2 in equal ratios.  Their costs, from about 0.1 s to 0.6 s at
# the seed, have no gap in which the p75 tail could sit.
LONG_SHOT_ARCLENGTHS = tuple(2.0 ** (3.0 * k / 11.0 - 4.0) for k in range(12))
# The slowest regular shot, at (3, 10), takes about 0.6 s; a miss is a failure.
SHOT_DEADLINE_S = 6.0
# synthetic_n3_b has a metric-degeneracy locus.  Its non-radial shots that
# end there stall far past any deadline with the integrator as first written;
# in the directions of TETRAHEDRON the others take at most about 0.1 s.  A
# miss there is expected.
LOCUS_TENSOR = "synthetic_n3_b"
LOCUS_DEADLINE_S = 1.0
# Directions of the seeded shots on synthetic_n3_b, which start near
# (1, 1, 1): the vertices of a regular tetrahedron.  From points sampled
# there, the shots toward (1, -1, -1) run into the locus and the other three
# complete, so every pass has the same number of misses.
TETRAHEDRON = np.array([(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]) / math.sqrt(3.0)
# The geodesic reproduction listed in ROADMAP.md, which runs into that locus.
LOCUS_START = (1.0, 1.0, 1.0)
LOCUS_DIRECTION = (1.0, 0.3, -0.2)
LOCUS_ARCLENGTH = 2.0

STATUSES = ("completed", "exited_volume_cone", "step_underflow", "metric_degenerate", "budget_exhausted")


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    deadline_s: float | None = None
    miss_ok: bool = False  # a deadline miss is expected, not a failure


def api(name, *args, **kwargs):
    """A call of ``conegeom.<name>`` that looks the function up when it runs,
    so that a traced pass goes through the tracer's wrapper."""
    return lambda: getattr(cg, name)(*args, **kwargs)


def rng_for(seed, *tags):
    return np.random.default_rng([seed % 2**64, *tags])  # numpy takes no negative seeds


def hyperbolic_tensor(n, N, rng, eps=0.02):
    """``Vol = t0^(n-2) (t0^2 - sum_j t_j^2)`` plus a dense symmetric perturbation.

    Every sorted multi-index gets a perturbation entry, so the tensor is as
    dense as a tensor of this shape can be.
    """
    entries = {}
    for idx in itertools.combinations_with_replacement(range(N), n):
        entries[idx] = eps * float(rng.standard_normal())
    entries[(0,) * n] += math.factorial(n)
    for j in range(1, N):
        entries[(0,) * (n - 2) + (j, j)] -= 2.0 * math.factorial(n - 2)
    return cg.IntersectionTensor(n, N, entries)


def _unit(N):
    e = np.zeros(N)
    e[0] = 1.0
    return e


def sample_pd(dense, anchor, rng, spread):
    """A point near ``anchor`` with positive volume and a positive-definite metric."""
    anchor = np.asarray(anchor, dtype=float)
    scale = spread * float(np.linalg.norm(anchor)) / math.sqrt(dense.N)
    for _ in range(1000):
        t = anchor + scale * rng.standard_normal(dense.N)
        if dense.is_positive_definite(t):
            return t
    raise RuntimeError(f"no positive-definite point near {anchor.tolist()}")


def _fixture(name):
    tf = cg.load_fixture(name)
    return tf.tensor, tf.metadata


def _rel_close(a, b, rtol, floor=1.0):
    return abs(a - b) <= rtol * max(floor, abs(a), abs(b))


class Workload:
    """A seeded set-up plus a fixed mix of items per pass.

    ``TAIL_Q`` is the tail percentile reported for the workload.  It is fixed,
    so that the metric means the same thing in every run, and set to the
    highest of p50/p75/p90/p95/p99 with at least ten items beyond it in a
    run of the length BENCHMARK.json sets.  Each mix is sized so that the
    median and the tail percentile fall inside a group of items of the same
    shape, not on the edge between two groups.
    """

    TAIL_Q = 50.0

    def __init__(self, seed):
        self.seed = seed
        self.tensors = {}  # key -> IntersectionTensor
        self.anchors = []  # (key, point) whose metric must be positive-definite
        self.dense = {}

    def oracle(self, key):
        """The dense oracle of a tensor.  It is built on first use: it is the
        benchmark's own cost, so it stays out of the set-up time."""
        if key not in self.dense:
            self.dense[key] = DenseTensor(self.tensors[key])
        return self.dense[key]

    def check_anchors(self):
        for key, anchor in self.anchors:
            if not self.oracle(key).is_positive_definite(anchor):
                raise RuntimeError(f"{key}: anchor metric is not positive-definite")

    def items(self, p) -> list[Item]:
        raise NotImplementedError


# -- scan -------------------------------------------------------------------


class Scan(Workload):
    """``scan --optimize``: one sampled base point with all its planes per item."""

    # (n, N) -> items per pass.  None is the synthetic_n3_b fixture.
    MIX = ((None, 3), ((3, 6), 3), ((4, 6), 3), ((3, 8), 2), ((4, 8), 2), ((3, 10), 1))
    TAIL_Q = 75.0

    def __init__(self, seed):
        super().__init__(seed)
        rng = rng_for(seed, 1)
        self.cases = []
        for shape, reps in self.MIX:
            if shape is None:
                c, meta = _fixture("synthetic_n3_b")
                key, anchor = "synthetic_n3_b", np.array(meta["kahler_points"][0])
            else:
                c = hyperbolic_tensor(*shape, rng)
                key, anchor = f"synthetic_{shape[0]}_{shape[1]}", _unit(shape[1])
            self.tensors[key] = c
            self.anchors.append((key, anchor))
            self.cases.append((key, c, anchor, reps))
        self.fd_checked = False

    def items(self, p):
        rng = rng_for(self.seed, 2, p)
        out = []
        for key, c, anchor, reps in self.cases:
            for _ in range(reps):
                s = int(rng.integers(2**31))
                out.append(Item("scan", partial(self._run, c, anchor, s), partial(self._check, key, c)))
        return [out[i] for i in rng.permutation(len(out))]

    @staticmethod
    def _run(c, anchor, s):
        points = cg.sample_cone_points(c, anchor, 1, seed=s)
        report = cg.scan_sectional(c, points, planes_per_point=PLANES_PER_POINT, optimize=True, seed=s)
        return points, report

    def _check(self, key, c, result):
        points, report = result
        d = self.oracle(key)
        require(len(points) == 1, "sampler returned the wrong number of points")
        require(d.is_positive_definite(points[0]), "sampled point is not positive-definite")
        require(len(report.points) == 1, "scan dropped the sampled point")
        require(len(report.k_samples) == PLANES_PER_POINT, "scan returned the wrong number of planes")
        k_min, k_max = report.k_min, report.k_max
        scale = max(1.0, abs(k_min), abs(k_max))
        ks = [k for _, _, k in report.k_samples]
        require(min(ks) == k_min and max(ks) <= k_max, "extremes disagree with the samples")
        for k, (pt, u, v) in ((k_min, report.k_min_plane), (k_max, report.k_max_plane)):
            k_ref = d.sectional(pt, u, v)
            require(abs(k_ref - k) <= 1e-9 * scale, f"plane K {k!r} != Hessian-identity oracle {k_ref!r}")
            if c.N <= 6:
                k_lib = cg.sectional(c, pt, u, v)
                require(abs(k_lib - k) <= 1e-10 * scale, f"plane K {k!r} != sectional() {k_lib!r}")
        if not self.fd_checked and c.N >= 6:
            # One finite-difference cross-check per run: it uses metric_at only.
            pt, u, v = report.k_min_plane
            curv = cg.fd_curvature_oracle(c, pt, 1e-4)
            k_fd = cg.sectional_from_curvature(curv, u, v)
            require(abs(k_fd - k_min) <= 1e-5 * scale, f"K {k_min!r} != finite-difference oracle {k_fd!r}")
            self.fd_checked = True
        return {"scan.points_sampled": len(points), "scan.points_given": len(points), "scan.points_kept": len(report.points)}


# -- ray --------------------------------------------------------------------


class Ray(Workload):
    """``boundary-ray`` studies and ``length-check`` paths on degree-2 fixtures."""

    FIXTURES = ("blowup_p2", "surface_rank3", "torus_det")
    PATHS = 4  # per fixture and pass, half radial, half polygonal
    TAIL_Q = 90.0
    # Vertex counts of the paths.  Each fixture takes them in a shifted order,
    # so radial and polygonal paths of every length occur in a pass and path
    # costs, which grow with the number of segments, have no gap at p50.
    VERTICES = (3, 5, 7, 9)

    def __init__(self, seed):
        super().__init__(seed)
        self.cases = []
        for name in self.FIXTURES:
            c, meta = _fixture(name)
            self.tensors[name] = c
            self.cases.append((name, c, np.array(meta["boundary_points"][0]), np.array(meta["kahler_points"][0])))

    def items(self, p):
        rng = rng_for(self.seed, 3, p)
        out = []
        for i, (name, c, alpha, anchor) in enumerate(self.cases):
            d = self.oracle(name)
            omega = sample_pd(d, anchor, rng, 0.2)
            out.append(
                Item(
                    "ray_study",
                    api("boundary_ray_study", c, alpha, omega, RAY_T_MINS),
                    partial(self._check_study, name, alpha, omega),
                )
            )
            for j in range(self.PATHS):
                vertices = self.VERTICES[(i + j) % len(self.VERTICES)]
                if j % 2 == 0:
                    base = sample_pd(d, anchor, rng, 0.2)
                    # Vertex ratios stay below e^0.4, where the 8-point rule
                    # integrates the 1/t radial integrand to ~1e-15.
                    scales = np.exp(np.cumsum(rng.uniform(0.1, 0.4, vertices)))
                    pts = scales[:, None] * base
                else:
                    pts = np.array([sample_pd(d, anchor, rng, 0.3) for _ in range(vertices)])
                radial = j % 2 == 0
                out.append(
                    Item(
                        "path_radial" if radial else "path_polygon",
                        api("length_bound_check", c, pts),
                        partial(self._check_path, name, pts, radial),
                    )
                )
        return out

    def _check_study(self, name, alpha, omega, study):
        d = self.oracle(name)
        rows = study.rows
        require([r[0] for r in rows] == RAY_T_MINS, "rows do not follow the requested t_min values")
        log_top = math.log(d.volume(alpha + omega))
        prev = 0.0
        for t_min, length, bound in rows:
            ref = abs(log_top - math.log(d.volume(alpha + t_min * omega))) / math.sqrt(d.n)
            require(_rel_close(bound, ref, 1e-9), f"row {t_min!r}: bound {bound!r} != {ref!r}")
            require(length >= bound - 1e-9 * max(1.0, bound), f"row {t_min!r}: length {length!r} < bound {bound!r}")
            require(length >= prev * (1 - 1e-12), f"row {t_min!r}: length decreased as t_min fell")
            prev = length
        require(study.flag in ("converged", "diverging", "inconclusive"), f"unknown flag {study.flag!r}")
        return {"ray.rows": len(rows)}

    def _check_path(self, name, pts, radial, rep):
        d = self.oracle(name)
        ref_bound = abs(math.log(d.volume(pts[-1]) / d.volume(pts[0]))) / math.sqrt(d.n)
        require(_rel_close(rep.bound, ref_bound, 1e-9), f"bound {rep.bound!r} != {ref_bound!r}")
        require(rep.passed and rep.length >= rep.bound - 1e-9, "path fails the log-volume length bound")
        ref_len = d.path_length(pts)
        require(_rel_close(rep.length, ref_len, 1e-10), f"length {rep.length!r} != oracle {ref_len!r}")
        if radial:
            # A radial path attains the bound.
            require(_rel_close(rep.length, rep.bound, 1e-9), f"radial length {rep.length!r} != bound {rep.bound!r}")
        return {}


# -- geodesic ---------------------------------------------------------------


class Geodesic(Workload):
    """``geodesic`` shots at the CLI tolerance, each under a wall-clock deadline."""

    # Tensor -> non-radial shots per pass; every tensor also gets one radial
    # shot.  The four shots on synthetic_n3_b start near (1, 1, 1) in the
    # directions of TETRAHEDRON; one of them ends in the degeneracy locus.
    # The locus also gets the ROADMAP reproduction in even passes and a
    # seeded neighbour of it in odd ones.  The twelve shots on the (3, 10)
    # tensor, one per arclength in LONG_SHOT_ARCLENGTHS, hold the p75 tail.
    LONG_TENSOR = "synthetic_3_10"
    MIX = (("blowup_p2", 4), ("torus_det", 4), ("synthetic_n3_a", 4), (LOCUS_TENSOR, 4), (LONG_TENSOR, 11))
    TAIL_Q = 75.0

    def __init__(self, seed):
        super().__init__(seed)
        rng = rng_for(seed, 4)
        self.cases = []
        for name, reps in self.MIX:
            if name == self.LONG_TENSOR:
                c, anchor = hyperbolic_tensor(3, 10, rng), _unit(10)
            else:
                c, meta = _fixture(name)
                anchor = np.array(meta["kahler_points"][0])
            self.tensors[name] = c
            self.anchors.append((name, anchor))
            self.cases.append((name, c, anchor, reps))

    def items(self, p):
        rng = rng_for(self.seed, 5, p)
        out = []
        for name, c, anchor, reps in self.cases:
            d = self.oracle(name)
            if name == self.LONG_TENSOR:
                lengths = list(rng.permutation(LONG_SHOT_ARCLENGTHS))
            else:
                lengths = [SHOT_ARCLENGTH] * (reps + 1)
            t0 = sample_pd(d, anchor, rng, 0.1)
            out.append(self._shot("shot_radial", name, t0, t0, lengths[0]))
            if name == LOCUS_TENSOR:
                kind, directions = "shot_near_locus", TETRAHEDRON
            else:
                kind, directions = "shot", [rng.standard_normal(c.N) for _ in range(reps)]
            for u, arclength in zip(directions, lengths[1:], strict=True):
                t0 = sample_pd(d, anchor, rng, 0.1)
                out.append(self._shot(kind, name, t0, u, arclength))
        start, direction = np.array(LOCUS_START), np.array(LOCUS_DIRECTION)
        if p % 2:
            start = sample_pd(self.oracle(LOCUS_TENSOR), start, rng, 0.02)
            direction = direction + 0.02 * rng.standard_normal(3)
        out.append(self._shot("shot_locus", LOCUS_TENSOR, start, direction, LOCUS_ARCLENGTH))
        return [out[i] for i in rng.permutation(len(out))]

    def _shot(self, kind, name, t0, u, arclength):
        c = self.tensors[name]
        near_locus = name == LOCUS_TENSOR and kind != "shot_radial"
        return Item(
            kind,
            api("geodesic_shoot", c, t0, u, arclength, tol=GEODESIC_TOL),
            partial(self._check_shot, name, c, t0, arclength, kind == "shot_radial"),
            deadline_s=LOCUS_DEADLINE_S if near_locus else SHOT_DEADLINE_S,
            miss_ok=near_locus,
        )

    def _check_shot(self, name, c, t0, arclength, radial, path):
        d = self.oracle(name)
        s, pts = path.s, path.points
        require(np.array_equal(pts[0], t0), "path does not start at the start point")
        require(s[0] == 0.0 and bool(np.all(np.diff(s) > 0)), "arc parameter is not increasing")
        if path.status == "completed":
            require(_rel_close(s[-1], arclength, 1e-12), f"completed at s = {s[-1]!r}, not {arclength!r}")
        else:
            # Any other ending must be explained by the geometry at the last point.
            vol, g = d.metric(pts[-1])
            eig = np.linalg.eigvalsh(g)
            require(
                vol <= 1e-6 * d.volume(t0) or eig[0] <= 1e-3 * eig[-1],
                f"status {path.status!r} at a point where the metric is well-conditioned",
            )
        drift = max(abs(float(v @ d.metric(t)[1] @ v) - 1.0) for t, v in zip(pts, path.velocities))
        require(drift <= GEODESIC_TOL * 1.01, f"speed drift {drift!r} exceeds tol")
        require(float(np.max(np.abs(path.speeds - 1.0))) <= GEODESIC_TOL, "reported speed drift exceeds tol")
        if radial:
            want = t0 * math.exp(s[-1] / math.sqrt(c.n))
            err = float(np.max(np.abs(pts[-1] - want)) / np.max(np.abs(want)))
            require(err <= 1e-12, f"radial endpoint off t0*exp(s/sqrt(n)) by {err!r}")
        else:
            # Every fourth sample keeps the check cheap at N = 10; the arcs
            # between them stay short enough to be length-minimizing.
            keep = list(range(0, len(s) - 1, 4)) + [len(s) - 1]
            rep = cg.length_bound_check(c, pts[keep])
            require(rep.passed, "geodesic polygon fails the log-volume length bound")
            # A minimizing arc is no longer than the chord polygon through its points.
            require(rep.length >= s[-1] * (1 - 1e-9), "chord polygon is shorter than the geodesic")
        status = path.status if path.status in STATUSES else "other"
        return {"geodesics.steps_accepted": len(s) - 1, f"geodesics.status.{status}": 1}


# -- survey -----------------------------------------------------------------


class Survey(Workload):
    """``signature`` points at large N, plus the two exact-model verifications."""

    # (n, N) -> sampled points per pass.  Consecutive N give item costs
    # without gaps, from about 10 ms at (4, 6) to 50 ms at (3, 20).
    POINTS = tuple(((3, N), 2) for N in range(12, 21)) + tuple(((4, N), 2) for N in (6, 7, 8))
    LORENTZ = ("blowup_p2", "surface_rank3", "torus_det", "one_param_n2")
    TAIL_Q = 90.0

    def __init__(self, seed):
        super().__init__(seed)
        rng = rng_for(seed, 6)
        self.cases = []
        for (n, N), reps in self.POINTS:
            key, c, anchor = f"synthetic_{n}_{N}", hyperbolic_tensor(n, N, rng), _unit(N)
            self.tensors[key] = c
            self.anchors.append((key, anchor))
            self.cases.append((key, c, anchor, reps))
        self.models = []
        for name in self.LORENTZ:
            c, meta = _fixture(name)
            self.models.append((c, np.array(meta["kahler_points"][0])))

    def items(self, p):
        rng = rng_for(self.seed, 7, p)
        out = []
        for key, c, anchor, reps in self.cases:
            for _ in range(reps):
                s = int(rng.integers(2**31))
                out.append(Item("point", partial(self._run_point, c, anchor, s), partial(self._check_point, key, c)))
        for c, point in self.models:
            s = int(rng.integers(2**31))
            out.append(Item("lorentz", partial(self._run_lorentz, c, point, s), self._check_lorentz))
        s = int(rng.integers(2**31))
        out.append(Item("maass", partial(self._run_maass, s), self._check_maass))
        return [out[i] for i in rng.permutation(len(out))]

    @staticmethod
    def _run_point(c, anchor, s):
        points = cg.sample_cone_points(c, anchor, 1, seed=s, spread=0.6, require_pd=False)
        return points, cg.signature_profile(c, points, seed=s)

    def _check_point(self, key, c, result):
        points, report = result
        d = self.oracle(key)
        require(len(points) == 1 and len(report.signature_entries) == 1, "wrong number of points")
        t, pos, neg, null = report.signature_entries[0]
        require(np.array_equal(t, points[0]), "profile is not at the sampled point")
        vol, g = d.metric(t)
        require(vol > 0, "sampled point has nonpositive volume")
        eig = np.linalg.eigvalsh(g)
        thr = 1e-10 * float(np.max(np.abs(eig)))
        want = (int(np.sum(eig > thr)), int(np.sum(eig < -thr)))
        require((pos, neg) == want and pos + neg + null == c.N, f"signature {(pos, neg, null)} != oracle {want}")
        # Rounding in the metric grows with the condition number of Vol at
        # the point; with spread 0.6 some points lie close to Vol = 0.
        rtol = 1e-9 + 1e-11 * d.vol_condition(t) ** 2
        m = cg.metric_at(c, t)
        require(float(np.max(np.abs(m.g - g))) <= rtol * float(np.max(np.abs(g))), "metric differs from oracle")
        gt = m.g @ t
        require(float(np.linalg.norm(gt + m.grad_logvol)) <= rtol * float(np.linalg.norm(gt)), "g t != -grad_logvol")
        require(_rel_close(float(t @ gt), c.n, rtol), f"g(t, t) = {float(t @ gt)!r}, not n = {c.n}")
        return {"scan.points_sampled": len(points), "scan.points_given": len(points), "scan.points_kept": len(report.points)}

    @staticmethod
    def _run_lorentz(c, point, s):
        model = cg.reduce_to_standard(c, point)
        iso = cg.lorentz_isometry_check(model, samples=VERIFY_SAMPLES, seed=s, tol=LORENTZ_TOL)
        return iso, cg.full_cone_check(model, samples=VERIFY_SAMPLES, seed=s)

    @staticmethod
    def _check_lorentz(result):
        iso, cone = result
        require(iso.passed and iso.n_samples == VERIFY_SAMPLES, f"isometry residual {iso.max_residual!r}")
        require(cone.passed and cone.n_samples == VERIFY_SAMPLES, f"cone check failures {cone.failures[:3]}")
        return {}

    @staticmethod
    def _run_maass(s):
        # The battery of `maass-verify`: bracket and curvature identities plus
        # torus_consistency.  It lives in the CLI, so the CLI function runs it.
        from argparse import Namespace

        from conegeom import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.cmd_maass_verify(Namespace(seed=s, samples=VERIFY_SAMPLES, tol=MAASS_TOL))
        return code, out.getvalue()

    @staticmethod
    def _check_maass(result):
        code, text = result
        require(code == 0 and text.split()[-1] == "PASS", f"maass-verify failed: {text!r}")
        return {}


WORKLOADS = {"scan": Scan, "ray": Ray, "geodesic": Geodesic, "survey": Survey}
