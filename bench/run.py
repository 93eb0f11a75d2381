"""conegeom benchmark: run one workload for a fixed time and print its metrics.

Run from the repository root::

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # the four workloads in turn
    python3 bench/selftest.py                    # each check catches a bad result

One process, one caller, closed loop: each item starts when the previous one
ends.  The run repeats whole passes of the workload's item mix and stops at
the pass count that brings the timed wall time nearest to ``--seconds``;
checks run outside the timed section.  Times are reported in reference
seconds: each item's wall time is scaled by the speed of the host while it
ran, from a fixed reference loop timed before and after it (hostspeed.py).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run, which also writes the spans of its first traced pass
to ``bench/out/spans_<workload>_<seed>.tsv``.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"
NAMES = ("scan", "ray", "geodesic", "survey")
SETUP_PROBES = 9


def import_library():
    """Import conegeom from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "conegeom" / "__init__.py").is_file():
        sys.exit(f"error: no conegeom source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path[:0] = [str(SRC), str(BENCH)]
    import conegeom

    if Path(conegeom.__file__).resolve().parent != (SRC / "conegeom").resolve():
        sys.exit(f"error: conegeom was imported from {conegeom.__file__}")
    import workloads

    return workloads


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM.  A BaseException, so that no ``except Exception``
    inside the library can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Outcome:
    kind: str
    wall: float  # wall seconds, as measured
    speed: float  # reference seconds per wall second while the item ran
    status: str  # "passed", "failed" or "deadline" (an expected miss)
    missed: bool = False  # cut at its deadline
    detail: str = ""
    facts: dict = field(default_factory=dict)
    trace: tuple | None = None

    @property
    def ref_time(self):
        """The item's time in reference seconds (hostspeed.py).  A cut item
        keeps its wall time: that is the deadline, not the program's work."""
        return self.wall if self.missed else self.wall * self.speed


def timed_call(item):
    """Run one item; returns (wall seconds, result, error text or None)."""
    result, error = None, None
    t0 = time.perf_counter()
    try:
        try:
            if item.deadline_s:
                signal.setitimer(signal.ITIMER_REAL, item.deadline_s)
            result = item.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        error = "deadline"
    except Exception as exc:  # a library error fails this item, not the run
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, error


def time_items(items, tracer=None):
    """Run the items back to back, with the host-speed reference timed
    between them; with a tracer, keep each item's counts and self times."""
    done = []
    ref_before = hostspeed.reference_s()
    for item in items:
        if tracer is not None:
            tracer.start_item()
        wall, result, error = timed_call(item)
        trace = tracer.take_item() if tracer is not None else None
        ref_after = hostspeed.reference_s()
        done.append((item, wall, hostspeed.speed(ref_before, ref_after), result, error, trace))
        ref_before = ref_after
    return done


def check_items(done, check_failed):
    """Check every result; this runs outside the timed section."""
    outcomes = []
    for item, wall, speed, result, error, trace in done:
        out = Outcome(item.kind, wall, speed, "passed", trace=trace)
        if error == "deadline":
            out.status = "deadline" if item.miss_ok else "failed"
            out.missed, out.detail = True, f"no result within {item.deadline_s} s"
        elif error is not None:
            out.status, out.detail = "failed", error
        else:
            try:
                out.facts = item.check(result)
            except check_failed as exc:
                out.status, out.detail = "failed", str(exc)
            except Exception as exc:
                out.status, out.detail = "failed", f"check raised {type(exc).__name__}: {exc}"
        outcomes.append(out)
    return outcomes


def tail_percentile(q, n):
    """The workload's tail percentile, lowered only if fewer than ten items
    lie beyond it (a much slower program completes fewer items)."""
    for cand in (q, 95.0, 90.0, 75.0, 50.0):
        if cand <= q and n * (100.0 - cand) / 100.0 >= 10:
            return cand
    return 50.0


# -- environment ------------------------------------------------------------


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "conegeom").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -- set-up -----------------------------------------------------------------


def probe_seconds(name, seed):
    """One fresh process (setup_probe.py): from its start until the library
    inputs are ready, in wall and in reference seconds."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if out.returncode != 0:
        sys.exit(f"error: set-up failed:\n{out.stderr}")
    ready, ref_s = (float(x) for x in out.stdout.split()[-2:])
    wall = ready - start
    return wall, wall * hostspeed.NOMINAL_S / ref_s


# -- the two runs -----------------------------------------------------------


def end_to_end(name, seed, seconds):
    wl_mod = import_library()
    wl = wl_mod.WORKLOADS[name](seed)
    wl.check_anchors()
    outcomes, timed, p, setups = [], 0.0, 0, []
    # Whole passes; stop at the pass count that brings the timed wall time
    # nearest to --seconds.  The set-up probes are spread over the run, so
    # that they see the same machine as the items do.
    while p == 0 or timed + 0.5 * timed / p < seconds:
        while len(setups) < SETUP_PROBES * min(1.0, timed / seconds):
            setups.append(probe_seconds(name, seed))
        outs = check_items(time_items(wl.items(p)), wl_mod.CheckFailed)
        timed += sum(o.wall for o in outs)
        outcomes += outs
        p += 1
    while len(setups) < SETUP_PROBES:
        setups.append(probe_seconds(name, seed))
    n = len(outcomes)
    passed = sum(o.status == "passed" for o in outcomes)
    failed = sum(o.status == "failed" for o in outcomes)
    missed = sum(o.missed for o in outcomes)
    q = tail_percentile(wl.TAIL_Q, n)

    def time_metrics(times, setup):
        return {
            "throughput_per_s": (passed / sum(times), "1/s"),
            "item_p50_ms": (1e3 * float(np.percentile(times, 50.0)), "ms"),
            "item_tail_ms": (1e3 * float(np.percentile(times, q)), "ms"),
            "setup_s": (statistics.median(setup), "s"),
        }

    metrics = time_metrics([o.ref_time for o in outcomes], [ref for _, ref in setups])
    metrics["passed_frac"] = (passed / n, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    print(f"workload {name} seed {seed}: {p} passes, {n} items in {timed:.3f} s timed, closed loop, 1 caller")
    raw = time_metrics([o.wall for o in outcomes], [wall for wall, _ in setups])
    print("times below are in reference seconds (hostspeed.py); as wall time: "
          + ", ".join(f"{key} {value:.6g} {unit}" for key, (value, unit) in raw.items())
          + f"; median host speed {statistics.median(o.speed for o in outcomes):.4f} reference s per wall s")
    for key, (value, unit) in metrics.items():
        note = {
            "item_tail_ms": f"  (p{q:g} of {n} items)",
            "passed_frac": f"  (failed_frac {1 - passed / n!r}: {failed} failed, "
            f"{missed} deadline misses, {n - passed - failed} of them expected, of {n})",
            "setup_s": f"  (median of {SETUP_PROBES} fresh processes spread over the run)",
        }.get(key, "")
        print(f"{key} {value!r} {unit}{note}")
    return outcomes, metrics


def traced(name, seed, seconds):
    """Alternate an untraced and a traced copy of each pass.

    Counts come from the items of traced pass 0 that passed their check, so
    they repeat exactly for a seed; self times are medians over traced passes.
    The spans of traced pass 0 are written to ``SPANS_DIR``.
    """
    wl_mod = import_library()
    from spans import Tracer, write_spans

    tracer = Tracer()
    tracer.install()
    tracer.start_item()
    wl = wl_mod.WORKLOADS[name](seed)
    _, setup_self, _ = tracer.take_item()
    tracer.uninstall()
    wl.check_anchors()
    outcomes, wall_s, untraced_s, traced_s, p = [], 0.0, 0.0, 0.0, 0
    pass_self, spans = [], []
    calls, facts, items0, missed0 = Counter(), Counter(), 0, 0
    while p == 0 or wall_s * (1 + 0.5 / p) < seconds:
        items = wl.items(p)
        outs = check_items(time_items(items), wl_mod.CheckFailed)
        untraced_s += sum(o.ref_time for o in outs)
        wall_s += sum(o.wall for o in outs)
        outcomes += outs
        tracer.install()
        done = time_items(items, tracer)
        tracer.uninstall()
        outs = check_items(done, wl_mod.CheckFailed)
        traced_s += sum(o.ref_time for o in outs)
        wall_s += sum(o.wall for o in outs)
        outcomes += outs
        self_s = defaultdict(float)
        for o in outs:
            for span, v in o.trace[1].items():
                self_s[span] += v * o.speed
        pass_self.append(self_s)
        if p == 0:
            for o in outs:
                if o.status == "passed":
                    calls.update(o.trace[0])
                    facts.update(o.facts)
                    items0 += 1
                missed0 += o.missed
                spans += o.trace[2]
        for o in outs:
            o.trace = None  # the spans of later passes are not kept
        p += 1
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans_{name}_{seed}.tsv"
    write_spans(spans_path, spans)
    metrics = layer_metrics(calls, facts, items0, missed0, pass_self, setup_self)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    print(f"workload {name} seed {seed}: {p} untraced + {p} traced passes; counts from the "
          f"{items0} items of traced pass 0 that passed; its {len(spans)} spans are in {spans_path}")
    print(f"absent {json.dumps(tracer.absent)}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value!r} {unit}")
    return outcomes, metrics


SELF_TIMED = (
    "tensors.volume", "tensors.vol_derivatives", "tensors.contract",
    "metric.metric_at", "metric.is_positive_definite",
    "curvature.riemann_at", "curvature.sectional_from_curvature",
    "geodesics.geodesic_shoot", "geodesics.boundary_ray_study", "geodesics.path_length",
    "scan.sample_cone_points", "scan.scan_sectional", "scan.signature_profile",
    "lorentz.reduce_to_standard", "lorentz.lorentz_isometry_check", "lorentz.full_cone_check",
    "maass.torus_consistency", "maass.curvature_oracle", "maass.bracket",
)
COUNTED = (
    "tensors.volume", "tensors.vol_derivatives", "metric.metric_at",
    "metric.is_positive_definite", "curvature.riemann_at", "curvature.sectional_from_curvature",
)


def layer_metrics(calls, facts, items0, missed0, pass_self, setup_self):
    from workloads import STATUSES

    statuses = STATUSES + ("other",)

    def count(name, root=None, site=None):
        return sum(
            v for (r, s, n), v in calls.items()
            if n == name and (root is None or r == root) and (site is None or s == site)
        )

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in COUNTED:
        m[f"{name}.calls"] = (ratio(count(name), items0), "calls/item")
    m["tensors.validations"] = (
        ratio(count("tensors.ConePoint") + count("tensors.TangentVector"), items0), "calls/item")
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (statistics.median(s.get(name, 0.0) for s in pass_self), "s/pass")
    m["io.read_tensor_file.self_s"] = (setup_self.get("io.read_tensor_file", 0.0), "s/setup")
    m["ray.metric_evals_per_row"] = (
        ratio(count("metric.metric_at", root="geodesics.boundary_ray_study"), facts["ray.rows"]), "calls/row")
    shots = sum(facts[f"geodesics.status.{s}"] for s in statuses)
    rhs = count("tensors.vol_derivatives", root="geodesics.geodesic_shoot", site="geodesics")
    steps = facts["geodesics.steps_accepted"]
    m["geodesics.rhs_evals"] = (ratio(rhs, shots), "calls/shot")
    m["geodesics.rhs_per_accepted_step"] = (ratio(rhs, steps), "calls/step")
    m["geodesics.steps_accepted"] = (ratio(steps, shots), "steps/shot")
    for s in statuses:
        m[f"geodesics.status.{s}"] = (facts[f"geodesics.status.{s}"], "count/pass")
    m["geodesics.deadline_misses"] = (missed0, "count/pass")
    samples = count("scan.sample_cone_points")
    candidates = count("tensors.volume", root="scan.sample_cone_points", site="scan") - samples
    m["scan.sample_accept_ratio"] = (ratio(facts["scan.points_sampled"], candidates), "ratio")
    m["scan.points_kept_ratio"] = (ratio(facts["scan.points_kept"], facts["scan.points_given"]), "ratio")
    return m


# -- entry point ------------------------------------------------------------


def run_all(args):
    """Each workload in a fresh process, as the single-workload command runs it."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            sys.exit(f"error: workload {name} exited with {out.returncode}")
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
        return
    import_library()  # exits without a result if the checkout has no library source
    signal.signal(signal.SIGALRM, _on_alarm)
    print(f"env {json.dumps(environment())}")
    if args.trace:
        outcomes, metrics = traced(args.workload, args.seed, args.seconds)
    else:
        outcomes, metrics = end_to_end(args.workload, args.seed, args.seconds)
    failures = [o for o in outcomes if o.status == "failed"]
    for o in failures[:10]:
        print(f"FAILED {o.kind}: {o.detail}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
