"""Show that every check of the benchmark fires on a corrupted result.

Run from the repository root::

    python3 bench/selftest.py

For each workload it takes one item of every kind from pass 0 (seed 0),
checks the true result, then corrupts that result in one place and requires
the check to reject it.  The non-radial shots on the tensor with the
degeneracy locus are skipped: at the seed some produce no result to corrupt,
and those that do are checked like any other ``shot``.  Exits 1 if any check
misses its corruption.
"""

import dataclasses
import sys

from run import import_library  # first: it pins BLAS threads before numpy loads

import numpy as np  # noqa: E402

wl_mod = import_library()


def _scan(result):
    points, report = result
    shift = 0.1 * max(1.0, abs(report.k_max))
    return points, dataclasses.replace(report, k_max=report.k_max + shift)


def _ray_study(study):
    rows = list(study.rows)
    t_min, length, bound = rows[10]
    rows[10] = (t_min, rows[9][1] * (1 - 1e-6), bound)
    return dataclasses.replace(study, rows=rows)


def _path(rep):
    return dataclasses.replace(rep, length=rep.length * 1.01, slack=rep.slack + 0.01 * rep.length)


def _shot_radial(path):
    points = np.array(path.points)
    points[-1] *= 1 + 1e-9
    return dataclasses.replace(path, points=points)


def _shot(path):
    return dataclasses.replace(path, velocities=np.array(path.velocities) * (1 + 1e-6))


def _point(result):
    points, report = result
    t, pos, neg, null = report.signature_entries[0]
    return points, dataclasses.replace(report, signature_entries=[(t, pos - 1, neg, null + 1)])


def _lorentz(result):
    iso, cone = result
    return dataclasses.replace(iso, max_residual=1.0), cone


def _maass(result):
    code, text = result
    return 1, text.replace("PASS", "FAIL")


CORRUPT = {
    "scan": _scan,
    "ray_study": _ray_study,
    "path_radial": _path,
    "path_polygon": _path,
    "shot_radial": _shot_radial,
    "shot": _shot,
    "point": _point,
    "lorentz": _lorentz,
    "maass": _maass,
}


def main():
    missed = 0
    for name, cls in wl_mod.WORKLOADS.items():
        seen = set()
        for item in cls(0).items(0):
            if item.kind in seen or item.kind not in CORRUPT:
                continue
            seen.add(item.kind)
            result = item.run()
            item.check(result)
            try:
                item.check(CORRUPT[item.kind](result))
            except wl_mod.CheckFailed as exc:
                print(f"ok   {name}/{item.kind}: corruption caught ({exc})")
            else:
                print(f"MISS {name}/{item.kind}: corrupted result passed its check")
                missed += 1
    sys.exit(1 if missed else 0)


if __name__ == "__main__":
    main()
