"""Command-line interface.

Subcommands: vol, metric, curvature, sectional, geodesic, length-check,
boundary-ray, lorentz-verify, maass-verify, scan, signature.

Exit codes: 0 on success, 1 on a geometric domain error (the error class
name is printed to stderr), 2 on usage errors including malformed input
files.  All numeric output is deterministic for a fixed --seed, and floats
are printed with exact round-trip precision.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import geodesics, io, lorentz, maass, metric, scan
from .curvature import riemann_at, sectional_from_curvature
from .errors import ConeGeometryError, TensorFormatError, VolumeNotPositive
from .tensors import volume


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_matrix(m) -> str:
    rows = ", ".join("[" + ", ".join(_fmt(x) for x in row) + "]" for row in np.atleast_2d(m))
    return "[" + rows + "]"


def _parse_coords(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _load(args):
    return io.read_tensor_file(io.resolve_tensor_path(args.tensor))


def _nested(a):
    return [float(x) for x in a] if np.ndim(a) == 1 else [_nested(row) for row in a]


def cmd_vol(args):
    tf = _load(args)
    v = volume(tf.tensor, args.point)
    if v <= 0:
        raise VolumeNotPositive(f"volume {float(v)!r} at point {args.point.tolist()} is not positive")
    print(_fmt(v))
    return 0


def cmd_metric(args):
    tf = _load(args)
    data = metric.metric_at(tf.tensor, args.point)
    print(_fmt_matrix(data.g))
    return 0


def cmd_curvature(args):
    tf = _load(args)
    curv = riemann_at(tf.tensor, args.point)
    r = curv.riemann
    sym = max(
        float(np.max(np.abs(r + np.einsum("abkl->bakl", r)))),
        float(np.max(np.abs(r + np.einsum("abkl->ablk", r)))),
        float(np.max(np.abs(r - np.einsum("abkl->klab", r)))),
    )
    bianchi = float(
        np.max(np.abs(r + np.einsum("abkl->aklb", r) + np.einsum("abkl->albk", r)))
    )
    doc = {
        "condition": curv.cond,
        "max_symmetry_residual": sym,
        "max_bianchi_residual": bianchi,
        "riemann": _nested(r),
    }
    text = json.dumps(doc, sort_keys=True, indent=1)
    print(text)
    if args.out:
        io.emit_report(doc, args.out, args.format)
    return 0


def cmd_sectional(args):
    tf = _load(args)
    if len(args.vector or []) != 2:
        print("usage error: sectional requires exactly two --vector options", file=sys.stderr)
        return 2
    from .curvature import sectional

    print(_fmt(sectional(tf.tensor, args.point, args.vector[0], args.vector[1])))
    return 0


def cmd_geodesic(args):
    tf = _load(args)
    if len(args.vector or []) != 1:
        print("usage error: geodesic requires exactly one --vector option", file=sys.stderr)
        return 2
    path = geodesics.geodesic_shoot(
        tf.tensor, args.point, args.vector[0], args.arclength, tol=args.tol
    )
    print(f"status {path.status}")
    print("endpoint " + ",".join(_fmt(x) for x in path.endpoint))
    print(f"speed_drift {_fmt(float(np.max(np.abs(path.speeds - 1.0))))}")
    if args.out:
        io.write_path_csv(path, args.out)
    return 0


def cmd_length_check(args):
    tf = _load(args)
    if len(args.point or []) < 2:
        print("usage error: length-check requires at least two --point options", file=sys.stderr)
        return 2
    rep = geodesics.length_bound_check(tf.tensor, np.array(args.point))
    doc = {"length": rep.length, "bound": rep.bound, "slack": rep.slack, "pass": rep.passed}
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_boundary_ray(args):
    tf = _load(args)
    if len(args.vector or []) != 1:
        print("usage error: boundary-ray requires exactly one --vector option", file=sys.stderr)
        return 2
    t_mins = [2.0**-k for k in range(1, args.samples + 1)]
    study = geodesics.boundary_ray_study(tf.tensor, args.point, args.vector[0], t_mins)
    print("t_min length bound")
    for t_min, length, bound in study.rows:
        print(f"{_fmt(t_min)} {_fmt(length)} {_fmt(bound)}")
    print(f"flag {study.flag}")
    return 0


def cmd_lorentz_verify(args):
    tf = _load(args)
    model = lorentz.reduce_to_standard(tf.tensor, args.point)
    iso = lorentz.lorentz_isometry_check(model, samples=args.samples, seed=args.seed, tol=args.tol)
    cone = lorentz.full_cone_check(model, samples=args.samples, seed=args.seed)
    print(f"isometry_max_residual {_fmt(iso.max_residual)}")
    print(f"fraction_positive_definite {_fmt(cone.fraction_positive_definite)}")
    ok = iso.passed and cone.passed
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_maass_verify(args):
    rng = np.random.default_rng(args.seed)
    worst_pair = 0.0
    worst_jacobi = 0.0
    worst_adjoint = 0.0
    max_k = -np.inf
    for m in (2, 3):
        for _ in range(args.samples):
            raw = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            om = maass.HermitianPoint(raw @ raw.conj().T + 0.2 * np.eye(m))

            def herm():
                x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
                return 0.5 * (x + x.conj().T)

            z, w, u, v = herm(), herm(), herm(), herm()
            alg = maass.curvature_algebraic(om, z, w, u).a
            orc = maass.curvature_oracle(om, z, w, u).a
            worst_pair = max(worst_pair, float(np.max(np.abs(alg - orc))))
            jac = (
                maass.bracket(om, maass.bracket(om, z, w).a, u).a
                + maass.bracket(om, maass.bracket(om, w, u).a, z).a
                + maass.bracket(om, maass.bracket(om, u, z).a, w).a
            )
            worst_jacobi = max(worst_jacobi, float(np.max(np.abs(jac))))
            lhs = maass.inner(om, maass.bracket(om, maass.bracket(om, z, w).a, u), v)
            rhs = -maass.inner(om, maass.bracket(om, z, w), maass.bracket(om, u, v))
            worst_adjoint = max(worst_adjoint, abs(lhs - rhs) / max(abs(rhs), 1.0))
            max_k = max(max_k, maass.sectional_curvature(om, u, v))
    torus = maass.torus_consistency(samples=args.samples, seed=args.seed)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    k_ref = maass.sectional_curvature(np.eye(2), sx, sz)
    print(f"curvature_paths_max_diff {_fmt(worst_pair)}")
    print(f"jacobi_max_residual {_fmt(worst_jacobi)}")
    print(f"adjoint_max_residual {_fmt(worst_adjoint)}")
    print(f"sectional_max {_fmt(max_k)}")
    print(f"reference_plane_K {_fmt(k_ref)}")
    print(f"torus_max_residual {_fmt(torus.max_residual)}")
    ok = (
        worst_pair < args.tol
        and worst_jacobi < args.tol
        and worst_adjoint < args.tol
        and max_k <= 1e-10
        and abs(k_ref + 0.5) < 1e-15
        and torus.passed
    )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_scan(args):
    tf = _load(args)
    points = scan.sample_cone_points(tf.tensor, args.point, args.samples, seed=args.seed)
    report = scan.scan_sectional(
        tf.tensor,
        points,
        planes_per_point=args.planes_per_point,
        optimize=args.optimize,
        seed=args.seed,
    )
    print(f"k_min {_fmt(report.k_min)}")
    print(f"k_max {_fmt(report.k_max)}")
    if args.out:
        io.emit_report(report, args.out, args.format)
    return 0


def cmd_signature(args):
    tf = _load(args)
    points = scan.sample_cone_points(
        tf.tensor, args.point, args.samples, seed=args.seed, spread=0.6, require_pd=False
    )
    report = scan.signature_profile(tf.tensor, points, seed=args.seed)
    print(f"fraction_positive_definite {_fmt(report.fraction_positive_definite)}")
    if args.out:
        io.emit_report(report, args.out, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conegeom",
        description="Geometry of the log-volume Hessian metric on tensor cones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, tensor_arg=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if tensor_arg:
            p.add_argument("tensor", help="tensor JSON file (or packaged fixture name)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(func=func)
        return p

    p = add("vol", cmd_vol, help="volume polynomial at a point")
    p.add_argument("--point", type=_parse_coords, required=True)

    p = add("metric", cmd_metric, help="metric matrix at a point")
    p.add_argument("--point", type=_parse_coords, required=True)

    p = add("curvature", cmd_curvature, help="Riemann tensor and residuals at a point")
    p.add_argument("--point", type=_parse_coords, required=True)

    p = add("sectional", cmd_sectional, help="sectional curvature of a 2-plane")
    p.add_argument("--point", type=_parse_coords, required=True)
    p.add_argument("--vector", type=_parse_coords, action="append")

    p = add("geodesic", cmd_geodesic, help="shoot a unit-speed geodesic")
    p.add_argument("--point", type=_parse_coords, required=True)
    p.add_argument("--vector", type=_parse_coords, action="append")
    p.add_argument("--arclength", type=float, required=True)

    p = add("length-check", cmd_length_check, help="path length against the log-volume bound")
    p.add_argument("--point", type=_parse_coords, action="append")

    p = add("boundary-ray", cmd_boundary_ray, help="lengths along a ray toward the boundary")
    p.add_argument("--point", type=_parse_coords, required=True, help="boundary class alpha")
    p.add_argument("--vector", type=_parse_coords, action="append", help="interior direction")
    p.add_argument("--samples", type=_positive_int, default=20)

    p = add("lorentz-verify", cmd_lorentz_verify, help="surface model reduction and checks")
    p.add_argument("--point", type=_parse_coords, required=True, help="reference volume-positive class")
    p.add_argument("--samples", type=_positive_int, default=100)

    p = add("maass-verify", cmd_maass_verify, tensor_arg=False, help="matrix-model identity battery")
    p.add_argument("--samples", type=_positive_int, default=100)

    p = add("scan", cmd_scan, help="sectional-curvature scan near an anchor")
    p.add_argument("--point", type=_parse_coords, required=True, help="anchor point")
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--planes-per-point", type=_positive_int, default=32)
    p.add_argument("--optimize", action="store_true")

    p = add("signature", cmd_signature, help="metric signature profile over the volume cone")
    p.add_argument("--point", type=_parse_coords, required=True, help="anchor point")
    p.add_argument("--samples", type=_positive_int, default=100)

    return parser


_DEFAULT_TOLS = {
    "geodesic": 1e-10,
    "lorentz-verify": 1e-8,
    "maass-verify": 1e-12,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "tol", None) is None:
        args.tol = _DEFAULT_TOLS.get(args.command, 1e-10)
    try:
        return args.func(args)
    except TensorFormatError as exc:
        print(f"TensorFormatError: {exc}", file=sys.stderr)
        return 2
    except ConeGeometryError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
