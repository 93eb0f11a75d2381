"""Command-line interface.

Subcommands: vol, metric, curvature, sectional, geodesic, length-check,
boundary-ray, lorentz-verify, maass-verify, scan, signature.

Exit codes: 0 on success, 1 on a geometric domain error, 2 on usage errors,
including malformed input files and arguments the library refuses with
``ValueError``; either error prints its class name and message on one line
of stderr.  All numeric output is deterministic for a fixed --seed, and floats
are printed with exact round-trip precision.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import geodesics, io, lorentz, maass, metric, scan
from .curvature import riemann_at, sectional
from .errors import ConeGeometryError, TensorFormatError, VolumeNotPositive
from .tensors import volume


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_matrix(m) -> str:
    rows = ", ".join("[" + ", ".join(_fmt(x) for x in row) + "]" for row in np.atleast_2d(m))
    return "[" + rows + "]"


def _parse_coords(text: str) -> np.ndarray:
    try:
        coords = np.array([float(x) for x in text.split(",")], dtype=float)
        if np.all(np.isfinite(coords)):
            return coords
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated finite numbers, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _load(args):
    return io.read_tensor_file(io.resolve_tensor_path(args.tensor))


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
        "riemann": r.tolist(),
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
    if len({p.size for p in args.point}) > 1:
        print("usage error: length-check points must all have the same length", file=sys.stderr)
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
    rep = maass.verify_identities(samples=args.samples, seed=args.seed, tol=args.tol)
    print(f"curvature_paths_max_diff {_fmt(rep.curvature_paths_max_diff)}")
    print(f"jacobi_max_residual {_fmt(rep.jacobi_max_residual)}")
    print(f"adjoint_max_residual {_fmt(rep.adjoint_max_residual)}")
    print(f"sectional_max {_fmt(rep.sectional_max)}")
    print(f"reference_plane_K {_fmt(rep.reference_plane_k)}")
    print(f"torus_max_residual {_fmt(rep.torus.max_residual)}")
    print("PASS" if rep.passed else "FAIL")
    return 0 if rep.passed else 1


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

    def add(name, func, tensor_arg=True, seed=False, tol=None, out=False, fmt=False, **kwargs):
        # Each subcommand gets only the shared options its command reads.
        p = sub.add_parser(name, **kwargs)
        if tensor_arg:
            p.add_argument("tensor", help="tensor JSON file (or packaged fixture name)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if tol is not None:
            p.add_argument("--tol", type=_positive_float, default=tol)
        if out:
            p.add_argument("--out", default=None)
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(func=func)
        return p

    p = add("vol", cmd_vol, help="volume polynomial at a point")
    p.add_argument("--point", type=_parse_coords, required=True)

    p = add("metric", cmd_metric, help="metric matrix at a point")
    p.add_argument("--point", type=_parse_coords, required=True)

    p = add("curvature", cmd_curvature, out=True, fmt=True, help="Riemann tensor and residuals at a point")
    p.add_argument("--point", type=_parse_coords, required=True)

    p = add("sectional", cmd_sectional, help="sectional curvature of a 2-plane")
    p.add_argument("--point", type=_parse_coords, required=True)
    p.add_argument("--vector", type=_parse_coords, action="append")

    p = add("geodesic", cmd_geodesic, tol=1e-10, out=True, help="shoot a unit-speed geodesic")
    p.add_argument("--point", type=_parse_coords, required=True)
    p.add_argument("--vector", type=_parse_coords, action="append")
    p.add_argument("--arclength", type=_positive_float, required=True)

    p = add("length-check", cmd_length_check, help="path length against the log-volume bound")
    p.add_argument("--point", type=_parse_coords, action="append")

    p = add("boundary-ray", cmd_boundary_ray, help="lengths along a ray toward the boundary")
    p.add_argument("--point", type=_parse_coords, required=True, help="boundary class alpha")
    p.add_argument("--vector", type=_parse_coords, action="append", help="interior direction")
    p.add_argument("--samples", type=_positive_int, default=20)

    p = add("lorentz-verify", cmd_lorentz_verify, seed=True, tol=1e-8, help="surface model reduction and checks")
    p.add_argument("--point", type=_parse_coords, required=True, help="reference volume-positive class")
    p.add_argument("--samples", type=_positive_int, default=100)

    p = add("maass-verify", cmd_maass_verify, tensor_arg=False, seed=True, tol=1e-12,
            help="matrix-model identity battery")
    p.add_argument("--samples", type=_positive_int, default=100)

    p = add("scan", cmd_scan, seed=True, out=True, fmt=True, help="sectional-curvature scan near an anchor")
    p.add_argument("--point", type=_parse_coords, required=True, help="anchor point")
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--planes-per-point", type=_positive_int, default=32)
    p.add_argument("--optimize", action="store_true")

    p = add("signature", cmd_signature, seed=True, out=True, fmt=True,
            help="metric signature profile over the volume cone")
    p.add_argument("--point", type=_parse_coords, required=True, help="anchor point")
    p.add_argument("--samples", type=_positive_int, default=100)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (TensorFormatError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ConeGeometryError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
