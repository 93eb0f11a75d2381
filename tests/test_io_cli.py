import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conegeom
from conegeom.curvature import riemann_at, sectional, sectional_from_curvature
from conegeom.errors import DimensionMismatch, NotPositiveDefinite, TensorFormatError
from conegeom.geodesics import boundary_ray_study, geodesic_shoot, path_length
from conegeom.io import (
    TensorFile,
    dumps_tensor_file,
    emit_report,
    fixture_path,
    list_fixtures,
    load_fixture,
    read_tensor_file,
    save_tensor_file,
    write_path_csv,
)
from conegeom.lorentz import full_cone_check, reduce_to_standard
from conegeom.metric import is_positive_definite, levelset_metric, metric_at
from conegeom.scan import sample_cone_points, scan_sectional
from conegeom.tensors import IntersectionTensor

from conftest import ALL_FIXTURES


# The package under test, importable from a subprocess in any directory.
PACKAGE_ROOT = str(Path(conegeom.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


def run_python(*args, cwd=None):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(*args, cwd=None):
    return run_python("-m", "conegeom.cli", *args, cwd=cwd)


def readme_cli_lines():
    """The ``conegeom ...`` lines of the README's command-line example block."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("conegeom ")]


class TestTensorFiles:
    def test_round_trip_fixpoint(self, tmp_path):
        tf = load_fixture("blowup_p2")
        first = dumps_tensor_file(tf)
        path = tmp_path / "copy.json"
        save_tensor_file(tf, path)
        again = dumps_tensor_file(read_tensor_file(path))
        assert first == again

    def test_duplicate_multi_index_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"n": 2, "N": 1, "entries": [[[0, 0], 1.0], [[0, 0], 2.0]]}')
        with pytest.raises(TensorFormatError, match="duplicate"):
            read_tensor_file(path)

    def test_unsorted_index_rejected(self, tmp_path):
        path = tmp_path / "unsorted.json"
        path.write_text('{"n": 2, "N": 2, "entries": [[[1, 0], 1.0]]}')
        with pytest.raises(TensorFormatError, match="sorted"):
            read_tensor_file(path)

    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2,\n  "N": 1,\n  "entries": [[[0, 0], 1.0],]}')
        with pytest.raises(TensorFormatError, match=r":3:"):
            read_tensor_file(path)

    def test_unknown_field_preserved(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(
            '{"n": 2, "N": 1, "entries": [[[0, 0], 2.0]], "provenance": {"source": "x"}}'
        )
        tf = read_tensor_file(path)
        assert tf.metadata["provenance"] == {"source": "x"}
        out = tmp_path / "again.json"
        save_tensor_file(tf, out)
        assert read_tensor_file(out).metadata["provenance"] == {"source": "x"}

    def test_kahler_points_validated_on_load(self, tmp_path):
        path = tmp_path / "badpoint.json"
        path.write_text(
            '{"n": 2, "N": 2, "entries": [[[0, 0], 1.0], [[1, 1], -1.0]],'
            ' "metadata": {"kahler_points": [[1.0, 2.0]]}}'
        )
        with pytest.raises(TensorFormatError, match="kahler_points"):
            read_tensor_file(path)

    def test_kahler_point_with_indefinite_metric_rejected(self, tmp_path):
        # Vol(1, 1) = 2 > 0, but the metric of this degree-3 tensor is indefinite there.
        doc = {"n": 3, "N": 2, "entries": [[[0, 0, 0], 6.0], [[1, 1, 1], 6.0]]}
        path = tmp_path / "indefinite.json"
        path.write_text(json.dumps(dict(doc, metadata={"kahler_points": [[1.0, 1.0]]})))
        with pytest.raises(TensorFormatError, match=r"kahler_points\[0\].*positive-definite"):
            read_tensor_file(path)
        path.write_text(json.dumps(doc))
        # Without the listed point the file loads, and metric_at makes no claim.
        assert not is_positive_definite(metric_at(read_tensor_file(path).tensor, [1.0, 1.0]).g)

    @pytest.mark.parametrize(
        "points, where",
        [
            (5, "kahler_points"),
            ("abc", "kahler_points"),
            ([{"x": 1}], r"kahler_points\[0\]"),
            ([[2.0, 1.0], [1.0, 2.0, 3.0]], r"kahler_points\[1\]"),
            ([[2.0, "x"]], r"kahler_points\[0\]"),
            ([[2.0, None]], r"kahler_points\[0\]"),
            ([[[2.0, 1.0]]], r"kahler_points\[0\]"),
        ],
    )
    def test_malformed_kahler_points(self, tmp_path, points, where):
        # A non-list, a dict entry and a wrong-length entry used to raise
        # TypeError or DimensionMismatch, which the CLI did not report as a
        # malformed file.
        path = tmp_path / "bad.json"
        doc = {"n": 2, "N": 2, "entries": [[[0, 0], 1.0], [[1, 1], -1.0]], "metadata": {"kahler_points": points}}
        path.write_text(json.dumps(doc))
        with pytest.raises(TensorFormatError, match=where):
            read_tensor_file(path)

    def test_malformed_kahler_points_exit_2(self, tmp_path):
        for i, points in enumerate((5, [{"x": 1}], [[1.0, 2.0, 3.0]])):
            path = tmp_path / f"bad{i}.json"
            doc = {"n": 2, "N": 2, "entries": [[[0, 0], 1.0], [[1, 1], -1.0]], "metadata": {"kahler_points": points}}
            path.write_text(json.dumps(doc))
            code, out, err = run_cli("vol", str(path), "--point", "2,1")
            assert (code, out) == (2, "")
            assert err.startswith("TensorFormatError:") and "kahler_points" in err

    def test_all_fixtures_load_and_validate(self):
        names = list_fixtures()
        assert set(ALL_FIXTURES) <= set(names)
        for name in names:
            tf = load_fixture(name)
            assert tf.tensor.N >= 1
            assert fixture_path(name).exists()


class TestReports:
    def test_json_report_byte_identical(self, tmp_path):
        from conegeom.scan import sample_cone_points, scan_sectional

        c = IntersectionTensor(n=2, N=2, entries={(0, 0): 1.0, (1, 1): -1.0})
        pts = sample_cone_points(c, [2.0, 1.0], 5, seed=1)
        rep = scan_sectional(c, pts, planes_per_point=4, seed=1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(rep, a, "json")
        emit_report(rep, b, "json")
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["k_max"] <= 1e-8

    def test_csv_report(self, tmp_path):
        from conegeom.scan import sample_cone_points, scan_sectional

        c = IntersectionTensor(n=2, N=2, entries={(0, 0): 1.0, (1, 1): -1.0})
        pts = sample_cone_points(c, [2.0, 1.0], 3, seed=1)
        rep = scan_sectional(c, pts, planes_per_point=4, seed=1)
        path = tmp_path / "r.csv"
        emit_report(rep, path, "csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["sample", "point_index", "K"]
        assert len(lines) == 1 + len(rep.k_samples)

    def test_path_csv_columns(self, tmp_path):
        from conegeom.geodesics import geodesic_shoot

        c = IntersectionTensor(n=3, N=1, entries={(0, 0, 0): 6.0})
        path_obj = geodesic_shoot(c, [1.0], [1.0], 0.5)
        out = tmp_path / "path.csv"
        write_path_csv(path_obj, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,t_0,speed"
        assert len(lines) == 1 + len(path_obj.s)
        # Exact float round trip.
        last = lines[-1].split(",")
        assert float(last[1]) == path_obj.endpoint[0]


class TestPublicSurface:
    def test_package_exports_every_module_list(self):
        from conegeom import curvature, errors, geodesics, io, lorentz, metric, scan, tensors

        modules = (errors, tensors, metric, curvature, geodesics, lorentz, scan, io)
        names = [name for module in modules for name in module.__all__]
        assert sorted(conegeom.__all__) == sorted(names + ["maass", "__version__"])
        assert len(set(conegeom.__all__)) == len(conegeom.__all__)
        for module in modules:
            for name in module.__all__:
                assert getattr(conegeom, name) is getattr(module, name)


class TestCli:
    def test_vol_success(self):
        code, out, err = run_cli("vol", str(fixture_path("blowup_p2")), "--point", "2,1")
        assert code == 0
        assert out.strip() == "1.5"

    def test_metric_one_modulus(self):
        code, out, _ = run_cli("metric", "quintic_like", "--point", "1")
        assert code == 0
        assert out.strip() == "[[3.0]]"

    def test_vol_domain_error(self):
        code, out, err = run_cli("vol", "blowup_p2", "--point", "1,2")
        assert code == 1
        assert "VolumeNotPositive" in err

    def test_usage_error_exit_2(self):
        code, _, _ = run_cli("vol", "blowup_p2")  # missing --point
        assert code == 2
        code, _, err = run_cli("vol", "no_such_file.json", "--point", "1")
        assert code == 2
        assert "TensorFormatError" in err

    def test_options_a_subcommand_does_not_read_are_usage_errors(self):
        for args in (
            ("vol", "blowup_p2", "--point", "2,1", "--tol", "1e-3"),
            ("metric", "blowup_p2", "--point", "2,1", "--seed", "1"),
            ("curvature", "blowup_p2", "--point", "2,1", "--tol", "1e-3"),
            ("geodesic", "blowup_p2", "--point", "2,1", "--vector", "1,0", "--arclength", "1", "--format", "csv"),
            ("maass-verify", "--out", "m.json"),
            ("scan", "blowup_p2", "--point", "2,1", "--tol", "1e-3"),
        ):
            code, out, err = run_cli(*args)
            assert code == 2
            assert out == ""
            assert "unrecognized arguments" in err

    def test_readme_examples(self, tmp_path):
        # Each example exits 0 unless its comment says otherwise; a comment
        # that is not an exit status is the expected stdout.
        lines = readme_cli_lines()
        assert len(lines) == 12
        for line in lines:
            command, _, comment = (part.strip() for part in line.partition("#"))
            code, out, err = run_cli(*shlex.split(command)[1:], cwd=tmp_path)
            if comment.startswith("exit "):
                status, error = comment[len("exit "):].split(", ")
                assert code == int(status) and error in err, line
            else:
                assert code == 0, (line, err)
                assert not comment or out.strip() == comment, line

    def test_readme_quick_start(self, tmp_path):
        # The library quick start runs as printed, and its results hold: the
        # commented flat sectional value, a completed geodesic and a passed bound.
        section = README.read_text().split("## Library quick start", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        status, out, err = run_python("-c", code, cwd=tmp_path)
        assert status == 0, err
        lines = out.splitlines()
        assert "0.0" in lines
        assert any(line.startswith("completed ") for line in lines)
        assert "passed=True" in out

    def test_unknown_subcommand(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_sectional_and_curvature(self):
        code, out, _ = run_cli(
            "sectional", "torus_det", "--point", "1,1,0,0",
            "--vector", "0,0,1,0", "--vector", "1,-1,0,0",
        )
        assert code == 0
        assert float(out.strip()) <= 0.0
        code, out, _ = run_cli("curvature", "quintic_like", "--point", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["riemann"] == [[[[0.0]]]]

    def test_geodesic_with_csv(self, tmp_path):
        out_csv = tmp_path / "g.csv"
        code, out, _ = run_cli(
            "geodesic", "quintic_like", "--point", "1", "--vector", "1",
            "--arclength", "1.7320508075688772", "--out", str(out_csv),
        )
        assert code == 0
        endpoint = float(out.splitlines()[1].split()[1])
        assert endpoint == pytest.approx(np.e, abs=1e-8)
        assert out_csv.read_text().splitlines()[0] == "s,t_0,speed"

    def test_length_check(self):
        code, out, _ = run_cli(
            "length-check", "blowup_p2", "--point", "2,1", "--point", "2.5,1.2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["length"] >= doc["bound"] - 1e-9

    def test_indefinite_ray_and_path_are_domain_errors(self):
        # Vol > 0 along the whole segment, but g(omega, omega) < 0 on it.
        alpha, omega = np.array([1.792, 0.182, -1.506]), np.array([0.03, 0.0128, 0.0378])
        c = load_fixture("synthetic_n3_b").tensor
        with pytest.raises(NotPositiveDefinite):
            boundary_ray_study(c, alpha, omega, [0.5, 0.25])
        with pytest.raises(NotPositiveDefinite):
            path_length(c, [alpha, alpha + omega])
        for args in (
            ("boundary-ray", "--point", "1.792,0.182,-1.506", "--vector", "0.03,0.0128,0.0378", "--samples", "2"),
            ("length-check", "--point", "1.792,0.182,-1.506", "--point", "1.822,0.1948,-1.4682"),
        ):
            code, _, err = run_cli(args[0], "synthetic_n3_b", *args[1:])
            assert code == 1
            assert err.startswith("NotPositiveDefinite:")

    def test_ray_row_end_outside_the_cone_is_a_domain_error(self):
        # A coordinate list that starts with "-" must be attached to its option.
        code, out, err = run_cli("boundary-ray", "blowup_p2", "--point", "1,1", "--vector=-2.5,-1.5", "--samples", "1")
        assert code == 1 and out == ""
        assert err.startswith("VolumeNotPositive:")

    def test_wrong_length_vectors_are_domain_errors(self):
        c = load_fixture("blowup_p2").tensor
        point, long, ok = [2.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0]
        for call in (
            lambda: sectional(c, point, long, ok),
            lambda: sectional_from_curvature(riemann_at(c, point), ok, long),
            lambda: geodesic_shoot(c, point, long, 1.0),
            lambda: levelset_metric(c, point, long, ok),
            lambda: metric_at(c, point).inner(ok, long),
            lambda: metric_at(c, point).norm_sq(long),
        ):
            with pytest.raises(DimensionMismatch):
                call()
        for args in (
            ("sectional", "--vector", "1,0,0", "--vector", "0,1"),
            ("geodesic", "--vector", "1,0,0", "--arclength", "1"),
        ):
            code, _, err = run_cli(args[0], "blowup_p2", "--point", "2,1", *args[1:])
            assert code == 1
            assert err.startswith("DimensionMismatch:")

    def test_zero_counts_are_rejected(self):
        c = load_fixture("blowup_p2").tensor
        with pytest.raises(ValueError, match="planes_per_point"):
            scan_sectional(c, sample_cone_points(c, [2.0, 1.0], 2), planes_per_point=0)
        with pytest.raises(ValueError, match="samples"):
            full_cone_check(reduce_to_standard(c, [2.0, 1.0]), samples=0)
        for args in (
            ("scan", "blowup_p2", "--point", "2,1", "--planes-per-point", "0"),
            ("scan", "blowup_p2", "--point", "2,1", "--samples", "-1"),
            ("lorentz-verify", "blowup_p2", "--point", "2,1", "--samples", "0"),
            ("maass-verify", "--samples", "0"),
        ):
            code, out, err = run_cli(*args)
            assert code == 2
            assert out == ""
            assert "expected an integer >= 1" in err

    def test_nonfinite_points_and_refused_arguments_are_usage_errors(self):
        # Each of these used to end in a Python traceback with exit code 1.
        for args, message in (
            (("vol", "blowup_p2", "--point", "2,nan"), "expected comma-separated finite numbers, got '2,nan'"),
            (("vol", "blowup_p2", "--point", "inf,1"), "expected comma-separated finite numbers, got 'inf,1'"),
            (
                ("geodesic", "blowup_p2", "--point", "2,1", "--vector", "0,0", "--arclength", "1"),
                "ValueError: initial direction has nonpositive metric norm",
            ),
            (
                ("length-check", "blowup_p2", "--point", "2,1", "--point", "2.5,1.2,1"),
                "usage error: length-check points must all have the same length",
            ),
        ):
            code, out, err = run_cli(*args)
            assert code == 2, args
            assert out == ""
            assert "Traceback" not in err
            assert err.splitlines()[-1].endswith(message)

    @pytest.mark.parametrize("bad", ["nan", "0", "-1"])
    def test_nonfinite_or_nonpositive_arclength_and_tol_are_usage_errors(self, bad):
        shot = ("geodesic", "blowup_p2", "--point", "2,1", "--vector", "1,0.3")
        for args in (
            (*shot, "--arclength", bad),
            (*shot, "--arclength", "1", "--tol", bad),
            ("lorentz-verify", "blowup_p2", "--point", "2,1", "--tol", bad),
        ):
            code, out, err = run_cli(*args)
            assert code == 2
            assert out == ""
            assert "expected a finite number > 0" in err

    def test_scan_deterministic_output(self, tmp_path):
        args = (
            "scan", "synthetic_n3_b", "--point", "1,1,1", "--samples", "5",
            "--planes-per-point", "6", "--seed", "7",
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code1, out1, _ = run_cli(*args, "--out", str(a))
        code2, out2, _ = run_cli(*args, "--out", str(b))
        assert code1 == code2 == 0
        assert out1 == out2
        assert a.read_bytes() == b.read_bytes()

    def test_flat_surface_scans_flat(self):
        # blowup_p2 is a flat surface: every sampled K is zero up to rounding.
        code, out, _ = run_cli("scan", "blowup_p2", "--point", "2,1")
        assert code == 0
        values = dict(line.split() for line in out.splitlines())
        assert abs(float(values["k_min"])) <= 1e-11
        assert abs(float(values["k_max"])) <= 1e-11

    def test_signature_and_verify_commands(self):
        code, out, _ = run_cli("signature", "blowup_p2", "--point", "2,1", "--samples", "20")
        assert code == 0
        assert "fraction_positive_definite 1.0" in out
        code, out, _ = run_cli("lorentz-verify", "blowup_p2", "--point", "2,1", "--samples", "30")
        assert code == 0
        assert out.strip().endswith("PASS")
        code, out, _ = run_cli("maass-verify", "--samples", "20")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_boundary_ray_flags(self):
        code, out, _ = run_cli(
            "boundary-ray", "blowup_p2", "--point", "1,0", "--vector", "2,1", "--samples", "20"
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "flag converged"
        code, out, _ = run_cli(
            "boundary-ray", "quintic_like", "--point", "0", "--vector", "1", "--samples", "25"
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "flag diverging"
