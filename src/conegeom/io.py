"""Tensor file format, fixtures and report persistence.

Tensor files are JSON documents::

    {"n": 2, "N": 2, "entries": [[[0, 0], 1.0], [[1, 1], -1.0]],
     "metadata": {"name": "...", "kahler_points": [[2.0, 1.0]]}}

Multi-indices are 0-based and must be sorted; duplicate multi-indices are
rejected.  Unknown top-level fields are tolerated and preserved under
``metadata`` so files from newer writers survive a round trip.  Any
``kahler_points`` listed are validated on load: they must have positive
volume and a positive-definite metric.
"""

from __future__ import annotations

import csv
import importlib.resources
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConeGeometryError, NotPositiveDefinite, TensorFormatError
from .metric import is_positive_definite, metric_at
from .tensors import IntersectionTensor

__all__ = [
    "TensorFile",
    "read_tensor_file",
    "load_tensor",
    "dumps_tensor_file",
    "save_tensor_file",
    "emit_report",
    "fixture_path",
    "list_fixtures",
    "load_fixture",
]

_TOP_LEVEL_KEYS = {"n", "N", "entries", "metadata"}


@dataclass
class TensorFile:
    """A parsed tensor file: the tensor plus free-form metadata."""

    tensor: IntersectionTensor
    metadata: dict = field(default_factory=dict)

    @property
    def name(self) -> str | None:
        return self.metadata.get("name")


def _parse_document(doc, source: str) -> TensorFile:
    if not isinstance(doc, dict):
        raise TensorFormatError(f"{source}: top level must be a JSON object")
    for key in ("n", "N", "entries"):
        if key not in doc:
            raise TensorFormatError(f"{source}: missing required field {key!r}")
    entries = {}
    raw = doc["entries"]
    if not isinstance(raw, list):
        raise TensorFormatError(f"{source}: 'entries' must be a list")
    for pos, item in enumerate(raw):
        where = f"{source}: entries[{pos}]"
        try:
            index, value = item
        except (TypeError, ValueError):
            raise TensorFormatError(f"{where}: expected an [index, value] pair") from None
        try:
            index = tuple(int(i) for i in index)
        except (TypeError, ValueError):
            raise TensorFormatError(f"{where}: bad multi-index {index!r}") from None
        if index in entries:
            raise TensorFormatError(f"{where}: duplicate multi-index {list(index)}")
        entries[index] = value
    metadata = dict(doc.get("metadata") or {})
    for key, val in doc.items():
        if key not in _TOP_LEVEL_KEYS:
            metadata[key] = val
    try:
        tensor = IntersectionTensor(n=int(doc["n"]), N=int(doc["N"]), entries=entries)
    except (ValueError, TypeError) as exc:
        raise TensorFormatError(f"{source}: {exc}") from None
    tf = TensorFile(tensor=tensor, metadata=metadata)
    _validate_marked_points(tf, source)
    return tf


def _validate_marked_points(tf: TensorFile, source: str):
    # Each listed point needs Vol > 0 and a positive-definite metric.
    points = tf.metadata.get("kahler_points", [])
    if not isinstance(points, list):
        raise TensorFormatError(f"{source}: kahler_points must be a list of points")
    for i, point in enumerate(points):
        try:
            if not is_positive_definite(metric_at(tf.tensor, point).g):
                raise NotPositiveDefinite("metric is not positive-definite at a point claimed to lie in the cone")
        except (ConeGeometryError, ValueError) as exc:
            raise TensorFormatError(f"{source}: kahler_points[{i}] failed validation: {exc}") from None


def read_tensor_file(path) -> TensorFile:
    """Parse and validate a tensor file; errors carry line/offset context."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise TensorFormatError(f"{path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TensorFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return _parse_document(doc, str(path))


def load_tensor(path) -> IntersectionTensor:
    """Load just the tensor from a tensor file."""
    return read_tensor_file(path).tensor


def dumps_tensor_file(tf: TensorFile) -> str:
    """Canonical serialization: sorted entries, sorted keys, exact floats."""
    doc = {
        "n": tf.tensor.n,
        "N": tf.tensor.N,
        "entries": [[list(idx), val] for idx, val in sorted(tf.tensor.entries.items())],
    }
    if tf.metadata:
        doc["metadata"] = tf.metadata
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def save_tensor_file(tf: TensorFile, path):
    Path(path).write_text(dumps_tensor_file(tf))


def _flatten_report(report) -> dict:
    if hasattr(report, "to_dict"):
        return report.to_dict()
    if hasattr(report, "__dataclass_fields__"):
        out = {}
        for name in report.__dataclass_fields__:
            val = getattr(report, name)
            out[name] = val.tolist() if hasattr(val, "tolist") else val
        if hasattr(report, "passed"):
            out["passed"] = bool(report.passed)
        return out
    return dict(report)


def emit_report(report, path, format: str = "json"):
    """Persist a report as JSON (full) or CSV (flat table of scan rows).

    Output is byte-identical across runs with the same inputs: floats are
    written with exact round-trip precision and keys are sorted.
    """
    path = Path(path)
    data = _flatten_report(report)
    if format == "json":
        path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
        return
    if format != "csv":
        raise ValueError(f"unknown report format {format!r}")
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        if "k_samples" in data:
            dim = len(data["points"][0])
            header = ["sample", "point_index", "K"] + [f"t_{i}" for i in range(dim)]
            writer.writerow(header)
            for row in data["k_samples"]:
                point = data["points"][row["point"]]
                writer.writerow(
                    [row["sample"], row["point"], repr(row["K"])] + [repr(x) for x in point]
                )
        elif "signature_entries" in data:
            dim = len(data["points"][0])
            writer.writerow([f"t_{i}" for i in range(dim)] + ["positive", "negative", "null"])
            for row in data["signature_entries"]:
                writer.writerow(
                    [repr(x) for x in row["point"]]
                    + [row["positive"], row["negative"], row["null"]]
                )
        else:
            writer.writerow(sorted(data))
            writer.writerow([repr(data[k]) if isinstance(data[k], float) else data[k] for k in sorted(data)])


def write_path_csv(path_obj, out_path):
    """Geodesic/path samples as CSV with columns ``s, t_0..t_{N-1}, speed``."""
    dim = path_obj.points.shape[1]
    with Path(out_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s"] + [f"t_{i}" for i in range(dim)] + ["speed"])
        for s, point, speed in zip(path_obj.s, path_obj.points, path_obj.speeds):
            writer.writerow([repr(float(s))] + [repr(float(x)) for x in point] + [repr(float(speed))])


def fixture_path(name: str) -> Path:
    """Filesystem path of a packaged fixture (with or without ``.json``)."""
    if not name.endswith(".json"):
        name = name + ".json"
    root = importlib.resources.files("conegeom") / "fixtures" / name
    path = Path(str(root))
    if not path.exists():
        raise FileNotFoundError(f"no packaged fixture named {name!r}")
    return path


def list_fixtures() -> list[str]:
    root = Path(str(importlib.resources.files("conegeom") / "fixtures"))
    return sorted(p.stem for p in root.glob("*.json"))


def load_fixture(name: str) -> TensorFile:
    return read_tensor_file(fixture_path(name))


def resolve_tensor_path(spec: str) -> Path:
    """A real file path, or a bare packaged-fixture name as a fallback."""
    p = Path(spec)
    if p.exists():
        return p
    try:
        return fixture_path(Path(spec).name)
    except FileNotFoundError:
        raise TensorFormatError(f"{spec}: no such file or packaged fixture") from None
