"""Span tracing of the library from outside, for the traced benchmark run.

Modules bind each other's functions at import (``from .tensors import
volume``), so patching only the defining module would miss most calls.
``Tracer.install`` therefore replaces every binding of a traced function in
every loaded ``conegeom`` module, the package namespace included, with a
wrapper that knows its call site.  Functions that no longer exist are
reported as absent instead of failing, so the library can rename or delete
them without breaking the benchmark.

Each call becomes a span (id, parent, name, call site, start, end), kept in
memory per item.  Self time, a span's duration minus that of its child
spans, and call counts keyed by ``(root span, call site, name)`` are
accumulated on the fly.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "conegeom"
TRACED = {
    "tensors": ("volume", "vol_derivatives", "contract"),
    "metric": ("metric_at", "is_positive_definite"),
    "curvature": ("riemann_at", "sectional_from_curvature", "sectional"),
    "geodesics": ("geodesic_shoot", "boundary_ray_study", "path_length", "length_bound_check"),
    "scan": ("sample_cone_points", "scan_sectional", "signature_profile"),
    "lorentz": ("reduce_to_standard", "lorentz_isometry_check", "full_cone_check"),
    "maass": ("torus_consistency", "bracket", "curvature_algebraic", "curvature_oracle"),
    "io": ("read_tensor_file",),
}
# Constructions of these classes run their input validation; counted, not timed.
VALIDATED = ("ConePoint", "TangentVector")


class Tracer:
    def __init__(self):
        self.absent: list[str] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._stack: list[list] = []
        self.start_item()

    def start_item(self):
        """Begin a fresh accumulation; ``take_item`` returns it.

        Also drops spans left open by an item cut at its deadline.
        """
        self._stack.clear()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []

    def take_item(self):
        """``(calls, self_s, spans)`` since ``start_item``."""
        return self.calls, self.self_s, self.spans

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [
            (name.rpartition(".")[2], mod)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self):
        modules = self._modules()
        by_name = dict(modules)
        self.absent = []
        for mod_name, funcs in TRACED.items():
            home = by_name.get(mod_name)
            for fn in funcs:
                span_name = f"{mod_name}.{fn}"
                orig = getattr(home, fn, None) if home is not None else None
                if not callable(orig):
                    self.absent.append(span_name)
                    continue
                for site, mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, self._wrap(orig, span_name, site))
        tensors = by_name.get("tensors")
        for cls_name in VALIDATED:
            cls = getattr(tensors, cls_name, None)
            post = getattr(cls, "__post_init__", None)
            if post is None:
                self.absent.append(f"tensors.{cls_name}")
                continue
            self._patches.append((cls, "__post_init__", post))
            setattr(cls, "__post_init__", self._count(post, f"tensors.{cls_name}"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _wrap(self, orig, span_name, site):
        stack = self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            root = stack[0][0] if stack else span_name
            self.calls[(root, site, span_name)] += 1
            parent = stack[-1][3] if stack else -1
            frame = [span_name, time.perf_counter(), 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            try:
                return orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                self.self_s[span_name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                self.spans.append((frame[3], parent, span_name, site, frame[1], end))

        return wrapper

    def _count(self, orig, name):
        stack = self._stack

        @functools.wraps(orig)
        def wrapper(obj):
            root = stack[0][0] if stack else name
            self.calls[(root, "", name)] += 1
            return orig(obj)

        return wrapper


def write_spans(path, spans):
    """Write spans as tab-separated ``id parent name site start end``, with
    times in seconds from the first start."""
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tsite\tstart_s\tend_s\n")
        t0 = min((s[4] for s in spans), default=0.0)
        for sid, parent, name, site, start, end in sorted(spans):
            fh.write(f"{sid}\t{parent}\t{name}\t{site}\t{start - t0!r}\t{end - t0!r}\n")
