"""Per-module spans and work counters for one traced ergomix run.

The tracer wraps public functions of the ergomix modules from outside the
package: each wrapper is set on the defining module or class and rebound in
every ``ergomix`` module that imported the same function object with
``from .x import y``.  A target that no longer exists raises at install time,
and ``missing_spans`` names every span expected on a workload that recorded
no call, so a rename cannot silently zero a layer.

Spans (name, start, end, parent, process CPU time, counts) are kept in memory
and exported once, at the end of the run.
"""

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict


def _points(value):
    return int(getattr(value, "size", 0)) // 2


def _bytes(args):
    return {"bytes": os.path.getsize(args["path"])}


# span name -> (targets as "module:qualname", counts derived from the bound arguments)
SPANS = {
    "config.parse_config": (["ergomix.config:parse_config"], None),
    "harness.run_experiment": (["ergomix.harness:run_experiment"], None),
    "harness.write_json_atomic": (["ergomix.harness:write_json_atomic"], _bytes),
    "harness.write_series_csv_atomic": (["ergomix.harness:write_series_csv_atomic"], _bytes),
    "harness.write_text_atomic": (["ergomix.harness:write_text_atomic"], _bytes),
    "flow.advect": (
        ["ergomix.flow:advect"],
        lambda a: {"point_steps": _points(a["x"]) * int(a["steps"])},
    ),
    "flow.advect_cocycle": (
        ["ergomix.flow:advect_cocycle"],
        lambda a: {"point_steps": _points(a["x"]) * int(a["steps"])},
    ),
    "workers.run_chunked": (["ergomix.workers:run_chunked"], lambda a: {"points": len(a["points"])}),
    "fields.grad_l1_time_average": (["ergomix.fields:grad_l1_time_average"], None),
    "maps.apply": (
        ["ergomix.maps:CatMap.apply", "ergomix.maps:BakerMap.apply", "ergomix.maps:TimeOneFlowMap.apply"],
        lambda a: {"points": _points(a["points"])},
    ),
    "maps.apply_with_jacobian": (
        [
            "ergomix.maps:MeasurePreservingMap.apply_with_jacobian",
            "ergomix.maps:TimeOneFlowMap.apply_with_jacobian",
        ],
        lambda a: {"points": _points(a["points"])},
    ),
    "lyapunov.ensemble_spectrum": (
        ["ergomix.lyapunov:ensemble_spectrum"],
        lambda a: {"qr_steps": int(a["sample_count"]) * int(a["n"])},
    ),
    "scalar.evaluate": (["ergomix.scalar:InitialDatum.evaluate"], None),
    "diagnostics.h_minus_one": (["ergomix.diagnostics:h_minus_one"], None),
    "diagnostics.log_sobolev": (["ergomix.diagnostics:log_sobolev"], None),
    "diagnostics.mixing_scale": (["ergomix.diagnostics:mixing_scale"], None),
    "diagnostics.ball_averages": (["ergomix.diagnostics:ball_averages"], None),
    "diagnostics.entropy_rate": (
        ["ergomix.diagnostics:entropy_rate"],
        lambda a: {"orbit_points": int(a["sample_count"]) * int(a["n"])},
    ),
    "diagnostics.nu_log_bound": (["ergomix.diagnostics:nu_log_bound"], None),
}

# Hot point evaluations (called from worker threads) get counters, not spans.
POINT_COUNTERS = {
    "fields.velocity": "ergomix.fields:VelocityField.velocity",
    "fields.gradient": "ergomix.fields:VelocityField.gradient",
}
GRID_GENERATOR = "ergomix.scalar:scalar_series"
NUMPY_FFTS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

_COMMON = [
    "config.parse_config",
    "harness.run_experiment",
    "harness.write_json_atomic",
    "harness.write_text_atomic",
    "lyapunov.ensemble_spectrum",
    "maps.apply_with_jacobian",
]
# Spans and counters that must record at least one call on each workload.
EXPECTED = {
    "ruelle_cat": _COMMON + ["diagnostics.entropy_rate", "diagnostics.nu_log_bound", "maps.apply"],
    "mixing_alternating": _COMMON
    + [
        "flow.advect",
        "flow.advect_cocycle",
        "workers.run_chunked",
        "fields.grad_l1_time_average",
        "fields.velocity",
        "fields.gradient",
        "scalar.scalar_series",
        "scalar.evaluate",
        "diagnostics.h_minus_one",
        "diagnostics.log_sobolev",
        "diagnostics.mixing_scale",
        "diagnostics.ball_averages",
        "harness.write_series_csv_atomic",
        "numpy.fft",
    ],
}


def _resolve(target):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise RuntimeError(f"span target {target} does not exist")
    return owner, attr, vars(owner)[attr]


def _rebind(owner, attr, original, wrapper):
    """Set the wrapper on its owner and on every ergomix module importing it."""
    setattr(owner, attr, wrapper)
    if inspect.isclass(owner):
        return
    for name, module in list(sys.modules.items()):
        if name == "ergomix" or name.startswith("ergomix."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


class Tracer:
    """Records spans and counts for the wrapped calls of one process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # name -> {"calls": ..., other counts}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name, counts):
        with self._lock:
            bucket = self.counts[name]
            bucket["calls"] += 1
            bucket.update(counts)

    def _span_wrapper(self, name, original, counter):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "thread": threading.get_ident(),
            }
            stack.append(span)
            cpu0 = time.process_time()
            span["start"] = time.monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                span["cpu"] = time.process_time() - cpu0
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            # counts are taken after the call, so a write's file size is known
            span["counts"] = {}
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments)
            self._add(name, span["counts"])
            return result

        return wrapper

    def _point_counter(self, name, original):
        @functools.wraps(original)
        def wrapper(field, t, points):
            self._add(name, {"points": _points(points)})
            return original(field, t, points)

        return wrapper

    def _grid_counter(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            for grid in original(*args, **kwargs):
                self._add("scalar.scalar_series", {"grids": 1})
                yield grid

        return wrapper

    def _fft_counter(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._add("numpy.fft", {})
            return original(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target; raises RuntimeError naming a missing one."""
        import numpy as np

        for name, (targets, counter) in SPANS.items():
            for target in targets:
                owner, attr, original = _resolve(target)
                _rebind(owner, attr, original, self._span_wrapper(name, original, counter))
        for name, target in POINT_COUNTERS.items():
            owner, attr, original = _resolve(target)
            _rebind(owner, attr, original, self._point_counter(name, original))
        owner, attr, original = _resolve(GRID_GENERATOR)
        _rebind(owner, attr, original, self._grid_counter(original))
        for attr in NUMPY_FFTS:
            setattr(np.fft, attr, self._fft_counter(getattr(np.fft, attr)))

    def export(self):
        return {"spans": self.spans, "counts": {k: dict(v) for k, v in self.counts.items()}}


def missing_spans(workload, counts):
    """Expected spans and counters of a workload that recorded no call."""
    return [name for name in EXPECTED[workload] if counts.get(name, {}).get("calls", 0) == 0]


def self_times(spans):
    """Span duration minus the time covered by its direct children, by span id."""
    child_time = Counter()
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_time[s["id"]] for s in spans}


def layer_metrics(trace, import_s):
    """Aggregate an exported trace into the benchmark's per-layer metrics."""
    spans, counts = trace["spans"], trace["counts"]
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def outermost(span):
        # a span nested inside a span of the same name is already counted
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == span["name"]:
                return False
            parent = by_id.get(parent["parent"])
        return True

    wall, cpu, self_s = Counter(), Counter(), Counter()
    for span in spans:
        self_s[span["name"]] += own[span["id"]]
        if outermost(span):
            wall[span["name"]] += span["end"] - span["start"]
            cpu[span["name"]] += span["cpu"]

    def count(name, key="calls"):
        return counts.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    writes = [n for n in SPANS if n.startswith("harness.write_")]
    return {
        "cli.import_s": import_s,
        "config.parse_s": wall["config.parse_config"],
        "flow.advect_s": wall["flow.advect"],
        "flow.advect_calls": count("flow.advect"),
        "flow.advect_point_steps": count("flow.advect", "point_steps"),
        "flow.advect_cpu_per_wall": ratio(cpu["flow.advect"], wall["flow.advect"]),
        "flow.advect_cocycle_s": wall["flow.advect_cocycle"],
        "flow.cocycle_point_steps": count("flow.advect_cocycle", "point_steps"),
        "fields.grad_l1_time_average_s": wall["fields.grad_l1_time_average"],
        "fields.grad_l1_calls": count("fields.grad_l1_time_average"),
        "fields.velocity_point_evals": count("fields.velocity", "points"),
        "fields.gradient_point_evals": count("fields.gradient", "points"),
        "maps.apply_s": wall["maps.apply"],
        "maps.apply_points": count("maps.apply", "points"),
        "maps.apply_with_jacobian_s": wall["maps.apply_with_jacobian"],
        "lyapunov.ensemble_spectrum_s": wall["lyapunov.ensemble_spectrum"],
        "lyapunov.qr_steps": count("lyapunov.ensemble_spectrum", "qr_steps"),
        "lyapunov.self_s": self_s["lyapunov.ensemble_spectrum"],
        "scalar.grids": count("scalar.scalar_series", "grids"),
        "scalar.evaluate_s": wall["scalar.evaluate"],
        "diagnostics.log_sobolev_s": wall["diagnostics.log_sobolev"],
        "diagnostics.mixing_scale_s": wall["diagnostics.mixing_scale"],
        "diagnostics.h_minus_one_s": wall["diagnostics.h_minus_one"],
        "diagnostics.radii_per_grid": ratio(
            count("diagnostics.ball_averages"), count("diagnostics.mixing_scale")
        ),
        "diagnostics.ffts_per_grid": ratio(count("numpy.fft"), count("scalar.scalar_series", "grids")),
        "diagnostics.entropy_rate_s": wall["diagnostics.entropy_rate"],
        "diagnostics.orbit_points": count("diagnostics.entropy_rate", "orbit_points"),
        "diagnostics.nu_log_bound_s": wall["diagnostics.nu_log_bound"],
        "workers.run_chunked_calls": count("workers.run_chunked"),
        "workers.cpu_per_wall": ratio(cpu["workers.run_chunked"], wall["workers.run_chunked"]),
        "harness.self_s": self_s["harness.run_experiment"],
        "harness.write_s": sum(wall[n] for n in writes),
        "harness.bytes_written": sum(count(n, "bytes") for n in writes),
    }
