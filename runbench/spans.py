"""Span tracing of slowsde layers from outside the program.

A layer is one slowsde module.  ``install`` replaces each listed public
function with a wrapper in every ``slowsde`` namespace that binds it, so calls
made through ``from .x import f`` bindings and through module attributes are
both seen.  Each call becomes one span (id, layer, name, start, end, parent,
thread) kept in memory; ``Tracer.dump`` returns them for the caller to
write out when the run ends.  Counters for the work a call does are derived
from the argument shapes after the span has closed, so they add nothing to
the layer's time.

``self_times`` and ``layer_table`` turn the spans into per-layer figures.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time

import numpy as np

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes

ENVELOPE_PREFIXES = ("zeta_", "region_", "bound_")

# layer -> (module, names or None for "every public name the layer owns")
LAYERS = {
    "noise": ("slowsde.noise", ("fill_increments",)),
    "sde": ("slowsde.sde", ("em_batch", "linear_batch")),
    "exits": ("slowsde.exits", ("first_exit_batch", "delay_times_batch",
                                "sup_deviation_batch")),
    "envelope": ("slowsde.envelope", None),
    "model": ("slowsde.model", ("branches", "model_from_dict")),
    "montecarlo": ("slowsde.montecarlo", ("run_ensemble",)),
    "cli": ("slowsde.cli", ("cmd_run",)),
}


def _envelope_names(mod) -> tuple:
    return tuple(n for n in mod.__all__
                 if n.startswith(ENVELOPE_PREFIXES) or n == "delay_interval")


def _window_nodes(t_grid, region) -> int:
    return int(np.count_nonzero((t_grid >= region.t_lo - 1e-9)
                                & (t_grid <= region.t_hi + 1e-9)))


def _count(name: str, a: dict, counters: dict) -> None:
    """Add the work of one call, computed from its argument shapes.

    ``a`` maps the wrapped function's parameter names to the call's values.
    """
    if name == "fill_increments":
        counters["noise.normals"] += a["out"].size
    elif name in ("em_batch", "linear_batch"):
        B, K = a["increments"].shape
        counters["sde.path_steps"] += B * K
        counters["sde.batches"] += 1
        # increments (B, K) plus the path matrix (B, K+1), float64
        nbytes = 8 * (B * K + B * (K + 1))
        counters["sde.peak_batch_bytes"] = max(counters["sde.peak_batch_bytes"],
                                               nbytes)
    elif name == "first_exit_batch":
        counters["exits.nodes_scanned"] += a["X"].shape[0] * _window_nodes(
            a["t_grid"], a["region"])
    elif name == "delay_times_batch":
        counters["exits.nodes_scanned"] += a["X"].size
    elif name == "sup_deviation_batch":
        cols = a.get("col_slice", slice(None))
        counters["exits.nodes_scanned"] += a["X"][:, cols].size


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []
        self.counters = {"noise.normals": 0, "sde.path_steps": 0,
                         "sde.batches": 0, "sde.peak_batch_bytes": 0,
                         "exits.nodes_scanned": 0}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._next_id = 0

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn):
        tracer = self
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a worker thread's first span is caused by whatever the main
            # thread has open (run_ensemble waiting on its pool)
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((sid, layer, name, start, end, parent,
                                         threading.get_ident()))
                    _count(name, signature.bind(*args, **kwargs).arguments,
                           tracer.counters)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer function in every slowsde namespace binding it."""
        for layer, (modname, names) in LAYERS.items():
            mod = importlib.import_module(modname)
            for name in names or _envelope_names(mod):
                orig = getattr(mod, name)
                wrapper = self.wrap(layer, name, orig)
                for mname, m in list(sys.modules.items()):
                    if m is None or not (mname == "slowsde"
                                         or mname.startswith("slowsde.")):
                        continue
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)

    def dump(self) -> dict:
        keys = ("id", "layer", "name", "start", "end", "parent", "thread")
        return {"spans": [dict(zip(keys, s)) for s in self.spans],
                "counters": dict(self.counters)}


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part its child spans cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


def subtree(spans: list, root_id: int) -> list:
    """The spans below root_id, root included."""
    by_parent: dict = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    out, todo = [], [root_id]
    ids = {s["id"]: s for s in spans}
    while todo:
        sid = todo.pop()
        out.append(ids[sid])
        todo.extend(c["id"] for c in by_parent.get(sid, []))
    return out


def layer_table(trace: dict, files_bytes: int) -> dict:
    """Per-layer metrics of one traced run (values only, units elsewhere)."""
    spans = trace["spans"]
    c = trace["counters"]
    selfs = self_times(spans)
    busy = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        busy[s["layer"]] += selfs[s["id"]]
    (run,) = [s for s in spans if s["name"] == "run_ensemble"]
    (cmd,) = [s for s in spans if s["name"] == "cmd_run"]
    inside = subtree(spans, run["id"])
    return {
        "noise.busy_s": busy["noise"],
        "noise.normals": c["noise.normals"],
        "noise.normals_per_s": c["noise.normals"] / busy["noise"],
        "sde.busy_s": busy["sde"],
        "sde.path_steps": c["sde.path_steps"],
        "sde.path_steps_per_s": c["sde.path_steps"] / busy["sde"],
        "sde.batches": c["sde.batches"],
        "sde.peak_batch_bytes": c["sde.peak_batch_bytes"],
        "exits.busy_s": busy["exits"],
        "exits.nodes_scanned": c["exits.nodes_scanned"],
        "envelope.busy_s": busy["envelope"],
        "model.busy_s": busy["model"],
        "montecarlo.self_s": busy["montecarlo"],
        "cli.load_s": run["start"] - cmd["start"],
        "cli.write_s": cmd["end"] - run["end"],
        "cli.bytes_written": files_bytes,
        # consistency figures, not reported as metrics
        "_run_wall_s": run["end"] - run["start"],
        "_run_self_sum_s": sum(selfs[s["id"]] for s in inside),
    }
