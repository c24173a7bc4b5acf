"""Ensemble runner: parallel path generation, exit/delay/branch statistics
with Wilson intervals, and empirical-versus-theoretical bound comparisons.

Paths are keyed by index, so reports are byte-identical for any thread
count; aggregation uses only index-ordered writes and commutative merges.
Runtime is kept out of the serialized payload for the same reason.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import envelope as env
from .deterministic import adiabatic_solution, solve_det
from .errors import (ConfigError, NonFiniteResult, RegimeViolation,
                     ResourceLimit)
from .exits import delay_times_batch, first_exit_batch, sup_deviation_batch
from .model import ModelSpec, branches, read_object
from .noise import fill_increments, path_generators
from .sde import em_batch, n_steps_for, time_grid

__all__ = [
    "EnsembleConfig", "EnsembleReport", "BoundComparison",
    "run_ensemble", "estimate_prob", "compare_bound",
    "serialize_json", "config_hash",
]

# the model kind each experiment tag needs
TAG_KINDS = {"stable": "stable-branch", "unstable": "unstable-branch",
             **dict.fromkeys(("before", "escape", "approach", "delay",
                              "branch"), "pitchfork")}
ALL_TAGS = tuple(TAG_KINDS)

MAX_TOTAL_STEPS = 2_000_000_000
# a batch streams through time chunks of _chunk_steps steps: CHUNK_STEPS,
# or for a batch narrower than about 250 paths as many as fit CHUNK_VALUES
# floats (2 MiB) of its workspace rows and its arrays of one value per
# chunk node, so a narrow batch makes fewer, longer chunks; either way a
# batch holds a bounded number of floats however long its paths are
CHUNK_STEPS = 1024
CHUNK_VALUES = 1 << 18
# arrays of one value per chunk node beside the drift's coefficient table:
# the chunk's times in em_batch and in the scans, and the two bounds of the
# region a scan tests
_NODE_ARRAYS = 4
# paths per batch at most, whatever n_steps is; a batch this wide takes
# chunks of CHUNK_STEPS steps, and its one workspace of CHUNK_STEPS + 1
# floats per path takes 6.9 MB
MAX_BATCH = 838


# The experiment sections of the config document, section -> {key: JSON
# type (model.JSON_TYPES) or the strings allowed}.  Each key sets the
# EnsembleConfig field of its name, and the key of a field without a
# default is required.  from_dict reads and to_dict writes through it.
SECTIONS = {
    "dynamics": {"eps": "a number > 0", "sigma": "a number > 0",
                 "t0": "a number", "x0": "a number or 'x_tilde'",
                 "t_end": "a number", "dt": "a number > 0"},
    "ensemble": {"n_paths": "an integer", "master_seed": "an integer",
                 "mirror": "true or false"},
    "experiment": {"tag": ALL_TAGS, "h_list": "a list of numbers",
                   "t_probe_list": "a list of numbers",
                   "eta": "a number or null", "tau_window": "a pair of numbers",
                   "bound_c0": "a number"},
}
# beside them the document holds the model, read by model_from_dict, and
# the output directory of the CLI
_DOCUMENT = dict.fromkeys(("model", *SECTIONS, "output"), "an object")


@dataclass(frozen=True, kw_only=True)
class EnsembleConfig:
    """Everything that determines an ensemble; the report is a pure function
    of this object (thread count is a run option, not part of it)."""

    model: ModelSpec
    eps: float
    sigma: float
    t0: float
    x0: object  # float or the start rule "x_tilde"
    t_end: float
    dt: Optional[float] = None  # eps / 50 when not given
    n_paths: int
    master_seed: int
    tag: str
    h_list: tuple = ()
    t_probe_list: tuple = ()
    eta: Optional[float] = None
    mirror: bool = False
    tau_window: tuple = (0.15, 0.25)
    bound_c0: float = 1.0

    def __post_init__(self):
        if self.tag not in ALL_TAGS:
            raise ConfigError(f"unknown experiment tag {self.tag!r}")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be at least 1")
        if not self.sigma > 0:  # the bounds hold for 0 < sigma < sqrt(eps)
            raise ConfigError(f"sigma={self.sigma:g} must be > 0")
        model = self.model
        if self.t0 < model.t_min:
            raise ConfigError(f"t0={self.t0:g} is before the model's time "
                              f"range [{model.t_min:g}, {model.t_max:g}]")
        if self.t_end > model.t_max:
            raise ConfigError(f"t_end={self.t_end:g} is past the model's "
                              f"time range [{model.t_min:g}, "
                              f"{model.t_max:g}]")
        if not 0 <= self.master_seed < 2 ** 64:  # a Philox key is 64 bits
            raise ConfigError(f"master_seed={self.master_seed} is not in "
                              "[0, 2^64)")
        if self.eta is not None and not 0 <= self.eta < 1:
            raise ConfigError(f"eta={self.eta:g} is not in [0, 1)")
        if not self.bound_c0 > 0:
            raise ConfigError(f"bound_c0={self.bound_c0:g} must be > 0")
        if self.tau_window[0] > self.tau_window[1]:
            raise ConfigError(f"tau_window={list(self.tau_window)} starts "
                              "after it ends")
        if self.dt is None:
            object.__setattr__(self, "dt", self.eps / 50.0)
        if self.dt > self.eps / 10.0 * (1.0 + 1e-12):
            raise ConfigError(f"dt={self.dt:g} exceeds eps/10")
        kind = TAG_KINDS[self.tag]
        if self.model.kind != kind:
            raise RegimeViolation(f"tag {self.tag!r} needs a model of "
                                  f"kind {kind!r}")
        if kind == "pitchfork" and self.sigma >= math.sqrt(self.eps):
            raise RegimeViolation(
                f"sigma={self.sigma:g} >= sqrt(eps)={math.sqrt(self.eps):.4g}; "
                "pitchfork experiments need sigma well below sqrt(eps)")
        # the unstable tag reports one level h, in its bound's window h <= sigma
        if self.tag == "unstable" and not (
                len(self.h_list) <= 1
                and all(0 < h <= self.sigma for h in self.h_list)):
            raise ConfigError(f"h_list={list(self.h_list)}: tag 'unstable' "
                              "takes at most one h, with 0 < h <= "
                              f"sigma={self.sigma:g}")
        with np.errstate(invalid="ignore"):
            x0 = _resolve_x0(self)
        if not math.isfinite(x0):
            raise ValueError(f"x0={self.x0!r} resolves to {x0!r} at "
                             f"t0={self.t0:g}; the start value must be finite")
        if not abs(x0) <= model.d:
            value = f" = {x0:g}" if isinstance(self.x0, str) else ""
            raise ConfigError(f"x0={self.x0!r}{value} is outside the model's "
                              f"domain |x| <= d={model.d:g}")
        n_steps = n_steps_for(self.t0, self.t_end, self.dt)
        if self.n_paths * n_steps > MAX_TOTAL_STEPS:
            raise ResourceLimit(
                f"{self.n_paths} paths x {n_steps} steps exceeds the budget "
                f"of {MAX_TOTAL_STEPS} total steps")

    @classmethod
    def from_dict(cls, doc: dict, read_model,
                  master_seed: Optional[int] = None) -> "EnsembleConfig":
        """The config of a config document, read through SECTIONS; a bad
        key or value raises ConfigError.  read_model (model_from_dict) builds
        the model; master_seed, if given, replaces the document's."""
        read_object(doc, _DOCUMENT, "config", required=("model", *SECTIONS))
        read_object(doc.get("output", {}), {"directory": "a string"}, "output")
        required = {f.name for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING}
        values = {}
        for section, types in SECTIONS.items():
            values.update(read_object(doc[section], types, section,
                                      [k for k in types if k in required]))
        if master_seed is not None:
            values["master_seed"] = master_seed
        return cls(model=read_model(doc["model"]),
                   **{k: tuple(v) if isinstance(v, list) else v
                      for k, v in values.items()})

    def to_dict(self) -> dict:
        def value(key):
            v = getattr(self, key)
            return list(v) if isinstance(v, tuple) else v

        return {"model": self.model.to_dict(),
                **{section: {k: value(k) for k in types}
                   for section, types in SECTIONS.items()}}


@dataclass(frozen=True)
class BoundComparison:
    """consistent: the CI lower end does not exceed the bound."""

    verdict: str
    margin: float
    leading_order: bool

    def to_dict(self) -> dict:
        note = ("exceeds leading-order bound" if self.verdict == "violated"
                and self.leading_order else None)
        return {"verdict": self.verdict, "margin": self.margin,
                "leading_order": self.leading_order, "note": note}


@dataclass
class EnsembleReport:
    config: dict
    config_hash: str
    tag: str
    results: dict
    runtime_seconds: float = field(default=0.0, compare=False)
    per_path: dict = field(default_factory=dict, compare=False)

    def payload(self) -> dict:
        return {"schema": "slowsde-report/1", "config": self.config,
                "config_hash": self.config_hash, "tag": self.tag,
                "backend": "python", "results": self.results}

    def to_json(self) -> str:
        return serialize_json(self.payload())


def _json_fragments(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            out.append("null")
        elif math.isinf(x):
            out.append('"inf"' if x > 0 else '"-inf"')
        else:
            out.append(format(x, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)) + ":")
            _json_fragments(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _json_fragments(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def serialize_json(obj) -> str:
    """Canonical JSON: sorted keys, floats at 17 significant digits."""
    out: list = []
    _json_fragments(obj, out)
    return "".join(out)


def config_hash(config: EnsembleConfig) -> str:
    return hashlib.sha256(serialize_json(config.to_dict()).encode()).hexdigest()


def estimate_prob(successes: int, n: int) -> tuple:
    """Wilson 95% score interval (z = 1.96); sane for rare events."""
    if not 0 <= successes <= n or n < 1:
        raise ValueError("need 0 <= successes <= n and n >= 1")
    z = 1.96
    p = successes / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == n else min(1.0, centre + half)
    return p, lo, hi


def compare_bound(empirical: tuple,
                  bound_eval: env.BoundEvaluation) -> BoundComparison:
    """empirical = (p_hat, ci_low, ci_high); violated iff ci_low > bound."""
    _, ci_low, _ = empirical
    bound = bound_eval.bound
    verdict = "consistent" if ci_low <= bound else "violated"
    return BoundComparison(verdict, bound - ci_low, bound_eval.leading_order)


def _prob_entry(successes: int, n: int,
                bound_eval: Optional[env.BoundEvaluation] = None) -> dict:
    p, lo, hi = estimate_prob(successes, n)
    entry = {"successes": int(successes), "n": int(n), "p_hat": p,
             "ci_low": lo, "ci_high": hi}
    if bound_eval is not None:
        entry["bound"] = bound_eval.to_dict()
        entry["comparison"] = compare_bound((p, lo, hi), bound_eval).to_dict()
    return entry


# ---------------------------------------------------------------------------
# batched simulation and per-path scans


def _batches(paths: np.ndarray, threads: int) -> list:
    """paths split evenly into the fewest batches of at most MAX_BATCH
    paths whose count is a multiple of threads, or one batch per path when
    there are fewer paths than that."""
    n = -(-len(paths) // MAX_BATCH)
    n = min(len(paths), -(-n // threads) * threads)
    return np.array_split(paths, n) if n else []


def _chunk_steps(paths: int, model: ModelSpec) -> int:
    """Steps per chunk of a batch of paths: CHUNK_VALUES floats shared by
    the batch's rows and the arrays of one value per chunk node (the
    drift's coefficient table and _NODE_ARRAYS more), counted as
    envelope.zeta_rows counts its blocks, and at least CHUNK_STEPS."""
    per_node = paths + model.poly.coeffs.shape[0] + _NODE_ARRAYS
    return max(CHUNK_STEPS, CHUNK_VALUES // per_node)


def _resolve_x0(config: EnsembleConfig) -> float:
    if isinstance(config.x0, str):
        if config.x0 != "x_tilde":
            raise ValueError(f"unknown start rule {config.x0!r}")
        curves = branches(config.model)
        try:
            return float(curves.x_tilde(config.t0))
        except ValueError as exc:  # e.g. a root search's sqrt at t0 < 0
            raise ValueError(f"x0={config.x0!r} cannot be resolved at "
                             f"t0={config.t0:g}: {exc}") from exc
    return float(config.x0)


class _Columns(dict):
    """Per-path columns of one batch, merged over its time chunks.  carry
    holds whatever a scan keeps from one chunk of the batch to the next
    (None before the first)."""

    carry = None

    def first(self, key: str, times: np.ndarray, **same_chunk) -> None:
        """Keep each row's first non-NaN time, with the same_chunk values
        of the chunk that gave it."""
        new = np.isnan(self[key]) & ~np.isnan(times)
        self[key][new] = times[new]
        for k, v in same_chunk.items():
            self[k][new] = v[new]

    def recorded(self, key: str) -> np.ndarray:
        """The rows whose first time is already kept."""
        return ~np.isnan(self[key])

    def sup(self, key: str, values: np.ndarray, rows=slice(None)) -> None:
        """Running maximum of the given rows (all by default); a NaN stays,
        as in one max over the whole row."""
        self[key][rows] = np.maximum(self[key][rows], values)


@dataclass(frozen=True)
class _Run:
    """One ensemble run: its config, its grid's step count, start value and
    thread count."""

    config: EnsembleConfig
    n_steps: int
    x0: float
    threads: int

    @functools.cached_property
    def grid(self) -> np.ndarray:
        """The whole time grid, made at the first use: the exit tags step
        and scan without it, so their peak memory does not grow with
        n_steps."""
        return time_grid(self.config.t0, self.config.dt, self.n_steps)

    def times(self, nodes: slice) -> np.ndarray:
        """The grid's nodes in the slice nodes, bit for bit those of grid,
        without the rest of it."""
        start, stop, _ = nodes.indices(self.n_steps + 1)
        return self.config.t0 + self.config.dt * np.arange(start, stop)

    def scan(self, scan, columns: dict, last: Optional[int] = None,
             done=None) -> tuple:
        """Simulate every path in batches up to grid node last (the end of
        the grid by default) and return the per-path columns and the paths'
        states at that node, in path order.

        Each batch streams through time chunks of _chunk_steps steps in one
        workspace of that many columns plus one, which the noise and the
        stepping fill in place; how long the chunks are moves no bit.
        columns maps each column name to its start value.  For every
        chunk, scan(X, nodes, cols) gets the batch's live paths X (B, n+1),
        the chunk's columns of the workspace, on the grid nodes of the
        slice nodes, whose first node closes the previous chunk, and merges
        what it finds into the batch's _Columns cols, one row per live
        path; X is overwritten by the next chunk, so a scan keeps no view
        of it.  A path whose state turns non-finite raises NonFiniteResult
        at the end of that chunk.

        done(cols), when given, is called after each chunk's scan and marks
        the live rows whose columns can no longer change.  Those paths
        retire: their columns are kept as they are, and they are no longer
        drawn, stepped or scanned, so a batch whose paths have all retired
        stops early.  A retired path was finite when it retired, and its
        returned state is NaN.  Paths are independent, so retiring moves
        no bit of the other paths.
        """
        cfg = self.config
        n_steps = self.n_steps if last is None else last

        def work(idx):
            gens = path_generators(cfg.master_seed, idx)
            steps = _chunk_steps(len(idx), cfg.model)
            # the batch's one workspace: column 0 holds the live paths'
            # state at a chunk's first node, and each live row's other
            # columns take the chunk's increments, then its nodes
            ws = np.empty((len(idx), min(steps, n_steps) + 1))
            ws[:, 0] = self.x0
            cols = _Columns({k: np.full(len(idx), v)
                             for k, v in columns.items()})
            # the batch's result, and the batch positions of its live rows
            out = {k: v.copy() for k, v in cols.items()}
            x_end = np.full(len(idx), np.nan)
            live = np.arange(len(idx))
            trunc = None
            for k0 in range(0, n_steps, steps):
                chunk = ws[:len(live), :min(steps, n_steps - k0) + 1]
                fill_increments(chunk[:, 1:], cfg.master_seed, idx[live],
                                cfg.dt, cfg.mirror, gens)
                _, trunc = em_batch(cfg.model, cfg.eps, cfg.sigma, cfg.t0,
                                    chunk[:, 0], cfg.dt, chunk[:, 1:], k0,
                                    trunc, chunk)
                scan(chunk, slice(k0, k0 + chunk.shape[1]), cols)
                chunk[:, 0] = chunk[:, -1]
                bad = idx[live[~np.isfinite(chunk[:, 0])]]
                if bad.size:
                    # only |x| > d freezes a path: a NaN state keeps
                    # stepping and stays NaN to the end
                    t = cfg.t0 + cfg.dt * (k0 + chunk.shape[1] - 1)
                    raise NonFiniteResult(
                        f"{bad.size} paths have a non-finite final state "
                        f"(path {bad[0]} is non-finite by t={t:g})")
                if done is None:
                    continue
                gone = done(cols)
                if not gone.any():
                    continue
                keep = ~gone
                for k, v in cols.items():
                    out[k][live[gone]] = v[gone]
                    cols[k] = v[keep]
                gens = (gens[keep] if isinstance(gens, np.ndarray)
                        else [g for g, on in zip(gens, keep) if on])
                trunc = trunc[keep]
                live = live[keep]
                ws[:len(live), 0] = chunk[keep, 0]
                if not live.size:
                    break
            for k, v in cols.items():
                out[k][live] = v
            x_end[live] = ws[:len(live), 0]
            return out, x_end

        spans = _batches(np.arange(cfg.n_paths), self.threads)
        if self.threads <= 1:
            parts = [work(span) for span in spans]
        else:
            # here, so that a one-thread run does not import
            # concurrent.futures and the logging it loads
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                parts = list(pool.map(work, spans))
        return ({k: np.concatenate([p[k] for p, _ in parts]) for k in columns},
                np.concatenate([x for _, x in parts]))


def _require_finite(values: np.ndarray, what: str) -> None:
    bad = int(np.sum(~np.isfinite(values)))
    if bad:
        raise NonFiniteResult(f"{bad} of {len(values)} paths have a "
                              f"non-finite {what}")


def _exceedance(config: EnsembleConfig, sups: np.ndarray, bound_at) -> list:
    """Per level h, the paths whose sup reaches h, out of all given sups."""
    _require_finite(sups, "sup deviation")
    return [{"h": h, **_prob_entry(int(np.sum(sups >= h)), len(sups),
                                   bound_at(h))}
            for h in config.h_list]


def _survival(config: EnsembleConfig, exit_times: np.ndarray,
              bound_at) -> list:
    """Per probe time t, the paths not exited before t (NaN: never)."""
    return [{"t": t, **_prob_entry(int(np.sum(~(exit_times < t))),
                                   config.n_paths, bound_at(t))}
            for t in config.t_probe_list]


def _quantiles(values: np.ndarray) -> dict:
    """Quantiles of the values that are not NaN (censored, or never
    exited); an infinite value is an error, not a result."""
    inf = int(np.sum(np.isinf(values)))
    if inf:
        raise NonFiniteResult(f"{inf} of {len(values)} paths have an "
                              "infinite value where a quantile is taken")
    kept = np.sort(values[~np.isnan(values)]).tolist()
    if not kept:
        return {}
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    return {f"q{int(100 * q):02d}": _linear_quantile(kept, q) for q in qs}


def _linear_quantile(ordered: list, q: float) -> float:
    """The q-quantile of the sorted floats ordered, bit for bit
    np.quantile(ordered, q) by its default "linear" method, with its
    operations in its order.  np.quantile itself would import numpy.ma
    (through a plain np.unique) inside the timed run."""
    v = (len(ordered) - 1) * q
    if v >= len(ordered) - 1:  # both neighbours are index -1, the last
        k, a, b = -1, ordered[-1], ordered[-1]
    else:
        k = math.floor(v)
        a, b = ordered[k], ordered[k + 1]
    g, diff = v - k, b - a
    return b - diff * (1 - g) if g >= 0.5 else a + diff * g


def _median(values: np.ndarray) -> float:
    """np.median of the (non-empty) values bit for bit: the middle value,
    or the mean (a + b) / 2 of the middle two, and NaN if any value is
    NaN; without the numpy.ma import that np.median makes."""
    ordered = np.sort(values).tolist()  # NaN sorts last
    half = len(ordered) // 2
    if math.isnan(ordered[-1]):
        return math.nan
    if len(ordered) % 2:
        return ordered[half]
    return (ordered[half - 1] + ordered[half]) / 2


# ---------------------------------------------------------------------------
# per-tag measurements: centre or region and envelope, scans, summary


def _run_stable(run: _Run) -> tuple:
    cfg = run.config
    xdet = solve_det(cfg.model, cfg.eps, cfg.t0, run.x0, cfg.t_end, cfg.dt,
                     method="euler")
    table = env.zeta_stable(cfg.model, cfg.eps, run.grid, xdet)
    sqrtz = table.sqrt_zeta()
    sups = run.scan(lambda X, nodes, cols: cols.sup(
        "sup_deviation",
        sup_deviation_batch(X, xdet.x_values[nodes], sqrtz[nodes])),
        {"sup_deviation": -np.inf})[0]["sup_deviation"]
    series = _exceedance(cfg, sups, lambda h: env.bound_stable(
        cfg.model, cfg.t_end, cfg.eps, cfg.sigma, h, t_start=cfg.t0))
    return {"exceedance": series,
            "zeta_residual": table.ode_residual(),
            "sup_deviation_quantiles": _quantiles(sups)}, {"sup_deviation": sups}


def _run_unstable(run: _Run) -> tuple:
    cfg, grid = run.config, run.grid
    xhat = adiabatic_solution(cfg.model, cfg.eps, grid)
    abar = np.asarray(cfg.model.drift_dx(xhat.x_values, grid), dtype=float)
    h = cfg.h_list[0] if cfg.h_list else cfg.sigma / 2.0
    widths = h / np.sqrt(2.0 * abar)
    # a path retires in the chunk of its exit, the one value it reports,
    # so every row a chunk scans is still inside
    exit_times = run.scan(lambda X, nodes, cols: cols.first(
        "exit_time", delay_times_batch(X - xhat.x_values[nodes], grid[nodes],
                                       widths[nodes])),
        {"exit_time": np.nan},
        done=lambda cols: cols.recorded("exit_time"))[0]["exit_time"]
    series = _survival(cfg, exit_times, lambda t: env.bound_unstable(
        cfg.model, t, cfg.eps, cfg.sigma, h, t_start=cfg.t0))
    return ({"survival": series, "h": h,
             "censored_fraction": float(np.mean(np.isnan(exit_times)))},
            {"exit_time": exit_times})


def _run_before(run: _Run) -> tuple:
    cfg = run.config
    n_cols = int(np.searchsorted(run.grid, math.sqrt(cfg.eps) + 1e-12))
    sub_grid = run.grid[:n_cols]
    table = env.zeta_pitchfork(cfg.model, cfg.eps, sub_grid)
    sqrtz = table.sqrt_zeta()
    centre = run.x0 * np.exp(env.alpha(cfg.model, sub_grid, cfg.t0) / cfg.eps)

    # the paths are stepped no further than the last node at sqrt(eps)
    cols, x_end = run.scan(lambda X, nodes, cols: cols.sup(
        "sup_deviation", sup_deviation_batch(X, centre[nodes], sqrtz[nodes])),
        {"sup_deviation": -np.inf}, last=n_cols - 1)
    cols["x_at_sqrt_eps"] = x_end
    series = _exceedance(cfg, cols["sup_deviation"],
                         lambda h: env.bound_before(
                             cfg.model, float(sub_grid[-1]), cfg.eps,
                             cfg.sigma, h, cfg.t0))
    pred = cfg.sigma * math.sqrt(float(table.zeta_values[-1]))
    emp = float(np.std(cols["x_at_sqrt_eps"], ddof=1))
    return ({"exceedance": series,
             "zeta_residual": table.ode_residual(),
             "spread_at_sqrt_eps": {"t": float(sub_grid[-1]),
                                    "empirical_std": emp,
                                    "sigma_sqrt_zeta": pred,
                                    "ratio": emp / pred}},
            cols)


def _region_D(run: _Run):
    cfg = run.config
    return env.region_D(cfg.model, cfg.eps,
                        t_hi=min(cfg.t_end, cfg.model.t_max))


def _first_exit_D(X, t, cols: _Columns, regD) -> tuple:
    """Scan a chunk on the nodes t for the first exits from D of the rows
    without one yet, and keep them in the columns tau_D and exit_side;
    returns the chunk's new exit times and sides."""
    tau_d, side = first_exit_batch(X, t, regD, cols.recorded("tau_D"))
    cols.first("tau_D", tau_d, exit_side=side)
    return tau_d, side


def _exit_columns(run: _Run) -> dict:
    """Shared scans of escape/delay/branch: first exit from D with its
    side, exit time from the delay strip, and the endpoint.  A scan skips
    the rows whose exit it has already kept."""
    cfg = run.config
    regD = _region_D(run)
    width = float(branches(cfg.model).x_tilde(math.sqrt(cfg.eps)))

    def scan(X, nodes, cols):
        t = run.times(nodes)
        _first_exit_D(X, t, cols, regD)
        cols.first("tau_delay", delay_times_batch(
            X, t, width, cols.recorded("tau_delay")))

    cols, x_end = run.scan(scan, {"tau_D": np.nan, "exit_side": 0,
                                  "tau_delay": np.nan})
    cols["x_final"] = x_end
    return cols


def _branch_stats(x_final: np.ndarray) -> dict:
    _require_finite(x_final, "final state")
    pos = int(np.sum(x_final > 0))
    neg = int(np.sum(x_final < 0))
    zero = int(len(x_final) - pos - neg)
    entry = _prob_entry(pos, pos + neg) if pos + neg else {}
    return {"n_positive": pos, "n_negative": neg, "n_zero": zero, **entry}


def _escape_series(config: EnsembleConfig, tau_d: np.ndarray) -> list:
    t0_eff = max(config.t0, math.sqrt(config.eps))
    return _survival(config, tau_d, lambda t: env.bound_escape(
        config.model, t, t0_eff, config.eps, config.sigma,
        C0=config.bound_c0, eta=config.eta))


def _run_escape(run: _Run) -> tuple:
    cols = _exit_columns(run)
    tau_d = cols["tau_D"]
    return ({"survival": _escape_series(run.config, tau_d),
             "exit_time_quantiles": _quantiles(tau_d),
             "censored_fraction": float(np.mean(np.isnan(tau_d)))}, cols)


def _run_delay(run: _Run) -> tuple:
    cfg = run.config
    cols = _exit_columns(run)
    tau_delay = cols["tau_delay"]
    t_low, t_high = env.delay_interval(cfg.eps, cfg.sigma, cfg.model,
                                       eta=cfg.eta)
    finite = tau_delay[np.isfinite(tau_delay)]
    censored = 1.0 - finite.size / cfg.n_paths
    if finite.size:
        edges = np.linspace(cfg.t0, cfg.t_end, 81)
        counts, _ = np.histogram(finite, bins=edges)
        hist = {"edges": edges.tolist(), "counts": counts.tolist()}
    else:
        hist = {"edges": [], "counts": []}
    frac_early = float(np.mean(np.where(np.isfinite(tau_delay),
                                        tau_delay < t_low, False)))
    late = np.where(np.isfinite(tau_delay), tau_delay > t_high, True)
    return ({
        "delay_interval": {"t_low": t_low, "t_high": t_high},
        "histogram": hist,
        "censored_fraction": censored,
        "frac_below_t_low": frac_early,
        "frac_above_t_high": float(np.mean(late)),
        "delay_quantiles": _quantiles(tau_delay),
        "survival": _escape_series(cfg, cols["tau_D"]),
        "branch": _branch_stats(cols["x_final"]),
    }, cols)


def _run_branch(run: _Run) -> tuple:
    cols = _exit_columns(run)
    return ({"branch": _branch_stats(cols["x_final"]),
             "t": float(run.times(slice(-1, None))[0])}, cols)


def _run_approach(run: _Run) -> tuple:
    """One pass: a path is selected in the chunk where it leaves D, inside
    tau_window with a side.  There its post-exit centreline starts, one row
    per distinct exit node of the batch, and from there the rows and their
    zeta are stepped chunk by chunk beside the paths, each selected path's
    sup deviation taken against its row from its exit node on.  A path
    that leaves D unselected retires at the end of that chunk: its tau_D
    is all it reports, so it is not drawn, stepped or scanned further."""
    cfg, grid = run.config, run.grid
    regD = _region_D(run)
    lo_w, hi_w = cfg.tau_window

    def scan(X, nodes, cols):
        tau_d, side = _first_exit_D(X, grid[nodes], cols, regD)
        picked = np.isfinite(tau_d) & (tau_d >= lo_w) & (tau_d <= hi_w) \
            & (side != 0)
        family = cols.carry
        if picked.any():
            if family is None:
                family = cols.carry = env.PostExitFamily(
                    cfg.model, cfg.eps, grid)
            k = np.rint((tau_d[picked] - grid[0])
                        / (grid[1] - grid[0])).astype(np.intp)
            starts, row = np.unique(k, return_inverse=True)
            cols["row"][picked] = len(family.start) + row
            family.add(starts)
        if family is None:
            return
        xhat, zeta = family.step(nodes)
        on = np.nonzero(cols["row"] >= 0)[0]
        j = cols["row"][on]
        sqrtz = np.sqrt(zeta[j])
        sgn = cols["exit_side"][on].astype(float)
        started = np.arange(nodes.start, nodes.stop) >= family.start[j, None]
        cols.sup("sup_deviation", sup_deviation_batch(
            sgn[:, None] * X[on], xhat[j], sqrtz, started), on)
        if nodes.stop == len(grid):
            cols["xhat_end"][on] = xhat[j, -1]
            cols["sqrtz_end"][on] = sqrtz[:, -1]

    cols, x_end = run.scan(scan, {
        "tau_D": np.nan, "exit_side": 0, "row": -1,
        "sup_deviation": -np.inf, "xhat_end": np.nan, "sqrtz_end": np.nan},
        done=lambda cols: cols.recorded("tau_D") & (cols["row"] < 0))
    tau_d, side_d = cols["tau_D"], cols["exit_side"]
    paths = np.nonzero(cols["row"] >= 0)[0]
    n_sel = len(paths)
    results: dict = {"n_selected": n_sel,
                     "selection_fraction": n_sel / cfg.n_paths,
                     "tau_window": list(cfg.tau_window)}
    if n_sel == 0:
        return results, {"tau_D": tau_d}

    sups = np.full(cfg.n_paths, np.nan)
    sups[paths] = cols["sup_deviation"][paths]
    series = _exceedance(cfg, sups[paths],
                         lambda h: env.bound_approach(
                             cfg.model, cfg.t_end, cfg.eps, cfg.sigma, h,
                             tau=float(lo_w)))
    devs = side_d[paths].astype(float) * x_end[paths] \
        - cols["xhat_end"][paths]
    # the median over the distinct exit nodes of the whole run
    _, distinct = np.unique(tau_d[paths], return_index=True)
    pred = cfg.sigma * _median(cols["sqrtz_end"][paths][distinct])
    emp = float(np.std(devs, ddof=1)) if devs.size > 1 else math.nan
    results.update({
        "exceedance": series,
        "spread_at_end": {"t": float(grid[-1]), "empirical_std": emp,
                          "sigma_sqrt_zeta": pred,
                          "ratio": emp / pred if pred else math.nan},
        "sup_deviation_quantiles": _quantiles(sups[paths]),
    })
    return results, {"tau_D": tau_d, "sup_deviation": sups}


_RUNNERS = {
    "stable": _run_stable,
    "unstable": _run_unstable,
    "before": _run_before,
    "escape": _run_escape,
    "delay": _run_delay,
    "branch": _run_branch,
    "approach": _run_approach,
}


def run_ensemble(config: EnsembleConfig, threads: int = 1) -> EnsembleReport:
    """Simulate the configured ensemble and assemble its report.

    The report payload is a pure function of the config; reruns with any
    thread count produce identical bytes.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    start = time.perf_counter()
    run = _Run(config, n_steps_for(config.t0, config.t_end, config.dt),
               _resolve_x0(config), threads)
    results, per_path = _RUNNERS[config.tag](run)
    return EnsembleReport(
        config=config.to_dict(), config_hash=config_hash(config),
        tag=config.tag, results=results,
        runtime_seconds=time.perf_counter() - start, per_path=per_path)

