"""Ensemble runner: parallel path generation, exit/delay/branch statistics
with Wilson intervals, and empirical-versus-theoretical bound comparisons.

Paths are keyed by index, so reports are byte-identical for any thread
count; aggregation uses only index-ordered writes and commutative merges.
Runtime is kept out of the serialized payload for the same reason.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import envelope as env
from .deterministic import adiabatic_solution, post_exit_family, solve_det
from .errors import NonFiniteResult, RegimeViolation, ResourceLimit
from .exits import delay_times_batch, first_exit_batch, sup_deviation_batch
from .model import ModelSpec, branches
from .noise import fill_increments, path_generators
from .sde import em_batch, n_steps_for, time_grid

__all__ = [
    "EnsembleConfig", "EnsembleReport", "BoundComparison",
    "run_ensemble", "estimate_prob", "compare_bound", "exceedance_curve",
    "serialize_json",
]

PITCHFORK_TAGS = ("before", "escape", "approach", "delay", "branch")
ALL_TAGS = ("stable", "unstable") + PITCHFORK_TAGS

MAX_TOTAL_STEPS = 2_000_000_000
# time steps per streamed chunk: a batch holds O(batch size x CHUNK_STEPS)
# floats however long its paths are
CHUNK_STEPS = 1024


@dataclass(frozen=True)
class EnsembleConfig:
    """Everything that determines an ensemble; the report is a pure function
    of this object (thread count is a run option, not part of it)."""

    model: ModelSpec
    eps: float
    sigma: float
    t0: float
    x0: object  # float or the start rule "x_tilde"
    t_end: float
    dt: float
    n_paths: int
    master_seed: int
    tag: str
    h_list: tuple = ()
    t_probe_list: tuple = ()
    eta: Optional[float] = None
    mirror: bool = False
    tau_window: tuple = (0.15, 0.25)
    bound_c0: float = 1.0
    max_total_steps: int = MAX_TOTAL_STEPS

    def __post_init__(self):
        if self.tag not in ALL_TAGS:
            raise ValueError(f"unknown experiment tag {self.tag!r}")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.dt > self.eps / 10.0 * (1.0 + 1e-12):
            raise ValueError(f"dt={self.dt:g} exceeds eps/10")
        if self.tag in PITCHFORK_TAGS:
            if self.model.kind != "pitchfork":
                raise RegimeViolation(f"tag {self.tag!r} needs a pitchfork model")
            if self.sigma >= math.sqrt(self.eps):
                raise RegimeViolation(
                    f"sigma={self.sigma:g} >= sqrt(eps)={math.sqrt(self.eps):.4g}; "
                    "pitchfork experiments need sigma well below sqrt(eps)")
        if self.tag == "stable" and self.model.kind != "stable-branch":
            raise RegimeViolation("tag 'stable' needs a stable-branch model")
        if self.tag == "unstable" and self.model.kind != "unstable-branch":
            raise RegimeViolation("tag 'unstable' needs an unstable-branch model")
        with np.errstate(invalid="ignore"):
            x0 = _resolve_x0(self)
        if not math.isfinite(x0):
            raise ValueError(f"x0={self.x0!r} resolves to {x0!r} at "
                             f"t0={self.t0:g}; the start value must be finite")
        n_steps = n_steps_for(self.t0, self.t_end, self.dt)
        if self.n_paths * n_steps > self.max_total_steps:
            raise ResourceLimit(
                f"{self.n_paths} paths x {n_steps} steps exceeds the budget "
                f"of {self.max_total_steps} total steps")

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "dynamics": {"eps": self.eps, "sigma": self.sigma, "t0": self.t0,
                         "x0": self.x0, "t_end": self.t_end, "dt": self.dt},
            "ensemble": {"n_paths": self.n_paths,
                         "master_seed": self.master_seed,
                         "mirror": self.mirror},
            "experiment": {"tag": self.tag, "h_list": list(self.h_list),
                           "t_probe_list": list(self.t_probe_list),
                           "eta": self.eta, "tau_window": list(self.tau_window),
                           "bound_c0": self.bound_c0},
        }


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


def compare_bound(empirical: tuple, bound_eval) -> BoundComparison:
    """empirical = (p_hat, ci_low, ci_high); violated iff ci_low > bound."""
    _, ci_low, _ = empirical
    bound = bound_eval.bound if hasattr(bound_eval, "bound") else float(bound_eval)
    leading = getattr(bound_eval, "leading_order", True)
    verdict = "consistent" if ci_low <= bound else "violated"
    return BoundComparison(verdict, bound - ci_low, leading)


def _prob_entry(successes: int, n: int, bound_eval=None) -> dict:
    p, lo, hi = estimate_prob(successes, n)
    entry = {"successes": int(successes), "n": int(n), "p_hat": p,
             "ci_low": lo, "ci_high": hi}
    if bound_eval is not None:
        entry["bound"] = bound_eval.to_dict() if hasattr(bound_eval, "to_dict") \
            else float(bound_eval)
        entry["comparison"] = compare_bound((p, lo, hi), bound_eval).to_dict()
    return entry


# ---------------------------------------------------------------------------
# batched simulation and per-path scans


def _batch_size(n_steps: int) -> int:
    return max(16, min(4096, (1 << 24) // max(1, n_steps)))


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
    """Per-path columns of one batch, merged over its time chunks."""

    def first(self, key: str, times: np.ndarray, **same_chunk) -> None:
        """Keep each row's first non-NaN time, with the same_chunk values
        of the chunk that gave it."""
        new = np.isnan(self[key]) & ~np.isnan(times)
        self[key][new] = times[new]
        for k, v in same_chunk.items():
            self[k][new] = v[new]

    def sup(self, key: str, values: np.ndarray) -> None:
        """Running maximum; a NaN stays, as in one max over the whole row."""
        np.maximum(self[key], values, out=self[key])


@dataclass(frozen=True)
class _Run:
    """One ensemble run: its config, grid, start value and thread count."""

    config: EnsembleConfig
    grid: np.ndarray
    x0: float
    threads: int

    def scan(self, scan, columns: dict, paths=None,
             last: Optional[int] = None) -> dict:
        """Simulate the given path indices (all by default) in batches up to
        grid node last (the end of the grid by default) and return the
        per-path columns in path order.

        Each batch streams through time chunks of CHUNK_STEPS steps.
        columns maps each column name to its start value.  For every chunk,
        scan(X, nodes, idx, cols) gets the paths X (B, n+1) of the batch's
        path indices idx on the grid nodes of the slice nodes, whose first
        node closes the previous chunk, and merges what it finds into the
        batch's _Columns cols.  A path whose state turns non-finite raises
        NonFiniteResult at the end of that chunk.
        """
        cfg = self.config
        n_steps = len(self.grid) - 1 if last is None else last
        if paths is None:
            paths = np.arange(cfg.n_paths)
        b = _batch_size(n_steps)

        def work(idx):
            gens = path_generators(cfg.master_seed, idx)
            dw = np.empty((len(idx), min(CHUNK_STEPS, n_steps)))
            cols = _Columns({k: np.full(len(idx), v)
                             for k, v in columns.items()})
            x, trunc = self.x0, None
            for k0 in range(0, n_steps, CHUNK_STEPS):
                inc = dw[:, :min(CHUNK_STEPS, n_steps - k0)]
                fill_increments(inc, cfg.master_seed, idx, cfg.dt, cfg.mirror,
                                gens)
                X, trunc = em_batch(cfg.model, cfg.eps, cfg.sigma, cfg.t0, x,
                                    cfg.dt, inc, k0, trunc)
                scan(X, slice(k0, k0 + X.shape[1]), idx, cols)
                x = X[:, -1].copy()
                del X  # free the chunk before the next one is stepped
                bad = idx[~np.isfinite(x)]
                if bad.size:
                    # only |x| > d freezes a path: a NaN state keeps
                    # stepping and stays NaN to the end
                    raise NonFiniteResult(
                        f"{bad.size} paths have a non-finite final state "
                        f"(path {bad[0]} is non-finite by "
                        f"t={self.grid[k0 + inc.shape[1]]:g})")
            return cols

        spans = [paths[lo:lo + b] for lo in range(0, len(paths), b)]
        if self.threads <= 1:
            parts = [work(span) for span in spans]
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                parts = list(pool.map(work, spans))
        return {k: np.concatenate([p[k] for p in parts]) for k in columns}


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
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return {}
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    return {f"q{int(100 * q):02d}": float(np.quantile(finite, q)) for q in qs}


# ---------------------------------------------------------------------------
# per-tag measurements: centre or region and envelope, scans, summary


def _run_stable(run: _Run) -> tuple:
    cfg = run.config
    xdet = solve_det(cfg.model, cfg.eps, cfg.t0, run.x0, cfg.t_end, cfg.dt,
                     method="euler")
    table = env.zeta_stable(cfg.model, cfg.eps, run.grid, xdet)
    sqrtz = table.sqrt_zeta()
    sups = run.scan(lambda X, nodes, idx, cols: cols.sup(
        "sup_deviation",
        sup_deviation_batch(X, xdet.x_values[nodes], sqrtz[nodes])),
        {"sup_deviation": -np.inf})["sup_deviation"]
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
    exit_times = run.scan(lambda X, nodes, idx, cols: cols.first(
        "exit_time", delay_times_batch(X - xhat.x_values[nodes], grid[nodes],
                                       widths[nodes])),
        {"exit_time": np.nan})["exit_time"]
    series = _survival(cfg, exit_times, lambda t: env.bound_unstable(
        t, cfg.eps, cfg.sigma, h, model=cfg.model, t_start=cfg.t0))
    return ({"survival": series, "h": h,
             "censored_fraction": float(np.mean(np.isnan(exit_times)))},
            {"exit_time": exit_times})


def _run_before(run: _Run) -> tuple:
    cfg = run.config
    n_cols = int(np.searchsorted(run.grid, math.sqrt(cfg.eps) + 1e-12))
    sub_grid = run.grid[:n_cols]
    table = env.zeta_pitchfork(cfg.model, cfg.eps, cfg.t0, sub_grid)
    sqrtz = table.sqrt_zeta()
    centre = run.x0 * np.exp(
        np.array([env.alpha(cfg.model, t, cfg.t0) for t in sub_grid])
        / cfg.eps)

    def scan(X, nodes, idx, cols):
        cols.sup("sup_deviation",
                 sup_deviation_batch(X, centre[nodes], sqrtz[nodes]))
        if nodes.stop == n_cols:
            cols["x_at_sqrt_eps"][:] = X[:, -1]

    # the paths are stepped no further than the last node at sqrt(eps)
    cols = run.scan(scan, {"sup_deviation": -np.inf, "x_at_sqrt_eps": np.nan},
                    last=n_cols - 1)
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


def _exit_columns(run: _Run) -> dict:
    """Shared scans of escape/delay/branch/approach: first exit from D with
    its side, exit time from the delay strip, and the endpoint."""
    cfg, grid = run.config, run.grid
    curves = branches(cfg.model)
    regD = env.region_D(cfg.model, cfg.eps, curves,
                        t_hi=min(cfg.t_end, cfg.model.t_max))
    width = float(curves.x_tilde(math.sqrt(cfg.eps)))

    def scan(X, nodes, idx, cols):
        tau_d, side = first_exit_batch(X, grid[nodes], regD)
        cols.first("tau_D", tau_d, exit_side=side)
        cols.first("tau_delay", delay_times_batch(X, grid[nodes], width))
        if nodes.stop == len(grid):
            cols["x_final"][:] = X[:, -1]

    return run.scan(scan, {"tau_D": np.nan, "exit_side": 0,
                           "tau_delay": np.nan, "x_final": np.nan})


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
             "t": float(run.grid[-1])}, cols)


def _run_approach(run: _Run) -> tuple:
    cfg, grid = run.config, run.grid
    cols = _exit_columns(run)
    tau_d, side_d = cols["tau_D"], cols["exit_side"]
    lo_w, hi_w = cfg.tau_window
    selected = np.isfinite(tau_d) & (tau_d >= lo_w) & (tau_d <= hi_w) \
        & (side_d != 0)
    n_sel = int(np.sum(selected))
    results: dict = {"n_selected": n_sel,
                     "selection_fraction": n_sel / cfg.n_paths,
                     "tau_window": list(cfg.tau_window)}
    if n_sel == 0:
        return results, {"tau_D": tau_d}

    # paths are keyed by index, so re-simulating the selected ones
    # reproduces their first-pass rows exactly
    paths = np.nonzero(selected)[0]
    taus, family = np.unique(tau_d[paths], return_inverse=True)
    xhat, start_col = post_exit_family(cfg.model, cfg.eps, taus, grid,
                                       branches(cfg.model))
    abar = np.asarray(cfg.model.drift_dx(xhat, grid), dtype=float)
    sqrtz = np.sqrt(env.zeta_along(cfg.model, cfg.eps, grid, xhat, abar,
                                   substeps=4))

    def scan(X, nodes, idx, cols):
        j = family[np.searchsorted(paths, idx)]
        sgn = side_d[idx].astype(float)
        sups = np.full(len(idx), -np.inf)
        for r, (s, i) in enumerate(zip(sgn, j)):
            if start_col[i] < nodes.stop:
                sups[r] = sup_deviation_batch(
                    s * X[r:r + 1], xhat[i, nodes], sqrtz[i, nodes],
                    slice(max(start_col[i] - nodes.start, 0), None))[0]
        cols.sup("sup_deviation", sups)
        if nodes.stop == len(grid):
            cols["final_dev"][:] = sgn * X[:, -1] - xhat[j, -1]

    post = run.scan(scan, {"sup_deviation": -np.inf, "final_dev": np.nan},
                    paths)
    sups = np.full(cfg.n_paths, np.nan)
    sups[paths] = post["sup_deviation"]
    series = _exceedance(cfg, post["sup_deviation"],
                         lambda h: env.bound_approach(
                             cfg.model, cfg.t_end, cfg.eps, cfg.sigma, h,
                             tau=float(lo_w)))
    devs = post["final_dev"]
    pred = cfg.sigma * float(np.median(sqrtz[:, -1]))
    emp = float(np.std(devs, ddof=1)) if devs.size > 1 else math.nan
    results.update({
        "exceedance": series,
        "spread_at_end": {"t": float(grid[-1]), "empirical_std": emp,
                          "sigma_sqrt_zeta": pred,
                          "ratio": emp / pred if pred else math.nan},
        "sup_deviation_quantiles": _quantiles(post["sup_deviation"]),
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
    start = time.perf_counter()
    grid = time_grid(config.t0, config.dt,
                     n_steps_for(config.t0, config.t_end, config.dt))
    run = _Run(config, grid, _resolve_x0(config), threads)
    results, per_path = _RUNNERS[config.tag](run)
    return EnsembleReport(
        config=config.to_dict(), config_hash=config_hash(config),
        tag=config.tag, results=results,
        runtime_seconds=time.perf_counter() - start, per_path=per_path)


def exceedance_curve(config: EnsembleConfig, h_list=None,
                     threads: int = 1) -> list:
    """Per-h exceedance rows (h, p_hat, ci, bound) for the sup-deviation tags."""
    if config.tag not in ("stable", "before", "approach"):
        raise ValueError("exceedance_curve applies to stable/before/approach")
    if h_list is not None:
        config = dataclasses.replace(config, h_list=tuple(h_list))
    report = run_ensemble(config, threads=threads)
    return report.results["exceedance"]
