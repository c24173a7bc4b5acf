"""Output checks that do not rest on the program's own code.

Each check takes the config document, the output directory of one run and,
where it compares two runs, a reference output directory; it returns a list
of failure messages (empty when the outputs pass).  The references are
closed forms, symmetries of the method and a plain scalar Euler-Maruyama
loop written here, never a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

# A re-simulated path uses t*x - x**3 where the program evaluates the
# polynomial by Horner's rule, so the two differ by rounding only.  Near the
# bifurcation that rounding is amplified at most ~exp(t_exit^2 / 2 eps)
# (~1e4 here) before the stable branch contracts it again.
X_FINAL_TOL = 1e-9        # absolute, on x_final
TAU_TOL_STEPS = 1         # exit and delay times: within one grid step
DELAY_SHARE_MIN = 0.95    # share of delays inside [sqrt(eps), t_high]
BRANCH_SE = 3.0           # binomial standard errors allowed from 1/2
SPREAD_RANGE = (0.5, 2.0)  # approach: empirical std / sigma sqrt(zeta)
SELF_SUM_TOL = 0.01       # traced: layer self times vs run_ensemble wall


def read_report(outdir) -> dict:
    with open(Path(outdir) / "report.json") as fh:
        return json.load(fh)


def read_summary(outdir) -> dict:
    """paths_summary.csv as column -> list of floats (NaN for blanks)."""
    with open(Path(outdir) / "paths_summary.csv") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    return {key: [float(r[i]) if r[i] != "" else math.nan for r in body]
            for i, key in enumerate(header)}


def _params(doc: dict) -> tuple:
    dyn = doc["dynamics"]
    return (dyn["eps"], dyn["sigma"], dyn["t0"], float(dyn["x0"]),
            dyn["t_end"], dyn["dt"])


def scalar_path(doc: dict, index: int) -> dict:
    """Re-simulate one path with a plain scalar Euler-Maruyama loop.

    The increments are the documented stream: Philox keyed
    [master_seed, path_index], standard normals times sqrt(dt).
    """
    eps, sigma, t0, x, t_end, dt = _params(doc)
    lam = doc["model"]["lambda"]
    d = doc["model"].get("d", 1.0)
    t_max = doc["model"].get("T", 1.0)
    n = round((t_end - t0) / dt)
    key = np.array([doc["ensemble"]["master_seed"], index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    dw = (gen.standard_normal(n) * math.sqrt(dt)).tolist()
    a, b = dt / eps, sigma / math.sqrt(eps)
    sq_eps = math.sqrt(eps)
    sqrt_lam = math.sqrt(lam)
    width = sqrt_lam * math.sqrt(sq_eps)      # x_tilde(sqrt(eps))
    t_hi = min(t_end, t_max)
    tau_delay = tau_d = math.nan
    side = 0
    for k in range(n):
        t = t0 + dt * k
        x_new = x + a * (t * x - x * x * x) + b * dw[k]
        if abs(x_new) > d:
            break                               # frozen at the last value
        x = x_new
        t = t0 + dt * (k + 1)
        if math.isnan(tau_delay) and abs(x) >= width:
            tau_delay = t
        if (math.isnan(tau_d) and sq_eps - 1e-9 <= t <= t_hi + 1e-9
                and abs(x) >= sqrt_lam * math.sqrt(t)):
            tau_d, side = t, (1 if x > 0 else -1)
    return {"x_final": x, "tau_delay": tau_delay, "tau_D": tau_d,
            "exit_side": side}


def _same_time(a: float, b: float, dt: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TAU_TOL_STEPS * dt * (1 + 1e-9)


def rescan_indices(doc: dict, summary: dict, seed: int) -> list:
    """A few path indices, drawn from the workload seed.

    On the approach tag they are paths the run selected (finite sup
    deviation), since only those carry its post-exit statistics.
    """
    n = doc["ensemble"]["n_paths"]
    rng = random.Random(seed)
    if doc["experiment"]["tag"] == "approach":
        chosen = [i for i, v in enumerate(summary["sup_deviation"])
                  if not math.isnan(v)]
        return sorted(rng.sample(chosen, min(3, len(chosen))) + [0])
    return sorted({0, n - 1, *rng.sample(range(1, n - 1), 2)})


def check_rescan(doc, outdir, seed, ref=None) -> list:
    summary = read_summary(outdir)
    dt = doc["dynamics"]["dt"]
    fails = []
    for i in rescan_indices(doc, summary, seed):
        want = scalar_path(doc, i)
        if "x_final" in summary:
            got = summary["x_final"][i]
            if not abs(got - want["x_final"]) <= X_FINAL_TOL:
                fails.append(f"path {i}: x_final {got!r} != scalar EM "
                             f"{want['x_final']!r}")
        for key in ("tau_delay", "tau_D"):
            if key in summary and not _same_time(summary[key][i], want[key], dt):
                fails.append(f"path {i}: {key} {summary[key][i]!r} != "
                             f"scalar EM {want[key]!r}")
        if "exit_side" in summary and summary["exit_side"][i] != want["exit_side"]:
            fails.append(f"path {i}: exit_side {summary['exit_side'][i]!r} "
                         f"!= scalar EM {want['exit_side']!r}")
    return fails


def t_high(doc: dict) -> float:
    """sqrt(eps + 4 eps |log sigma| / kappa), kappa = (1-lambda)(1-eta).

    Closed form of alpha(t, sqrt(eps)) = (2/kappa) eps |log sigma| for the
    standard model, where alpha(t, s) = (t^2 - s^2) / 2.
    """
    eps, sigma = doc["dynamics"]["eps"], doc["dynamics"]["sigma"]
    kappa = (1 - doc["model"]["lambda"]) * (1 - doc["experiment"]["eta"])
    return math.sqrt(eps + 4 * eps * abs(math.log(sigma)) / kappa)


def check_delay_window(doc, outdir, seed, ref=None) -> list:
    lo, hi = math.sqrt(doc["dynamics"]["eps"]), t_high(doc)
    taus = read_summary(outdir)["tau_delay"]
    inside = sum(1 for t in taus if lo <= t <= hi)   # NaN counts as outside
    share = inside / len(taus)
    fails = []
    if share < DELAY_SHARE_MIN:
        fails.append(f"only {share:.3f} of delays in [{lo:.6g}, {hi:.6g}]")
    reported = read_report(outdir)["results"]["delay_interval"]["t_high"]
    if not math.isclose(reported, hi, rel_tol=1e-9):
        fails.append(f"report t_high {reported!r} != closed form {hi!r}")
    return fails


def check_branch_symmetry(doc, outdir, seed, ref=None) -> list:
    branch = read_report(outdir)["results"]["branch"]
    x_final = read_summary(outdir)["x_final"]
    pos = sum(1 for x in x_final if x > 0)
    neg = sum(1 for x in x_final if x < 0)
    fails = []
    if (branch["n_positive"], branch["n_negative"]) != (pos, neg):
        fails.append(f"report branch counts {branch['n_positive']}/"
                     f"{branch['n_negative']} != signs of x_final {pos}/{neg}")
    n = pos + neg
    if n != len(x_final):
        fails.append(f"{len(x_final) - n} paths ended on neither branch")
    if n == 0 or abs(pos - n / 2) > BRANCH_SE * math.sqrt(n) / 2:
        fails.append(f"{pos} of {n} paths on the positive branch: more than "
                     f"{BRANCH_SE:g} SE from 1/2")
    return fails


def check_stable_branch(doc, outdir, seed, ref=None) -> list:
    """|x_final| near sqrt(t_end), within ten times the slow-manifold lag
    eps / (4 t^{3/2}) plus ten noise scales sigma."""
    eps, sigma = doc["dynamics"]["eps"], doc["dynamics"]["sigma"]
    t = doc["dynamics"]["t_end"]
    tol = 10 * eps / (4 * t ** 1.5) + 10 * sigma
    far = [(i, x) for i, x in enumerate(read_summary(outdir)["x_final"])
           if not abs(abs(x) - math.sqrt(t)) <= tol]
    return [f"{len(far)} paths end farther than {tol:.3g} from the stable "
            f"branch, e.g. path {far[0][0]} at {far[0][1]!r}"] if far else []


def check_approach(doc, outdir, seed, ref=None) -> list:
    res = read_report(outdir)["results"]
    sups = read_summary(outdir)["sup_deviation"]
    fails = []
    n_sel = res["n_selected"]
    if n_sel <= 0:
        return ["no path exited D inside the tau window"]
    if n_sel != sum(1 for v in sups if not math.isnan(v)):
        fails.append(f"n_selected {n_sel} != paths with a sup deviation")
    ratio = res["spread_at_end"]["ratio"]
    if not SPREAD_RANGE[0] <= ratio <= SPREAD_RANGE[1]:
        fails.append(f"spread ratio {ratio!r} outside {SPREAD_RANGE}")
    for row in res["exceedance"]:
        bound = row["bound"]["bound"]
        if not row["p_hat"] <= bound:
            fails.append(f"h={row['h']!r}: exceedance {row['p_hat']!r} "
                         f"above its bound {bound!r}")
        exceed = sum(1 for v in sups if v >= row["h"])
        if exceed != row["successes"]:
            fails.append(f"h={row['h']!r}: {row['successes']} exceedances "
                         f"reported, {exceed} in paths_summary.csv")
    return fails


def check_same_bytes(doc, outdir, seed, ref=None) -> list:
    return [f"{name} differs between {Path(outdir).parent.name} and "
            f"{Path(ref).parent.name}"
            for name in ("report.json", "paths_summary.csv")
            if (Path(outdir) / name).read_bytes()
            != (Path(ref) / name).read_bytes()]


def check_self_sum(row: dict) -> list:
    """Traced single-thread run: the self times of run_ensemble and every
    span below it add up to its wall time, so no layer time is lost or
    counted twice."""
    gap = abs(row["_run_self_sum_s"] - row["_run_wall_s"])
    if gap > SELF_SUM_TOL * row["_run_wall_s"]:
        return [f"layer self times sum to {row['_run_self_sum_s']:.4f} s, "
                f"run_ensemble took {row['_run_wall_s']:.4f} s"]
    return []


CHECKS = {
    "rescan": check_rescan,
    "delay_window": check_delay_window,
    "branch_symmetry": check_branch_symmetry,
    "stable_branch": check_stable_branch,
    "approach": check_approach,
    "same_bytes": check_same_bytes,
}
