"""Acceptance suite.

One test per criterion, each printing a [PASS]/[FAIL] line.  Every tolerance
is pinned here, none are calibrated at runtime.  Master seeds are fixed so
the whole suite is deterministic.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.stats import kstest, norm

from slowsde import (adiabatic_solution, bifurcation_delay, branches,
                     bound_stable, det_after_exit, model_from_coeffs,
                     return_to_zero_bound, simulate, solve_det,
                     standard_pitchfork, zeta_pitchfork, zeta_post_exit,
                     zeta_stable)
from slowsde.montecarlo import EnsembleConfig, estimate_prob, run_ensemble
from slowsde.noise import NoiseStream, fill_increments
from slowsde.sde import em_batch, linear_batch, n_steps_for, time_grid

OU_SEED = 51
DELAY_SEED = 12
APPROACH_SEED = 12
UNSTABLE_SEED = 6
BEFORE_SEED = 8
COUPLED_SEED = 31
RETURN_SEED = 14


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    print(f"[PASS] criterion {num}: {name}")


def em_variance(rate, eps, sigma, dt, n_steps):
    """Exact variance of the Euler-Maruyama recursion for f = rate * x from
    x = 0: v' = (1 + rate dt/eps)^2 v + sigma^2 dt/eps."""
    v = np.zeros(n_steps + 1)
    for k in range(n_steps):
        v[k + 1] = (1.0 + rate * dt / eps) ** 2 * v[k] + sigma ** 2 * dt / eps
    return v


def linear_model(rate, t_max=1.0, d=2.0, name="linear"):
    kind = "stable-branch" if rate < 0 else "unstable-branch"
    return model_from_coeffs([[0.0], [rate]],
                             {"kind": kind, "equilibrium": [0.0],
                              "d": d, "t_range": [0.0, t_max], "name": name})


# ---------------------------------------------------------------------------
# criteria 1 & 2 share one 1e5-path ensemble of the linear stable case


@pytest.fixture(scope="module")
def ou_data():
    model = linear_model(-1.0, t_max=0.2, name="ou")
    eps, sigma, dt = 0.01, 1e-3, 0.01 / 50.0
    n_paths, n_steps = 100000, 1000
    probe_times = [0.02 * (j + 1) for j in range(10)]
    probe_cols = [int(round(t / dt)) for t in probe_times]
    grid = time_grid(0.0, dt, n_steps)

    xdet = solve_det(model, eps, 0.0, 0.0, 0.2, dt, method="euler")
    table = zeta_stable(model, eps, grid, xdet)
    sqrtz = table.sqrt_zeta()

    sums = np.zeros(len(probe_cols))
    sqs = np.zeros(len(probe_cols))
    finals = []
    sups = np.empty(n_paths)
    start = time.perf_counter()
    batch = 8192
    for lo in range(0, n_paths, batch):
        hi = min(lo + batch, n_paths)
        dw = np.empty((hi - lo, n_steps))
        fill_increments(dw, OU_SEED, range(lo, hi), dt)
        X, _ = em_batch(model, eps, sigma, 0.0, 0.0, dt, dw)
        sums += X[:, probe_cols].sum(axis=0)
        sqs += (X[:, probe_cols] ** 2).sum(axis=0)
        finals.append(X[:, -1].copy())
        sups[lo:hi] = np.max(np.abs(X) / sqrtz[None, :], axis=1)
    runtime = time.perf_counter() - start
    return {
        "model": model, "eps": eps, "sigma": sigma, "dt": dt, "n": n_paths,
        "n_steps": n_steps,
        "probe_times": probe_times, "sums": sums, "sqs": sqs,
        "finals": np.concatenate(finals), "sups": sups, "runtime": runtime,
        "table": table,
    }


def test_criterion_1_gaussian_oracle(ou_data):
    with criterion(1, "Gaussian oracle equivalence, linear stable case"):
        d = ou_data
        eps, sigma, n, dt = d["eps"], d["sigma"], d["n"], d["dt"]
        v = em_variance(-1.0, eps, sigma, dt, d["n_steps"])
        for j, t in enumerate(d["probe_times"]):
            mean_ex = 0.0
            var_ex = v[int(round(t / dt))]
            mean = d["sums"][j] / n
            var = (d["sqs"][j] - n * mean ** 2) / (n - 1)
            se_mean = math.sqrt(var / n)
            se_var = var * math.sqrt(2.0 / (n - 1))
            assert abs(mean - mean_ex) <= 3.0 * se_mean, f"mean at t={t}"
            assert abs(var - var_ex) <= 3.0 * se_var, f"variance at t={t}"
        stat = kstest(d["finals"] / math.sqrt(v[-1]), "norm").statistic
        assert stat < 1.6276 / math.sqrt(n), "KS at t=0.2"
        assert d["runtime"] <= 120.0, f"runtime {d['runtime']:.1f}s"


def test_criterion_2_sup_exit_bound(ou_data):
    with criterion(2, "sup-exit bound shape, linear stable case"):
        d = ou_data
        sigma, n = d["sigma"], d["n"]
        hs = [3 * sigma, 4 * sigma, 5 * sigma]
        p_hats = []
        for h in hs:
            p = float(np.mean(d["sups"] >= h))
            p_hats.append(p)
            upper = bound_stable(d["model"], 0.2, d["eps"], sigma, h).bound
            lower = 2.0 * (1.0 - norm.cdf(h / sigma)) * 0.9
            assert p <= upper, f"h={h}: {p} > {upper}"
            assert p >= lower, f"h={h}: {p} < {lower}"
        xs = np.array([h * h / (2 * sigma * sigma) for h in hs])
        slope = np.polyfit(xs, np.log(p_hats), 1)[0]
        assert -1.3 <= slope <= -0.5, f"slope {slope}"


def test_criterion_3_unstable_escape():
    with criterion(3, "unstable-case confinement decay"):
        model = linear_model(1.0, t_max=0.1, name="ou-unstable")
        eps, sigma = 0.01, 1e-3
        h = sigma / 2.0
        cfg = EnsembleConfig(model=model, eps=eps, sigma=sigma, t0=0.0,
                             x0=0.0, t_end=0.08, dt=eps / 50.0,
                             n_paths=10000, master_seed=UNSTABLE_SEED,
                             tag="unstable", h_list=(h,),
                             t_probe_list=(0.03, 0.05, 0.08))
        rep = run_ensemble(cfg, threads=2)
        rows = rep.results["survival"]
        ps = [row["p_hat"] for row in rows]
        assert all(a >= b for a, b in zip(ps, ps[1:])), "not nonincreasing"
        for row in rows:
            half_rate = math.sqrt(math.e) * math.exp(0.5 * row["bound"]["exponent"])
            assert row["p_hat"] <= half_rate, f"t={row['t']}"


def test_criterion_4_before_sqrt_eps():
    with criterion(4, "concentration before sqrt(eps)"):
        model = standard_pitchfork()
        eps, sigma = 0.005, 1e-4
        cfg = EnsembleConfig(model=model, eps=eps, sigma=sigma, t0=-1.0,
                             x0=0.0, t_end=math.sqrt(eps), dt=eps / 50.0,
                             n_paths=2000, master_seed=BEFORE_SEED,
                             tag="before", h_list=(5 * sigma,))
        rep = run_ensemble(cfg, threads=2)
        row = rep.results["exceedance"][0]
        assert row["p_hat"] <= row["bound"]["bound"], "exceedance above bound"
        ratio = rep.results["spread_at_sqrt_eps"]["ratio"]
        assert 0.5 <= ratio <= 2.0, f"spread ratio {ratio}"


@pytest.fixture(scope="module")
def delay_report():
    model = standard_pitchfork()
    eps, sigma = 0.005, 1e-4
    cfg = EnsembleConfig(model=model, eps=eps, sigma=sigma, t0=-1.0, x0=0.0,
                         t_end=1.0, dt=eps / 50.0, n_paths=10000,
                         master_seed=DELAY_SEED, tag="delay",
                         t_probe_list=(0.4, 0.5, 0.6), eta=0.1, bound_c0=1.0)
    start = time.perf_counter()
    rep = run_ensemble(cfg, threads=2)
    rep.runtime_seconds = time.perf_counter() - start
    return rep


def test_criterion_5_escape_and_delay_window(delay_report):
    with criterion(5, "escape from the wedge and delay window"):
        r = delay_report.results
        assert r["frac_below_t_low"] <= 0.02, "too many early exits"
        assert r["frac_above_t_high"] <= 0.05, "too many late exits"
        for row in r["survival"]:
            assert row["comparison"]["verdict"] == "consistent", \
                f"survival bound at t={row['t']}"
        assert delay_report.runtime_seconds <= 600.0


def test_criterion_6_branch_selection(delay_report):
    with criterion(6, "branch selection probability near 1/2"):
        b = delay_report.results["branch"]
        n = b["n_positive"] + b["n_negative"]
        assert n == 10000
        assert abs(b["p_hat"] - 0.5) <= 3.0 * math.sqrt(0.25 / n)


def test_criterion_7_approach():
    with criterion(7, "approach to the stable branch"):
        model = standard_pitchfork()
        eps, sigma = 0.005, 1e-4
        cfg = EnsembleConfig(model=model, eps=eps, sigma=sigma, t0=-1.0,
                             x0=0.0, t_end=1.0, dt=eps / 50.0, n_paths=10000,
                             master_seed=APPROACH_SEED, tag="approach",
                             h_list=(5 * sigma,), tau_window=(0.15, 0.25))
        rep = run_ensemble(cfg, threads=2)
        r = rep.results
        assert r["n_selected"] >= 200, "conditioning window too empty"
        row = r["exceedance"][0]
        assert row["p_hat"] <= row["bound"]["bound"], "exceedance above bound"
        ratio = r["spread_at_end"]["ratio"]
        assert 0.5 <= ratio <= 2.0, f"spread ratio {ratio}"


def test_criterion_8_pathwise_comparison():
    with criterion(8, "pathwise domination of the linear minorant"):
        model = standard_pitchfork()
        eps, sigma, dt = 0.01, 1e-4, 0.01 / 50.0
        curves = branches(model)
        kappa = 1.0 - model.lambda_param
        rate = lambda t: kappa * t  # noqa: E731
        t0 = 0.1
        # inside (0, x_tilde), so every pair has a window to compare on
        x0 = 0.5 * float(curves.x_tilde(t0))
        max_f = 2.0  # sup |t x - x^3| on |x|<=1, |t|<=1
        tol = 5.0 * dt * max_f / eps
        # paths 0..999 of simulate_coupled's pairs, as one batch on shared
        # increments
        n = n_steps_for(t0, 0.6, dt)
        dw = np.empty((1000, n))
        fill_increments(dw, COUPLED_SEED, range(1000), dt)
        nl, _ = em_batch(model, eps, sigma, t0, x0, dt, dw)
        lin, _ = linear_batch(rate, eps, sigma, t0, x0, dt, dw)
        xt = np.asarray(curves.x_tilde(time_grid(t0, dt, n)))
        # compare up to the nonlinear path's exit from (0, x_tilde) or the
        # linear path's return to zero, whichever comes first
        ends = (nl <= 0) | (nl >= xt) | (lin <= 0)
        stop = np.where(ends.any(axis=1), ends.argmax(axis=1), n + 1)
        assert stop.min() >= 100, "a pair stopped before it was compared"
        live = np.arange(n + 1) < stop[:, None]
        bad = int(np.sum(np.any(live & (nl < lin - tol), axis=1)))
        assert bad == 0, f"{bad} of 1000 paths broke the ordering"


def test_criterion_9_return_to_zero():
    with criterion(9, "return-to-zero probability bound"):
        eps, sigma, dt = 0.01, 1e-3, 0.01 / 50.0
        kappa, t0 = 0.6, 0.2
        a0_t0 = kappa * t0
        rho = sigma * math.sqrt(math.log(10.0) / a0_t0)  # bound exactly 0.1
        rate = lambda t: kappa * t  # noqa: E731
        n_paths = 10000
        n_steps = n_steps_for(t0, 1.0, dt)
        returned = 0
        for lo in range(0, n_paths, 2048):
            hi = min(lo + 2048, n_paths)
            dw = np.empty((hi - lo, n_steps))
            fill_increments(dw, RETURN_SEED, range(lo, hi), dt)
            X, _ = linear_batch(rate, eps, sigma, t0, rho, dt, dw)
            returned += int(np.sum((X <= 0.0).any(axis=1)))
        p_hat, lo_ci, hi_ci = estimate_prob(returned, n_paths)
        half_width = (hi_ci - lo_ci) / 2.0
        bound = return_to_zero_bound(rho, sigma, a0_t0)
        assert p_hat <= bound + 3.0 * half_width, f"returned {p_hat}"


def test_criterion_10_deterministic_layer():
    with criterion(10, "deterministic layer"):
        model = standard_pitchfork()
        assert abs(bifurcation_delay(model, -0.5) - 0.5) <= 1e-10

        moving = model_from_coeffs(
            [[0.0, 1.0], [-1.0]],
            {"kind": "stable-branch", "d": 3.0, "equilibrium": [0.0, 1.0],
             "t_range": [0.0, 1.0], "name": "moving"})
        ratios = []
        for eps in (0.02, 0.01, 0.005):
            p = adiabatic_solution(moving, eps, np.linspace(0.0, 1.0, 501))
            ratios.append(p.meta["deviation_sup"] / eps)
        assert max(ratios) / min(ratios) <= 1.2, "tracking not linear in eps"

        eps = 0.01
        post = det_after_exit(model, eps, 0.1, +1, 1.0, eps / 50.0)
        assert np.all(post.meta["approach_gap"] >= -post.meta["sandwich_tol"])

        lin = linear_model(-1.0, t_max=0.1, name="ou")
        a = solve_det(lin, eps, 0.0, 0.5, 0.05, eps / 50.0)
        b = solve_det(lin, eps, 0.0, 0.3, 0.05, eps / 50.0)
        gap = np.abs(a.x_values - b.x_values)
        exact = 0.2 * np.exp(-a.t_grid / eps)
        assert np.allclose(gap[1:], exact[1:], rtol=1e-5), "rate not exact"
        assert np.all(gap <= 0.2 * np.exp(-a.t_grid / (2 * eps)) + 1e-15)


def test_criterion_11_infrastructure():
    with criterion(11, "infrastructure: determinism, refinement, residuals"):
        model = standard_pitchfork()
        cfg = EnsembleConfig(model=model, eps=0.01, sigma=1e-4, t0=-1.0,
                             x0=0.0, t_end=1.0, dt=2e-4, n_paths=400,
                             master_seed=9, tag="delay",
                             t_probe_list=(0.45,))
        assert run_ensemble(cfg, threads=1).to_json() == \
            run_ensemble(cfg, threads=4).to_json(), "thread dependence"

        eps, sigma = 0.01, 0.01
        base = NoiseStream(0, 0, -0.2, eps / 10.0, 400)
        levels = [base]
        for _ in range(5):
            levels.append(levels[-1].refine())
        finals = [simulate(model, eps, sigma, -0.2, 0.05, 0.2, s.dt,
                           noise=s).x_values[-1] for s in levels]
        errs = [abs(f - finals[-1]) for f in finals[:-2]]
        for i in range(2):
            ratio = errs[i] / errs[i + 1]
            assert 1.5 <= ratio <= 2.5, f"strong order ratio {ratio}"

        # zeta residuals in all three regimes
        lin = linear_model(-1.0, t_max=1.0, name="ou")
        xdet = solve_det(lin, eps, 0.0, 0.3, 1.0, eps / 50.0)
        tab_s = zeta_stable(lin, eps, xdet.t_grid, xdet)
        assert tab_s.ode_residual() <= 1e-6, "stable residual"

        sq = math.sqrt(eps)
        grid = time_grid(-1.0, eps / 50.0, n_steps_for(-1.0, sq, eps / 50.0))
        grid = grid[grid <= sq + 1e-12]
        tab_p = zeta_pitchfork(model, eps, grid)
        assert tab_p.ode_residual() <= 1e-6, "crossing residual"

        grid2 = time_grid(0.2, eps / 50.0, n_steps_for(0.2, 1.0, eps / 50.0))
        tab_a = zeta_post_exit(model, eps, grid2)
        assert tab_a.ode_residual() <= 1e-6, "post-exit residual"
