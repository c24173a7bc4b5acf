import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from slowsde import (NonFiniteResult, RegimeViolation, ResourceLimit,
                     branches, compare_bound, envelope, estimate_prob,
                     model_from_coeffs, montecarlo, run_ensemble,
                     standard_pitchfork, zeta_post_exit)
from slowsde.deterministic import DetPath, post_exit_family
from slowsde.envelope import BoundEvaluation
from slowsde.montecarlo import (EnsembleConfig, exceedance_curve,
                                serialize_json)
from slowsde.sde import n_steps_for, time_grid


def delay_config(standard, **kw):
    base = dict(model=standard, eps=0.01, sigma=1e-4, t0=-1.0, x0=0.0,
                t_end=1.0, dt=2e-4, n_paths=200, master_seed=42, tag="delay",
                t_probe_list=(0.45, 0.55))
    base.update(kw)
    return EnsembleConfig(**base)


class TestEstimateProb:
    def test_zero_successes(self):
        p, lo, hi = estimate_prob(0, 100)
        assert p == 0.0 and lo == 0.0
        assert hi == pytest.approx(0.0370, abs=2e-4)

    def test_half(self):
        p, lo, hi = estimate_prob(50, 100)
        assert p == 0.5
        assert lo == pytest.approx(0.4038, abs=2e-4)
        assert hi == pytest.approx(0.5962, abs=2e-4)

    def test_all_successes_symmetric(self):
        _, lo, hi = estimate_prob(100, 100)
        _, lo0, hi0 = estimate_prob(0, 100)
        assert hi == 1.0
        assert lo == pytest.approx(1.0 - hi0, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_prob(5, 4)
        with pytest.raises(ValueError):
            estimate_prob(0, 0)


class TestCompareBound:
    def _bound(self, value):
        return BoundEvaluation("test", {}, value, 0.0, min(1.0, value),
                               value >= 1.0)

    def test_consistent(self):
        c = compare_bound((0.002, 0.0005, 0.008), self._bound(0.01))
        assert c.verdict == "consistent"
        assert c.margin == pytest.approx(0.0095)

    def test_violated(self):
        c = compare_bound((0.2, 0.15, 0.25), self._bound(0.01))
        assert c.verdict == "violated"
        assert c.to_dict()["note"] == "exceeds leading-order bound"

    def test_plain_float_bound(self):
        c = compare_bound((0.0, 0.0, 0.01), 0.5)
        assert c.verdict == "consistent"


class TestConfigValidation:
    def test_paths_positive(self, standard):
        with pytest.raises(ValueError):
            delay_config(standard, n_paths=0)

    def test_dt_cap(self, standard):
        with pytest.raises(ValueError):
            delay_config(standard, dt=0.005)

    def test_sigma_regime(self, standard):
        with pytest.raises(RegimeViolation):
            delay_config(standard, sigma=0.2)

    def test_kind_matches_tag(self, standard):
        with pytest.raises(RegimeViolation):
            delay_config(standard, tag="stable")

    def test_resource_budget(self, standard):
        with pytest.raises(ResourceLimit):
            delay_config(standard, n_paths=10 ** 7)


class TestDeterminism:
    def test_identical_configs_identical_reports(self, standard):
        cfg = delay_config(standard)
        a = run_ensemble(cfg).to_json()
        b = run_ensemble(cfg).to_json()
        assert a == b

    def test_thread_count_invariance(self, monkeypatch):
        """Every tag: many small batches on four threads give the bytes of
        one batch on one thread."""
        configs = [pinned_config(tag) for tag in sorted(PINNED)]
        want = [run_ensemble(cfg, threads=1) for cfg in configs]
        monkeypatch.setattr(montecarlo, "_batch_size", lambda n_steps: 16)
        for cfg, ref in zip(configs, want):
            got = run_ensemble(cfg, threads=4)
            assert got.to_json() == ref.to_json(), cfg.tag
            assert pinned_hashes(got) == pinned_hashes(ref), cfg.tag

    def test_seed_changes_report(self, standard):
        a = run_ensemble(delay_config(standard)).to_json()
        b = run_ensemble(delay_config(standard, master_seed=43)).to_json()
        assert a != b

    def test_payload_parses_and_hash_present(self, standard):
        rep = run_ensemble(delay_config(standard))
        doc = json.loads(rep.to_json())
        assert doc["schema"] == "slowsde-report/1"
        assert len(doc["config_hash"]) == 64
        assert doc["backend"] == "python"
        assert "runtime" not in json.dumps(doc)


class TestMirrorSymmetry:
    def test_branch_counts_swap_exactly(self, standard):
        cfg = delay_config(standard, tag="branch", t_probe_list=())
        plain = run_ensemble(cfg).results["branch"]
        mirrored = run_ensemble(dataclasses.replace(cfg, mirror=True))
        mb = mirrored.results["branch"]
        assert plain["n_positive"] == mb["n_negative"]
        assert plain["n_negative"] == mb["n_positive"]
        assert plain["n_zero"] == mb["n_zero"]


class TestBranchTag:
    def test_probability_near_half(self, standard):
        cfg = EnsembleConfig(model=standard, eps=0.005, sigma=1e-4, t0=-1.0,
                             x0=0.0, t_end=1.0, dt=1e-4, n_paths=4000,
                             master_seed=11, tag="branch")
        rep = run_ensemble(cfg, threads=2)
        b = rep.results["branch"]
        assert b["n_zero"] == 0
        half_width = 3 * math.sqrt(0.25 / 4000)
        assert abs(b["p_hat"] - 0.5) <= half_width


class TestExceedanceCurve:
    def test_nested_events_monotone(self, linear_stable):
        sig = 1e-3
        cfg = EnsembleConfig(model=linear_stable, eps=0.01, sigma=sig,
                             t0=0.0, x0=0.0, t_end=0.2, dt=2e-4,
                             n_paths=2000, master_seed=3, tag="stable",
                             h_list=(2 * sig, 3 * sig, 4 * sig))
        rows = exceedance_curve(cfg)
        ps = [r["p_hat"] for r in rows]
        assert ps[0] >= ps[1] >= ps[2]
        assert all("ci_low" in r and "bound" in r for r in rows)

    def test_wrong_tag_rejected(self, standard):
        with pytest.raises(ValueError):
            exceedance_curve(delay_config(standard))


class TestNonFinitePaths:
    def test_branch_stats_rejects_nan(self):
        with pytest.raises(NonFiniteResult, match="1 of 3 paths"):
            montecarlo._branch_stats(np.array([0.3, np.nan, -0.2]))

    def test_branch_stats_counts_exact_zero(self):
        stats = montecarlo._branch_stats(np.array([0.3, 0.0, -0.2, 0.5]))
        assert (stats["n_positive"], stats["n_negative"],
                stats["n_zero"], stats["n"]) == (2, 1, 1, 3)

    def test_exceedance_rejects_nan(self):
        cfg = dataclasses.make_dataclass("Cfg", [("h_list", tuple)])((0.5,))
        with pytest.raises(NonFiniteResult, match="sup deviation"):
            montecarlo._exceedance(cfg, np.array([0.7, np.nan, 0.1]),
                                   lambda h: 1.0)

    def test_exceedance_counts_over_all_given_sups(self):
        cfg = dataclasses.make_dataclass("Cfg", [("h_list", tuple)])(
            (0.1, 0.5))
        rows = montecarlo._exceedance(cfg, np.array([0.7, 0.2, 0.1, 0.05]),
                                      lambda h: 1.0)
        assert [(r["successes"], r["n"]) for r in rows] == [(3, 4), (1, 4)]

    def test_nan_path_fails_the_run(self, standard, monkeypatch):
        stepper = montecarlo.em_batch

        def nan_row(*args):
            X, trunc = stepper(*args)
            X[3, 1:] = np.nan
            return X, trunc

        monkeypatch.setattr(montecarlo, "em_batch", nan_row)
        cfg = delay_config(standard, n_paths=20, tag="branch")
        with pytest.raises(NonFiniteResult):
            run_ensemble(cfg)

    def test_nan_drift_fails_escape(self, nan_patch):
        # escape reads only exit times, which stay NaN ("never exited") on
        # a NaN path; the run must fail rather than count it as a survivor
        cfg = delay_config(nan_patch, sigma=1e-3, dt=1e-3, n_paths=50,
                           master_seed=3, tag="escape")
        with pytest.raises(NonFiniteResult, match="non-finite final state"):
            run_ensemble(cfg)


class TestSerializeJson:
    def test_canonical_floats(self):
        s = serialize_json({"b": 0.1, "a": [1, 2.5, None, True]})
        assert s == '{"a":[1,2.5,null,true],"b":0.10000000000000001}'

    def test_non_finite(self):
        assert serialize_json(float("inf")) == '"inf"'
        assert serialize_json(float("nan")) == "null"

    def test_numpy_types(self):
        s = serialize_json({"x": np.float64(0.5), "n": np.int64(3),
                            "arr": np.array([1.0, 2.0])})
        assert json.loads(s) == {"x": 0.5, "n": 3, "arr": [1.0, 2.0]}


class TestDelayResults:
    def test_delay_statistics_shape(self, standard):
        rep = run_ensemble(delay_config(standard, n_paths=300))
        r = rep.results
        assert r["delay_interval"]["t_low"] == pytest.approx(0.1)
        assert sum(r["histogram"]["counts"]) + \
            round(r["censored_fraction"] * 300) == 300
        assert 0 <= r["frac_below_t_low"] <= 1
        assert {"tau_D", "tau_delay", "x_final", "exit_side"} <= \
            set(rep.per_path)
        assert all(len(v) == 300 for v in rep.per_path.values())

    def test_survival_counts_monotone(self, standard):
        rep = run_ensemble(delay_config(standard, n_paths=300,
                                        t_probe_list=(0.3, 0.4, 0.5)))
        surv = [row["p_hat"] for row in rep.results["survival"]]
        assert surv[0] >= surv[1] >= surv[2]


class TestEscapeTag:
    def test_boundary_start_rule_resolves(self, standard):
        from slowsde.montecarlo import _resolve_x0
        cfg = delay_config(standard, tag="escape", t0=0.15, x0="x_tilde",
                           t_end=0.5, n_paths=50)
        assert _resolve_x0(cfg) == pytest.approx(
            float(branches(standard).x_tilde(0.15)))
        # on-boundary starts are outside the open region at the first node
        rep = run_ensemble(cfg)
        assert rep.results["survival"][0]["p_hat"] == 0.0

    def test_interior_start_survival(self, standard):
        cfg = delay_config(standard, tag="escape", t0=0.12, x0=0.0,
                           t_end=0.6, n_paths=400,
                           t_probe_list=(0.3, 0.45, 0.6))
        rep = run_ensemble(cfg, threads=2)
        rows = rep.results["survival"]
        ps = [r["p_hat"] for r in rows]
        assert ps[0] >= ps[1] >= ps[2]
        assert all(r["comparison"]["verdict"] == "consistent" for r in rows)
        assert "exit_time_quantiles" in rep.results


# ---------------------------------------------------------------------------
# pinned outputs of every tag at small sizes


def _linear_model(rate, kind):
    return model_from_coeffs(
        [[0.0], [rate]],
        {"kind": kind, "equilibrium": lambda t: 0.0, "d": 2.0,
         "t_range": [0.0, 1.0], "name": f"linear-{kind}"})


def pinned_config(tag: str) -> EnsembleConfig:
    """Small ensembles (200 paths) covering each experiment tag."""
    sig = 1e-3
    if tag == "stable":
        return EnsembleConfig(
            model=_linear_model(-1.0, "stable-branch"), eps=0.01, sigma=sig,
            t0=0.0, x0=0.0, t_end=0.2, dt=2e-4, n_paths=200, master_seed=3,
            tag=tag, h_list=(2 * sig, 3 * sig, 4 * sig))
    if tag == "unstable":
        return EnsembleConfig(
            model=_linear_model(1.0, "unstable-branch"), eps=0.01, sigma=sig,
            t0=0.0, x0=0.0, t_end=0.2, dt=2e-4, n_paths=200, master_seed=6,
            tag=tag, h_list=(sig,), t_probe_list=(0.001, 0.003, 0.01))
    standard = standard_pitchfork()
    if tag == "approach":
        return EnsembleConfig(
            model=standard, eps=0.005, sigma=1e-4, t0=-1.0, x0=0.0,
            t_end=1.0, dt=1e-4, n_paths=200, master_seed=12, tag=tag,
            h_list=(4e-4, 5e-4), tau_window=(0.15, 0.25))
    extra = {"before": dict(h_list=(3e-4, 4e-4)),
             "escape": dict(t_probe_list=(0.3, 0.45, 0.6), eta=0.1),
             "delay": dict(eta=0.1),
             "branch": dict(t_probe_list=())}[tag]
    return delay_config(standard, tag=tag, **extra)


def _sha(obj) -> str:
    return hashlib.sha256(serialize_json(obj).encode()).hexdigest()[:16]


# escape, delay and branch share one ensemble and hence these columns
_EXIT_COLUMNS = {"tau_D": "5fdecabca7af9dcf", "exit_side": "dab291b8994155c6",
                 "tau_delay": "62ada03ab915e817", "x_final": "3d1c44317c7c928d"}
# sha256 prefixes of serialize_json(results) and of each per-path column
PINNED = {
    "stable": {"results": "70c1a9af5efa1bfe",
               "sup_deviation": "dc43358576320dbd"},
    "unstable": {"results": "f3cd7c660f94aaf1",
                 "exit_time": "af97505c25c8d490"},
    "before": {"results": "fff836799d9068d4",
               "sup_deviation": "c50578ecb3f99fb1",
               "x_at_sqrt_eps": "547af579e5c28ef2"},
    "escape": {"results": "d715e882207f338d", **_EXIT_COLUMNS},
    "delay": {"results": "e1dba9403a290a8d", **_EXIT_COLUMNS},
    "branch": {"results": "ba344958222f852b", **_EXIT_COLUMNS},
    # the post-exit envelope moved to the 4-substep Hermite zeta integrator
    # of zeta_post_exit; sqrt(zeta) moved by up to 1.1e-6 relative
    "approach": {"results": "9b829171d1924832",
                 "tau_D": "3b6e3b36c01d050c",
                 "sup_deviation": "6d0f8d20f8eca8e2"},
}


def pinned_hashes(report) -> dict:
    out = {"results": _sha(report.results)}
    out.update({k: _sha(np.asarray(v)) for k, v in report.per_path.items()})
    return out


@pytest.mark.parametrize("tag", sorted(PINNED))
def test_pinned_outputs(tag):
    assert pinned_hashes(run_ensemble(pinned_config(tag))) == PINNED[tag]


@pytest.mark.parametrize("tag", sorted(PINNED))
def test_pinned_outputs_in_short_chunks(tag, monkeypatch):
    """Streaming in chunks of 700 steps, which divide no step count here,
    and with the region_D window opening inside a chunk, changes no bit."""
    cfg = pinned_config(tag)
    assert n_steps_for(cfg.t0, cfg.t_end, cfg.dt) % 700
    if tag in montecarlo.PITCHFORK_TAGS:
        assert round((math.sqrt(cfg.eps) - cfg.t0) / cfg.dt) % 700
    monkeypatch.setattr(montecarlo, "CHUNK_STEPS", 700)
    assert pinned_hashes(run_ensemble(cfg)) == PINNED[tag]


def test_before_steps_stop_at_sqrt_eps(monkeypatch):
    """The before tag steps each path only up to the last node <= sqrt(eps),
    which is all its scans read."""
    cfg = dataclasses.replace(pinned_config("before"), n_paths=20)
    grid = time_grid(cfg.t0, cfg.dt, n_steps_for(cfg.t0, cfg.t_end, cfg.dt))
    n_cols = int(np.sum(grid <= math.sqrt(cfg.eps) + 1e-12))
    assert n_cols < len(grid)
    steps = []
    em_batch = montecarlo.em_batch

    def counting(model, eps, sigma, t0, x0, dt, increments, *rest):
        steps.append(increments.size)
        return em_batch(model, eps, sigma, t0, x0, dt, increments, *rest)

    monkeypatch.setattr(montecarlo, "em_batch", counting)
    run_ensemble(cfg)
    assert sum(steps) == cfg.n_paths * (n_cols - 1)


def test_peak_memory_flat_in_n_steps(standard):
    """Streaming holds O(paths x chunk) floats: ten times the steps leaves
    the peak far below one (paths, n_steps) matrix."""
    peaks = {}
    for n_steps in (10_000, 100_000):
        cfg = delay_config(standard, tag="branch", t_probe_list=(),
                           dt=2.0 / n_steps, eps=0.005, n_paths=64)
        tracemalloc.start()
        run_ensemble(cfg)
        peaks[n_steps] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    matrix = 8 * 64 * 100_000
    assert peaks[100_000] < matrix / 8
    assert peaks[100_000] < 2 * peaks[10_000]


def test_post_exit_family_matches_zeta_post_exit(standard):
    """The approach tag's zeta, taken along all family rows at once, equals
    zeta_post_exit along each centreline."""
    eps = 0.005
    grid = time_grid(0.1, 1e-4, 3000)
    taus = grid[[200, 205, 450, 1300]]
    xhat, start = post_exit_family(standard, eps, taus, grid,
                                   branches(standard))
    abar = standard.drift_dx(xhat, grid)
    sqrtz = np.sqrt(envelope.zeta_along(standard, eps, grid, xhat, abar,
                                        substeps=4))
    assert list(start) == [200, 205, 450, 1300]
    for j, k0 in enumerate(start):
        assert np.all(np.isnan(xhat[j, :k0])) and np.all(np.isnan(sqrtz[j, :k0]))
        det = DetPath(grid[k0:], xhat[j, k0:], eps, "rk4")
        table = zeta_post_exit(standard, eps, float(taus[j]), grid[k0:],
                               det=det)
        assert np.array_equal(table.sqrt_zeta(), sqrtz[j, k0:])
