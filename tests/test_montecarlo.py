import dataclasses
import functools
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from slowsde import (ConfigError, NonFiniteResult, RegimeViolation,
                     ResourceLimit, branches, compare_bound, envelope,
                     estimate_prob, exits, model_from_coeffs, montecarlo,
                     run_ensemble, sde, standard_pitchfork, zeta_post_exit)
from slowsde.deterministic import DetPath
from slowsde.envelope import BoundEvaluation
from slowsde.montecarlo import EnsembleConfig, serialize_json
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

    def test_leading_order_flag_is_carried(self):
        bound = BoundEvaluation("test", {}, 0.5, 0.0, 0.5, False,
                                leading_order=False)
        c = compare_bound((0.0, 0.0, 0.01), bound)
        assert c.verdict == "consistent"
        assert not c.leading_order


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

    @pytest.mark.parametrize("tag", montecarlo.ALL_TAGS)
    def test_each_tag_takes_only_its_kind(self, standard, linear_stable,
                                          linear_unstable, tag):
        need = montecarlo.TAG_KINDS[tag]
        for model in (standard, linear_stable, linear_unstable):
            make = functools.partial(delay_config, model, tag=tag, t0=0.0)
            if model.kind == need:
                assert make().tag == tag
            else:
                with pytest.raises(RegimeViolation,
                                   match=f"needs a model of kind '{need}'"):
                    make()

    def test_resource_budget(self, standard):
        with pytest.raises(ResourceLimit):
            delay_config(standard, n_paths=10 ** 7)

    @pytest.mark.parametrize("key,value", [
        ("sigma", 0.0), ("sigma", -1e-4), ("x0", -1.0 - 1e-12)])
    def test_outside_the_model_rejected(self, standard, key, value):
        # the bounds need sigma > 0, and x0 must lie in |x| <= d = 1; the
        # CLI tests check t0 and t_end against the model's time range
        with pytest.raises(ConfigError, match=f"{key}="):
            delay_config(standard, **{key: value})

    def test_domain_edges_accepted(self, standard):
        delay_config(standard, x0=-1.0, t0=-1.0, t_end=1.0)


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
        monkeypatch.setattr(montecarlo, "MAX_BATCH", 16)
        for cfg, ref in zip(configs, want):
            got = run_ensemble(cfg, threads=4)
            assert got.to_json() == ref.to_json(), cfg.tag
            assert pinned_hashes(got) == pinned_hashes(ref), cfg.tag

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, standard, threads):
        with pytest.raises(ConfigError, match="threads must be at least 1"):
            run_ensemble(delay_config(standard), threads=threads)

    @pytest.mark.parametrize("threads,widths", [(1, [667, 667, 666]),
                                                (2, [500] * 4)])
    def test_batches_balanced(self, threads, widths):
        """2000 paths: the fewest even batches of at most MAX_BATCH paths,
        as many as a multiple of the thread count, in path order."""
        paths = np.arange(2000)
        batches = montecarlo._batches(paths, threads)
        assert [len(b) for b in batches] == widths
        assert np.array_equal(np.concatenate(batches), paths)

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
        rows = run_ensemble(cfg).results["exceedance"]
        ps = [r["p_hat"] for r in rows]
        assert ps[0] >= ps[1] >= ps[2]
        assert all("ci_low" in r and "bound" in r for r in rows)


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

    def test_quantiles_drop_only_nan(self):
        # NaN: censored or never exited
        got = montecarlo._quantiles(np.array([np.nan, 0.2, 0.4, np.nan]))
        assert got == montecarlo._quantiles(np.array([0.2, 0.4]))
        assert montecarlo._quantiles(np.array([np.nan])) == {}
        for inf in (np.inf, -np.inf):
            with pytest.raises(NonFiniteResult, match="1 of 3 paths"):
                montecarlo._quantiles(np.array([0.2, inf, np.nan]))

    def test_quantiles_are_numpys_bits(self):
        """The sorted-list interpolation equals np.quantile's default
        "linear" method bit for bit on 10200 seeded arrays: n = 1 and 2
        among them, ties, values across the exponent range, and sizes
        (5, 21, 101) on which every q falls on an exact index.  A tie of
        -0.0 with 0.0 is left out: NumPy's partition may order it unlike a
        sort, and no run gives -0.0 (its times are grid nodes, its sups
        maxima of |x|)."""
        rng = np.random.default_rng(2024)
        qs = (0.05, 0.25, 0.5, 0.75, 0.95)
        for i in range(10200):
            n = (1, 2, 3, 5, 21, 101)[i % 6] if i % 2 else \
                int(rng.integers(1, 400))
            kind = i % 3
            if kind == 0:
                x = rng.standard_normal(n)
            elif kind == 1:  # ties
                x = rng.integers(-3, 4, n) * 0.25
            else:
                x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300)
            got = montecarlo._quantiles(x)
            want = {f"q{int(100 * q):02d}": float(np.quantile(x, q))
                    for q in qs}
            assert list(got) == list(want)
            assert np.array_equal(np.array(list(got.values())).view(np.uint64),
                                  np.array(list(want.values())).view(np.uint64)), \
                (n, x)

    def test_median_is_numpys_bits(self):
        """The approach tag's median equals np.median bit for bit, for odd
        and even counts, ties and a NaN among the values."""
        rng = np.random.default_rng(77)
        for i in range(3000):
            n = int(rng.integers(1, 60))
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300)
            if i % 3 == 1:
                x = rng.integers(-2, 3, n) * 0.5
            if i % 5 == 0:
                x[rng.integers(n)] = np.nan
            want = np.float64(np.median(x))
            got = np.float64(montecarlo._median(x))
            assert got.view(np.uint64) == want.view(np.uint64) \
                or (np.isnan(want) and np.isnan(got)), x

    def test_exceedance_counts_over_all_given_sups(self):
        cfg = dataclasses.make_dataclass("Cfg", [("h_list", tuple)])(
            (0.1, 0.5))
        bound = BoundEvaluation("test", {}, 1.0, 0.0, 1.0, True)
        rows = montecarlo._exceedance(cfg, np.array([0.7, 0.2, 0.1, 0.05]),
                                      lambda h: bound)
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

    def test_nan_drift_fails_escape(self, standard, monkeypatch):
        # escape reads only exit times, which stay NaN ("never exited") on
        # a NaN path; the run must fail rather than count it as a survivor.
        # The path turns NaN mid-chunk, before region D's window opens
        stepper = montecarlo.em_batch

        def nan_tail(*args):
            X, trunc = stepper(*args)
            X[3, X.shape[1] // 2:] = np.nan
            return X, trunc

        monkeypatch.setattr(montecarlo, "em_batch", nan_tail)
        cfg = delay_config(standard, sigma=1e-3, dt=1e-3, n_paths=50,
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
        {"kind": kind, "equilibrium": [0.0], "d": 2.0,
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
    # the model's equilibrium is the coefficient list [0.0], not a
    # callable, so alpha is its closed form, not Gauss-Legendre panels:
    # five bound floats moved by at most 2.4e-16 relative (1 ulp), to the
    # bytes the same model gave as a model document before
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
def test_pinned_outputs(tag, kernels):
    for kernel in kernels():
        assert pinned_hashes(run_ensemble(pinned_config(tag))) == \
            PINNED[tag], kernel


def chunk_shapes(monkeypatch) -> list:
    """The (paths, steps) of each chunk that em_batch steps from now on."""
    shapes = []
    em_batch = montecarlo.em_batch

    def recording(model, eps, sigma, t0, x0, dt, increments, *rest):
        shapes.append(increments.shape)
        return em_batch(model, eps, sigma, t0, x0, dt, increments, *rest)

    monkeypatch.setattr(montecarlo, "em_batch", recording)
    return shapes


@pytest.mark.parametrize("tag", sorted(PINNED))
def test_pinned_outputs_in_short_chunks(tag, monkeypatch):
    """Streaming in chunks of 700 steps, which divide no step count here,
    and with the region_D window opening inside a chunk, changes no bit."""
    cfg = pinned_config(tag)
    assert n_steps_for(cfg.t0, cfg.t_end, cfg.dt) % 700
    if montecarlo.TAG_KINDS[tag] == "pitchfork":
        assert round((math.sqrt(cfg.eps) - cfg.t0) / cfg.dt) % 700
    monkeypatch.setattr(montecarlo, "_chunk_steps", lambda paths, model: 700)
    shapes = chunk_shapes(monkeypatch)
    assert pinned_hashes(run_ensemble(cfg)) == PINNED[tag]
    assert max(n for _, n in shapes) == 700


@pytest.mark.parametrize("tag", sorted(PINNED))
def test_pinned_outputs_in_long_chunks(tag, monkeypatch):
    """Batches of 20 paths stream in the long chunks of a narrow batch,
    9362 steps each, inside one of which the region_D window opens; and
    no bit moves."""
    cfg = pinned_config(tag)
    steps = montecarlo._chunk_steps(20, cfg.model)
    if montecarlo.TAG_KINDS[tag] == "pitchfork":
        assert steps == 9362
        assert round((math.sqrt(cfg.eps) - cfg.t0) / cfg.dt) % steps
    monkeypatch.setattr(montecarlo, "MAX_BATCH", 20)
    shapes = chunk_shapes(monkeypatch)
    assert pinned_hashes(run_ensemble(cfg)) == PINNED[tag]
    # ten batches of 20 paths, each of ceil(taken / steps) chunks
    taken = sum(n for _, n in shapes) // 10
    assert shapes[0] == (20, min(steps, taken))
    assert len(shapes) == 10 * -(-taken // steps)


def test_before_steps_stop_at_sqrt_eps(monkeypatch):
    """The before tag steps each path only up to the last node <= sqrt(eps),
    which is all its scans read."""
    cfg = dataclasses.replace(pinned_config("before"), n_paths=20)
    grid = time_grid(cfg.t0, cfg.dt, n_steps_for(cfg.t0, cfg.t_end, cfg.dt))
    n_cols = int(np.sum(grid <= math.sqrt(cfg.eps) + 1e-12))
    assert n_cols < len(grid)
    shapes = chunk_shapes(monkeypatch)
    run_ensemble(cfg)
    assert sum(b * n for b, n in shapes) == cfg.n_paths * (n_cols - 1)


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


@pytest.mark.parametrize("tag", ["delay", "branch"])
def test_run_holds_one_workspace(standard, tag, kernels):
    """A batch draws its noise into, and steps its paths in, one workspace
    of CHUNK_STEPS + 1 columns, whichever kernels run: over five chunks the
    compiled run peaks below 1.3 of it plus 64 KiB, and the NumPy fallbacks,
    whose exit scans hold up to two boolean masks of the chunk, below 1.6
    of it plus 64 KiB.  A second path matrix beside the workspace would take
    more."""
    cfg = delay_config(standard, tag=tag, dt=2.0 / 5000, eps=0.005,
                       n_paths=400)
    assert n_steps_for(cfg.t0, cfg.t_end, cfg.dt) > 4 * montecarlo.CHUNK_STEPS
    workspace = 8 * 400 * (montecarlo.CHUNK_STEPS + 1)
    for kernel in kernels():
        assert sde.backend() == kernel
        tracemalloc.start()
        run_ensemble(cfg)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        bound = {"c": 1.3, "numpy": 1.6}[kernel]
        assert peak < bound * workspace + 64 * 1024, (kernel, peak / workspace)


def test_narrow_run_holds_about_chunk_values(standard, kernels):
    """A narrow batch streams in chunks of several thousand steps, whose
    workspace rows and arrays of one value per node take about
    CHUNK_VALUES floats however many steps the paths take: 8 paths step
    in chunks of 16384 steps.  Over 2e5 steps, where one path matrix
    would take 6.1 CHUNK_VALUES floats, the compiled run peaks below 1.3
    of them (1.13 measured); over 6e4 steps the NumPy fallbacks, whose
    stepping loop turns a chunk's coefficient table into Python floats
    256 rows at a time, peak below 1.5 (1.13, and 1.44 on their first
    run, which imports numpy.random; 2.3-2.6 holding the whole table so).
    Either peaks within 20% of a run of 2e4 steps."""
    budget = 8 * montecarlo.CHUNK_VALUES
    for kernel in kernels():
        peaks = []
        for n_steps in (20_000, {"c": 200_000, "numpy": 60_000}[kernel]):
            cfg = delay_config(standard, eps=0.005, dt=2.0 / n_steps,
                               n_paths=8, t_probe_list=())
            assert montecarlo._chunk_steps(8, cfg.model) == 16384
            tracemalloc.start()
            run_ensemble(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        bound = {"c": 1.3, "numpy": 1.5}[kernel]
        assert max(peaks) < bound * budget, (kernel, max(peaks) / budget)
        assert peaks[1] < 1.2 * peaks[0], (kernel, peaks)


def retiring_path_steps(cfg, times, threads: int = 1) -> int:
    """The path-steps of a run whose paths each step up to the last node of
    the chunk that holds the grid node of their time, where they retire,
    or to the end where their time is NaN."""
    n_steps = n_steps_for(cfg.t0, cfg.t_end, cfg.dt)
    total = 0
    for batch in montecarlo._batches(np.arange(cfg.n_paths), threads):
        steps = montecarlo._chunk_steps(len(batch), cfg.model)
        nodes = np.rint((times[batch] - cfg.t0) / cfg.dt)
        total += sum(n_steps if math.isnan(node)
                     else min(-(-int(node) // steps) * steps, n_steps)
                     for node in nodes.tolist())
    return total


def approach_path_steps(cfg, report) -> int:
    """The path-steps of an approach run: a path selected or never out of
    D steps to the end, and any other retires in the chunk of its tau_D."""
    tau = np.asarray(report.per_path["tau_D"])
    sups = report.per_path.get("sup_deviation")
    selected = np.zeros(len(tau), bool) if sups is None \
        else ~np.isnan(np.asarray(sups))
    return retiring_path_steps(cfg, np.where(selected, np.nan, tau))


def test_approach_steps_each_path_once(monkeypatch):
    """The approach tag selects its paths and takes their sup deviations in
    one pass, and a path that leaves D unselected retires at the end of
    that chunk: em_batch is handed exactly the path-steps up to there, and
    fewer than n_paths x n_steps."""
    cfg = pinned_config("approach")
    shapes = chunk_shapes(monkeypatch)
    report = run_ensemble(cfg)
    assert report.results["n_selected"] > 5
    steps = sum(b * n for b, n in shapes)
    assert steps == approach_path_steps(cfg, report)
    assert steps < cfg.n_paths * n_steps_for(cfg.t0, cfg.t_end, cfg.dt)


@pytest.mark.parametrize("threads", [1, 2])
def test_retired_paths_keep_their_columns(monkeypatch, kernels, threads):
    """A tau_window that selects no path retires every path at its exit
    from D, so every batch ends early; approach's tau_D is still bit for
    bit that of the escape tag, which steps every path to the end.  The
    unstable tag retires each path at its exit and keeps its pinned bytes.
    Both take fewer path-steps than they configure, exactly as many as the
    chunks of their exits hold; in chunks of 700 steps, through the
    kernels and NumPy."""
    monkeypatch.setattr(montecarlo, "_chunk_steps", lambda paths, model: 700)
    approach = dataclasses.replace(pinned_config("approach"),
                                   tau_window=(2.0, 2.0))
    escape = dataclasses.replace(approach, tag="escape")
    unstable = pinned_config("unstable")
    n_steps = n_steps_for(approach.t0, approach.t_end, approach.dt)
    shapes = chunk_shapes(monkeypatch)
    for kernel in kernels():
        shapes.clear()
        report = run_ensemble(approach, threads)
        tau = np.asarray(report.per_path["tau_D"])
        assert report.results["n_selected"] == 0 and not np.isnan(tau).any()
        assert sum(b * n for b, n in shapes) \
            == retiring_path_steps(approach, tau, threads)
        # each batch ends with the chunk of its last exit
        batches = montecarlo._batches(np.arange(approach.n_paths), threads)
        last = [round((np.max(tau[b]) - approach.t0) / approach.dt)
                for b in batches]
        assert len(shapes) == sum(-(-k // 700) for k in last) \
            < len(batches) * -(-n_steps // 700), kernel
        want = run_ensemble(escape, threads).per_path["tau_D"]
        assert tau.tobytes() == np.asarray(want).tobytes(), kernel

        shapes.clear()
        report = run_ensemble(unstable, threads)
        assert pinned_hashes(report) == PINNED["unstable"], kernel
        steps = sum(b * n for b, n in shapes)
        assert steps == retiring_path_steps(
            unstable, np.asarray(report.per_path["exit_time"]), threads)
        assert steps < unstable.n_paths * n_steps_for(
            unstable.t0, unstable.t_end, unstable.dt)


@pytest.mark.parametrize("tag", ["delay", "escape", "branch", "before",
                                 "stable"])
def test_tags_that_report_the_end_step_every_path(tag, monkeypatch):
    """delay, escape and branch report each path's final state, before its
    state at sqrt(eps) and stable a sup over the whole path, so none of
    them retires a path: em_batch is handed every path-step they
    configure, up to the last node <= sqrt(eps) for before."""
    cfg = pinned_config(tag)
    grid = time_grid(cfg.t0, cfg.dt, n_steps_for(cfg.t0, cfg.t_end, cfg.dt))
    if tag == "before":
        grid = grid[grid <= math.sqrt(cfg.eps) + 1e-12]
    shapes = chunk_shapes(monkeypatch)
    run_ensemble(cfg)
    assert sum(b * n for b, n in shapes) == cfg.n_paths * (len(grid) - 1)


def test_approach_peak_memory_flat_in_n_steps():
    """The post-exit centrelines and their zeta are stepped chunk by chunk,
    so ten times the steps leaves the approach tag's peak near where it
    was, and far below one (paths, n_steps) matrix."""
    peaks = {}
    for n_steps in (10_000, 100_000):
        cfg = dataclasses.replace(pinned_config("approach"), n_paths=64,
                                  dt=2.0 / n_steps)
        tracemalloc.start()
        report = run_ensemble(cfg)
        peaks[n_steps] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert report.results["n_selected"] > 3
    matrix = 8 * 64 * 100_000
    assert peaks[100_000] < matrix / 8
    assert peaks[100_000] < 1.5 * peaks[10_000]


def test_exit_scans_skip_rows_already_out(monkeypatch):
    """Once a row's first exit is kept, the scans of later chunks do not
    read it: the delay tag's scans read fewer nodes than its chunks hold,
    and the report keeps its bits."""
    read, total = [], []
    first_outside = exits._first_outside

    def counting(X, g1, g2, skip=None):
        total.append(X.size)
        read.append(X.size if skip is None
                    else X.shape[1] * int(np.sum(~skip)))
        return first_outside(X, g1, g2, skip)

    monkeypatch.setattr(exits, "_first_outside", counting)
    report = run_ensemble(pinned_config("delay"))
    assert pinned_hashes(report) == PINNED["delay"]
    assert sum(read) < 0.9 * sum(total)


def test_post_exit_family_matches_zeta_post_exit(standard, kernels):
    """The approach tag's zeta, taken along all family rows at once, equals
    zeta_post_exit along each centreline, and the family and its zeta are
    the same bits through the compiled kernels and the NumPy loops."""
    eps = 0.005
    grid = time_grid(0.1, 1e-4, 3000)
    start = [200, 205, 450, 1300]
    got = []
    for kernel in kernels():
        family = envelope.PostExitFamily(standard, eps, grid)
        family.add(start)
        xhat, zeta = family.step(slice(0, len(grid)))
        sqrtz = np.sqrt(zeta)
        for j, k0 in enumerate(start):
            assert np.all(np.isnan(xhat[j, :k0])), kernel
            assert np.all(np.isnan(sqrtz[j, :k0])), kernel
            det = DetPath(grid[k0:], xhat[j, k0:], eps, "rk4")
            table = zeta_post_exit(standard, eps, grid[k0:], det=det)
            assert np.array_equal(table.sqrt_zeta(), sqrtz[j, k0:]), kernel
        got.append((xhat, sqrtz))
    (xc, zc), (xn, zn) = got
    assert np.array_equal(xc, xn, equal_nan=True)
    assert np.array_equal(zc, zn, equal_nan=True)


@pytest.mark.parametrize("chunk", [700, 1])
def test_streamed_family_equals_the_whole_grid(standard, kernels, chunk):
    """PostExitFamily stepped over slices of chunk steps, each row added in
    the first slice that holds its start node (for 700 steps, one starts
    on the first slice's last node), gives the bits of one step over the
    whole grid, through the kernels and NumPy."""
    eps = 0.005
    grid = time_grid(0.1, 1e-4, 2100)
    starts = np.array([1, 200, 205, 699, 700, 1400, 2099])
    got = []
    for kernel in kernels():
        whole = envelope.PostExitFamily(standard, eps, grid)
        whole.add(starts)
        xhat, zeta = whole.step(slice(0, len(grid)))
        family = envelope.PostExitFamily(standard, eps, grid)
        xs, zs = np.full_like(xhat, np.nan), np.full_like(zeta, np.nan)
        for k0 in range(0, len(grid) - 1, chunk):
            nodes = slice(k0, min(k0 + chunk, len(grid) - 1) + 1)
            added = len(family.start)
            family.add(starts[added:][starts[added:] < nodes.stop])
            if len(family.start):
                rows = slice(0, len(family.start))
                xs[rows, nodes], zs[rows, nodes] = family.step(nodes)
        assert np.array_equal(xs, xhat, equal_nan=True), kernel
        assert np.array_equal(zs, zeta, equal_nan=True), kernel
        assert np.isfinite(zs[np.arange(len(starts)), starts]).all()
        got.append(zs)
    assert np.array_equal(*got, equal_nan=True)


def test_approach_sup_starts_at_the_exit_node(monkeypatch):
    """A centreline whose start value sits 1.0 away from the path makes the
    deviation at the exit node each selected path's sup: the scan reads
    that node, and no earlier one."""
    step = envelope.PostExitFamily.step
    at_node = {}  # start node -> zeta there

    def shifted(family, nodes):
        xhat, zeta = step(family, nodes)
        col = family.start - nodes.start
        for r in np.nonzero((col >= 0) & (col < xhat.shape[1]))[0]:
            xhat[r, col[r]] += 1.0
            at_node[int(family.start[r])] = zeta[r, col[r]]
        return xhat, zeta

    monkeypatch.setattr(envelope.PostExitFamily, "step", shifted)
    cfg = pinned_config("approach")
    report = run_ensemble(cfg)
    tau = np.asarray(report.per_path["tau_D"])
    sups = np.asarray(report.per_path["sup_deviation"])
    picked = ~np.isnan(sups)
    assert 5 < picked.sum() < cfg.n_paths
    # the centrelines start on the distinct exit nodes, in order
    taus, row = np.unique(tau[picked], return_inverse=True)
    start_col = np.array(sorted(at_node))
    zeta = np.full((len(start_col), n_steps_for(cfg.t0, cfg.t_end, cfg.dt)
                    + 1), np.nan)
    zeta[np.arange(len(start_col)), start_col] = [at_node[k]
                                                  for k in start_col]
    assert np.array_equal(start_col,
                          np.rint((taus - cfg.t0) / cfg.dt).astype(int))
    at_start = 1.0 / np.sqrt(zeta[row, start_col[row]])
    # the path is within 1e-3 of the unshifted centreline there
    assert np.allclose(sups[picked], at_start, rtol=1e-3, atol=0)


def test_zeta_rows_memory_stays_near_its_output(standard):
    """zeta_rows refines the grid in blocks of cells, so one call on 64
    family rows x 20001 nodes, with its output array, peaks below 1.5x that
    array (1.21x measured)."""
    eps = 0.01
    grid = time_grid(0.2, 4e-5, 20000)
    family = envelope.PostExitFamily(standard, eps, grid)
    family.add(np.linspace(0, 10000, 64).astype(np.intp))
    xhat, _ = family.step(slice(0, len(grid)))
    tracemalloc.start()
    zeta = np.empty_like(xhat)
    zeta[:, 0] = 1.0
    envelope.zeta_rows(standard, eps, grid, xhat, family.start, zeta)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1.5 * zeta.nbytes


def test_zeta_pitchfork_memory_stays_near_its_output(standard):
    """zeta_pitchfork scans the origin row in zeta_rows' blocks of cells,
    so on a 1.0e6-node export grid it peaks below 2.6x its zeta table: the
    table and one more grid-long array at a time (2.2x measured; 5.2x
    through a whole-grid scan's masks and NaN-filled copy, 28x refining
    a(t) over the whole grid at once)."""
    eps, dt, t0 = 2.5e-4, 1e-6, -1.0
    grid = time_grid(t0, dt, n_steps_for(t0, math.sqrt(eps), dt))
    assert len(grid) > 1_000_000
    tracemalloc.start()
    table = envelope.zeta_pitchfork(standard, eps, grid)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2.6 * table.zeta_values.nbytes


def test_zeta_rows_block_counts_the_coefficient_columns(standard):
    """A block of zeta_rows on one row of the standard drift holds some
    2^16 values counting the seven columns of the drift's and df/dx's
    coefficient tables: 2048 cells, whose arrays stay below 1.5 MiB on 2e4
    and 2e5 cells alike (0.66 MiB measured; blocks sized by the row alone
    held 4.6 MiB)."""
    eps = 2.5e-4
    for n in (8, 20_000, 200_000):  # the first call only warms up
        grid = time_grid(-1.0, 4e-6, n)
        zeta = np.empty((1, n + 1))
        zeta[:, 0] = 1.0
        tracemalloc.start()
        envelope.zeta_rows(standard, eps, grid,
                           np.broadcast_to(0.0, (1, n + 1)),
                           np.zeros(1, dtype=np.intp), zeta)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert np.isfinite(zeta).all()
        assert peak < 1.5 * (1 << 20), (n, peak)
