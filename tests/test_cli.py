import functools
import hashlib
import importlib.resources
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from slowsde import _brentq, cli, envelope, model_from_dict, montecarlo
from slowsde.cli import cmd_envelope, cmd_run, cmd_validate, main
from test_montecarlo import PINNED, pinned_config


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "out"


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


SMALL_DELAY = {
    "model": {"builtin": "standard"},
    "dynamics": {"eps": 0.01, "sigma": 1e-4, "t0": -1.0, "x0": 0.0,
                 "t_end": 1.0, "dt": 2e-4},
    "ensemble": {"n_paths": 120, "master_seed": 5},
    "experiment": {"tag": "delay", "t_probe_list": [0.45, 0.55]},
}


class TestRun:
    def test_shipped_config_smoke(self, out):
        status = cmd_run("standard_delay.json", out=str(out))
        assert status == 0
        report = json.loads((out / "report.json").read_text())
        assert "delay_quantiles" in report["results"]
        assert (out / "delay_histogram.csv").exists()
        assert (out / "survival.csv").exists()
        assert (out / "paths_summary.csv").exists()

    def test_rerun_byte_identical(self, tmp_path, out):
        cfg = write(tmp_path, "cfg.json", SMALL_DELAY)
        assert cmd_run(cfg, out=str(out / "a")) == 0
        assert cmd_run(cfg, out=str(out / "b"), threads=4) == 0
        for name in ("report.json", "delay_histogram.csv", "survival.csv",
                     "paths_summary.csv"):
            assert (out / "a" / name).read_bytes() == \
                (out / "b" / name).read_bytes()

    def test_regime_violation_status(self, tmp_path, out):
        doc = json.loads(json.dumps(SMALL_DELAY))
        doc["dynamics"]["sigma"] = 0.5
        doc["experiment"] = {"tag": "before", "h_list": [0.001]}
        cfg = write(tmp_path, "bad.json", doc)
        assert cmd_run(cfg, out=str(out)) == 2

    def test_schema_violation_status(self, tmp_path, out):
        doc = json.loads(json.dumps(SMALL_DELAY))
        doc["unknown_section"] = {}
        cfg = write(tmp_path, "bad.json", doc)
        assert cmd_run(cfg, out=str(out)) == 1

    def test_non_finite_start_value_rejected(self, tmp_path, out, capsys):
        # x_tilde(t) = sqrt(lambda t) has no real value before the bifurcation
        doc = json.loads(json.dumps(SMALL_DELAY))
        doc["dynamics"].update(t0=-0.5, x0="x_tilde")
        doc["ensemble"]["n_paths"] = 50
        doc["experiment"] = {"tag": "branch"}
        cfg = write(tmp_path, "nan_start.json", doc)
        assert cmd_run(cfg, out=str(out)) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_unresolvable_start_rule_names_x0_and_t0(self, tmp_path, out,
                                                     capsys):
        # the quintic's branch curves need t > 0; x_tilde at t0 < 0 fails
        doc = json.loads(json.dumps(SMALL_DELAY))
        doc["model"] = {"coeffs": [[0], [0, 1], [0], [-1], [0], [1]],
                        "kind": "pitchfork", "d": 0.7, "T": 0.2}
        doc["dynamics"].update(t0=-0.1, x0="x_tilde", t_end=0.2)
        doc["experiment"] = {"tag": "branch"}
        cfg = write(tmp_path, "quintic.json", doc)
        assert cmd_run(cfg, out=str(out)) == 1
        err = capsys.readouterr().err
        assert "x0='x_tilde'" in err and "t0=-0.1" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("fault", ["nan_path", "nan_drift",
                                       "root_not_converged", "envelope_table",
                                       "nan_zeta"])
    def test_run_failure_status(self, tmp_path, out, capsys, monkeypatch,
                                fault):
        # a package error raised inside the run is status 1, not a traceback
        doc = json.loads(json.dumps(SMALL_DELAY))
        if fault == "nan_path":
            stepper = montecarlo.em_batch

            def nan_row(*args):
                X, trunc = stepper(*args)
                X[0, 1:] = np.nan
                return X, trunc

            monkeypatch.setattr(montecarlo, "em_batch", nan_row)
            doc["experiment"] = {"tag": "branch"}
            expected = "non-finite final state"
        elif fault == "nan_drift":
            # a path turns NaN mid-chunk, before region D's window opens;
            # escape reads only exit times, which stay NaN on it
            stepper = montecarlo.em_batch

            def nan_tail(*args):
                X, trunc = stepper(*args)
                X[3, X.shape[1] // 2:] = np.nan
                return X, trunc

            monkeypatch.setattr(montecarlo, "em_batch", nan_tail)
            doc["dynamics"].update(sigma=1e-3, dt=1e-3)
            doc["ensemble"] = {"n_paths": 50, "master_seed": 3}
            doc["experiment"] = {"tag": "escape", "t_probe_list": [0.5]}
            expected = "non-finite final state"
        elif fault == "envelope_table":
            # the run succeeds; then sqrt(eps) = 0.2 > T leaves bound_escape
            # no window
            doc = {"model": {"builtin": "standard", "T": 0.1},
                   "dynamics": {"eps": 0.04, "sigma": 0.001, "t0": -0.1,
                                "x0": 0.0, "t_end": 0.1},
                   "ensemble": {"n_paths": 20, "master_seed": 1},
                   "experiment": {"tag": "branch"}}
            expected = "need t > t0"
        elif fault == "nan_zeta":
            # the run succeeds; then the exported zeta table has a NaN,
            # which NaN <= 0 would not catch
            rows = envelope.zeta_rows

            def nan_node(*args):
                rows(*args)
                args[-1][..., 3] = np.nan  # the zeta it wrote

            monkeypatch.setattr(envelope, "zeta_rows", nan_node)
            expected = "zeta must stay finite"
        else:
            monkeypatch.setattr(envelope, "brentq",
                                functools.partial(_brentq.brentq, maxiter=1))
            expected = "no convergence after 1 iterations"
        cfg = write(tmp_path, "cfg.json", doc)
        assert cmd_run(cfg, out=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err
        assert not out.exists()

    def test_missing_config(self, out):
        assert cmd_run("no_such_config.json", out=str(out)) == 1

    def test_value_error_in_run_status(self, tmp_path, out, capsys,
                                       monkeypatch):
        # a bare ValueError from inside the run, as solve_det raises for a
        # start outside the model domain, is status 1, not a traceback
        def fail(*args, **kw):
            raise ValueError("start (5, 0) outside the model domain")

        monkeypatch.setattr(cli, "run_ensemble", fail)
        cfg = write(tmp_path, "cfg.json", SMALL_DELAY)
        assert cmd_run(cfg, out=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "outside the model domain" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "envelope"])
    @pytest.mark.parametrize("case", ["out-is-a-file", "config-is-a-dir"])
    def test_io_error_status(self, tmp_path, capsys, monkeypatch, command,
                             case):
        cfg, out = write(tmp_path, "cfg.json", SMALL_DELAY), tmp_path / "out"
        if case == "out-is-a-file":
            out.write_text("")   # NotADirectoryError in _outdir, unrun
            monkeypatch.setattr(cli, "run_ensemble",
                                lambda *args, **kw: pytest.fail("ran"))
        else:
            cfg = str(tmp_path)  # IsADirectoryError in load_config
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_seed_override_changes_hash(self, tmp_path, out):
        cfg = write(tmp_path, "cfg.json", SMALL_DELAY)
        cmd_run(cfg, out=str(out / "a"))
        cmd_run(cfg, out=str(out / "b"), seed=99)
        ha = json.loads((out / "a" / "report.json").read_text())["config_hash"]
        hb = json.loads((out / "b" / "report.json").read_text())["config_hash"]
        assert ha != hb

    def test_outputs_embed_hash_and_seed(self, tmp_path, out):
        cfg = write(tmp_path, "cfg.json", SMALL_DELAY)
        cmd_run(cfg, out=str(out))
        report = json.loads((out / "report.json").read_text())
        first = (out / "delay_histogram.csv").read_text().splitlines()[0]
        assert report["config_hash"] in first
        assert "master_seed=5" in first


STANDARD_COEFFS = [[0.0], [0.0, 1.0], [0.0], [-1.0]]
DROP = object()  # a MALFORMED value that deletes the key

LINEAR_STABLE = json.loads((importlib.resources.files("slowsde") / "configs"
                            / "linear_stable.json").read_text())
SMALL_UNSTABLE = {
    "model": {"coeffs": [[0.0], [1.0]], "kind": "unstable-branch",
              "equilibrium": [0.0], "d": 2.0, "T": 0.2},
    "dynamics": {"eps": 0.01, "sigma": 1e-3, "t0": 0.0, "x0": 0.0,
                 "t_end": 0.2},
    "ensemble": {"n_paths": 20, "master_seed": 1},
    "experiment": {"tag": "unstable", "t_probe_list": [0.01]},
}

# one document per rule of the config document: (path, value) edits of
# SMALL_DELAY, or (path, value, doc) edits of another doc, each of which
# must be rejected
MALFORMED = {
    "unknown-top": (("colour",), {}),
    "unknown-model": (("model", "colour"), 1.0),
    "unknown-dynamics": (("dynamics", "colour"), 1.0),
    "unknown-ensemble": (("ensemble", "colour"), 1),
    "unknown-experiment": (("experiment", "colour"), 1.0),
    "unknown-output": (("output", "colour"), "out"),
    **{f"missing-{key}": ((key,), DROP)
       for key in ("model", "dynamics", "ensemble", "experiment")},
    "missing-builtin": (("model", "builtin"), DROP),
    **{f"missing-{key}": (("dynamics", key), DROP)
       for key in ("eps", "sigma", "t0", "x0", "t_end")},
    **{f"missing-{key}": (("ensemble", key), DROP)
       for key in ("n_paths", "master_seed")},
    "missing-tag": (("experiment", "tag"), DROP),
    **{f"true-{'-'.join(path)}": (path, True) for path in (
        ("dynamics", "eps"), ("dynamics", "sigma"), ("dynamics", "t0"),
        ("dynamics", "x0"), ("dynamics", "t_end"), ("dynamics", "dt"),
        ("ensemble", "n_paths"), ("ensemble", "master_seed"),
        ("experiment", "eta"), ("experiment", "bound_c0"),
        ("model", "lambda"), ("model", "eta"), ("model", "d"),
        ("model", "T"))},
    "true-h_list": (("experiment", "h_list"), [True]),
    "true-tau_window": (("experiment", "tau_window"), [True, 0.25]),
    "string-eps": (("dynamics", "eps"), "0.01"),
    "string-n_paths": (("ensemble", "n_paths"), "120"),
    "string-t_probe_list": (("experiment", "t_probe_list"), ["0.45"]),
    "string-lambda": (("model", "lambda"), "0.4"),
    "fraction-n_paths": (("ensemble", "n_paths"), 120.5),
    "number-mirror": (("ensemble", "mirror"), 1),
    "number-directory": (("output", "directory"), 5),
    "zero-eps": (("dynamics", "eps"), 0.0),
    "negative-eps": (("dynamics", "eps"), -0.01),
    "zero-dt": (("dynamics", "dt"), 0.0),
    "negative-dt": (("dynamics", "dt"), -2e-4),
    "negative-sigma": (("dynamics", "sigma"), -1e-4),
    "zero-sigma": (("dynamics", "sigma"), 0.0),
    # outside the model's domain |x| <= d, -T <= t <= T (d = T = 1)
    "past-T-t_end": (("dynamics", "t_end"), 3.0),
    "before-T-t0": (("dynamics", "t0"), -1.5),
    "outside-d-x0": (("dynamics", "x0"), 1.5),
    "stable-outside-d-x0": (("dynamics", "x0"), 5.0, LINEAR_STABLE),
    "stable-past-T-t_end": (("dynamics", "t_end"), 0.3, LINEAR_STABLE),
    # the unstable tag reports one h, and its bound needs 0 < h <= sigma
    "unstable-two-h_list": (("experiment", "h_list"), [5e-4, 2e-3],
                            SMALL_UNSTABLE),
    "unstable-above-sigma-h_list": (("experiment", "h_list"), [2e-3],
                                    SMALL_UNSTABLE),
    "unstable-zero-h_list": (("experiment", "h_list"), [0.0], SMALL_UNSTABLE),
    "zero-n_paths": (("ensemble", "n_paths"), 0),
    "negative-master_seed": (("ensemble", "master_seed"), -1),
    "three-tau_window": (("experiment", "tau_window"), [0.1, 0.2, 0.3]),
    "three-t_range": (("model",), {"coeffs": STANDARD_COEFFS,
                                   "kind": "pitchfork",
                                   "t_range": [-1.0, 0.0, 1.0]}),
    "bad-tag": (("experiment", "tag"), "delays"),
    "bad-kind": (("model",), {"coeffs": STANDARD_COEFFS, "kind": "saddle"}),
    "bad-builtin": (("model", "builtin"), "cubic"),
    "bad-x0": (("dynamics", "x0"), "x_star"),
    "one-eta": (("experiment", "eta"), 1.0),
    "above-one-eta": (("experiment", "eta"), 1.5),
    "negative-eta": (("experiment", "eta"), -0.5),
    "zero-bound_c0": (("experiment", "bound_c0"), 0.0),
    "negative-bound_c0": (("experiment", "bound_c0"), -1.0),
    "reversed-tau_window": (("experiment", "tau_window"), [0.25, 0.15]),
}

# model documents with a key their form does not read, or without kind
DRIFTED_MODELS = {
    "builtin-kind": {"builtin": "standard", "kind": "stable-branch"},
    "builtin-coeffs": {"builtin": "standard", "coeffs": STANDARD_COEFFS},
    "builtin-t_range": {"builtin": "standard", "t_range": [-1.0, 1.0]},
    "builtin-equilibrium": {"builtin": "standard", "equilibrium": [0.0]},
    "builtin-name": {"builtin": "standard", "name": "mine"},
    "coeffs-without-kind": {"coeffs": STANDARD_COEFFS},
    "pitchfork-equilibrium": {"kind": "pitchfork", "coeffs": STANDARD_COEFFS,
                              "equilibrium": [0.5, 3.0]},
}


def edited(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


class TestMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected(self, tmp_path, out, capsys, monkeypatch, case):
        # rejected before anything is simulated, naming the key
        monkeypatch.setattr(cli, "run_ensemble",
                            lambda *args, **kw: pytest.fail("ran"))
        path, value, *base = MALFORMED[case]
        doc = edited(base[0] if base else SMALL_DELAY, path, value)
        assert cmd_run(write(tmp_path, "bad.json", doc), out=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path[-1] in err
        assert not out.exists()

    @pytest.mark.parametrize("path, value", [
        (("dynamics", "eps"), math.nan), (("dynamics", "t_end"), math.inf),
        (("experiment", "h_list"), [-math.inf]), (("model", "lambda"), math.nan),
        (("model", "d"), -1.0), (("model", "T"), 0.0)])
    def test_non_finite_or_empty_domain_rejected(self, tmp_path, out, capsys,
                                                 path, value):
        # json reads NaN and Infinity, and d, T <= 0 leave no domain
        cfg = write(tmp_path, "bad.json", edited(SMALL_DELAY, path, value))
        assert cmd_run(cfg, out=str(out)) == 1
        assert "must be a" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_master_seed_is_a_philox_key(self, tmp_path, out, capsys):
        # --seed bypasses the document, but not the range of the key
        cfg = write(tmp_path, "cfg.json", SMALL_DELAY)
        assert cmd_run(cfg, seed=-1, out=str(out)) == 1
        big = edited(SMALL_DELAY, ("ensemble", "master_seed"), 2 ** 64)
        assert cmd_run(write(tmp_path, "big.json", big), out=str(out)) == 1
        assert capsys.readouterr().err.count("not in [0, 2^64)") == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("case", sorted(DRIFTED_MODELS))
    def test_drifted_model_rejected(self, tmp_path, out, capsys, case):
        model = DRIFTED_MODELS[case]
        cfg = write(tmp_path, "bad.json", edited(SMALL_DELAY, ("model",), model))
        assert cmd_run(cfg, out=str(out)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "report.json").exists()
        assert cmd_validate(write(tmp_path, "m.json", model)) == 1
        assert capsys.readouterr().err.startswith("validation failed: ")

    def test_one_model_build_per_run(self, tmp_path, out, monkeypatch):
        calls = []

        def counted(doc):
            calls.append(doc)
            return model_from_dict(doc)

        monkeypatch.setattr(cli, "model_from_dict", counted)
        assert cmd_run(write(tmp_path, "cfg.json", SMALL_DELAY),
                       out=str(out)) == 0
        assert calls == [SMALL_DELAY["model"]]


class TestEnvelope:
    def test_pitchfork_tables(self, tmp_path, out):
        cfg = write(tmp_path, "cfg.json", SMALL_DELAY)
        assert cmd_envelope(cfg, out=str(out)) == 0
        for name in ("zeta_pitchfork.csv", "region_D.csv", "region_S.csv",
                     "bounds.csv"):
            assert (out / name).exists()
        header = (out / "zeta_pitchfork.csv").read_text().splitlines()
        assert header[1] == "t,zeta"

    def test_export_memory_stays_near_its_zeta(self, tmp_path):
        """The pitchfork export of a 1.0e6-node zeta grid holds its grid,
        zeta and rate columns and a block at a time: its traced peak stays
        below 3.7x the zeta bytes (3.16x measured; 6.2x when each table
        was stacked and checked whole)."""
        doc = json.loads(json.dumps(SMALL_DELAY))
        doc["dynamics"].update(eps=2.5e-4, sigma=1e-6, dt=1e-6)
        _, config = cli.load_config(write(tmp_path, "cfg.json", doc))
        tracemalloc.start()
        cli._export_envelopes(tmp_path / "out", config)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        with open(tmp_path / "out" / "zeta_pitchfork.csv", "rb") as fh:
            nodes = sum(1 for _ in fh) - 2
        assert nodes > 1_000_000
        assert peak < 3.7 * 8 * nodes, peak / (8 * nodes)


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


# sha256 prefixes of the envelope tables: those of the standard model at
# eps 0.01 and dt 2e-4 (standard_delay.json and the pinned before, escape,
# delay and branch), at eps 0.005 and dt 1e-4 (standard_branch.json and the
# pinned approach), and the linear stable model's
_ENVELOPE_01 = {"bounds.csv": "2dc6fcd4abb7be10",
                "region_D.csv": "bbcdd8b058602bbf",
                "region_S.csv": "840e0a46e27c6e40",
                "zeta_pitchfork.csv": "fa05940ac0de36a7"}
_ENVELOPE_005 = {"bounds.csv": "b7534ebed779b02d",
                 "region_D.csv": "a5b3a2ec017c1718",
                 "region_S.csv": "c5535dac13e6e1ab",
                 "zeta_pitchfork.csv": "73ffb503d1f885a6"}
_ZETA_STABLE = {"zeta_stable.csv": "e1c6c3ba1e4f13c1"}
# every CSV that cmd_run writes for each pinned config, and that
# cmd_envelope writes for each shipped config
CSV_PINNED = {
    "run-stable": {**_ZETA_STABLE, "exceedance.csv": "191f08d70c47f2d9",
                   "paths_summary.csv": "9a7ae8f9b162f6b7"},
    # survival.csv: see PINNED["unstable"] of test_montecarlo.py
    "run-unstable": {"paths_summary.csv": "4d14f96d8bbbf2b8",
                     "survival.csv": "4437e7cfcb93c672"},
    "run-before": {**_ENVELOPE_01, "exceedance.csv": "d408c2c267dc8a48",
                   "paths_summary.csv": "8f9ee7359c929f8a"},
    "run-escape": {**_ENVELOPE_01, "paths_summary.csv": "d6d0724ba68f9881",
                   "survival.csv": "a84a0f94e6bb4c63"},
    "run-delay": {**_ENVELOPE_01, "delay_histogram.csv": "57893627a79dcde7",
                  "paths_summary.csv": "7cfe7c2f6c12f8be",
                  "survival.csv": "d1d43ae38216c8f8"},
    "run-branch": {**_ENVELOPE_01, "paths_summary.csv": "c4699a446a28010b"},
    # 176 blank cells: the paths that were not selected
    "run-approach": {**_ENVELOPE_005, "exceedance.csv": "b0d000a625b7782f",
                     "paths_summary.csv": "593b6a8f906d8b21"},
    "envelope-standard_delay.json": _ENVELOPE_01,
    "envelope-standard_branch.json": _ENVELOPE_005,
    "envelope-linear_stable.json": _ZETA_STABLE,
}


@pytest.mark.parametrize("case", sorted(CSV_PINNED))
def test_csv_bytes_pinned(case, tmp_path, monkeypatch, kernels):
    """Every CSV of run and envelope keeps its bytes, with both kernels."""
    command, name = case.split("-", 1)
    if command == "run":
        cfg = pinned_config(name)
        monkeypatch.setattr(cli, "load_config",
                            lambda path, seed=None: ({}, cfg))
    for kernel in kernels():
        out = tmp_path / kernel
        status = cmd_run(name, out=str(out)) if command == "run" \
            else cmd_envelope(name, out=str(out))
        assert status == 0
        assert {p.name: _sha(p) for p in out.glob("*.csv")} \
            == CSV_PINNED[case], kernel


class TestValidate:
    def test_standard_passes(self, tmp_path, capsys):
        p = write(tmp_path, "m.json", {"kind": "pitchfork",
                                       "builtin": "standard"})
        assert cmd_validate(p) == 0
        text = capsys.readouterr().out
        assert "symmetry residual" in text
        assert "lambda" in text

    def test_non_odd_fails(self, tmp_path, capsys):
        p = write(tmp_path, "m.json",
                  {"kind": "pitchfork",
                   "coeffs": [[0.1], [0.0, 1.0], [0.0], [-1.0]]})
        assert cmd_validate(p) == 1
        assert "odd" in capsys.readouterr().err

    def test_reversed_time_range_fails(self, tmp_path, capsys):
        p = write(tmp_path, "m.json",
                  {"coeffs": [[0], [-1]], "kind": "stable-branch",
                   "t_range": [1, 0], "equilibrium": [0]})
        assert cmd_validate(p) == 1
        assert "empty or reversed" in capsys.readouterr().err

    def test_subcritical_fails(self, tmp_path, capsys):
        p = write(tmp_path, "m.json",
                  {"kind": "pitchfork",
                   "coeffs": [[0.0], [0.0, 1.0], [0.0], [1.0]]})
        assert cmd_validate(p) == 1
        assert "supercritical" in capsys.readouterr().err


class TestMain:
    def test_usage_roundtrip(self, tmp_path, out):
        cfg = write(tmp_path, "cfg.json", SMALL_DELAY)
        status = main(["run", "--config", cfg, "--out", str(out),
                       "--threads", "2"])
        assert status == 0

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, tmp_path, out, capsys,
                                        threads):
        cfg = write(tmp_path, "cfg.json", SMALL_DELAY)
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--threads", threads]) == 1
        assert f"error: threads must be at least 1, got {threads}" in \
            capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_failed_run_makes_no_directory(self, tmp_path, capsys):
        # the output directory is made once the run and every table have
        # been computed, so a run that fails leaves no empty directory
        cfg = write(tmp_path, "cfg.json", SMALL_DELAY)
        out = tmp_path / "new" / "dir"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--threads", "0"]) == 1
        assert "threads must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_strict_flag_accepted(self, tmp_path, out):
        cfg = write(tmp_path, "cfg.json", SMALL_DELAY)
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--strict"]) in (0, 3)


class TestStrictViolation:
    def test_forced_violation_returns_3(self, tmp_path, out):
        # a vanishing numerical constant makes the escape bound impossibly
        # small, so the otherwise-healthy survival comparison reads violated
        doc = json.loads(json.dumps(SMALL_DELAY))
        doc["experiment"] = {"tag": "delay", "t_probe_list": [0.3],
                             "bound_c0": 1e-30}
        cfg = write(tmp_path, "cfg.json", doc)
        assert cmd_run(cfg, out=str(out), strict=True) == 3
        assert cmd_run(cfg, out=str(out / "plain")) == 0


_SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[2])
from slowsde.cli import main
from slowsde.montecarlo import run_ensemble
from test_montecarlo import PINNED, pinned_config
loaded = {}
def probe(name):
    loaded[name] = sorted(m for m in sys.modules
                          if m.startswith(("scipy", "jsonschema",
                                           "concurrent.futures"))
                          or m == "numpy.ma" or m.startswith("numpy.ma."))
for name, argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, name
    probe(name)
for tag in sorted(PINNED):
    run_ensemble(pinned_config(tag))
    probe("pinned-" + tag)
print(json.dumps(loaded))
"""


def test_run_path_loads_no_scipy(tmp_path):
    """No command imports SciPy, and no run imports jsonschema: the config
    classes check the document.  Nor does any, or a run of any pinned tag,
    import numpy.ma, which np.quantile would load inside the timed run, or
    on one thread concurrent.futures, which only a run on more threads
    needs.  The commands run in development mode with ResourceWarning an
    error, so a file the CLI leaves unclosed shows on stderr.

    Roots are solved by slowsde._brentq, and the rate integral alpha has
    a closed form for every model.
    """
    small_approach = write(tmp_path, "approach.json", {
        "model": {"builtin": "standard"},
        "dynamics": {"eps": 0.005, "sigma": 1e-4, "t0": -1.0, "x0": 0.0,
                     "t_end": 1.0, "dt": 1e-4},
        "ensemble": {"n_paths": 100, "master_seed": 3},
        "experiment": {"tag": "approach", "h_list": [0.0005],
                       "tau_window": [0.15, 0.25]},
    })
    coeff_model = write(tmp_path, "model.json", {
        "kind": "stable-branch", "coeffs": [[0.0], [-1.0, 0.5], [0.0], [-1.0]],
        "equilibrium": [0.1, 0.2], "d": 2.0, "T": 1.0})
    shipped = ("standard_delay.json", "standard_branch.json",
               "linear_stable.json")
    commands = [[name, ["run", "--config", cfg, "--out",
                        str(tmp_path / name)]]
                for name, cfg in [("delay", shipped[0]), ("branch", shipped[1]),
                                  ("linear", shipped[2]),
                                  ("approach", small_approach)]]
    commands += [[f"envelope-{cfg}", ["envelope", "--config", cfg, "--out",
                                      str(tmp_path / f"envelope-{cfg}")]]
                 for cfg in shipped]
    commands.append(["validate", ["validate", coeff_model]])
    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
         _SCIPY_PROBE, json.dumps(commands), str(tests)],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    names = [name for name, _ in commands] + [
        "pinned-" + tag for tag in sorted(PINNED)]
    assert loaded == {name: [] for name in names}
    # the approach run reached the post-exit family and its exceedance
    report = json.loads((tmp_path / "approach" / "report.json").read_text())
    assert report["results"]["n_selected"] > 0
