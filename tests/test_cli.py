import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slowsde import _brentq, cli, envelope, montecarlo
from slowsde.cli import cmd_envelope, cmd_run, cmd_validate, main


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

    @pytest.mark.parametrize("fault",
                             ["nan_path", "nan_drift", "root_not_converged"])
    def test_run_failure_status(self, tmp_path, out, capsys, monkeypatch,
                                nan_patch, fault):
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
            # paths turn NaN in the drift; escape reads only exit times
            monkeypatch.setattr(cli, "model_from_dict", lambda doc: nan_patch)
            doc["dynamics"].update(sigma=1e-3, dt=1e-3)
            doc["ensemble"] = {"n_paths": 50, "master_seed": 3}
            doc["experiment"] = {"tag": "escape", "t_probe_list": [0.5]}
            expected = "non-finite final state"
        else:
            monkeypatch.setattr(envelope, "brentq",
                                functools.partial(_brentq.brentq, maxiter=1))
            expected = "no convergence after 1 iterations"
        cfg = write(tmp_path, "cfg.json", doc)
        assert cmd_run(cfg, out=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err
        assert not (out / "report.json").exists()

    def test_missing_config(self, out):
        assert cmd_run("no_such_config.json", out=str(out)) == 1

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


class TestEnvelope:
    def test_pitchfork_tables(self, tmp_path, out):
        cfg = write(tmp_path, "cfg.json", SMALL_DELAY)
        assert cmd_envelope(cfg, out=str(out)) == 0
        for name in ("zeta_pitchfork.csv", "region_D.csv", "region_S.csv",
                     "bounds.csv"):
            assert (out / name).exists()
        header = (out / "zeta_pitchfork.csv").read_text().splitlines()
        assert header[1] == "t,zeta"


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
from slowsde.cli import main
loaded = {}
for name, cfg in json.loads(sys.argv[1]):
    assert main(["run", "--config", cfg, "--out", sys.argv[2] + "/" + name]) == 0
    loaded[name] = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps(loaded))
"""


def test_run_path_loads_no_scipy(tmp_path):
    """`slowsde run` on standard-model configs never imports SciPy.

    Roots are solved by slowsde._brentq, and the standard model's rate
    integral alpha has a closed form.  Configs whose model has no
    `alpha_closed` still load scipy.integrate.quad lazily, inside
    model.alpha; linear_stable.json is such a config (its JSON-coefficient
    stable-branch model has an equilibrium, so no closed-form alpha), so it
    is not checked here.
    """
    small_approach = write(tmp_path, "approach.json", {
        "model": {"builtin": "standard"},
        "dynamics": {"eps": 0.005, "sigma": 1e-4, "t0": -1.0, "x0": 0.0,
                     "t_end": 1.0, "dt": 1e-4},
        "ensemble": {"n_paths": 100, "master_seed": 3},
        "experiment": {"tag": "approach", "h_list": [0.0005],
                       "tau_window": [0.15, 0.25]},
    })
    configs = [["delay", "standard_delay.json"],
               ["branch", "standard_branch.json"],
               ["approach", small_approach]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(configs),
         str(tmp_path)], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"delay": [], "branch": [], "approach": []}
    # the approach run reached the post-exit family and its exceedance
    report = json.loads((tmp_path / "approach" / "report.json").read_text())
    assert report["results"]["n_selected"] > 0
