import json

import pytest

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
