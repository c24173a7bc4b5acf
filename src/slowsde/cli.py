"""Command line front end.

Subcommands: run (simulate an experiment config and write reports),
envelope (export zeta/region/bound tables without simulating), validate
(check a model document against the structural assumptions).

Exit status contract: 0 success, 1 config or validation error, 2 regime
violation, 3 bound violation under --strict.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import envelope as env
from .deterministic import solve_det
from .errors import ConfigError, RegimeViolation, SlowSdeError
from .model import branches, model_from_dict
from .montecarlo import EnsembleConfig, run_ensemble
from .sde import time_grid, n_steps_for

_MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "builtin": {"enum": ["standard"]},
        "kind": {"enum": ["pitchfork", "stable-branch", "unstable-branch"]},
        "coeffs": {"type": "array",
                   "items": {"type": "array", "items": {"type": "number"}}},
        "lambda": {"type": "number"},
        "eta": {"type": "number"},
        "d": {"type": "number"},
        "T": {"type": "number"},
        "t_range": {"type": "array", "items": {"type": "number"},
                    "minItems": 2, "maxItems": 2},
        "equilibrium": {"type": "array", "items": {"type": "number"}},
        "name": {"type": "string"},
    },
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "model": _MODEL_SCHEMA,
        "dynamics": {
            "type": "object",
            "properties": {
                "eps": {"type": "number", "exclusiveMinimum": 0},
                "sigma": {"type": "number", "minimum": 0},
                "t0": {"type": "number"},
                "x0": {"anyOf": [{"type": "number"},
                                 {"enum": ["x_tilde"]}]},
                "t_end": {"type": "number"},
                "dt": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["eps", "sigma", "t0", "x0", "t_end"],
            "additionalProperties": False,
        },
        "ensemble": {
            "type": "object",
            "properties": {
                "n_paths": {"type": "integer", "minimum": 1},
                "master_seed": {"type": "integer", "minimum": 0},
                "mirror": {"type": "boolean"},
            },
            "required": ["n_paths", "master_seed"],
            "additionalProperties": False,
        },
        "experiment": {
            "type": "object",
            "properties": {
                "tag": {"enum": ["stable", "unstable", "before", "escape",
                                 "approach", "delay", "branch"]},
                "h_list": {"type": "array", "items": {"type": "number"}},
                "t_probe_list": {"type": "array", "items": {"type": "number"}},
                "eta": {"type": ["number", "null"]},
                "tau_window": {"type": "array", "items": {"type": "number"},
                               "minItems": 2, "maxItems": 2},
                "bound_c0": {"type": "number"},
            },
            "required": ["tag"],
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {
                "directory": {"type": "string"},
            },
            "additionalProperties": False,
        },
    },
    "required": ["model", "dynamics", "ensemble", "experiment"],
    "additionalProperties": False,
}


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        shipped = importlib.resources.files("slowsde") / "configs" / str(path)
        if shipped.is_file():
            p = shipped
        else:
            raise ConfigError(f"config file {path!r} not found")
    with open(p) as fh:
        doc = json.load(fh)
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc
    return doc


def build_ensemble_config(doc: dict, seed_override=None) -> EnsembleConfig:
    model = model_from_dict(doc["model"])
    dyn = doc["dynamics"]
    ens = doc["ensemble"]
    exp = doc["experiment"]
    return EnsembleConfig(
        model=model,
        eps=dyn["eps"], sigma=dyn["sigma"], t0=dyn["t0"], x0=dyn["x0"],
        t_end=dyn["t_end"], dt=dyn.get("dt", dyn["eps"] / 50.0),
        n_paths=ens["n_paths"],
        master_seed=ens["master_seed"] if seed_override is None else seed_override,
        tag=exp["tag"],
        h_list=tuple(exp.get("h_list", ())),
        t_probe_list=tuple(exp.get("t_probe_list", ())),
        eta=exp.get("eta"),
        mirror=ens.get("mirror", False),
        tau_window=tuple(exp.get("tau_window", (0.15, 0.25))),
        bound_c0=exp.get("bound_c0", 1.0),
    )


def _stamp(fh, report) -> None:
    fh.write(f"# config_hash={report.config_hash} "
             f"master_seed={report.config['ensemble']['master_seed']}\n")


def _write_prob_series(path, report, rows, key: str) -> None:
    with open(path, "w") as fh:
        _stamp(fh, report)
        fh.write(f"{key},p_hat,ci_low,ci_high,bound\n")
        for row in rows:
            b = row.get("bound")
            bv = b["bound"] if isinstance(b, dict) else b
            tail = f"{bv:.17g}" if bv is not None else ""
            fh.write(f"{row[key]:.17g},{row['p_hat']:.17g},"
                     f"{row['ci_low']:.17g},{row['ci_high']:.17g},{tail}\n")


def _write_histogram(path, report, hist: dict) -> None:
    edges = hist.get("edges", [])
    counts = hist.get("counts", [])
    with open(path, "w") as fh:
        _stamp(fh, report)
        fh.write("bin_lo,bin_hi,count\n")
        for i, c in enumerate(counts):
            fh.write(f"{edges[i]:.17g},{edges[i + 1]:.17g},{int(c)}\n")


def _write_per_path(path, report, per_path: dict) -> None:
    keys = sorted(per_path)
    n = len(next(iter(per_path.values())))
    with open(path, "w") as fh:
        _stamp(fh, report)
        fh.write("path_index," + ",".join(keys) + "\n")
        for i in range(n):
            cells = []
            for k in keys:
                v = per_path[k][i]
                cells.append("" if isinstance(v, float) and math.isnan(v)
                             else f"{v:.17g}" if isinstance(v, float)
                             else str(v))
            fh.write(f"{i}," + ",".join(cells) + "\n")


def _export_envelopes(outdir: Path, doc: dict) -> None:
    model = model_from_dict(doc["model"])
    dyn = doc["dynamics"]
    eps, sigma = dyn["eps"], dyn["sigma"]
    dt = dyn.get("dt", eps / 50.0)
    if model.kind == "pitchfork":
        sq = math.sqrt(eps)
        t0 = min(dyn["t0"], -2.0 * sq)
        grid = time_grid(t0, dt, n_steps_for(t0, sq, dt))
        table = env.zeta_pitchfork(model, eps, t0, grid)
        table.to_csv(outdir / "zeta_pitchfork.csv")
        curves = branches(model)
        tpos = np.linspace(sq, model.t_max, 201)
        env.region_D(model, eps, curves).to_csv(outdir / "region_D.csv", tpos)
        env.region_S(model, eps, sigma, curves=curves).to_csv(
            outdir / "region_S.csv", tpos)
        with open(outdir / "bounds.csv", "w") as fh:
            fh.write("t,bound_escape\n")
            for t in tpos[1:]:
                b = env.bound_escape(model, float(t), sq, eps, sigma)
                fh.write(f"{t:.17g},{b.bound:.17g}\n")
    elif model.kind == "stable-branch":
        t0, t_end = dyn["t0"], dyn["t_end"]
        xdet = solve_det(model, eps, t0, float(dyn["x0"]), t_end, dt)
        table = env.zeta_stable(model, eps, xdet.t_grid, xdet)
        table.to_csv(outdir / "zeta_stable.csv")


def _has_violation(results) -> bool:
    if isinstance(results, dict):
        if results.get("verdict") == "violated":
            return True
        return any(_has_violation(v) for v in results.values())
    if isinstance(results, list):
        return any(_has_violation(v) for v in results)
    return False


def cmd_run(config_path, seed=None, threads=1, strict=False, out=None) -> int:
    try:
        doc = load_config(config_path)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        config = build_ensemble_config(doc, seed_override=seed)
    except RegimeViolation as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return 2
    except (SlowSdeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outdir = Path(out if out is not None
                  else doc.get("output", {}).get("directory", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        report = run_ensemble(config, threads=threads)
    except RegimeViolation as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return 2
    except SlowSdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    (outdir / "report.json").write_text(report.to_json())
    res = report.results
    if "exceedance" in res:
        _write_prob_series(outdir / "exceedance.csv", report,
                           res["exceedance"], "h")
    if "survival" in res:
        _write_prob_series(outdir / "survival.csv", report,
                           res["survival"], "t")
    if "histogram" in res:
        _write_histogram(outdir / "delay_histogram.csv", report,
                         res["histogram"])
    if report.per_path:
        _write_per_path(outdir / "paths_summary.csv", report, report.per_path)
    _export_envelopes(outdir, doc)
    print(f"wrote {outdir / 'report.json'} ({report.runtime_seconds:.2f}s)")
    if strict and _has_violation(res):
        print("bound violation detected (--strict)", file=sys.stderr)
        return 3
    return 0


def cmd_envelope(config_path, out=None) -> int:
    try:
        doc = load_config(config_path)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outdir = Path(out if out is not None
                  else doc.get("output", {}).get("directory", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        _export_envelopes(outdir, doc)
    except SlowSdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote envelope tables to {outdir}")
    return 0


def cmd_validate(model_path) -> int:
    try:
        with open(model_path) as fh:
            doc = json.load(fh)
        jsonschema.validate(doc, _MODEL_SCHEMA)
        model = model_from_dict(doc)
    except (OSError, ValueError, json.JSONDecodeError,
            jsonschema.ValidationError, SlowSdeError) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    rep = model.validation
    print(f"model {model.name!r} ({model.kind}) accepted")
    if rep is not None:
        print(f"  symmetry residual   {rep.symmetry_residual:.3g}")
        print(f"  df/dx(0,0)          {rep.fx_origin:.3g}")
        print(f"  d2f/dtdx(0,0)       {rep.fxt_origin:.6g}")
        print(f"  d3f/dx3(0,0)        {rep.fxxx_origin:.6g}")
        print(f"  a_plus / a_minus    {rep.a_plus:.6g} / {rep.a_minus:.6g}")
        print(f"  |f_xxx|/6 bound     {rep.big_m:.3g}")
    if model.kind == "pitchfork":
        lam = model.lambda_param
        print(f"  lambda={lam:g} in (1/3, 1/2): "
              f"{'ok' if 1 / 3 < lam < 1 / 2 else 'VIOLATED'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slowsde",
        description="Slow-fast SDE experiments around a pitchfork bifurcation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--strict", action="store_true")
    p_run.add_argument("--out", default=None)

    p_env = sub.add_parser("envelope", help="export envelope/region tables")
    p_env.add_argument("--config", required=True)
    p_env.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="validate a model document")
    p_val.add_argument("model", help="model JSON path")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, seed=args.seed, threads=args.threads,
                       strict=args.strict, out=args.out)
    if args.command == "envelope":
        return cmd_envelope(args.config, out=args.out)
    return cmd_validate(args.model)


if __name__ == "__main__":
    sys.exit(main())
