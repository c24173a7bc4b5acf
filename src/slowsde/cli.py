"""Command line front end.

Subcommands: run (simulate an experiment config and write reports),
envelope (export zeta/region/bound tables without simulating), validate
(check a model document against the structural assumptions).

Exit status contract: 0 success, 1 config or validation error, 2 regime
violation, 3 bound violation under --strict.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import envelope as env
from .deterministic import solve_det
from .errors import ConfigError, RegimeViolation, SlowSdeError
from .model import model_from_dict, model_from_json
from .montecarlo import EnsembleConfig, run_ensemble
from .sde import time_grid, n_steps_for


def load_config(path, seed=None) -> tuple:
    """(document, EnsembleConfig) of a config file, or of the shipped config
    of that name; seed, if given, replaces the document's master seed."""
    p = Path(path)
    if not p.exists():
        shipped = importlib.resources.files("slowsde") / "configs" / str(path)
        if shipped.is_file():
            p = shipped
        else:
            raise ConfigError(f"config file {path!r} not found")
    with open(p) as fh:
        doc = json.load(fh)
    return doc, EnsembleConfig.from_dict(doc, model_from_dict, seed)


def _outdir(doc: dict, out) -> Path:
    """The output directory: out, or the document's, or ".".  It is made
    only when the first file is written (_export_envelopes); a file in its
    place fails here, before the run."""
    outdir = Path(out if out is not None
                  else doc.get("output", {}).get("directory", "."))
    if outdir.exists() and not outdir.is_dir():
        raise NotADirectoryError(f"output directory {outdir} is a file")
    return outdir


# what a command reports through _failed, not as a traceback (ValueError
# covers json's JSONDecodeError too)
_ERRORS = (OSError, SlowSdeError, ValueError)


def _failed(exc: Exception) -> int:
    """Print an error and return its exit status."""
    if isinstance(exc, RegimeViolation):
        print(f"regime violation: {exc}", file=sys.stderr)
        return 2
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _stamp(report, columns) -> str:
    """The two header lines of a run's CSV: its config hash and master
    seed, then the column names."""
    return (f"# config_hash={report.config_hash} "
            f"master_seed={report.config['ensemble']['master_seed']}\n"
            + ",".join(columns) + "\n")


def _write_prob_series(path, report, rows, key: str) -> None:
    names = (key, "p_hat", "ci_low", "ci_high")
    env.write_csv(path, _stamp(report, names + ("bound",)),
                  [[row[k] for row in rows] for k in names]
                  + [[row["bound"]["bound"] for row in rows]])


def _write_histogram(path, report, hist: dict) -> None:
    edges = hist["edges"]
    env.write_csv(path, _stamp(report, ("bin_lo", "bin_hi", "count")),
                  (edges[:-1], edges[1:], hist["counts"]))


def _write_per_path(path, report, per_path: dict) -> None:
    keys = sorted(per_path)
    n = len(per_path[keys[0]])
    env.write_csv(path, _stamp(report, ("path_index", *keys)),
                  [np.arange(n)] + [per_path[k] for k in keys])


def _export_envelopes(outdir: Path, config: EnsembleConfig) -> None:
    """Make outdir and write the envelope tables of the config's model into
    it.  Every table is computed first, so a failure leaves neither the
    directory nor a file."""
    model, eps, dt = config.model, config.eps, config.dt
    files = {}  # file name -> the function that writes it
    if model.kind == "pitchfork":
        sq = math.sqrt(eps)
        t0 = min(config.t0, -2.0 * sq)
        grid = time_grid(t0, dt, n_steps_for(t0, sq, dt))
        table = env.zeta_pitchfork(model, eps, grid)
        tpos = np.linspace(sq, model.t_max, 201)
        regions = {"region_D.csv": env.region_D(model, eps),
                   "region_S.csv": env.region_S(model, eps, config.sigma)}
        for region in regions.values():
            region.boundaries(tpos)  # its g1 < g2 check raises here
        bounds = [env.bound_escape(model, float(t), sq, eps, config.sigma)
                  for t in tpos[1:]]
        files["zeta_pitchfork.csv"] = table.to_csv
        for name, region in regions.items():
            files[name] = functools.partial(region.to_csv, t_values=tpos)
        files["bounds.csv"] = functools.partial(
            env.write_csv, header="t,bound_escape\n",
            columns=(tpos[1:], [b.bound for b in bounds]))
    elif model.kind == "stable-branch":
        xdet = solve_det(model, eps, config.t0, float(config.x0),
                         config.t_end, dt)
        files["zeta_stable.csv"] = env.zeta_stable(model, eps, xdet.t_grid,
                                                   xdet).to_csv
    outdir.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(outdir / name)


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
        doc, config = load_config(config_path, seed)
        outdir = _outdir(doc, out)
    except _ERRORS as exc:
        return _failed(exc)
    try:
        report = run_ensemble(config, threads=threads)
        _export_envelopes(outdir, config)
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
            _write_per_path(outdir / "paths_summary.csv", report,
                            report.per_path)
    except _ERRORS as exc:
        return _failed(exc)
    print(f"wrote {outdir / 'report.json'} ({report.runtime_seconds:.2f}s)")
    if strict and _has_violation(res):
        print("bound violation detected (--strict)", file=sys.stderr)
        return 3
    return 0


def cmd_envelope(config_path, out=None) -> int:
    try:
        doc, config = load_config(config_path)
        outdir = _outdir(doc, out)
        _export_envelopes(outdir, config)
    except _ERRORS as exc:
        return _failed(exc)
    print(f"wrote envelope tables to {outdir}")
    return 0


def cmd_validate(model_path) -> int:
    try:
        model = model_from_json(model_path)
    except _ERRORS as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    rep = model.validation
    print(f"model {model.name!r} ({model.kind}) accepted")
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
