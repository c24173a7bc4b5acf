"""Self-test of the benchmark's output checks at tiny sizes (~15 s).

Usage (from the root of a checkout): python3 runbench/selftest.py

Runs tiny versions of the workloads, shows that every check passes on the
program's real outputs, then corrupts a copy of those outputs one way at a
time and shows that the check meant to catch it rejects it.  Exits 1 if a
check fails on clean outputs or accepts a corrupted one.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import spans  # noqa: E402
from run import Run  # noqa: E402
from workloads import approach, delay_wide, long_horizon  # noqa: E402

SEED = 5


def tiny(make_doc, n_paths: int, dt: float) -> dict:
    doc = make_doc(SEED)
    doc["ensemble"]["n_paths"] = n_paths
    doc["dynamics"]["dt"] = dt
    return doc


def edit_summary(outdir: Path, column: str, edit) -> None:
    """Rewrite one column of paths_summary.csv: cell = edit(row, cell)."""
    path = outdir / "paths_summary.csv"
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    col = header.index(column)
    for i in range(2, len(lines)):
        cells = lines[i].split(",")
        cells[col] = edit(i - 2, cells[col])
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def edit_report(outdir: Path, edit) -> None:
    path = outdir / "report.json"
    doc = json.loads(path.read_text())
    edit(doc["results"])
    path.write_text(json.dumps(doc))


def _shift(i: int, by: float):
    return lambda r, v: repr(float(v) + by) if r == i else v


def corruptions(doc, outdir, checks) -> list:
    """(check, description, corrupt(outdir)) for the checks of one case."""
    dt = doc["dynamics"]["dt"]
    summary = oracles.read_summary(outdir)
    i = oracles.rescan_indices(doc, summary, SEED)[-1]
    out = [("rescan", f"{col} of path {i} moved by {by:g}",
            lambda d, col=col, by=by: edit_summary(d, col, _shift(i, by)))
           for col, by in (("x_final", 1e-6), ("tau_delay", 2 * dt),
                           ("tau_D", 2 * dt)) if col in summary]
    out += [
        ("delay_window", "one delay in ten censored",
         lambda d: edit_summary(d, "tau_delay",
                                lambda r, v: "" if r % 10 == 0 else v)),
        ("delay_window", "reported t_high shifted by 1%",
         lambda d: edit_report(d, lambda res: res["delay_interval"].update(
             t_high=res["delay_interval"]["t_high"] * 1.01))),
        ("branch_symmetry", "branch counts flipped",
         lambda d: edit_report(d, lambda res: res["branch"].update(
             n_positive=res["branch"]["n_negative"],
             n_negative=res["branch"]["n_positive"]))),
        ("branch_symmetry", "every path moved to the upper branch",
         lambda d: edit_summary(d, "x_final", lambda r, v: v.lstrip("-"))),
        ("branch_symmetry", "one-sided counts that match the paths",
         lambda d: (edit_summary(d, "x_final", lambda r, v: v.lstrip("-")),
                    edit_report(d, lambda res: res["branch"].update(
                        n_positive=len(summary["x_final"]), n_negative=0)))),
        ("stable_branch", "one path ended at 0.5",
         lambda d: edit_summary(d, "x_final",
                                lambda r, v: "0.5" if r == 1 else v)),
        ("approach", "spread ratio set to 3",
         lambda d: edit_report(d, lambda res: res["spread_at_end"].update(
             ratio=3.0))),
        ("approach", "exceedance raised above its bound",
         lambda d: edit_report(d, lambda res: res["exceedance"][-1].update(
             p_hat=1.0))),
        ("approach", "no path selected",
         lambda d: edit_report(d, lambda res: res.update(n_selected=0))),
        ("same_bytes", "one byte of report.json changed",
         lambda d: (d / "report.json").write_bytes(
             (d / "report.json").read_bytes().replace(b"0", b"1", 1))),
    ]
    return [c for c in out if c[0] in checks or c[0] == "same_bytes"]


def run_tiny(name: str, doc: dict, work: Path, traced: bool = False) -> Run:
    wdir = work / name
    wdir.mkdir(parents=True)
    config = wdir / "config.json"
    config.write_text(json.dumps(doc))
    run = Run(wdir / "run", HERE.parent / "src", config, 1, traced)
    if not run.ok:
        raise SystemExit(f"{name}: slowsde run exited {run.code}:\n"
                         + (run.dir / "log.txt").read_text()[-2000:])
    return run


def main() -> int:
    if not (HERE.parent / "src" / "slowsde" / "cli.py").is_file():
        print("error: run from the root of a slowsde checkout", file=sys.stderr)
        return 2
    work = HERE / "out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    bad = 0
    cases = {
        "delay": (tiny(delay_wide, 200, 5e-4),
                  ("rescan", "delay_window", "branch_symmetry")),
        "approach": (tiny(approach, 300, 1e-4), ("rescan", "approach")),
        "long-horizon": (tiny(long_horizon, 4, 2.5e-5),
                         ("rescan", "delay_window", "stable_branch")),
    }
    for name, (doc, checks) in cases.items():
        run = run_tiny(name, doc, work)
        for check in checks:
            fails = oracles.CHECKS[check](doc, run.out, SEED)
            print(f"{'ok ' if not fails else 'BAD'} {name}: {check} passes "
                  f"on clean outputs {fails if fails else ''}")
            bad += bool(fails)
        for check, what, corrupt in corruptions(doc, run.out, checks):
            copy = run.dir / "corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(run.out, copy)
            corrupt(copy)
            fails = oracles.CHECKS[check](doc, copy, SEED, run.out)
            print(f"{'ok ' if fails else 'BAD'} {name}: {check} rejects "
                  f"{what}" + (f": {fails[0]}" if fails else ""))
            bad += not fails

    # the traced run's self times add up, and a span that outlives its
    # parent is caught
    run = run_tiny("traced", cases["delay"][0], work, traced=True)
    with open(run.dir / "trace.json") as fh:
        trace = json.load(fh)
    fails = oracles.check_self_sum(spans.layer_table(trace, 0))
    print(f"{'ok ' if not fails else 'BAD'} traced: self times add up "
          f"{fails if fails else ''}")
    bad += bool(fails)
    (run_span,) = [s for s in trace["spans"] if s["name"] == "run_ensemble"]
    child = next(s for s in trace["spans"] if s["parent"] == run_span["id"])
    child["end"] = run_span["end"] + 0.5 * (run_span["end"] - run_span["start"])
    fails = oracles.check_self_sum(spans.layer_table(trace, 0))
    print(f"{'ok ' if fails else 'BAD'} traced: self-sum check rejects a "
          f"span outliving its parent" + (f": {fails[0]}" if fails else ""))
    bad += not fails

    if not bad:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest", "passed" if not bad else f"FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
