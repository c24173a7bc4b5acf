"""End-to-end and per-layer benchmark of `slowsde run`.

Usage (from the root of a checkout):

    python3 runbench/run.py --workload delay-wide --seed 1 --seconds 30 --trace 0

Writes the workload's config, made from --seed, then launches fresh
processes, each one `slowsde run` through the public CLI path (child.py),
until --seconds have passed.  Every run's outputs are checked (oracles.py)
and the last stdout line is one JSON object with "correct", "attempted",
"failed" and "metrics".  --trace 0 reports the end-to-end metrics, medians
over the runs; --trace 1 alternates untraced and traced runs and reports the
per-layer metrics of the traced ones (spans.py) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, n_steps  # noqa: E402

CHILD_TIMEOUT_S = 120
MIN_ROUNDS = 3

END_TO_END = {"total_s": "s", "setup_s": "s",
              "path_steps_per_s": "path-steps/s", "peak_rss_mb": "MB",
              "cpu_s": "s"}
PER_LAYER = {
    "noise.busy_s": "s", "noise.normals": "count",
    "noise.normals_per_s": "1/s",
    "sde.busy_s": "s", "sde.path_steps": "count",
    "sde.path_steps_per_s": "path-steps/s", "sde.batches": "count",
    "sde.peak_batch_bytes": "computed-bytes",
    "exits.busy_s": "s", "exits.nodes_scanned": "count",
    "envelope.busy_s": "s",
    "model.busy_s": "s",
    "montecarlo.self_s": "s", "montecarlo.sim_passes": "ratio",
    "cli.load_s": "s", "cli.write_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class Run:
    """One fresh `slowsde run` process and what it measured."""

    def __init__(self, workdir: Path, src: Path, config: Path, threads: int,
                 traced: bool):
        self.dir = workdir
        self.out = workdir / "out"
        self.traced = traced
        workdir.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "child.py"), str(src), str(config),
                str(self.out), str(threads), str(workdir / "timing.json")]
        if traced:
            argv.append(str(workdir / "trace.json"))
        with open(workdir / "log.txt", "w") as log:
            self.launch = time.monotonic()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=workdir)
            self.code, self.rusage = _wait(proc)

    @property
    def ok(self) -> bool:
        return self.code == 0

    def timing(self) -> dict:
        with open(self.dir / "timing.json") as fh:
            return json.load(fh)

    def end_to_end(self, path_steps: int) -> dict:
        t = self.timing()
        return {
            "total_s": t["end"] - self.launch,
            "setup_s": t["ensemble_start"] - self.launch,
            "path_steps_per_s": path_steps / (t["ensemble_end"]
                                              - t["ensemble_start"]),
            "peak_rss_mb": self.rusage.ru_maxrss / 1024.0,
            "cpu_s": self.rusage.ru_utime + self.rusage.ru_stime,
        }

    def layers(self, path_steps: int) -> dict:
        with open(self.dir / "trace.json") as fh:
            trace = json.load(fh)
        written = sum(p.stat().st_size for p in self.out.iterdir())
        row = spans.layer_table(trace, written)
        row["montecarlo.sim_passes"] = row["sde.path_steps"] / path_steps
        return row


def _wait(proc) -> tuple:
    """Wait for the child and return (exit status, its own rusage).

    A child still running after CHILD_TIMEOUT_S is killed and counts as
    failed; on any interruption the child is killed and reaped first.
    """
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def _median_row(rows: list) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "slowsde" / "cli.py").is_file():
        print(f"error: no slowsde sources under {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    doc = wl.make_doc(args.seed)
    path_steps = doc["ensemble"]["n_paths"] * n_steps(doc)
    work = HERE / "out" / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(doc, indent=1))

    runs: list = []
    deadline = time.monotonic() + args.seconds
    pattern = (False, True) if args.trace else (False,)
    while len(runs) < MIN_ROUNDS * len(pattern) or time.monotonic() < deadline:
        for traced in pattern:
            runs.append(Run(work / f"run{len(runs)}", src, config, 1, traced))

    good = [r for r in runs if r.ok]
    for r in runs:
        if not r.ok:
            print(f"{r.dir.name}: exit status {r.code}\n"
                  + (r.dir / "log.txt").read_text()[-400:], file=sys.stderr)
    failures = []
    if good:
        first = good[0]
        ref = None
        if wl.check_threads:
            ref_run = Run(work / f"threads{wl.check_threads}", src, config,
                          wl.check_threads, False)
            if ref_run.ok:
                ref = ref_run.out
            else:
                failures.append(f"{ref_run.dir.name}: exit status {ref_run.code}")
        for name in wl.checks:
            if name == "same_bytes" and ref is None:
                continue
            failures += oracles.CHECKS[name](doc, first.out, args.seed, ref)
        # every further run must reproduce the first one's bytes
        for r in good[1:]:
            failures += [f"{r.dir.name}: {m}" for m in
                         oracles.check_same_bytes(doc, r.out, args.seed,
                                                  first.out)]
    else:
        failures.append("no run completed")

    metrics = {}
    plain_rows = [r.end_to_end(path_steps) for r in good if not r.traced]
    traced = [r for r in good if r.traced]
    if plain_rows and (traced or not args.trace):
        plain = _median_row(plain_rows)
        if args.trace:
            rows = [r.layers(path_steps) for r in traced]
            layer = _median_row(rows)
            layer["trace.overhead_s"] = statistics.median(
                r.end_to_end(path_steps)["total_s"] for r in traced) \
                - plain["total_s"]
            for row in rows:
                failures += oracles.check_self_sum(row)
            metrics = {k: {"value": layer[k], "unit": u}
                       for k, u in PER_LAYER.items()}
        else:
            metrics = {k: {"value": plain[k], "unit": u}
                       for k, u in END_TO_END.items()}
        backend = good[0].timing()["backend"]
        print(f"workload={wl.name} seed={args.seed} backend={backend} "
              f"runs={len(runs)} path_steps={path_steps}")
        for k, m in metrics.items():
            print(f"  {k:24s} {m['value']:.6g} {m['unit']}")
        print("  untraced total_s per run: "
              + " ".join(f"{row['total_s']:.3f}" for row in plain_rows))

    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    if not failures:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": len(runs),
                      "failed": sum(1 for r in runs if not r.ok),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
