"""One `slowsde run` in this process, with timestamps for the benchmark.

Usage: python3 runbench/child.py SRC_DIR CONFIG OUTDIR THREADS TIMING_JSON [TRACE_JSON]

Goes through the public CLI path, ``slowsde.cli.main(["run", ...])``: config
load and schema check, model build, ``run_ensemble`` and every output file.
Without TRACE_JSON the only instrumentation is a timer around the
``run_ensemble`` binding the CLI calls; with it every layer is traced (see
spans.py).  All times are CLOCK_MONOTONIC readings, so the parent can
subtract its launch time from them.
"""

import json
import sys
import time
from pathlib import Path

clock = time.monotonic


def main(argv) -> int:
    src, config, outdir, threads, timing_path = argv[:5]
    trace_path = argv[5] if len(argv) > 5 else None
    sys.path.insert(0, src)
    from slowsde import cli
    from slowsde.sde import backend
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"error: imported {cli.__file__}, not the sources under {src}",
              file=sys.stderr)
        return 1

    marks = {}
    tracer = None
    if trace_path:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    inner = cli.run_ensemble

    def timed_run_ensemble(config, threads=1):
        marks["ensemble_start"] = clock()
        try:
            return inner(config, threads=threads)
        finally:
            marks["ensemble_end"] = clock()

    cli.run_ensemble = timed_run_ensemble
    code = cli.main(["run", "--config", config, "--out", outdir,
                     "--threads", threads])
    marks["end"] = clock()
    marks.update(exit=code, backend=backend())
    with open(timing_path, "w") as fh:
        json.dump(marks, fh)
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
