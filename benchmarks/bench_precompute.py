"""Benchmark the deterministic precompute through the compiled library and
through its NumPy and Python fallbacks.

Times three parts of a run on the grids of two benchmark workloads, the
standard pitchfork f = t x - x^3 in both:

  zeta         zeta_pitchfork on the envelope export grid, t0 to sqrt(eps)
  csv          EnvelopeTable.to_csv of the zeta table
  family       the post-exit centrelines and their zeta (PostExitFamily),
               stepped to t_end = 1 in the chunks that run_ensemble makes
               for the workload's batches, for rows starting at every
               stride-th node of the tau window [0.15, 0.25], each added
               in the chunk that holds its start node; only the approach
               tag builds these, so long-horizon (tag delay) has no family
               part

  long-horizon eps 2.5e-4, dt 1e-5, 32 paths
  approach     eps 5e-3,   dt 1e-4, 1000 paths in batches of 500 (chunks
               of 1024 steps), stride 4: 251 family rows

Each part runs `repeats` times with the library and with every kernel
forced to its fallback; the median seconds of each are printed.  Exits with
status 1 unless the library loads and both ways give the same bits and
bytes (for the family, the sha256 of every chunk's rows and zeta).  Run
from the root of a checkout:

    PYTHONPATH=src python benchmarks/bench_precompute.py [repeats]
"""

import hashlib
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from slowsde import _compiled, standard_pitchfork, zeta_pitchfork
from slowsde.envelope import PostExitFamily
from slowsde.montecarlo import _batches, _chunk_steps
from slowsde.sde import n_steps_for, time_grid

# name: (eps, dt, stride of the family's start nodes, or None for no
# family, and the run's number of paths)
WORKLOADS = {"long-horizon": (2.5e-4, 1e-5, None, 32),
             "approach": (5e-3, 1e-4, 4, 1000)}


def parts(eps, dt, stride, n_paths, csv_path):
    """The parts of one workload, each a callable returning what it
    computed, and the numbers of export nodes and family rows."""
    model = standard_pitchfork()
    export = time_grid(-1.0, dt, n_steps_for(-1.0, math.sqrt(eps), dt))
    table = zeta_pitchfork(model, eps, export)

    def csv():
        table.to_csv(csv_path)
        return csv_path.read_bytes()

    fns = {"zeta": lambda: zeta_pitchfork(model, eps, export).zeta_values,
           "csv": csv}
    if stride is None:
        return fns, len(export), 0
    grid = time_grid(-1.0, dt, n_steps_for(-1.0, 1.0, dt))
    window = np.nonzero((grid >= 0.15 - 1e-12) & (grid <= 0.25 + 1e-12))[0]
    starts = window[::stride]
    # the chunk length of the run's first batch, as run_ensemble makes it
    steps = _chunk_steps(len(_batches(np.arange(n_paths), 1)[0]), model)

    def family():
        rows = PostExitFamily(model, eps, grid)
        digest = hashlib.sha256()
        for k0 in range(starts[0] // steps * steps, len(grid) - 1, steps):
            nodes = slice(k0, min(k0 + steps, len(grid) - 1) + 1)
            added = len(rows.start)
            rows.add(starts[added:][starts[added:] < nodes.stop])
            for a in rows.step(nodes):
                digest.update(a.tobytes())
        return digest.digest()

    return dict(fns, family=family), len(export), len(starts)


def timed(fn, repeats):
    """Median seconds of fn over repeats calls, and its last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)), result


def same(a, b) -> bool:
    if isinstance(a, bytes):
        return a == b
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def main() -> int:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    library = _compiled.LIBRARY
    if any(library.get(name) is None for name in _compiled.ARGTYPES):
        print("MISSING: the compiled library did not build or load")
        return 1
    ok = True
    print(f"median of {repeats} runs, seconds")
    print(f"{'workload':>12}  {'part':>6}  {'library':>8}  {'fallback':>8}"
          f"  {'speed-up':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, (eps, dt, stride, n_paths) in WORKLOADS.items():
            fns, nodes, rows = parts(eps, dt, stride, n_paths,
                                     Path(tmp) / "z.csv")
            for part, fn in fns.items():
                t_c, got_c = timed(fn, repeats)
                _compiled.LIBRARY = _compiled.Library(None)
                try:
                    t_py, got_py = timed(fn, repeats)
                finally:
                    _compiled.LIBRARY = library
                ok &= same(got_c, got_py)
                print(f"{name:>12}  {part:>6}  {t_c:>8.4f}  {t_py:>8.4f}"
                      f"  {t_py / t_c:>7.1f}x")
            print(f"{'':>12}  ({nodes} export nodes, {rows} family rows)")
    print("bit-identical" if ok else "MISMATCH: library and fallback differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
