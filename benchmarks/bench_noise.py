"""Benchmark the Philox normals of noise.fill_increments through the
compiled library and through NumPy's Generators.

Fills one time chunk of a batch, n_paths rows of n_steps increments (by
default 667 x 1024, a chunk of the delay-wide workload's batches), from
each path's stream created beforehand, into a buffer whose pages are
already mapped, as run_ensemble fills its chunks.  The two ways alternate,
`repeats` times each; the median milliseconds and normals per second of
each are printed.  Exits with status 1 unless the library loads and both
ways fill the same bits.  Run from the root of a checkout:

    PYTHONPATH=src python benchmarks/bench_noise.py [n_paths] [n_steps] [repeats]
"""

import statistics
import sys
import time

import numpy as np

from slowsde import _compiled
from slowsde.noise import fill_increments, path_generators

SEED, DT = 7, 1e-4


def fill(library, out):
    """Seconds to fill the chunk out with library as the process's
    library."""
    saved, _compiled.LIBRARY = _compiled.LIBRARY, library
    try:
        indices = np.arange(len(out))
        gens = path_generators(SEED, indices)
        start = time.perf_counter()
        fill_increments(out, SEED, indices, DT, gens=gens)
        return time.perf_counter() - start
    finally:
        _compiled.LIBRARY = saved


def main() -> int:
    n_paths = int(sys.argv[1]) if len(sys.argv) > 1 else 667
    n_steps = int(sys.argv[2]) if len(sys.argv) > 2 else 1024
    repeats = int(sys.argv[3]) if len(sys.argv) > 3 else 15
    if _compiled.LIBRARY.get("philox_normal") is None:
        print("MISSING: the compiled library did not build or load")
        return 1
    ways = {"library": _compiled.LIBRARY, "NumPy": _compiled.Library(None)}
    times = {name: [] for name in ways}
    chunks = {name: np.full((n_paths, n_steps), np.nan) for name in ways}
    same = True
    for r in range(repeats):
        order = list(ways) if r % 2 == 0 else list(ways)[::-1]
        for name in order:
            times[name].append(fill(ways[name], chunks[name]))
        same &= np.array_equal(chunks["library"].view(np.uint64),
                               chunks["NumPy"].view(np.uint64))
    print(f"workload: one chunk of {n_paths} x {n_steps} increments, "
          f"median of {repeats}")
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    for name, t in medians.items():
        print(f"{name:>8}  {t * 1e3:8.2f} ms  "
              f"{n_paths * n_steps / t / 1e6:7.1f} M normals/s")
    print(f"speed-up {medians['NumPy'] / medians['library']:.2f}x")
    print("bit-identical" if same else "MISMATCH: the fills differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
