"""Benchmark chunked Euler-Maruyama stepping against a per-step reference loop.

Integrates the same paths twice: with a plain per-step Euler-Maruyama loop
over (paths, steps) rows, and with em_batch streamed through time chunks of
montecarlo.CHUNK_STEPS steps, the way run_ensemble steps a batch.  Reports
path-steps/second for both and exits with status 1 unless the chunked
paths and freeze times equal the reference bit for bit.  Run from the root
of a checkout:

    PYTHONPATH=src python benchmarks/bench_stepping.py [n_paths] [n_steps]
"""

import math
import sys
import time

import numpy as np

from slowsde import standard_pitchfork
from slowsde.montecarlo import CHUNK_STEPS
from slowsde.noise import fill_increments
from slowsde.sde import em_batch, time_grid


def per_step(model, eps, sigma, t0, x0, dt, dw):
    """One Euler-Maruyama step at a time; frozen at the last in-domain value."""
    B, K = dw.shape
    t = time_grid(t0, dt, K)
    X = np.empty((B, K + 1))
    X[:, 0] = x0
    trunc = np.full(B, np.nan)
    x = X[:, 0].copy()
    alive = np.ones(B, dtype=bool)
    for k in range(K):
        xn = (x + dt / eps * model.drift(x, t[k])) \
            + sigma / math.sqrt(eps) * dw[:, k]
        exited = alive & (np.abs(xn) > model.d)
        trunc[exited] = t0 + (k + 1) * dt
        alive &= ~exited
        x = np.where(alive, xn, x)
        X[:, k + 1] = x
    return X, trunc


def main() -> int:
    n_paths = int(sys.argv[1]) if len(sys.argv) > 1 else 1024
    n_steps = int(sys.argv[2]) if len(sys.argv) > 2 else 10000
    model = standard_pitchfork()
    eps, sigma, dt, t0, x0 = 0.005, 1e-4, 1e-4, -1.0, 0.0
    print(f"workload: {n_paths} paths x {n_steps} steps, standard cubic "
          f"drift, chunks of {CHUNK_STEPS} steps")
    dw = np.empty((n_paths, n_steps))
    fill_increments(dw, 0, range(n_paths), dt)

    start = time.perf_counter()
    ref, ref_trunc = per_step(model, eps, sigma, t0, x0, dt, dw)
    t_ref = time.perf_counter() - start

    same = True
    elapsed = 0.0
    x, trunc = x0, None
    for k0 in range(0, n_steps, CHUNK_STEPS):
        inc = dw[:, k0:k0 + CHUNK_STEPS]
        start = time.perf_counter()
        X, trunc = em_batch(model, eps, sigma, t0, x, dt, inc, k0, trunc)
        elapsed += time.perf_counter() - start
        same &= np.array_equal(X, ref[:, k0:k0 + X.shape[1]])
        x = X[:, -1]
    same &= np.array_equal(trunc, ref_trunc, equal_nan=True)

    work = n_paths * n_steps
    print(f"per-step reference: {t_ref:6.2f}s  "
          f"({work / t_ref / 1e6:6.1f}M path-steps/s)")
    print(f"chunked em_batch:   {elapsed:6.2f}s  "
          f"({work / elapsed / 1e6:6.1f}M path-steps/s)")
    print("bit-identical" if same else "MISMATCH: chunked paths differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
