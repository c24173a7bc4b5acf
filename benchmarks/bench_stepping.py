"""Benchmark chunked Euler-Maruyama stepping against a per-step reference loop.

Integrates the same paths twice: with a plain per-step Euler-Maruyama loop
over (paths, steps) rows whose drift is full Horner in x (every multiply
and every add, zero coefficients included: 9 NumPy calls per step for the
standard cubic), and with em_batch streamed through time chunks of
montecarlo.CHUNK_STEPS steps, the way run_ensemble steps a batch.  It does
so for n_paths paths and for 32, a narrow batch where per-step call
overhead dominates, prints path-steps/second for both, and exits with
status 1 unless the chunked paths and freeze times equal the reference bit
for bit.  Run from the root of a checkout:

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


def full_horner(coefs, x):
    """sum_i coefs[i] x^i by Horner's rule with every multiply and add."""
    f = x * coefs[-1] + coefs[-2]
    for c in coefs[-3::-1]:
        f = f * x + c
    return f


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
        f = full_horner(model.poly.coeff_at(t[k]), x)
        xn = (x + dt / eps * f) + sigma / math.sqrt(eps) * dw[:, k]
        exited = alive & (np.abs(xn) > model.d)
        trunc[exited] = t0 + (k + 1) * dt
        alive &= ~exited
        x = np.where(alive, xn, x)
        X[:, k + 1] = x
    return X, trunc


def bench(model, n_paths, n_steps):
    """Seconds for the reference and for chunked em_batch, and whether
    the two agree bit for bit."""
    eps, sigma, dt, t0, x0 = 0.005, 1e-4, 1e-4, -1.0, 0.0
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
    return t_ref, elapsed, same


def main() -> int:
    n_paths = int(sys.argv[1]) if len(sys.argv) > 1 else 1024
    n_steps = int(sys.argv[2]) if len(sys.argv) > 2 else 10000
    model = standard_pitchfork()
    print(f"workload: {n_steps} steps, standard cubic drift, chunks of "
          f"{CHUNK_STEPS} steps; M path-steps/s")
    print(f"{'paths':>6}  {'per-step reference':>18}  {'chunked em_batch':>16}")
    same = True
    for width in dict.fromkeys((n_paths, 32)):
        t_ref, elapsed, ok = bench(model, width, n_steps)
        work = width * n_steps
        print(f"{width:>6}  {work / t_ref / 1e6:>18.1f}  "
              f"{work / elapsed / 1e6:>16.1f}")
        same &= ok
    print("bit-identical" if same else "MISMATCH: chunked paths differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
