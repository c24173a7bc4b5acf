"""Benchmark chunked Euler-Maruyama stepping against a per-step reference loop.

Integrates the same paths three times: with a plain per-step Euler-Maruyama
loop over (paths, steps) rows whose drift is full Horner in x (every
multiply and every add, zero coefficients included: 9 NumPy calls per step
for the standard cubic), and with em_batch streamed through time chunks of
montecarlo.CHUNK_STEPS steps, the way run_ensemble steps a batch, once
through its NumPy loop and once through the compiled C kernel.  It does so
for n_paths paths and for 32, a narrow batch where per-step call overhead
dominates, prints path-steps/second for all three, and exits with status 1
unless the C kernel loads and both kernels' paths and freeze times equal
the reference bit for bit.  Run from the root of a checkout:

    PYTHONPATH=src python benchmarks/bench_stepping.py [n_paths] [n_steps]
"""

import math
import sys
import time

import numpy as np

from slowsde import _compiled, sde, standard_pitchfork
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


def chunked(model, eps, sigma, t0, x0, dt, dw, ref, ref_trunc):
    """Seconds for em_batch over dw in chunks, and whether its paths and
    freeze times equal ref and ref_trunc bit for bit."""
    same = True
    elapsed = 0.0
    x, trunc = x0, None
    for k0 in range(0, dw.shape[1], CHUNK_STEPS):
        inc = dw[:, k0:k0 + CHUNK_STEPS]
        start = time.perf_counter()
        X, trunc = em_batch(model, eps, sigma, t0, x, dt, inc, k0, trunc)
        elapsed += time.perf_counter() - start
        same &= np.array_equal(X, ref[:, k0:k0 + X.shape[1]])
        x = X[:, -1]
    same &= np.array_equal(trunc, ref_trunc, equal_nan=True)
    return elapsed, same


def bench(model, n_paths, n_steps):
    """Seconds for the reference, the NumPy kernel and the C kernel, and
    whether both kernels agree with the reference bit for bit."""
    eps, sigma, dt, t0, x0 = 0.005, 1e-4, 1e-4, -1.0, 0.0
    dw = np.empty((n_paths, n_steps))
    fill_increments(dw, 0, range(n_paths), dt)
    args = (model, eps, sigma, t0, x0, dt, dw)

    start = time.perf_counter()
    ref = per_step(*args)
    t_ref = time.perf_counter() - start

    library, _compiled.LIBRARY = _compiled.LIBRARY, _compiled.Library(None)
    try:
        t_numpy, same_numpy = chunked(*args, *ref)
    finally:
        _compiled.LIBRARY = library
    t_c, same_c = chunked(*args, *ref)
    return (t_ref, t_numpy, t_c), same_numpy and same_c


def main() -> int:
    n_paths = int(sys.argv[1]) if len(sys.argv) > 1 else 1024
    n_steps = int(sys.argv[2]) if len(sys.argv) > 2 else 10000
    model = standard_pitchfork()
    if sde.backend() != "c":
        print("MISSING: the C kernel did not build or load")
        return 1
    print(f"workload: {n_steps} steps, standard cubic drift, chunks of "
          f"{CHUNK_STEPS} steps; M path-steps/s")
    print(f"{'paths':>6}  {'per-step reference':>18}  {'NumPy kernel':>12}  "
          f"{'C kernel':>8}")
    same = True
    for width in dict.fromkeys((n_paths, 32)):
        times, ok = bench(model, width, n_steps)
        rates = [width * n_steps / t / 1e6 for t in times]
        print(f"{width:>6}  {rates[0]:>18.1f}  {rates[1]:>12.1f}  "
              f"{rates[2]:>8.1f}")
        same &= ok
    print("bit-identical" if same else "MISMATCH: chunked paths differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
