"""Benchmark chunked Euler-Maruyama stepping and the exit scans.

Integrates the same paths three times: with a plain per-step Euler-Maruyama
loop over (paths, steps) rows whose drift is full Horner in x (every
multiply and every add, zero coefficients included: 9 NumPy calls per step
for the standard cubic), and with em_batch streamed through time chunks
the way run_ensemble steps a batch (chunks as long as it makes them for a
batch of that width, 1024 steps for a wide batch and 6553 for 32 paths;
each chunk's noise drawn into one workspace per batch and stepped there in
place), once through its NumPy loop and once through the compiled C
kernel.  Each chunk is then scanned as the delay tag scans it:
first_exit_batch against region D and delay_times_batch against the delay
strip, again through NumPy and through the compiled first_outside.  The
grid ends at t = 0.5, so the paths pass the bifurcation at t = 0 and leave
the strip when n_steps is a few thousand.  It does so for n_paths paths
and for 32, a narrow batch where per-step call overhead dominates, prints
the chunk length, path-steps/second for the three steppers and
path-nodes/second for the two scans, and exits with status 1 unless the C
kernels load, both steppers' paths and freeze times equal the reference
bit for bit, and both scans give the same times and sides.  Run from the
root of a checkout:

    PYTHONPATH=src python benchmarks/bench_stepping.py [n_paths] [n_steps]
"""

import math
import sys
import time

import numpy as np

from slowsde import _compiled, envelope, sde, standard_pitchfork
from slowsde.exits import delay_times_batch, first_exit_batch
from slowsde.model import branches
from slowsde.montecarlo import _chunk_steps
from slowsde.noise import fill_increments, path_generators
from slowsde.sde import em_batch, time_grid

EPS, SIGMA, DT, T_END, X0 = 0.005, 1e-4, 1e-4, 0.5, 0.0
SEED = 0


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


def chunked(model, t0, n_steps, ref, ref_trunc):
    """Seconds for em_batch over n_steps steps in chunks and for the scans
    of each chunk, whether the paths and freeze times equal ref and
    ref_trunc bit for bit, and the scans' results.  As run_ensemble does,
    each chunk's noise is drawn into columns 1.. of one workspace per batch
    and stepped there in place (the draws are not timed)."""
    n_paths = ref.shape[0]
    grid = time_grid(t0, DT, n_steps)
    region = envelope.region_D(model, EPS, t_hi=T_END)
    width = float(branches(model).x_tilde(math.sqrt(EPS)))
    gens = path_generators(SEED, range(n_paths))
    steps = _chunk_steps(n_paths, model)
    ws = np.empty((n_paths, min(steps, n_steps) + 1))
    ws[:, 0] = X0
    same, t_step, t_scan, found = True, 0.0, 0.0, []
    trunc = None
    for k0 in range(0, n_steps, steps):
        chunk = ws[:, :min(steps, n_steps - k0) + 1]
        fill_increments(chunk[:, 1:], SEED, range(n_paths), DT, gens=gens)
        start = time.perf_counter()
        X, trunc = em_batch(model, EPS, SIGMA, t0, chunk[:, 0], DT,
                            chunk[:, 1:], k0, trunc, chunk)
        t_step += time.perf_counter() - start
        nodes = grid[k0:k0 + X.shape[1]]
        start = time.perf_counter()
        found += [*first_exit_batch(X, nodes, region),
                  delay_times_batch(X, nodes, width)]
        t_scan += time.perf_counter() - start
        same &= np.array_equal(X, ref[:, k0:k0 + X.shape[1]])
        ws[:, 0] = X[:, -1]
    same &= np.array_equal(trunc, ref_trunc, equal_nan=True)
    return (t_step, t_scan), same, found


def bench(model, n_paths, n_steps):
    """Seconds for the reference, the NumPy stepper, the C stepper, the
    NumPy scans and the C scans, and whether all agree bit for bit."""
    t0 = T_END - n_steps * DT
    dw = np.empty((n_paths, n_steps))
    fill_increments(dw, SEED, range(n_paths), DT)

    start = time.perf_counter()
    ref = per_step(model, EPS, SIGMA, t0, X0, DT, dw)
    t_ref = time.perf_counter() - start
    del dw

    library, _compiled.LIBRARY = _compiled.LIBRARY, _compiled.Library(None)
    try:
        t_numpy, same_numpy, found_numpy = chunked(model, t0, n_steps, *ref)
    finally:
        _compiled.LIBRARY = library
    t_c, same_c, found_c = chunked(model, t0, n_steps, *ref)
    same_scans = all(np.array_equal(a, b, equal_nan=True)
                     for a, b in zip(found_numpy, found_c))
    return ((t_ref, t_numpy[0], t_c[0], t_numpy[1], t_c[1]),
            same_numpy and same_c and same_scans)


def main() -> int:
    n_paths = int(sys.argv[1]) if len(sys.argv) > 1 else 1024
    n_steps = int(sys.argv[2]) if len(sys.argv) > 2 else 10000
    model = standard_pitchfork()
    if sde.backend() != "c" or _compiled.LIBRARY.get("first_outside") is None:
        print("MISSING: the C kernels did not build or load")
        return 1
    print(f"workload: {n_steps} steps to t = {T_END}, standard cubic drift, "
          "in chunks of the steps shown; M path-steps/s (stepping) and "
          "M path-nodes/s (both scans of a chunk)")
    print(f"{'paths':>6}  {'chunk':>5}  {'per-step reference':>18}  "
          f"{'NumPy kernel':>12}  {'C kernel':>8}  {'NumPy scans':>11}  "
          f"{'C scans':>7}")
    same = True
    for width in dict.fromkeys((n_paths, 32)):
        times, ok = bench(model, width, n_steps)
        rates = [width * n_steps / t / 1e6 for t in times]
        print(f"{width:>6}  {_chunk_steps(width, model):>5}  "
              f"{rates[0]:>18.1f}  {rates[1]:>12.1f}  "
              f"{rates[2]:>8.1f}  {rates[3]:>11.1f}  {rates[4]:>7.1f}")
        same &= ok
    print("bit-identical" if same else "MISMATCH: chunked paths or scans "
          "differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
