"""NumPy stepping kernels (fallback backend).

The expressions mirror the compiled kernel operation for operation, so both
backends produce bit-identical paths for polynomial drifts.
"""

from __future__ import annotations

import numpy as np


def em_poly(out, coefs, cdt, d, trunc, t0, dt, k0):
    """Euler-Maruyama steps of one time chunk, time-major and in place.

    out: (n+1, B) with out[0] the state at grid node k0 and out[j + 1] the
    increments of step k0 + j already multiplied by sigma/sqrt(eps), which
    the step's new state replaces; coefs: (n, nx) where coefs[j, i]
    multiplies x**i at step k0 + j.  trunc: (B,), NaN for a live path and
    the freeze time of a frozen one; updated in place.  A path freezes at
    its last in-domain value once |x| would exceed d, and trunc[b] records
    that time, t0 + (k + 1) * dt for the step k that left.

    Every column is stepped as if live and fixed up once per chunk: paths
    are independent, so a path's nodes up to its first exceedance are those
    of the per-step rule, and its later nodes are overwritten.
    """
    nx = coefs.shape[1]
    mul, add = np.multiply, np.add
    f = np.empty(out.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        # x: state at a node, y: the step's scaled increment, then its result;
        # coefficients highest power first, in Horner's order, as floats
        for c, x, y in zip(coefs[:, ::-1].tolist(), out[:-1], out[1:]):
            if nx == 1:
                f.fill(c[0])
            else:
                mul(x, c[0], f)
                add(f, c[1], f)
                for ci in c[2:]:
                    mul(f, x, f)
                    add(f, ci, f)
            mul(f, cdt, f)
            add(x, f, f)
            add(f, y, y)
        _freeze(out, d, trunc, t0, dt, k0)


def _freeze(out, d, trunc, t0, dt, k0):
    """Hold frozen columns of out at their value on entry, and freeze each
    live column from its first node with |x| > d."""
    live = np.isnan(trunc)
    if not live.all():
        out[1:, ~live] = out[0, ~live]
    # fmax and fmin skip NaN, so a column qualifies iff a node has |x| > d
    steps = out[1:]
    hit = np.nonzero(live & ((np.fmax.reduce(steps, axis=0) > d)
                             | (np.fmin.reduce(steps, axis=0) < -d)))[0]
    if hit.size == 0:
        return
    first = (np.abs(steps[:, hit]) > d).argmax(axis=0)
    trunc[hit] = t0 + (k0 + first + 1) * dt
    for b, j in zip(hit.tolist(), first.tolist()):
        out[j + 1:, b] = out[j, b]


def em_callable(out, drift, t_nodes, cdt, d, trunc, t0, dt, k0):
    """em_poly for an arbitrary vectorized drift callable.

    t_nodes[j] is the time of step k0 + j.  Frozen paths are held step by
    step, so the drift is only ever evaluated inside the domain.
    """
    x = out[0].copy()
    alive = np.isnan(trunc)
    for j in range(len(t_nodes)):
        f = np.asarray(drift(x, t_nodes[j]), dtype=float)
        xn = (x + cdt * f) + out[j + 1]
        exited = alive & (np.abs(xn) > d)
        if exited.any():
            trunc[exited] = t0 + (k0 + j + 1) * dt
            alive &= ~exited
        x = np.where(alive, xn, x)
        out[j + 1] = x
    return None


def linear_paths(out, dw, mult, cns, d, trunc, t0, dt):
    """Exponential-Euler steps x <- x * mult[k] + cns * dW_k.

    mult[k] = exp(a(t_k) dt / eps) is precomputed by the caller so both
    backends consume identical multipliers.
    """
    B, K = dw.shape
    x = out[:, 0].copy()
    alive = np.ones(B, dtype=bool)
    for k in range(K):
        xn = x * mult[k] + cns * dw[:, k]
        exited = alive & (np.abs(xn) > d)
        if exited.any():
            trunc[exited] = t0 + (k + 1) * dt
            alive &= ~exited
        x = np.where(alive, xn, x)
        out[:, k + 1] = x
    return None
