"""SDE integration: Euler-Maruyama for the nonlinear equation, exponential
Euler for linear comparisons, and coupled pairs sharing one noise realization.

The stepping loops are NumPy kernels over a whole batch of paths; the
public integrators precompute the scaled increments, step coefficients and
multipliers they consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import StepTooLarge
from .model import ModelSpec
from .noise import NoiseStream

__all__ = [
    "PathSample", "simulate", "simulate_linear", "simulate_coupled",
    "em_batch", "linear_batch", "time_grid", "n_steps_for",
]


def backend() -> str:
    """Name of the stepping implementation, as recorded in reports."""
    return "python"


@dataclass(frozen=True)
class PathSample:
    """One discretized trajectory with the noise identity that reproduces it."""

    t_grid: np.ndarray
    x_values: np.ndarray
    eps: float
    sigma: float
    master_seed: int
    path_index: int
    scheme: str
    truncated_at: Optional[float] = None
    mirrored: bool = False
    level: int = 0

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    def value_at(self, t: float) -> float:
        k = int(round((t - self.t_grid[0]) / self.dt))
        if not 0 <= k < len(self.t_grid) or abs(self.t_grid[k] - t) > 1e-9 + 1e-9 * abs(t):
            raise ValueError(f"t={t!r} is not a grid node")
        return float(self.x_values[k])

    def to_csv(self, path) -> None:
        header = (f"# scheme={self.scheme} eps={self.eps!r} sigma={self.sigma!r} "
                  f"seed={self.master_seed} index={self.path_index}\n"
                  "t,x\n")
        with open(path, "w") as fh:
            fh.write(header)
            for t, x in zip(self.t_grid, self.x_values):
                fh.write(f"{t:.17g},{x:.17g}\n")


def n_steps_for(t0: float, t_end: float, dt: float) -> int:
    span = t_end - t0
    if span <= 0 or dt <= 0:
        raise ValueError("need t_end > t0 and dt > 0")
    n = int(math.floor(span / dt + 1e-9))  # the grid never passes t_end
    if n < 1:
        raise ValueError(f"dt={dt:g} is longer than the window [t0, t_end]")
    return n


def time_grid(t0: float, dt: float, n_steps: int) -> np.ndarray:
    return t0 + dt * np.arange(n_steps + 1)


def _check_dt(dt: float, eps: float) -> None:
    if dt > eps / 10.0 * (1.0 + 1e-12):
        raise StepTooLarge(f"dt={dt:g} exceeds eps/10={eps / 10.0:g}")


def em_batch(model: ModelSpec, eps: float, sigma: float, t0: float,
             x0, dt: float, increments: np.ndarray, k0: int = 0,
             trunc: Optional[np.ndarray] = None) -> tuple:
    """Integrate a batch of Euler-Maruyama paths on the grid t0 + dt * k.

    increments (B, n) drive the steps from node k0 to node k0 + n, and x0
    (a scalar or (B,)) is the state at node k0.  Returns (paths (B, n+1),
    trunc (B,)): paths is the transposed view of a time-major (n+1, B)
    array, and trunc is NaN where the path stayed in |x| <= d and its
    freeze time otherwise.  To integrate in time chunks, pass each chunk's
    first node as k0, the previous chunk's last column as x0 and its trunc,
    which is updated in place; the chunks then reproduce the nodes of one
    call bit for bit, because the step times are the same nodes of the one
    grid.  With sigma = 0 this is explicit Euler on the slow ODE, bit for
    bit.
    """
    _check_dt(dt, eps)
    B, n = increments.shape
    out = np.empty((n + 1, B))
    out[0] = x0
    if trunc is None:
        trunc = np.full(B, np.nan)
    # the kernels take the scaled increments in out[1:], time-major; the
    # transpose goes in blocks of paths, which keeps it cache-friendly
    cns = sigma / math.sqrt(eps)
    for b in range(0, B, 64):
        np.multiply(increments[b:b + 64].T, cns, out=out[1:, b:b + 64])
    t_nodes = t0 + dt * np.arange(k0, k0 + n)  # time_grid(t0, dt, .)[k0:]
    if model.poly is not None:
        _em_poly(out, model.poly.coeff_table(t_nodes), dt / eps, model.d,
                 trunc, t0, dt, k0)
    else:
        _em_callable(out, model.drift, t_nodes, dt / eps, model.d, trunc, t0,
                     dt, k0)
    return out.T, trunc


def linear_batch(rate_fn: Callable, eps: float, sigma: float, t0: float,
                 x0, dt: float, increments: np.ndarray,
                 domain: float = math.inf) -> tuple:
    """Exponential-Euler batch for the linear equation with rate a(t).

    The per-step multipliers exp(a(t_k) dt / eps) are precomputed here once
    for the whole batch.
    """
    _check_dt(dt, eps)
    B, K = increments.shape
    out = np.empty((B, K + 1))
    out[:, 0] = x0
    trunc = np.full(B, np.nan)
    t_nodes = time_grid(t0, dt, K)[:-1]
    a_vals = np.asarray(rate_fn(t_nodes), dtype=float)
    if a_vals.ndim == 0:
        a_vals = np.full(K, float(a_vals))
    mult = np.ascontiguousarray(np.exp(a_vals * (dt / eps)))
    cns = sigma / math.sqrt(eps)
    _linear_paths(out, increments, mult, cns, domain, trunc, t0, dt)
    return out, trunc


def _em_poly(out, coefs, cdt, d, trunc, t0, dt, k0):
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


def _em_callable(out, drift, t_nodes, cdt, d, trunc, t0, dt, k0):
    """_em_poly for an arbitrary vectorized drift callable.

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


def _linear_paths(out, dw, mult, cns, d, trunc, t0, dt):
    """Exponential-Euler steps x <- x * mult[k] + cns * dW_k.

    mult[k] = exp(a(t_k) dt / eps) is precomputed by the caller.
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


def _resolve_noise(noise, master_seed, path_index, t0, dt, n):
    if noise is None:
        noise = NoiseStream(master_seed, path_index, t0, dt, n)
    if noise.n_steps != n or abs(noise.dt - dt) > 1e-15 * max(1.0, dt):
        raise ValueError("noise stream grid does not match the requested grid")
    return noise


def simulate(model: ModelSpec, eps: float, sigma: float, t0: float, x0: float,
             t_end: float, dt: float, noise: Optional[NoiseStream] = None,
             master_seed: int = 0, path_index: int = 0) -> PathSample:
    """One Euler-Maruyama path of eps dx = f dt + sigma sqrt(eps) dW (slow time).

    Update rule: x_{k+1} = x_k + (dt/eps) f(x_k, t_k) + (sigma/sqrt(eps)) dW_k.
    Leaving |x| <= d freezes the state at the last in-domain value and records
    the truncation time; it is not an exception.
    """
    n = n_steps_for(t0, t_end, dt)
    noise = _resolve_noise(noise, master_seed, path_index, t0, dt, n)
    dw = noise.increments()[None, :] if sigma != 0.0 else np.zeros((1, n))
    X, trunc = em_batch(model, eps, sigma, t0, x0, dt, np.ascontiguousarray(dw))
    return PathSample(time_grid(t0, dt, n), X[0], eps, sigma,
                      noise.master_seed, noise.path_index, "euler-maruyama",
                      None if math.isnan(trunc[0]) else float(trunc[0]),
                      noise.mirrored, noise.level)


def simulate_linear(rate_fn: Callable, eps: float, sigma: float, t0: float,
                    x0: float, t_end: float, dt: float,
                    noise: Optional[NoiseStream] = None,
                    master_seed: int = 0, path_index: int = 0,
                    domain: float = math.inf) -> PathSample:
    """One exponential-Euler path of the linear SDE with rate a(t).

    x_{k+1} = x_k exp(a(t_k) dt/eps) + (sigma/sqrt(eps)) dW_k: the drift
    response is distribution-exact for frozen coefficients and never blows
    up for a > 0 at moderate dt/eps, while the shared dW keeps paths
    comparable with simulate().
    """
    n = n_steps_for(t0, t_end, dt)
    noise = _resolve_noise(noise, master_seed, path_index, t0, dt, n)
    dw = noise.increments()[None, :] if sigma != 0.0 else np.zeros((1, n))
    X, trunc = linear_batch(rate_fn, eps, sigma, t0, x0, dt,
                            np.ascontiguousarray(dw), domain)
    return PathSample(time_grid(t0, dt, n), X[0], eps, sigma,
                      noise.master_seed, noise.path_index, "exponential-euler",
                      None if math.isnan(trunc[0]) else float(trunc[0]),
                      noise.mirrored, noise.level)


def simulate_coupled(model: ModelSpec, rate_fn: Callable, eps: float,
                     sigma: float, start: tuple, t_end: float, dt: float,
                     noise: Optional[NoiseStream] = None,
                     master_seed: int = 0, path_index: int = 0) -> tuple:
    """Nonlinear and linear paths driven by the identical increment sequence.

    Both start from the same (x0, t0); used for pathwise comparison tests
    where the nonlinear path must dominate the linear one until it exits
    the wedge or the linear path returns to zero.
    """
    x0, t0 = start
    keys = (noise, master_seed, path_index)
    return (simulate(model, eps, sigma, t0, x0, t_end, dt, *keys),
            simulate_linear(rate_fn, eps, sigma, t0, x0, t_end, dt, *keys))
