"""SDE integration: Euler-Maruyama for the nonlinear equation and
exponential Euler for linear comparisons.

Both integrators step a whole batch of paths at once, in rows of one
path-major (paths, nodes) array: the state in column 0, and in the other
columns the increments, each replaced by the node its step leads to.
em_batch steps the polynomial drift by Euler-Maruyama through em_poly, a
kernel of the compiled library _em.c, built and loaded at its first use
(see _compiled): path by path, it runs full Horner over the drift's
coefficient table, one row per step, and freezes the paths that leave
|x| <= d in the same call.  When no C compiler works, it steps the same
rows column by column in one NumPy loop, running PolyDrift.horner, and
freezes them by _freeze: the reference the kernel equals bit for bit.
linear_batch steps its rows through precomputed exponential multipliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _compiled
from .errors import StepTooLarge
from .model import ModelSpec
from .noise import NoiseStream

__all__ = [
    "PathSample", "backend", "simulate", "em_batch", "linear_batch",
    "time_grid", "n_steps_for",
]


def backend() -> str:
    """The kernel that steps the drift in this process: "c" for the
    compiled one, "numpy" when it cannot be built or loaded.  Reports keep
    the literal "python", so their bytes never depend on it."""
    return "numpy" if _compiled.LIBRARY.get("em_poly") is None else "c"


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
             trunc: Optional[np.ndarray] = None,
             out: Optional[np.ndarray] = None) -> tuple:
    """Integrate a batch of Euler-Maruyama paths on the grid t0 + dt * k.

    increments (B, n) drive the steps from node k0 to node k0 + n, and x0
    (a scalar or (B,)) is the state at node k0.  Returns (paths (B, n+1),
    trunc (B,)): trunc is NaN where the path stayed in |x| <= d and its
    freeze time otherwise.  To integrate in time chunks, pass each chunk's
    first node as k0, the previous chunk's last column as x0 and its trunc,
    which is updated in place; the chunks then reproduce the nodes of one
    call bit for bit, because the step times are the same nodes of the one
    grid.  With sigma = 0 this is explicit Euler on the slow ODE, bit for
    bit.

    out (B, n+1), when given, is a workspace whose columns 1.. are the
    increments: increments must be out[:, 1:].  x0 is written into column 0
    and the paths are stepped in place, so paths is out and the increments
    are gone.  Without out, paths is a new array with the increments copied
    in, and they are kept.  Both kernels step the same array.

    In the NumPy loop every row is stepped as if live and fixed up once per
    chunk by _freeze, with the same result.
    """
    _check_dt(dt, eps)
    if out is not None and not _compiled.tail_columns(increments, out):
        raise ValueError("em_batch: increments must be out[:, 1:]")
    B, n = increments.shape
    if trunc is None:
        trunc = np.full(B, np.nan)
    if out is None:
        out = np.empty((B, n + 1))
        out[:, 1:] = increments
    out[:, 0] = x0
    t_nodes = t0 + dt * np.arange(k0, k0 + n)  # time_grid(t0, dt, .)[k0:]
    cns = sigma / math.sqrt(eps)
    step = _compiled.LIBRARY.get("em_poly")
    if step is not None:
        step(out, model.poly.coeff_table(t_nodes), dt / eps, cns, model.d,
             trunc, t0, dt, k0)
        return out, trunc
    np.multiply(out[:, 1:], cns, out=out[:, 1:])
    with np.errstate(over="ignore", invalid="ignore"):
        _em_steps(out, model, t_nodes, dt / eps)
        _freeze(out, model.d, trunc, t0, dt, k0)
    return out, trunc


def linear_batch(rate_fn: Callable, eps: float, sigma: float, t0: float,
                 x0, dt: float, increments: np.ndarray,
                 domain: float = math.inf) -> tuple:
    """Exponential-Euler batch for the linear equation with rate a(t).

    x_{k+1} = x_k * mult[k] + (sigma/sqrt(eps)) dW_k, where the per-step
    multipliers mult[k] = exp(a(t_k) dt / eps) are computed once for the
    whole batch.  Returns (paths (B, K+1), trunc (B,)) as em_batch does,
    freezing a path at its last value with |x| <= domain.
    """
    _check_dt(dt, eps)
    B, K = increments.shape
    out = np.empty((B, K + 1))
    out[:, 0] = x0
    np.multiply(increments, sigma / math.sqrt(eps), out=out[:, 1:])
    trunc = np.full(B, np.nan)
    a_vals = np.asarray(rate_fn(time_grid(t0, dt, K)[:-1]), dtype=float)
    if a_vals.ndim == 0:
        a_vals = np.full(K, float(a_vals))
    mult = np.exp(a_vals * (dt / eps))
    with np.errstate(over="ignore", invalid="ignore"):
        # column k: the state at node k; column k + 1: the scaled increment
        # of step k, then the state it leads to
        for k, m in enumerate(mult.tolist()):
            out[:, k + 1] += out[:, k] * m
        _freeze(out, domain, trunc, t0, dt, 0)
    return out, trunc


def _em_steps(out, model, t_nodes, cdt):
    """Euler-Maruyama steps of one time chunk, column by column in place in
    the rows of out (paths, nodes), whose column 0 is the state at grid
    node k0 and whose other columns hold the scaled increments.

    t_nodes[j] is the time of step k0 + j.  The drift is tabulated, one
    row of coefficients per step, and PolyDrift.horner runs full Horner on
    each row, as the compiled em_poly does.
    """
    horner = model.poly.horner
    mul, add = np.multiply, np.add
    cdt = np.array(cdt)
    f = np.empty(out.shape[0])
    # x: the state at a node, kept contiguous, since a column of out is
    # strided; y: the step's scaled increment, then its result; c: the
    # step's row of coefficients
    x = out[:, 0].copy()
    for j, c in enumerate(model.poly.coeff_table(t_nodes).tolist()):
        y = out[:, j + 1]
        fx = horner(c, x)
        mul(fx, cdt, f)
        add(x, f, f)
        add(f, y, x)
        y[...] = x


def _freeze(out, d, trunc, t0, dt, k0):
    """Hold frozen rows of out at their value on entry, and freeze each
    live row from its first node with |x| > d, at that node's previous
    value; trunc[b] records the time t0 + (k + 1) * dt of the step k that
    left."""
    live = np.isnan(trunc)
    if not live.all():
        out[~live, 1:] = out[~live, :1]
    # fmax and fmin skip NaN, so a row qualifies iff a node has |x| > d
    steps = out[:, 1:]
    hit = np.nonzero(live & ((np.fmax.reduce(steps, axis=1) > d)
                             | (np.fmin.reduce(steps, axis=1) < -d)))[0]
    if hit.size == 0:
        return
    first = (np.abs(steps[hit]) > d).argmax(axis=1)
    trunc[hit] = t0 + (k0 + first + 1) * dt
    for b, j in zip(hit.tolist(), first.tolist()):
        out[b, j + 1:] = out[b, j]


def simulate(model: ModelSpec, eps: float, sigma: float, t0: float, x0: float,
             t_end: float, dt: float, noise: Optional[NoiseStream] = None,
             master_seed: int = 0, path_index: int = 0) -> PathSample:
    """One Euler-Maruyama path of eps dx = f dt + sigma sqrt(eps) dW (slow time).

    Update rule: x_{k+1} = x_k + (dt/eps) f(x_k, t_k) + (sigma/sqrt(eps)) dW_k,
    with the increments of noise, or else of the stream of (master_seed,
    path_index).  Leaving |x| <= d freezes the state at the last in-domain
    value and records the truncation time; it is not an exception.
    """
    n = n_steps_for(t0, t_end, dt)
    if noise is None:
        noise = NoiseStream(master_seed, path_index, t0, dt, n)
    if noise.n_steps != n or abs(noise.dt - dt) > 1e-15 * max(1.0, dt):
        raise ValueError("noise stream grid does not match the requested grid")
    dw = noise.increments()[None, :] if sigma != 0.0 else np.zeros((1, n))
    X, trunc = em_batch(model, eps, sigma, t0, x0, dt, dw)
    return PathSample(time_grid(t0, dt, n), X[0], eps, sigma,
                      noise.master_seed, noise.path_index, "euler-maruyama",
                      None if math.isnan(trunc[0]) else float(trunc[0]),
                      noise.mirrored, noise.level)
