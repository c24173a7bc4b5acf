"""Deterministic slow-fast ODE layer.

Solves eps dx/dt = f(x, t) with fixed-step RK4, constructs adiabatic
solutions tracking equilibrium branches, the delay time at which the
accumulated linearization integral returns to zero, and the post-exit
solutions used as centrelines for the approach strips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._brentq import brentq
from .errors import NotHyperbolic, SandwichViolation, StepTooLarge
from .model import BranchCurves, ModelSpec, alpha, branches
from .sde import em_batch, time_grid, n_steps_for

__all__ = [
    "DetPath", "solve_det", "adiabatic_solution", "bifurcation_delay",
    "det_after_exit",
]


@dataclass(frozen=True)
class DetPath:
    """Deterministic trajectory on a strictly increasing slow-time grid.

    If the path left |x| <= d the arrays stop at the last in-domain node
    and truncated_at records the first excluded time.
    """

    t_grid: np.ndarray
    x_values: np.ndarray
    eps: float
    stepper: str
    local_error: Optional[np.ndarray] = None
    truncated_at: Optional[float] = None
    meta: Optional[dict] = None

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    def value_at(self, t: float) -> float:
        k = int(round((t - self.t_grid[0]) / self.dt))
        if not 0 <= k < len(self.t_grid) or abs(self.t_grid[k] - t) > 1e-9 + 1e-9 * abs(t):
            raise ValueError(f"t={t!r} is not a grid node")
        return float(self.x_values[k])

    def to_csv(self, path) -> None:
        err = self.local_error
        with open(path, "w") as fh:
            fh.write("t,x,local_error\n")
            for k, (t, x) in enumerate(zip(self.t_grid, self.x_values)):
                e = err[k - 1] if err is not None and k >= 1 else 0.0
                fh.write(f"{t:.17g},{x:.17g},{e:.6g}\n")


def _rk4_step(g, x: float, t: float, h: float) -> float:
    k1 = g(x, t)
    k2 = g(x + 0.5 * h * k1, t + 0.5 * h)
    k3 = g(x + 0.5 * h * k2, t + 0.5 * h)
    k4 = g(x + h * k3, t + h)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def solve_det(model: ModelSpec, eps: float, t0: float, x0: float,
              t_end: float, dt: float, method: str = "rk4") -> DetPath:
    """Fixed-step solution of eps dx/dt = f(x, t) from (x0, t0).

    method="rk4" records per-step local-error estimates from step doubling;
    method="euler" reuses the SDE kernel with zero noise and therefore
    matches simulate(..., sigma=0) bit for bit.  Leaving the domain
    truncates the path (recorded, not raised).
    """
    if dt > eps / 10.0 * (1.0 + 1e-12):
        raise StepTooLarge(f"dt={dt:g} exceeds eps/10={eps / 10:g}")
    if not model.in_domain(x0, t0):
        raise ValueError(f"start ({x0:g}, {t0:g}) outside the model domain")
    n = n_steps_for(t0, t_end, dt)

    if method == "euler":
        X, trunc = em_batch(model, eps, 0.0, t0, x0, dt, np.zeros((1, n)))
        grid = time_grid(t0, dt, n)
        tr = None if math.isnan(trunc[0]) else float(trunc[0])
        if tr is not None:
            keep = grid < tr - 0.5 * dt
            return DetPath(grid[keep], X[0][keep], eps, "euler", None, tr)
        return DetPath(grid, X[0], eps, "euler", None, None)
    if method != "rk4":
        raise ValueError(f"unknown stepper {method!r}")

    f = model.drift
    inv = 1.0 / eps

    def g(x, t):
        return f(x, t) * inv

    grid = time_grid(t0, dt, n)
    xs = np.empty(n + 1)
    errs = np.empty(n)
    xs[0] = x0
    x = float(x0)
    truncated_at = None
    k_last = n
    for k in range(n):
        t = grid[k]
        full = _rk4_step(g, x, t, dt)
        half = _rk4_step(g, _rk4_step(g, x, t, 0.5 * dt), t + 0.5 * dt, 0.5 * dt)
        errs[k] = abs(half - full) / 15.0
        if abs(full) > model.d:
            truncated_at = float(grid[k + 1])
            k_last = k
            break
        x = full
        xs[k + 1] = x
    return DetPath(grid[:k_last + 1], xs[:k_last + 1], eps, "rk4",
                   errs[:k_last], truncated_at)


def adiabatic_solution(model: ModelSpec, eps: float, t_grid) -> DetPath:
    """Particular solution hugging a nonbifurcating equilibrium branch.

    Stable branches are integrated forward from x_star(t_first); unstable
    ones are integrated backward in reversed time (which flips stability)
    from x_star(t_last).  The sup deviation from the branch and its ratio
    to eps are recorded in meta.
    """
    if model.kind not in ("stable-branch", "unstable-branch"):
        raise NotHyperbolic("adiabatic_solution needs a nonbifurcating model")
    if model.equilibrium is None:
        raise NotHyperbolic("model carries no equilibrium branch")
    tg = np.asarray(t_grid, dtype=float)
    a_vals = np.array([float(model.a(t)) for t in tg])
    a0_min = 1e-2
    if np.min(np.abs(a_vals)) < a0_min:
        raise NotHyperbolic(f"|a(t)| dips below {a0_min:g} on the grid")
    sign_ok = np.all(a_vals <= -a0_min) if model.kind == "stable-branch" \
        else np.all(a_vals >= a0_min)
    if not sign_ok:
        raise NotHyperbolic("a(t) has the wrong sign for this model kind")

    inv = 1.0 / eps
    f = model.drift
    if model.kind == "stable-branch":
        def g(x, t):
            return f(x, t) * inv
        nodes = tg
        x = float(model.equilibrium(tg[0]))
    else:
        # reversed time u = -t turns the repelling branch into an attracting one
        def g(x, u):
            return -f(x, -u) * inv
        nodes = -tg[::-1]
        x = float(model.equilibrium(tg[-1]))

    xs = np.empty(len(nodes))
    xs[0] = x
    for k in range(len(nodes) - 1):
        span = nodes[k + 1] - nodes[k]
        m = max(1, int(math.ceil(span / (eps / 50.0) - 1e-12)))
        h = span / m
        t = nodes[k]
        for _ in range(m):
            x = _rk4_step(g, x, t, h)
            t += h
        xs[k + 1] = x
    if model.kind == "unstable-branch":
        xs = xs[::-1]

    star = np.array([float(model.equilibrium(t)) for t in tg])
    dev = float(np.max(np.abs(xs - star)))
    return DetPath(tg, xs, eps, "rk4-adiabatic", None, None,
                   meta={"deviation_sup": dev, "deviation_over_eps": dev / eps})


def bifurcation_delay(model: ModelSpec, t0: float) -> float:
    """Unique t > 0 at which alpha(t, t0) returns to zero, or inf.

    alpha is decreasing on (t0, 0) and increasing afterwards, so the root
    is bracketed by [0, T]; if alpha(T, t0) < 0 the delay exceeds the
    domain and the infinity convention applies.
    """
    if not (model.t_min <= t0 < 0):
        raise ValueError("t0 must be negative and inside the domain")
    T = model.t_max
    if alpha(model, T, t0) < 0.0:
        return math.inf
    return float(brentq(lambda t: alpha(model, t, t0), 0.0, T,
                        xtol=1e-12, rtol=8.9e-16))


def det_after_exit(model: ModelSpec, eps: float, tau: float, sign: int,
                   t_end: float, dt: float,
                   curves: Optional[BranchCurves] = None) -> DetPath:
    """Deterministic solution started on the escape boundary at time tau.

    Starts at sign * x_tilde(tau) and asserts the wedge ordering
    x_tilde(t) <= |x| <= x_star(t) at every node; violations beyond the
    discretization tolerance raise SandwichViolation.  meta carries the
    approach gap x_star(t) - |x(t)|.
    """
    if tau < math.sqrt(eps) * (1.0 - 1e-9):
        raise ValueError("tau must be at least sqrt(eps)")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if curves is None:
        curves = branches(model)
    x0 = sign * float(curves.x_tilde(tau))
    path = solve_det(model, eps, tau, x0, t_end, dt)
    absx = np.abs(path.x_values)
    xt = np.asarray(curves.x_tilde(path.t_grid), dtype=float)
    xs = np.asarray(curves.x_star(path.t_grid), dtype=float)
    tol = 1e-7 * (1.0 + float(np.max(xs)))
    low = float(np.min(absx - xt))
    high = float(np.min(xs - absx))
    if low < -tol or high < -tol:
        raise SandwichViolation(
            f"wedge ordering violated by {max(-low, -high):.3g} "
            "(dt too large or model outside hypotheses)")
    return DetPath(path.t_grid, path.x_values, eps, path.stepper,
                   path.local_error, path.truncated_at,
                   meta={"approach_gap": xs - absx, "sandwich_tol": tol,
                         "tau": tau, "sign": sign})

