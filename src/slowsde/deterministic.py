"""Deterministic slow-fast ODE layer.

Solves eps dx/dt = f(x, t) with fixed-step RK4, constructs adiabatic
solutions tracking equilibrium branches, the delay time at which the
accumulated linearization integral returns to zero, and the post-exit
solutions used as centrelines for the approach strips.  Every RK4 solution
is stepped by one loop, _rk4_rows, which advances any number of rows in
lockstep: solve_det and adiabatic_solution are one row of it, and the
post-exit centrelines of PostExitRows one row per exit time, stepped chunk
by chunk by the ensemble (post_exit_path is one row over the whole grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as P

from . import _compiled
from ._brentq import brentq
from .errors import NotHyperbolic, SandwichViolation
from .model import ModelSpec, alpha, branches
from .sde import _check_dt, em_batch, n_steps_for, time_grid

__all__ = [
    "DetPath", "solve_det", "adiabatic_solution", "bifurcation_delay",
    "PostExitRows", "post_exit_path", "det_after_exit",
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


def _rk4_step(g, x, h):
    """One classical RK4 step of length h for x' = g(x, stage), where stage
    0 is the step's start time, 1 its midpoint and 2 its end."""
    k1 = g(x, 0)
    k2 = g(x + 0.5 * h * k1, 1)
    k3 = g(x + 0.5 * h * k2, 1)
    k4 = g(x + h * k3, 2)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_rows(model: ModelSpec, eps: float, t: np.ndarray, h, out: np.ndarray,
              start=None, d: float = math.inf) -> np.ndarray:
    """RK4 for eps x' = f(x, t), stepping the rows of out (R, n+1) in lockstep.

    out[:, 0] holds the start values; step j runs from time t[j] for a
    length h[j] (or h) and fills column j + 1.  Row i holds its start value
    until step start[i].  A row that would leave |x| <= d freezes at its
    last in-domain value, and the loop stops once every row is frozen.
    Returns per row the step that left, or n.  The drift's coefficients
    are tabulated once at the stage times t, t + h/2 and t + h, as the
    drift computes them; the compiled rk4_poly then runs full Horner on
    them for every row and step, and without it the loop below runs the
    same full Horner by PolyDrift.horner, which gives the same bits.
    """
    n = len(t)
    h = np.broadcast_to(h, n)
    inv = 1.0 / eps
    poly = model.poly
    tabs = [poly.coeff_table(s) for s in (t, t + 0.5 * h, t + h)]
    rk4 = _compiled.LIBRARY.get("rk4_poly")
    if rk4 is not None:
        starts = np.zeros(len(out), dtype=np.intp) if start is None \
            else np.ascontiguousarray(start, dtype=np.intp)
        return rk4(out, np.ascontiguousarray(h, dtype=float), tabs, inv,
                   starts, d)
    tabs = [tab.tolist() for tab in tabs]

    def rhs(j):
        return lambda x, s: poly.horner(tabs[s][j], x) * inv

    # a single row steps as a NumPy scalar: the same double arithmetic at a
    # fraction of the cost of a one-element array
    x = out[0, 0] if len(out) == 1 else out[:, 0].copy()
    left = np.full(len(out), n)
    frozen = None
    pending = 0 if start is None else int(np.max(start))
    for j in range(n):
        new = _rk4_step(rhs(j), x, h[j])
        if j < pending:
            new = np.where(start <= j, new, x)
        if frozen is not None:
            new = np.where(frozen, x, new)
        if d < math.inf:
            exits = np.abs(new) > d
            if exits.any():
                left[exits] = j
                frozen = left < n
                if frozen.all():
                    out[:, j + 1:] = out[:, j:j + 1]
                    break
                new = np.where(exits, x, new)
        x = new
        out[:, j + 1] = x
    return left


def solve_det(model: ModelSpec, eps: float, t0: float, x0: float,
              t_end: float, dt: float, method: str = "rk4") -> DetPath:
    """Fixed-step solution of eps dx/dt = f(x, t) from (x0, t0).

    method="rk4" records per-step local-error estimates from step doubling,
    computed for all nodes at once; method="euler" reuses the SDE kernel
    with zero noise and therefore matches simulate(..., sigma=0) bit for
    bit.  Leaving the domain truncates the path (recorded, not raised).
    """
    _check_dt(dt, eps)
    if not model.in_domain(x0, t0):
        raise ValueError(f"start ({x0:g}, {t0:g}) outside the model domain")
    n = n_steps_for(t0, t_end, dt)
    grid = time_grid(t0, dt, n)

    if method == "euler":
        ws = np.zeros((1, n + 1))  # zero increments, stepped in place
        X, trunc = em_batch(model, eps, 0.0, t0, x0, dt, ws[:, 1:], 0, None,
                            ws)
        xs, errs = X[0], None
        k_last = n if math.isnan(trunc[0]) else \
            int(round((trunc[0] - t0) / dt)) - 1
    elif method == "rk4":
        xs = np.empty((1, n + 1))
        xs[0, 0] = x0
        k_last = int(_rk4_rows(model, eps, grid[:-1], dt, xs, d=model.d)[0])
        xs = xs[0]
        # step doubling from every kept node but the last, all at once: two
        # half steps against the full step the path took
        inv, half = 1.0 / eps, 0.5 * dt

        def g(t):
            stage_t = (t, t + 0.5 * half, t + half)
            return lambda x, s: model.drift(x, stage_t[s]) * inv

        t = grid[:k_last]
        twice = _rk4_step(g(t + half), _rk4_step(g(t), xs[:k_last], half),
                          half)
        errs = np.abs(twice - xs[1:k_last + 1]) / 15.0
    else:
        raise ValueError(f"unknown stepper {method!r}")
    truncated_at = float(grid[k_last + 1]) if k_last < n else None
    return DetPath(grid[:k_last + 1], xs[:k_last + 1], eps, method, errs,
                   truncated_at)


def adiabatic_solution(model: ModelSpec, eps: float, t_grid) -> DetPath:
    """Particular solution hugging a nonbifurcating equilibrium branch.

    Stable branches are integrated forward from x_star(t_first); unstable
    ones are integrated backward in time (which flips stability) from
    x_star(t_last).  Each grid cell is split into equal RK4 sub-steps
    of at most eps/50.  The sup deviation from the branch and its ratio
    to eps are recorded in meta.
    """
    if model.kind not in ("stable-branch", "unstable-branch"):
        raise NotHyperbolic("adiabatic_solution needs a nonbifurcating model")
    if model.equilibrium is None:
        raise NotHyperbolic("model carries no equilibrium branch")
    eq = model.equilibrium
    tg = np.asarray(t_grid, dtype=float)
    a_vals = np.array([float(model.a(t)) for t in tg])
    a0_min = 1e-2
    if np.min(np.abs(a_vals)) < a0_min:
        raise NotHyperbolic(f"|a(t)| dips below {a0_min:g} on the grid")
    sign_ok = np.all(a_vals <= -a0_min) if model.kind == "stable-branch" \
        else np.all(a_vals >= a0_min)
    if not sign_ok:
        raise NotHyperbolic("a(t) has the wrong sign for this model kind")

    # backward in time the repelling branch attracts; RK4 with steps -h is
    # RK4 in reversed time u = -t bit for bit, since rounding is symmetric
    backward = model.kind == "unstable-branch"
    nodes = tg[::-1] if backward else tg
    # sub-step times accumulate t += h within each cell, from its node
    t, h, ends = [], [], [0]
    for a, b in zip(nodes[:-1], nodes[1:]):
        m = max(1, int(math.ceil(abs(b - a) / (eps / 50.0) - 1e-12)))
        hk = (b - a) / m
        for _ in range(m):
            t.append(a)
            h.append(hk)
            a += hk
        ends.append(len(t))
    xs = np.empty((1, len(t) + 1))
    xs[0, 0] = float(P.polyval(nodes[0], eq))
    _rk4_rows(model, eps, np.array(t), np.array(h), xs)
    xs = xs[0, ends]
    if backward:
        xs = xs[::-1]

    star = np.array([float(P.polyval(t, eq)) for t in tg])
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


class PostExitRows:
    """Post-exit centrelines on a grid, stepped one slice of nodes at a time.

    Row j starts at sign * x_tilde(grid[k_j]) on its own grid node k_j and
    is stepped from there by fixed-step RK4 with steps grid[1] - grid[0].
    add(k) adds rows that start on the nodes k; step(nodes) steps every row
    over the grid slice nodes.  Slices follow each other, each starting on
    the last node of the one before; every row must start at or after the
    first slice's first node and at or before the last node of the slice
    that first steps it.  Rows are independent, so how the grid is cut into
    slices, or the rows into families, changes no bit.
    """

    def __init__(self, model: ModelSpec, eps: float, grid: np.ndarray,
                 sign: int = +1):
        self.model, self.eps, self.grid = model, eps, grid
        self.curves, self.sign = branches(model), sign
        self.dt = grid[1] - grid[0]
        self.start = np.empty(0, dtype=np.intp)  # each row's start node
        # each row's value on the last node stepped, or its start value
        self.x = np.empty(0)

    def add(self, k) -> np.ndarray:
        """Add rows starting on the grid nodes k; returns their start
        values."""
        k = np.asarray(k, dtype=np.intp)
        x0 = self.sign * np.asarray(self.curves.x_tilde(self.grid[k]),
                                    dtype=float)
        self.start = np.concatenate([self.start, k])
        self.x = np.concatenate([self.x, x0])
        return x0

    def step(self, nodes: slice) -> np.ndarray:
        """The rows on the nodes of grid[nodes] (rows, len); a row holds
        its start value before its start node."""
        t = self.grid[nodes]
        out = np.empty((len(self.x), len(t)))
        out[:, 0] = self.x
        if len(out):
            _rk4_rows(self.model, self.eps, t[:-1], self.dt, out,
                      np.maximum(self.start - nodes.start, 0))
        self.x = out[:, -1].copy()
        return out


def det_after_exit(model: ModelSpec, eps: float, tau: float, sign: int,
                   t_end: float, dt: float) -> DetPath:
    """Deterministic solution started on the escape boundary at time tau:
    post_exit_path on the grid from tau to t_end in steps of dt."""
    grid = time_grid(tau, dt, n_steps_for(tau, t_end, dt))
    return post_exit_path(model, eps, grid, sign)


def post_exit_path(model: ModelSpec, eps: float, grid,
                   sign: int = +1) -> DetPath:
    """The one row of PostExitRows that starts at sign * x_tilde(tau) on
    the grid's first node, tau.

    Asserts the wedge ordering x_tilde(t) <= |x| <= x_star(t) at every node;
    violations beyond the discretization tolerance raise SandwichViolation.
    meta carries the approach gap x_star(t) - |x(t)|.
    """
    grid = np.asarray(grid, dtype=float)
    tau = float(grid[0])
    if tau < math.sqrt(eps) * (1.0 - 1e-9):
        raise ValueError("tau must be at least sqrt(eps)")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_dt(grid[1] - grid[0], eps)
    rows = PostExitRows(model, eps, grid, sign)
    rows.add([0])
    x = rows.step(slice(0, len(grid)))[0]
    absx = np.abs(x)
    xt = np.asarray(rows.curves.x_tilde(grid), dtype=float)
    xs = np.asarray(rows.curves.x_star(grid), dtype=float)
    tol = 1e-7 * (1.0 + float(np.max(xs)))
    low = float(np.min(absx - xt))
    high = float(np.min(xs - absx))
    if low < -tol or high < -tol:
        raise SandwichViolation(
            f"wedge ordering violated by {max(-low, -high):.3g} "
            "(dt too large or model outside hypotheses)")
    return DetPath(grid, x, eps, "rk4",
                   meta={"approach_gap": xs - absx, "sandwich_tol": tol,
                         "tau": tau, "sign": sign})
