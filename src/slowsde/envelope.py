"""Variance-like envelopes, space-time regions, and probability bounds.

zeta(t) solves the stiff linear ODE eps z' = 2 abar(t) z + 1 started from
1/(2|abar(t0)|); sigma^2 zeta approximates the variance of the linearized
deviation process and sets every strip width.  The integrator takes exact
exponential steps for a piecewise-linear freeze of abar on substeps, which
is unconditionally stable and keeps the discrete ODE residual far below
the 1e-6 budget.

All bound evaluators return their theorem's right-hand side at leading
order: every unquantified correction factor is evaluated as 1 and the
result is flagged leading_order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._brentq import brentq
from .deterministic import DetPath, det_after_exit
from .errors import (DegenerateWindow, EpsTooLarge, GridMismatch,
                     HExceedsSigma, NotStable, OutsideRegime, RegimeViolation,
                     RhoTooSmall)
from .model import BranchCurves, ModelSpec, alpha, branches
from .sde import n_steps_for, time_grid

__all__ = [
    "EnvelopeTable", "SpaceTimeRegion", "BoundEvaluation",
    "zeta_stable", "zeta_pitchfork", "zeta_post_exit", "zeta_along",
    "variance",
    "region_stable_strip", "region_unstable_strip", "region_B", "region_D",
    "region_S", "region_A", "region_delay_strip",
    "bound_stable", "bound_before", "bound_approach", "bound_unstable",
    "bound_escape", "gaussian_exit_bound", "martingale_sup_bound",
    "return_to_zero_bound", "no_exit_linear_bound", "delay_interval",
    "calibrate_zeta_brackets", "calibrate_post_exit_brackets",
    "STANDARD_ZETA_BRACKETS", "STANDARD_POST_EXIT_BRACKETS",
    "default_strip_width", "KAPPA_UNSTABLE",
]

KAPPA_UNSTABLE = math.pi / (2.0 * math.e)

# zeta(t)*|t| (pre) and zeta(t)*sqrt(eps) (crossing) ranges for the standard
# model, frozen from calibrate_zeta_brackets with a 10% margin; re-derived in
# the test suite.
STANDARD_ZETA_BRACKETS = {
    "pre": (0.34, 0.55),
    "cross": (0.34, 4.89),
}
# zeta^tau(t)*t range for the standard model, from calibrate_post_exit_brackets
# (same 10% margin).
STANDARD_POST_EXIT_BRACKETS = (0.22, 3.06)


def default_strip_width(sigma: float) -> float:
    """The working width h = 2 sigma sqrt(|log sigma|) of the inner strip."""
    return 2.0 * sigma * math.sqrt(abs(math.log(sigma)))


# ---------------------------------------------------------------------------
# zeta tables


def _phi1(m: np.ndarray) -> np.ndarray:
    out = np.ones_like(m)
    nz = m != 0.0
    out[nz] = np.expm1(m[nz]) / m[nz]
    return out


def _integrate_zeta(eps: float, t_grid: np.ndarray, abar_sub: np.ndarray,
                    zeta0, substeps: int) -> np.ndarray:
    """Scan the exponential-step recurrence over the refined grid.

    abar_sub is one rate (n_sub,) or a stack of rows (n, n_sub) integrated
    side by side from zeta0 (scalar or (n,)).  A substep whose rate is NaN
    (a row that has not started yet) leaves zeta unchanged.
    """
    K = len(t_grid) - 1
    h_sub = np.repeat(np.diff(t_grid) / substeps, substeps)
    m = (abar_sub[..., :-1] + abar_sub[..., 1:]) * h_sub / eps
    idle = np.isnan(m)
    m[idle] = 0.0
    E = np.exp(m)
    w = (h_sub / eps) * _phi1(m)
    w[idle] = 0.0
    # step axis first, so each step reads one contiguous row
    E = np.ascontiguousarray(np.moveaxis(E, -1, 0))
    w = np.ascontiguousarray(np.moveaxis(w, -1, 0))
    zeta = np.empty((K + 1,) + np.shape(zeta0))
    zeta[0] = z = zeta0
    idx = 0
    for k in range(K):
        for _ in range(substeps):
            z = z * E[idx] + w[idx]
            idx += 1
        zeta[k + 1] = z
    return np.moveaxis(zeta, 0, -1)


def _refine_nodes(t_grid: np.ndarray, substeps: int) -> np.ndarray:
    cells = np.linspace(t_grid[:-1], t_grid[1:], substeps + 1, axis=1)
    return np.concatenate([cells[:, :-1].ravel(), t_grid[-1:]])


def _hermite_refine(t_grid: np.ndarray, x: np.ndarray, slope: np.ndarray,
                    substeps: int) -> np.ndarray:
    """Cubic Hermite values of x on the refined grid (slopes from the ODE).

    x and slope are one path (K+1,) or rows (n, K+1).  Linear interpolation
    is not enough here: the rate along a relaxing centreline bends on the
    eps scale inside one cell, and that curvature would leak into the zeta
    ODE residual.
    """
    h = np.diff(t_grid)
    theta = (np.arange(substeps) / substeps)[None, :]
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + theta
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    vals = (h00 * x[..., :-1, None] + h01 * x[..., 1:, None]
            + (h[:, None]) * (h10 * slope[..., :-1, None]
                              + h11 * slope[..., 1:, None]))
    return np.concatenate([vals.reshape(x.shape[:-1] + (-1,)), x[..., -1:]],
                          axis=-1)


def zeta_along(model: ModelSpec, eps: float, t_grid: np.ndarray,
               x: np.ndarray, abar: np.ndarray, substeps: int) -> np.ndarray:
    """zeta driven by df/dx along a path, refined by cubic Hermite values.

    x is one path (K+1,) or rows (n, K+1) with abar = df/dx on its nodes.
    Each row starts at its first finite node from 1/(2|abar|) there, and its
    zeta is NaN before that node.  The grid is taken in blocks of cells so
    the refined arrays stay small however many rows there are.
    """
    first = np.argmax(np.isfinite(x), axis=-1)
    a_first = np.take_along_axis(abar, np.expand_dims(first, -1), -1)[..., 0]
    z = 1.0 / (2.0 * np.abs(a_first))
    K = len(t_grid) - 1
    cells = max(1, (1 << 20) // (substeps * (x.size // (K + 1))))
    zeta = np.full(x.shape, np.nan)
    zeta[..., first.min()] = z
    for lo in range(first.min(), K, cells):
        hi = min(lo + cells, K)
        tg, xb = t_grid[lo:hi + 1], x[..., lo:hi + 1]
        slope = np.asarray(model.drift(xb, tg), dtype=float) / eps
        x_sub = _hermite_refine(tg, xb, slope, substeps)
        sub = np.asarray(model.drift_dx(x_sub, _refine_nodes(tg, substeps)),
                         dtype=float)
        zb = _integrate_zeta(eps, tg, sub, z, substeps)
        zeta[..., lo + 1:hi + 1] = zb[..., 1:]
        z = zb[..., -1]
    zeta[np.isnan(x)] = np.nan
    return zeta


@dataclass(frozen=True)
class EnvelopeTable:
    """Tabulated zeta with the node values of the rate it was driven by."""

    t_grid: np.ndarray
    zeta_values: np.ndarray
    abar_values: np.ndarray
    regime: str
    eps: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(self.zeta_values <= 0):
            raise ValueError("zeta must stay positive")

    def zeta_at(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.t_grid[0], self.t_grid[-1]
        if np.any(t < lo - 1e-9) or np.any(t > hi + 1e-9):
            raise GridMismatch("time outside the envelope table range")
        return np.interp(t, self.t_grid, self.zeta_values)

    def sqrt_zeta(self) -> np.ndarray:
        return np.sqrt(self.zeta_values)

    def ode_residual(self) -> float:
        """max_k |eps zeta' - (2 abar zeta + 1)| with a 5-point derivative."""
        z, a, t = self.zeta_values, self.abar_values, self.t_grid
        if len(t) < 5:
            return 0.0
        dt = t[1] - t[0]
        dz = (-z[4:] + 8.0 * z[3:-1] - 8.0 * z[1:-3] + z[:-4]) / (12.0 * dt)
        rhs = 2.0 * a[2:-2] * z[2:-2] + 1.0
        return float(np.max(np.abs(self.eps * dz - rhs)))

    def max_slope(self) -> float:
        """max of the discrete difference quotients zeta'."""
        return float(np.max(np.diff(self.zeta_values) / np.diff(self.t_grid)))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# regime={self.regime} eps={self.eps!r}\n")
            fh.write("t,zeta\n")
            for t, z in zip(self.t_grid, self.zeta_values):
                fh.write(f"{t:.17g},{z:.17g}\n")


def zeta_stable(model: ModelSpec, eps: float, t_grid, xdet_path: DetPath,
                substeps: int = 4) -> EnvelopeTable:
    """zeta along a stable deterministic path (rate from df/dx on the path)."""
    tg = np.asarray(t_grid, dtype=float)
    if len(tg) != len(xdet_path.t_grid) or not np.allclose(tg, xdet_path.t_grid):
        raise GridMismatch("t_grid must match the deterministic path grid")
    abar = np.asarray(model.drift_dx(xdet_path.x_values, tg), dtype=float)
    if np.any(abar >= 0):
        raise NotStable("df/dx along the path must stay negative")
    z = zeta_along(model, eps, tg, xdet_path.x_values, abar, substeps)
    a_plus, a_minus = float(np.max(-abar)), float(np.min(-abar))
    gap_mask = tg - tg[0] >= 10.0 * eps * abs(math.log(eps))
    gap = float(np.max(np.abs(z[gap_mask] - 1.0 / (2.0 * np.abs(abar[gap_mask]))))) \
        if gap_mask.any() else math.nan
    params = {
        "abar_plus": a_plus, "abar_minus": a_minus,
        "bracket_low": float(np.min(z * 2.0 * a_plus)),
        "bracket_high": float(np.max(z * 2.0 * a_minus)),
        "asymptotic_gap": gap,
    }
    return EnvelopeTable(tg, z, abar, "stable", eps, params)


def zeta_pitchfork(model: ModelSpec, eps: float, t0: float, t_grid,
                   substeps: int = 4) -> EnvelopeTable:
    """zeta for the pitchfork crossing, driven by the origin linearization.

    Valid for t0 <= -2 sqrt(eps) and a grid inside [t0, sqrt(eps)].  The
    regime brackets (zeta ~ 1/|t| before, ~ 1/sqrt(eps) across) are
    recorded; for the standard model they are compared against the shipped
    calibration constants.
    """
    sq = math.sqrt(eps)
    a_t0 = float(model.a(t0))
    if eps > min(4.0 * a_t0 * a_t0, (t0 / 2.0) ** 2):
        raise EpsTooLarge("need eps <= min(4 a(t0)^2, (t0/2)^2)")
    if t0 > -2.0 * sq:
        raise EpsTooLarge("need t0 <= -2 sqrt(eps)")
    tg = np.asarray(t_grid, dtype=float)
    if abs(tg[0] - t0) > 1e-12:
        raise GridMismatch("grid must start at t0")
    if tg[-1] > sq * (1.0 + 1e-9):
        raise GridMismatch("grid must end at or before sqrt(eps)")
    sub_nodes = _refine_nodes(tg, substeps)
    sub = np.asarray(model.a(sub_nodes), dtype=float)
    abar = np.asarray(model.a(tg), dtype=float)
    z = _integrate_zeta(eps, tg, sub, 1.0 / (2.0 * abs(a_t0)), substeps)

    pre = tg <= -sq + 1e-12
    cross = ~pre
    params = {"t0": t0}
    if pre.any():
        v = z[pre] * np.abs(tg[pre])
        params["pre_range"] = (float(np.min(v)), float(np.max(v)))
    if cross.any():
        v = z[cross] * sq
        params["cross_range"] = (float(np.min(v)), float(np.max(v)))
    params["nondecreasing"] = bool(np.all(np.diff(z) >= -1e-12 * np.max(z)))
    if model.name == "standard":
        ok = True
        for key, name in (("pre_range", "pre"), ("cross_range", "cross")):
            if key in params:
                lo, hi = STANDARD_ZETA_BRACKETS[name]
                ok &= params[key][0] >= lo and params[key][1] <= hi
        params["bracket_ok"] = ok
    return EnvelopeTable(tg, z, abar, "pitchfork-pre", eps, params)


def zeta_post_exit(model: ModelSpec, eps: float, tau: float, t_grid,
                   det: Optional[DetPath] = None,
                   curves: Optional[BranchCurves] = None,
                   substeps: int = 4) -> EnvelopeTable:
    """zeta along the deterministic solution restarted on the escape boundary.

    The rate is df/dx along that path; the table checks the sandwich between
    1/(2|a_star(t)|) and the initial value, and that the slope never exceeds
    1/eps.
    """
    tg = np.asarray(t_grid, dtype=float)
    if curves is None:
        curves = branches(model)
    if det is None:
        det = det_after_exit(model, eps, tau, +1, tg[-1], tg[1] - tg[0], curves)
    if len(det.t_grid) < len(tg) or not np.allclose(det.t_grid[:len(tg)], tg):
        raise GridMismatch("post-exit path does not cover the requested grid")
    xhat = np.abs(det.x_values[:len(tg)])
    abar = np.asarray(model.drift_dx(xhat, tg), dtype=float)
    z = zeta_along(model, eps, tg, xhat, abar, substeps)
    zeta0 = z[0]

    a_star = np.asarray(curves.a_star(tg), dtype=float)
    lower = 1.0 / (2.0 * np.abs(a_star))
    tol = 1e-9 * zeta0
    params = {
        "tau": tau,
        "sandwich_low_margin": float(np.min(z - lower)),
        "sandwich_high_margin": float(np.min(zeta0 - z)),
        "sandwich_ok": bool(np.all(z >= lower - tol) and np.all(z <= zeta0 + tol)),
        "t_range": (float(np.min(z * tg)), float(np.max(z * tg))),
        "slope_ok": bool(np.max(np.diff(z) / np.diff(tg)) <= (1.0 + 1e-9) / eps),
    }
    return EnvelopeTable(tg, z, abar, "post-exit", eps, params)


def variance(model: ModelSpec, eps: float, sigma: float, t: float,
             s: float) -> float:
    """Variance (sigma^2/eps) * int_s^t exp(2 alpha(t,u)/eps) du.

    Five-point Gauss-Legendre on panels no longer than eps/10; the
    integrand varies on scale eps.
    """
    if t == s:
        return 0.0
    if t < s:
        raise ValueError("need s <= t")
    n_panels = max(1, int(math.ceil((t - s) / (eps / 10.0))))
    edges = np.linspace(s, t, n_panels + 1)
    gl_x, gl_w = np.polynomial.legendre.leggauss(5)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    wts = (half[:, None] * gl_w[None, :]).ravel()
    if model.alpha_closed is not None:
        expo = np.array([2.0 * model.alpha_closed(t, u) / eps for u in nodes])
    else:
        expo = np.array([2.0 * alpha(model, t, u) / eps for u in nodes])
    m = float(np.max(expo))
    integral = math.exp(m) * float(np.sum(wts * np.exp(expo - m)))
    return sigma * sigma / eps * integral


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class SpaceTimeRegion:
    """A strip {g1(t) < x < g2(t), t_lo <= t <= t_hi}; boundaries exclusive."""

    g1: Callable
    g2: Callable
    t_lo: float
    t_hi: float
    label: str

    def boundaries(self, t):
        t = np.asarray(t, dtype=float)
        g1 = np.asarray(self.g1(t), dtype=float)
        g2 = np.asarray(self.g2(t), dtype=float)
        if np.any(g1 >= g2):
            raise ValueError(f"region {self.label}: g1 >= g2 on the window")
        return g1, g2

    def to_csv(self, path, t_values) -> None:
        g1, g2 = self.boundaries(t_values)
        with open(path, "w") as fh:
            fh.write(f"# region={self.label}\n")
            fh.write("t,g1,g2\n")
            for t, a, b in zip(np.asarray(t_values), g1, g2):
                fh.write(f"{t:.17g},{a:.17g},{b:.17g}\n")


def _interp_fn(grid: np.ndarray, values: np.ndarray) -> Callable:
    lo, hi = grid[0], grid[-1]

    def fn(t):
        t = np.asarray(t, dtype=float)
        if np.any(t < lo - 1e-9) or np.any(t > hi + 1e-9):
            raise GridMismatch("time outside the tabulated range")
        return np.interp(t, grid, values)

    return fn


def region_stable_strip(h: float, xdet_path: DetPath,
                        table: EnvelopeTable) -> SpaceTimeRegion:
    """|x - xdet(t)| < h sqrt(zeta(t)) around a stable deterministic path."""
    if not np.allclose(xdet_path.t_grid, table.t_grid):
        raise GridMismatch("path and envelope table grids differ")
    half = h * table.sqrt_zeta()
    c = xdet_path.x_values
    return SpaceTimeRegion(
        _interp_fn(table.t_grid, c - half), _interp_fn(table.t_grid, c + half),
        float(table.t_grid[0]), float(table.t_grid[-1]), f"stable-strip(h={h:g})")


def region_unstable_strip(h: float, xdet_path: DetPath,
                          abar_values: np.ndarray) -> SpaceTimeRegion:
    """|x - xdet(t)| < h / sqrt(2 abar(t)) around an unstable slow solution."""
    abar = np.asarray(abar_values, dtype=float)
    if np.any(abar <= 0):
        raise ValueError("unstable strip needs abar > 0")
    if len(abar) != len(xdet_path.t_grid):
        raise GridMismatch("abar values and path grid differ in length")
    half = h / np.sqrt(2.0 * abar)
    c = xdet_path.x_values
    return SpaceTimeRegion(
        _interp_fn(xdet_path.t_grid, c - half),
        _interp_fn(xdet_path.t_grid, c + half),
        float(xdet_path.t_grid[0]), float(xdet_path.t_grid[-1]),
        f"unstable-strip(h={h:g})")


def region_B(model: ModelSpec, eps: float, h: float, x0: float, t0: float,
             table: EnvelopeTable) -> SpaceTimeRegion:
    """Crossing strip |x - x0 e^{alpha(t,t0)/eps}| < h sqrt(zeta(t))."""
    tg = table.t_grid
    if abs(tg[0] - t0) > 1e-12:
        raise GridMismatch("envelope table must start at t0")
    centre = x0 * np.exp(np.array([alpha(model, t, t0) for t in tg]) / eps)
    half = h * table.sqrt_zeta()
    return SpaceTimeRegion(
        _interp_fn(tg, centre - half), _interp_fn(tg, centre + half),
        float(tg[0]), float(tg[-1]), f"B(h={h:g})")


def region_D(model: ModelSpec, eps: float,
             curves: Optional[BranchCurves] = None,
             t_hi: Optional[float] = None) -> SpaceTimeRegion:
    """|x| < x_tilde(t) for sqrt(eps) <= t <= T."""
    if curves is None:
        curves = branches(model)
    xt = curves.x_tilde
    return SpaceTimeRegion(lambda t: -np.asarray(xt(t), dtype=float),
                           lambda t: np.asarray(xt(t), dtype=float),
                           math.sqrt(eps), t_hi if t_hi is not None else model.t_max,
                           "D")


def region_S(model: ModelSpec, eps: float, sigma: float,
             h: Optional[float] = None,
             curves: Optional[BranchCurves] = None) -> SpaceTimeRegion:
    """Inner strip |x| < h / sqrt(a(t)), clipped to stay inside D."""
    if h is None:
        h = default_strip_width(sigma)
    if curves is None:
        curves = branches(model)
    xt = curves.x_tilde
    a = model.a

    def upper(t):
        t = np.asarray(t, dtype=float)
        return np.minimum(h / np.sqrt(np.asarray(a(t), dtype=float)),
                          np.asarray(xt(t), dtype=float))

    return SpaceTimeRegion(lambda t: -upper(t), upper, math.sqrt(eps),
                           model.t_max, f"S(h={h:g})")


def region_A(h: float, tau: float, det: DetPath,
             table: EnvelopeTable) -> SpaceTimeRegion:
    """|x - xdet_tau(t)| < h sqrt(zeta_tau(t)) after the exit at tau."""
    n = len(table.t_grid)
    if len(det.t_grid) < n or not np.allclose(det.t_grid[:n], table.t_grid):
        raise GridMismatch("post-exit path and envelope grids differ")
    half = h * table.sqrt_zeta()
    c = det.x_values[:n]
    return SpaceTimeRegion(
        _interp_fn(table.t_grid, c - half), _interp_fn(table.t_grid, c + half),
        float(tau), float(table.t_grid[-1]), f"A(h={h:g},tau={tau:g})")


def region_delay_strip(model: ModelSpec, eps: float, t_lo: float,
                       t_hi: Optional[float] = None,
                       curves: Optional[BranchCurves] = None) -> SpaceTimeRegion:
    """Constant-width strip |x| < x_tilde(sqrt(eps)) defining the delay."""
    if curves is None:
        curves = branches(model)
    w = float(curves.x_tilde(math.sqrt(eps)))
    return SpaceTimeRegion(lambda t: np.full_like(np.asarray(t, dtype=float), -w),
                           lambda t: np.full_like(np.asarray(t, dtype=float), w),
                           t_lo, t_hi if t_hi is not None else model.t_max,
                           "delay-strip")


# ---------------------------------------------------------------------------
# bounds


@dataclass(frozen=True)
class BoundEvaluation:
    """One theorem bound: min(1, prefactor * exp(exponent)), leading order."""

    theorem: str
    params: dict
    prefactor: float
    exponent: float
    bound: float
    clamped: bool
    leading_order: bool = True

    def to_dict(self) -> dict:
        return {"theorem": self.theorem, "params": dict(self.params),
                "prefactor": self.prefactor, "exponent": self.exponent,
                "bound": self.bound, "clamped": self.clamped,
                "leading_order": self.leading_order}


def _finish(theorem: str, params: dict, prefactor: float,
            exponent: float) -> BoundEvaluation:
    raw = prefactor * math.exp(exponent) if exponent > -745.0 else 0.0
    clamped = not raw < 1.0
    return BoundEvaluation(theorem, params, prefactor, exponent,
                           min(1.0, raw), clamped)


def _require_small_noise(sigma: float, eps: float) -> None:
    if sigma >= math.sqrt(eps):
        raise OutsideRegime(
            f"sigma={sigma:g} >= sqrt(eps)={math.sqrt(eps):g}; the pitchfork "
            "bounds need sigma well below sqrt(eps)")


def bound_stable(model: ModelSpec, t: float, eps: float, sigma: float,
                 h: float, t_start: float = 0.0) -> BoundEvaluation:
    """Exceedance bound around a stable branch: (|alpha|/eps^2 + 2) e^{-h^2/2s^2}."""
    if h <= 0 or sigma <= 0:
        raise OutsideRegime("need h > 0 and sigma > 0")
    pref = abs(alpha(model, t, t_start)) / eps ** 2 + 2.0
    expo = -0.5 * h * h / (sigma * sigma)
    return _finish("stable", {"t": t, "eps": eps, "sigma": sigma, "h": h,
                              "t_start": t_start}, pref, expo)


def bound_before(model: ModelSpec, t: float, eps: float, sigma: float,
                 h: float, t0: float, h0: float = 1.0) -> BoundEvaluation:
    """Exceedance bound for the crossing strip up to sqrt(eps)."""
    _require_small_noise(sigma, eps)
    sq = math.sqrt(eps)
    if t > sq * (1.0 + 1e-9):
        raise OutsideRegime("bound applies for t <= sqrt(eps)")
    if h > h0 * sq:
        raise OutsideRegime(f"need h <= h0 sqrt(eps) = {h0 * sq:g}")
    pref = (abs(alpha(model, t, t0)) / eps ** 2
            + (model.a_plus + 4.0 * sq + 4.0) / eps)
    expo = -0.5 * h * h / (sigma * sigma)
    return _finish("before", {"t": t, "eps": eps, "sigma": sigma, "h": h,
                              "t0": t0}, pref, expo)


def bound_approach(model: ModelSpec, t: float, eps: float, sigma: float,
                   h: float, tau: float,
                   table: Optional[EnvelopeTable] = None,
                   h0: float = 1.0) -> BoundEvaluation:
    """Exceedance bound around the post-exit solution.

    The accumulated rate integral is taken along the tabulated post-exit
    envelope when one is supplied, else from the branch linearization.
    """
    _require_small_noise(sigma, eps)
    if h >= h0 * tau:
        raise OutsideRegime(f"need h < h0 tau = {h0 * tau:g}")
    if table is not None:
        tg = table.t_grid
        mask = tg <= t + 1e-12
        atau = float(np.trapezoid(table.abar_values[mask], tg[mask]))
    else:
        curves = branches(model)
        tg = np.linspace(tau, t, 2001)
        atau = float(np.trapezoid(np.asarray(curves.a_star(tg), dtype=float), tg))
    pref = abs(atau) / eps ** 2 + 2.0
    expo = -0.5 * h * h / (sigma * sigma)
    return _finish("approach", {"t": t, "eps": eps, "sigma": sigma, "h": h,
                                "tau": tau}, pref, expo)


def bound_unstable(t: float, eps: float, sigma: float, h: float,
                   model: Optional[ModelSpec] = None,
                   alpha_value: Optional[float] = None,
                   t_start: float = 0.0) -> BoundEvaluation:
    """Confinement bound near an unstable branch, valid for h <= sigma.

    sqrt(e) exp(-kappa0 (sigma/h)^2 alpha(t)/eps) with kappa0 = pi/(2e).
    """
    if h > sigma:
        raise HExceedsSigma(f"need h <= sigma, got h={h:g} > sigma={sigma:g}")
    if alpha_value is None:
        if model is None:
            raise ValueError("pass either model or alpha_value")
        alpha_value = alpha(model, t, t_start)
    expo = -KAPPA_UNSTABLE * (sigma / h) ** 2 * alpha_value / eps
    return _finish("unstable", {"t": t, "eps": eps, "sigma": sigma, "h": h},
                   math.sqrt(math.e), expo)


def bound_escape(model: ModelSpec, t: float, t0: float, eps: float,
                 sigma: float, C0: float = 1.0, eta: Optional[float] = None,
                 curves: Optional[BranchCurves] = None) -> BoundEvaluation:
    """Survival bound for the escape region D.

    C0 x_tilde(t) sqrt(a(t)) (|log sigma|/sigma) (1 + alpha/eps)
    e^{-kappa alpha/eps} / sqrt(1 - e^{-2 kappa alpha/eps}), with
    kappa = (1 - lambda)(1 - eta) and C0 a free numerical constant.
    """
    _require_small_noise(sigma, eps)
    if t <= t0:
        raise DegenerateWindow("need t > t0")
    if sigma * abs(math.log(sigma)) ** 1.5 > math.sqrt(eps):
        warnings.warn("sigma |log sigma|^{3/2} exceeds sqrt(eps); the escape "
                      "bound is outside its comfort zone", RuntimeWarning)
    if eta is None:
        eta = model.eta
    if curves is None:
        curves = branches(model)
    kappa = (1.0 - model.lambda_param) * (1.0 - eta)
    al = alpha(model, t, t0)
    x = kappa * al / eps
    denom = math.sqrt(-math.expm1(-2.0 * x)) if x < 350 else 1.0
    pref = (C0 * float(curves.x_tilde(t)) * math.sqrt(float(model.a(t)))
            * abs(math.log(sigma)) / sigma * (1.0 + al / eps) / denom)
    return _finish("escape", {"t": t, "t0": t0, "eps": eps, "sigma": sigma,
                              "C0": C0, "eta": eta, "kappa": kappa}, pref, -x)


def gaussian_exit_bound(delta: float, v: float) -> float:
    """Single-time Gaussian tail bound exp(-delta^2 / 2v)."""
    if v <= 0:
        raise ValueError("need v > 0")
    return math.exp(-delta * delta / (2.0 * v))


def martingale_sup_bound(delta: float, Phi: float) -> float:
    """Running-sup tail bound exp(-delta^2 / 2 Phi) for int phi dW."""
    if Phi <= 0:
        raise ValueError("need Phi > 0")
    return math.exp(-delta * delta / (2.0 * Phi))


def return_to_zero_bound(rho: float, sigma: float, a0_t0: float,
                         rate_fn: Optional[Callable] = None,
                         eps: Optional[float] = None,
                         t0: Optional[float] = None):
    """Bound on ever returning to zero from rho, plus a density bound.

    Returns (exp(-a0(t0) rho^2/sigma^2), density_bound_fn).  The density
    needs the rate function, eps and t0; without them it is None.
    """
    if rho <= sigma / math.sqrt(a0_t0):
        raise RhoTooSmall(f"need rho > sigma/sqrt(a0(t0)) = "
                          f"{sigma / math.sqrt(a0_t0):g}")
    prob = math.exp(-a0_t0 * rho * rho / (sigma * sigma))
    density = None
    if rate_fn is not None and eps is not None and t0 is not None:
        from scipy import integrate as _integrate

        def density_bound_fn(t: float) -> float:
            a0_t = float(rate_fn(t))
            al0, _ = _integrate.quad(rate_fn, t0, t, epsabs=1e-13, epsrel=1e-10)
            x = 2.0 * al0 / eps
            if x <= 0:
                raise DegenerateWindow("density bound needs t > t0")
            return (2.0 / math.sqrt(math.pi) * math.sqrt(a0_t0) * rho / sigma
                    * prob / eps * math.sqrt(a0_t * a0_t0)
                    * math.exp(-x) / math.sqrt(-math.expm1(-x)))

        density = density_bound_fn
    return prob, density


def no_exit_linear_bound(model: ModelSpec, t: float, t0: float, eps: float,
                         sigma: float, eta: Optional[float] = None,
                         curves: Optional[BranchCurves] = None) -> float:
    """Bound on a linear comparison path staying inside (0, x_tilde)."""
    if t <= t0:
        raise DegenerateWindow("need t > t0")
    if eta is None:
        eta = model.eta
    if curves is None:
        curves = branches(model)
    kappa = (1.0 - model.lambda_param) * (1.0 - eta)
    x = kappa * alpha(model, t, t0) / eps
    a0_t = kappa * float(model.a(t))
    val = (float(curves.x_tilde(t)) * math.sqrt(a0_t)
           / (math.sqrt(math.pi) * sigma)
           * math.exp(-x) / math.sqrt(-math.expm1(-2.0 * x)))
    return min(1.0, val)


def delay_interval(eps: float, sigma: float, model: ModelSpec,
                   eta: Optional[float] = None) -> tuple:
    """[sqrt(eps), t_high] window that should contain nearly all delays.

    t_high solves alpha(t, sqrt(eps)) = (2/kappa) eps |log sigma|; requires
    the middle noise regime exp(-1/eps) < sigma < sqrt(eps).
    """
    if not (math.exp(-1.0 / eps) < sigma < math.sqrt(eps)):
        raise RegimeViolation(
            f"sigma={sigma:g} outside the middle regime "
            f"(exp(-1/eps)={math.exp(-1.0 / eps):.3g}, sqrt(eps)="
            f"{math.sqrt(eps):.4g})")
    if eta is None:
        eta = model.eta
    kappa = (1.0 - model.lambda_param) * (1.0 - eta)
    t_low = math.sqrt(eps)
    target = (2.0 / kappa) * eps * abs(math.log(sigma))
    if alpha(model, model.t_max, t_low) < target:
        return t_low, math.inf
    t_high = float(brentq(lambda t: alpha(model, t, t_low) - target,
                          t_low, model.t_max, xtol=1e-12, rtol=8.9e-16))
    return t_low, t_high


# ---------------------------------------------------------------------------
# calibration of the standard-model bracket constants


def calibrate_zeta_brackets(model: Optional[ModelSpec] = None,
                            eps_list=(0.01, 0.005, 0.002),
                            t0_list=(-1.0, -0.75, -0.5)) -> dict:
    """Sweep zeta for the standard model and report the regime ranges."""
    from .model import standard_pitchfork
    if model is None:
        model = standard_pitchfork()
    pre_lo = cross_lo = math.inf
    pre_hi = cross_hi = -math.inf
    for eps in eps_list:
        for t0 in t0_list:
            dt = eps / 50.0
            tg = time_grid(t0, dt, n_steps_for(t0, math.sqrt(eps), dt))
            tab = zeta_pitchfork(model, eps, t0, tg)
            if "pre_range" in tab.params:
                pre_lo = min(pre_lo, tab.params["pre_range"][0])
                pre_hi = max(pre_hi, tab.params["pre_range"][1])
            if "cross_range" in tab.params:
                cross_lo = min(cross_lo, tab.params["cross_range"][0])
                cross_hi = max(cross_hi, tab.params["cross_range"][1])
    return {"pre": (pre_lo, pre_hi), "cross": (cross_lo, cross_hi)}


def calibrate_post_exit_brackets(model: Optional[ModelSpec] = None,
                                 eps_list=(0.01, 0.005),
                                 tau_list=(0.12, 0.2, 0.3)) -> tuple:
    """Sweep zeta^tau for the standard model and report the zeta*t range."""
    from .model import standard_pitchfork
    if model is None:
        model = standard_pitchfork()
    lo, hi = math.inf, -math.inf
    for eps in eps_list:
        for tau in tau_list:
            dt = eps / 50.0
            tg = time_grid(tau, dt, n_steps_for(tau, model.t_max, dt))
            tab = zeta_post_exit(model, eps, tau, tg)
            lo = min(lo, tab.params["t_range"][0])
            hi = max(hi, tab.params["t_range"][1])
    return lo, hi
