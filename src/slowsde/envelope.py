"""Variance-like envelopes, space-time regions, and probability bounds.

zeta(t) solves the stiff linear ODE eps z' = 2 abar(t) z + 1 started from
1/(2|abar(t0)|); sigma^2 zeta approximates the variance of the linearized
deviation process and sets every strip width.  The integrator takes exact
exponential steps for a piecewise-linear freeze of abar on SUBSTEPS
substeps of each grid cell, which is unconditionally stable and keeps the
discrete ODE residual far below the 1e-6 budget.

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

from . import _compiled
from ._brentq import brentq
from .deterministic import DetPath, PostExitRows, post_exit_path
from .errors import (DegenerateWindow, EpsTooLarge, GridMismatch,
                     HExceedsSigma, NonFiniteResult, NotStable, OutsideRegime,
                     RegimeViolation, RhoTooSmall)
from .model import ModelSpec, alpha, branches, gauss_legendre
from .sde import n_steps_for, time_grid

__all__ = [
    "EnvelopeTable", "SpaceTimeRegion", "BoundEvaluation",
    "zeta_stable", "zeta_pitchfork", "zeta_post_exit", "zeta_rows",
    "PostExitFamily", "variance",
    "region_D", "region_S",
    "bound_stable", "bound_before", "bound_approach", "bound_unstable",
    "bound_escape", "return_to_zero_bound", "no_exit_linear_bound",
    "delay_interval",
    "calibrate_zeta_brackets", "calibrate_post_exit_brackets",
    "STANDARD_ZETA_BRACKETS", "STANDARD_POST_EXIT_BRACKETS",
    "default_strip_width", "KAPPA_UNSTABLE", "write_csv",
]

KAPPA_UNSTABLE = math.pi / (2.0 * math.e)
# substeps per grid cell of the exponential zeta integrator
SUBSTEPS = 4

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
    np.divide(np.expm1(m), m, out=out, where=m != 0.0)
    return out


def _substep_rates(eps: float, h: np.ndarray, abar_sub: np.ndarray):
    """m = ((a_q + a_(q+1)) h_sub) / eps of each substep, along the last
    axis of the rates abar_sub on the refined nodes of cells h."""
    h_sub = np.repeat(h / SUBSTEPS, SUBSTEPS)
    return (abar_sub[..., :-1] + abar_sub[..., 1:]) * h_sub / eps


def _scan_rates(eps: float, h: np.ndarray, m: np.ndarray,
                zeta: np.ndarray) -> None:
    """Scan the exponential-step recurrence over the refined grid.

    m (len(h) * SUBSTEPS, rows) holds each substep's rate, step-major;
    zeta (len(h) + 1, rows) holds the start values in row 0 and gets the
    rest.  A substep whose rate is NaN (a row that has not started) leaves
    zeta unchanged.  The factors E = exp(m) and w = (h/eps) phi1(m) are
    NumPy's; the scan z = z*E + w runs in the compiled zeta_scan when it
    loads, else in the loops below, which it equals bit for bit.
    """
    h_sub = np.repeat(h / SUBSTEPS, SUBSTEPS)[:, None]
    idle = np.isnan(m)
    m[idle] = 0.0
    E = np.exp(m)
    w = _phi1(m)
    w *= h_sub / eps
    w[idle] = 0.0
    scan = _compiled.LIBRARY.get("zeta_scan")
    if scan is not None:
        scan(zeta, E, w, SUBSTEPS)
        return
    if zeta.shape[1] == 1:
        # one row (the origin row of zeta_pitchfork) scans Python floats,
        # whose * and + round as NumPy's do, at a fraction of the cost
        z, subs = float(zeta[0, 0]), []
        for e, c in zip(E.ravel().tolist(), w.ravel().tolist()):
            z = z * e + c
            subs.append(z)
        zeta[1:, 0] = subs[SUBSTEPS - 1::SUBSTEPS]
        return
    z = zeta[0]
    for k in range(len(h)):
        for q in range(k * SUBSTEPS, (k + 1) * SUBSTEPS):
            z = z * E[q] + w[q]
        zeta[k + 1] = z


def _refine_nodes(t_grid: np.ndarray) -> np.ndarray:
    cells = np.linspace(t_grid[:-1], t_grid[1:], SUBSTEPS + 1, axis=1)
    return np.concatenate([cells[:, :-1].ravel(), t_grid[-1:]])


def _hermite_weights() -> np.ndarray:
    """The cubic Hermite basis h00, h01, h10 and h11 at theta = q/SUBSTEPS,
    one row each: (4, SUBSTEPS)."""
    theta = np.arange(SUBSTEPS) / SUBSTEPS
    t2 = theta * theta
    t3 = t2 * theta
    return np.array([2 * t3 - 3 * t2 + 1, -2 * t3 + 3 * t2,
                     t3 - 2 * t2 + theta, t3 - t2])



def _hermite_refine(h: np.ndarray, x: np.ndarray,
                    slope: np.ndarray) -> np.ndarray:
    """Cubic Hermite values of the rows x (n, K+1) on the refined grid of
    the cells h (slopes from the ODE).

    Linear interpolation is not enough here: the rate along a relaxing
    centreline bends on the eps scale inside one cell, and that curvature
    would leak into the zeta ODE residual.
    """
    h00, h01, h10, h11 = _hermite_weights()
    vals = (h00 * x[..., :-1, None] + h01 * x[..., 1:, None]
            + (h[:, None]) * (h10 * slope[..., :-1, None]
                              + h11 * slope[..., 1:, None]))
    return np.concatenate([vals.reshape(x.shape[:-1] + (-1,)), x[..., -1:]],
                          axis=-1)


def _rates(model: ModelSpec, eps: float, t: np.ndarray, x: np.ndarray,
           skip: np.ndarray) -> np.ndarray:
    """The substep rates m of the zeta recurrence along the rows x
    (rows, n+1) on the nodes t, step-major (n * SUBSTEPS, rows): df/dx at
    the cubic Hermite values of each row on the refined grid, NaN on the
    first skip[i] cells of row i.  The compiled zeta_rate computes them
    when it loads, else NumPy below, with the same bits."""
    h = np.diff(t)
    dx = model.drift_dx
    rate = _compiled.LIBRARY.get("zeta_rate")
    if rate is not None:
        if not _compiled.contiguous_rows(x, writeable=False):
            x = np.ascontiguousarray(x, dtype=np.float64)
        return rate(x, h, model.poly.coeff_table(t),
                    dx.coeff_table(_refine_nodes(t)), _hermite_weights(),
                    eps, np.ascontiguousarray(skip, dtype=np.intp))
    slope = np.asarray(model.drift(x, t), dtype=float) / eps
    sub = np.asarray(dx(_hermite_refine(h, x, slope), _refine_nodes(t)),
                     dtype=float)
    m = _substep_rates(eps, h, sub)
    m[np.arange(m.shape[1])[None, :] < SUBSTEPS * skip[:, None]] = np.nan
    return np.ascontiguousarray(m.T)


def _zeta_start(abar: np.ndarray) -> np.ndarray:
    """zeta at a row's start node: 1/(2|abar|) there."""
    return 1.0 / (2.0 * np.abs(abar))


def zeta_rows(model: ModelSpec, eps: float, t: np.ndarray, x: np.ndarray,
              skip: np.ndarray, zeta: np.ndarray) -> None:
    """zeta along the rows x (rows, n+1) on the nodes t, into zeta (rows,
    n+1), whose column 0 holds the start values: each row's zeta is driven
    by df/dx along it from the end of its first skip[i] cells, where it
    holds its start value.  The one zeta integrator: every zeta_* table
    runs it over one row of the whole grid (_zeta_row), PostExitFamily
    over one chunk of its rows at a time.
    The nodes are taken in blocks of cells so that a block stays small
    however many rows there are: about 2^16 refined values (512 kB),
    counting each row's rates and each coefficient column that _rates
    tabulates; some eight arrays of the rows' size
    are live at once.  One row of the standard drift, beside its seven
    coefficient columns, takes blocks of 2048 cells.  With blocks of 2^17
    values, glibc gave their memory back after each chunk of the approach
    tag and paged it in again: 35k minor faults a run against 5k."""
    n = len(t) - 1
    # the columns of the coefficient tables _rates makes: the drift's at
    # the nodes and df/dx's at the refined nodes
    cols = model.poly.coeffs.shape[0] + model.drift_dx.coeffs.shape[0]
    cells = max(1, (1 << 16) // (SUBSTEPS * max(1, len(x) + cols)))
    for lo in range(0, n, cells):
        hi = min(lo + cells, n)
        block = slice(lo, hi + 1)
        zb = np.empty((hi - lo + 1, len(x)))
        zb[0] = zeta[:, lo]
        _scan_rates(eps, np.diff(t[block]),
                    _rates(model, eps, t[block], x[:, block],
                           np.clip(skip - lo, 0, hi - lo)), zb)
        zeta[:, lo + 1:hi + 1] = zb[1:].T


def _zeta_row(model: ModelSpec, eps: float, t: np.ndarray, x: np.ndarray,
              a0: float) -> np.ndarray:
    """zeta along the one row x on the nodes t, started from 1/(2|a0|) on
    t[0].  A NaN node of x is an error: zeta_rows would hold zeta over
    it as over a row that has not started."""
    if not np.isfinite(x).all():
        raise NonFiniteResult("zeta must stay finite: its path has a "
                              "non-finite node")
    zeta = np.empty((1, len(t)))
    zeta[0, 0] = _zeta_start(a0)
    zeta_rows(model, eps, t, x[None, :], np.zeros(1, dtype=np.intp), zeta)
    return zeta[0]


class PostExitFamily(PostExitRows):
    """Post-exit centrelines with the zeta along each, stepped one slice of
    grid nodes at a time (see PostExitRows).  A row's zeta starts at
    1/(2|df/dx|) on its start node, however the grid is sliced."""

    def __init__(self, model: ModelSpec, eps: float, grid: np.ndarray):
        super().__init__(model, eps, grid)
        self.z = np.empty(0)  # each row's zeta on the last node stepped

    def add(self, k) -> np.ndarray:
        x0 = super().add(k)
        a0 = np.asarray(self.model.drift_dx(x0, self.grid[k]), dtype=float)
        self.z = np.concatenate([self.z, _zeta_start(a0)])
        return x0

    def step(self, nodes: slice) -> tuple:
        """The rows and their zeta on the nodes of grid[nodes], each
        (rows, len) and NaN before each row's start node."""
        xhat = super().step(nodes)
        zeta = np.empty_like(xhat)
        zeta[:, 0] = self.z
        start = np.maximum(self.start - nodes.start, 0)
        zeta_rows(self.model, self.eps, self.grid[nodes], xhat, start, zeta)
        self.z = zeta[:, -1].copy()
        xhat[np.arange(xhat.shape[1])[None, :] < start[:, None]] = np.nan
        zeta[np.isnan(xhat)] = np.nan
        return xhat, zeta


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
        if not np.isfinite(self.zeta_values).all():
            raise NonFiniteResult("zeta must stay finite")
        if np.any(self.zeta_values <= 0):
            raise ValueError("zeta must stay positive")

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
        """t and zeta as %.17g rows under a two-line header (write_csv)."""
        write_csv(path, f"# regime={self.regime} eps={self.eps!r}\nt,zeta\n",
                  (self.t_grid, self.zeta_values))


def write_csv(path, header: str, columns) -> None:
    """Write header, then one row per index of the columns (equal-length
    1-d sequences of numbers) as %.17g cells, comma-separated and
    newline-terminated, to the file path; a NaN is an empty cell.  The one
    writer of every CSV the CLI writes.  The rows are formatted one block
    of FMT_BLOCK_ROWS at a time, copied into one reused float64 buffer, so
    the writer holds a block, not a table.  The compiled fmt_g17 formats a
    finite block, and Python every other, with the same bytes under any
    locale: both write "." as the decimal point."""
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0]) if columns else 0
    if any(c.shape != (rows,) for c in columns):
        raise ValueError("write_csv: the columns must be 1-d and of one "
                         "length")
    write = _compiled.LIBRARY.get("fmt_g17")
    # Python prints a NaN as "nan", which no other %.17g cell holds
    line = ",".join(["{:.17g}"] * len(columns)) + "\n"
    buf = np.empty((min(rows, _compiled.FMT_BLOCK_ROWS), len(columns)))
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for lo in range(0, rows, _compiled.FMT_BLOCK_ROWS):
            block = buf[:min(len(buf), rows - lo)]
            for j, col in enumerate(columns):
                block[:, j] = col[lo:lo + len(block)]
            if write is not None and np.isfinite(block).all():
                write(fh, block)
            else:
                fh.write("".join(map(line.format, *block.T.tolist()))
                         .replace("nan", "").encode())


def zeta_stable(model: ModelSpec, eps: float, t_grid,
                xdet_path: DetPath) -> EnvelopeTable:
    """zeta along a stable deterministic path (rate from df/dx on the path)."""
    tg = np.asarray(t_grid, dtype=float)
    if len(tg) != len(xdet_path.t_grid) or not np.allclose(tg, xdet_path.t_grid):
        raise GridMismatch("t_grid must match the deterministic path grid")
    abar = np.asarray(model.drift_dx(xdet_path.x_values, tg), dtype=float)
    if np.any(abar >= 0):
        raise NotStable("df/dx along the path must stay negative")
    z = _zeta_row(model, eps, tg, xdet_path.x_values, abar[0])
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


def zeta_pitchfork(model: ModelSpec, eps: float, t_grid) -> EnvelopeTable:
    """zeta for the pitchfork crossing, driven by the origin linearization.

    zeta is the scan along the origin row x = 0 from the grid's first node
    t0, started from 1/(2|a(t0)|): the Hermite values of that row are
    exactly 0, so its rate df/dx(0, t) is a(t), which a pitchfork's
    ModelSpec.a is by definition.  Valid for t0 <= -2 sqrt(eps) and a grid
    ending at or before sqrt(eps).  The regime ranges zeta |t| before
    -sqrt(eps) and zeta sqrt(eps) after it are recorded (zeta ~ 1/|t|
    before, ~ 1/sqrt(eps) across).
    """
    sq = math.sqrt(eps)
    tg = np.asarray(t_grid, dtype=float)
    t0 = float(tg[0])
    a_t0 = float(model.a(t0))
    if eps > min(4.0 * a_t0 * a_t0, (t0 / 2.0) ** 2):
        raise EpsTooLarge("need eps <= min(4 a(t0)^2, (t0/2)^2)")
    if t0 > -2.0 * sq:
        raise EpsTooLarge("need t0 <= -2 sqrt(eps)")
    if tg[-1] > sq * (1.0 + 1e-9):
        raise GridMismatch("grid must end at or before sqrt(eps)")
    # the origin row is a read-only broadcast of 0.0 and takes no memory
    z = _zeta_row(model, eps, tg, np.broadcast_to(0.0, tg.shape),
                  np.asarray(model.a(tg[:1]), dtype=float)[0])

    # the grid increases: its pre-crossing nodes are a prefix
    k = int(np.searchsorted(tg, -sq + 1e-12, side="right"))
    params = {"t0": t0}
    if k > 0:
        v = np.abs(tg[:k])
        v *= z[:k]
        params["pre_range"] = (float(np.min(v)), float(np.max(v)))
    if k < len(tg):
        v = z[k:] * sq
        params["cross_range"] = (float(np.min(v)), float(np.max(v)))
    params["nondecreasing"] = bool(np.all(np.diff(z) >= -1e-12 * np.max(z)))
    abar = np.asarray(model.a(tg), dtype=float)
    return EnvelopeTable(tg, z, abar, "pitchfork-pre", eps, params)


def zeta_post_exit(model: ModelSpec, eps: float, t_grid,
                   det: Optional[DetPath] = None) -> EnvelopeTable:
    """zeta along the deterministic solution restarted on the escape
    boundary at the grid's first node, tau: post_exit_path on the grid,
    or the path det, which must cover it.

    The rate is df/dx along that path; the table checks the sandwich between
    1/(2|a_star(t)|) and the initial value, and that the slope never exceeds
    1/eps.
    """
    tg = np.asarray(t_grid, dtype=float)
    if det is None:
        det = post_exit_path(model, eps, tg, +1)
    if len(det.t_grid) < len(tg) or not np.allclose(det.t_grid[:len(tg)], tg):
        raise GridMismatch("post-exit path does not cover the requested grid")
    xhat = np.abs(det.x_values[:len(tg)])
    abar = np.asarray(model.drift_dx(xhat, tg), dtype=float)
    z = _zeta_row(model, eps, tg, xhat, abar[0])
    zeta0 = z[0]

    a_star = np.asarray(branches(model).a_star(tg), dtype=float)
    lower = 1.0 / (2.0 * np.abs(a_star))
    tol = 1e-9 * zeta0
    params = {
        "tau": float(tg[0]),
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
    nodes, wts = gauss_legendre(s, t, n_panels)
    expo = 2.0 * alpha(model, t, nodes) / eps
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
        write_csv(path, f"# region={self.label}\nt,g1,g2\n",
                  (t_values, g1, g2))


def region_D(model: ModelSpec, eps: float,
             t_hi: Optional[float] = None) -> SpaceTimeRegion:
    """|x| < x_tilde(t) for sqrt(eps) <= t <= T."""
    xt = branches(model).x_tilde
    return SpaceTimeRegion(lambda t: -np.asarray(xt(t), dtype=float),
                           lambda t: np.asarray(xt(t), dtype=float),
                           math.sqrt(eps), t_hi if t_hi is not None else model.t_max,
                           "D")


def region_S(model: ModelSpec, eps: float, sigma: float,
             h: Optional[float] = None) -> SpaceTimeRegion:
    """Inner strip |x| < h / sqrt(a(t)), clipped to stay inside D."""
    if h is None:
        h = default_strip_width(sigma)
    xt = branches(model).x_tilde
    a = model.a

    def upper(t):
        t = np.asarray(t, dtype=float)
        return np.minimum(h / np.sqrt(np.asarray(a(t), dtype=float)),
                          np.asarray(xt(t), dtype=float))

    return SpaceTimeRegion(lambda t: -upper(t), upper, math.sqrt(eps),
                           model.t_max, f"S(h={h:g})")


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
                 h: float, t0: float) -> BoundEvaluation:
    """Exceedance bound for the crossing strip up to sqrt(eps)."""
    _require_small_noise(sigma, eps)
    sq = math.sqrt(eps)
    if t > sq * (1.0 + 1e-9):
        raise OutsideRegime("bound applies for t <= sqrt(eps)")
    if h > sq:
        raise OutsideRegime(f"need h <= sqrt(eps) = {sq:g}")
    pref = (abs(alpha(model, t, t0)) / eps ** 2
            + (model.a_plus + 4.0 * sq + 4.0) / eps)
    expo = -0.5 * h * h / (sigma * sigma)
    return _finish("before", {"t": t, "eps": eps, "sigma": sigma, "h": h,
                              "t0": t0}, pref, expo)


def bound_approach(model: ModelSpec, t: float, eps: float, sigma: float,
                   h: float, tau: float) -> BoundEvaluation:
    """Exceedance bound around the post-exit solution, with the accumulated
    rate integral taken from the branch linearization."""
    _require_small_noise(sigma, eps)
    if h >= tau:
        raise OutsideRegime(f"need h < tau = {tau:g}")
    curves = branches(model)
    tg = np.linspace(tau, t, 2001)
    atau = float(np.trapezoid(np.asarray(curves.a_star(tg), dtype=float), tg))
    pref = abs(atau) / eps ** 2 + 2.0
    expo = -0.5 * h * h / (sigma * sigma)
    return _finish("approach", {"t": t, "eps": eps, "sigma": sigma, "h": h,
                                "tau": tau}, pref, expo)


def bound_unstable(model: ModelSpec, t: float, eps: float, sigma: float,
                   h: float, t_start: float = 0.0) -> BoundEvaluation:
    """Confinement bound near an unstable branch, valid for h <= sigma.

    sqrt(e) exp(-kappa0 (sigma/h)^2 alpha(t, t_start)/eps) with
    kappa0 = pi/(2e).
    """
    if h > sigma:
        raise HExceedsSigma(f"need h <= sigma, got h={h:g} > sigma={sigma:g}")
    expo = -KAPPA_UNSTABLE * (sigma / h) ** 2 * alpha(model, t, t_start) / eps
    return _finish("unstable", {"t": t, "eps": eps, "sigma": sigma, "h": h},
                   math.sqrt(math.e), expo)


def _kappa_eff(model: ModelSpec, eta: Optional[float]) -> tuple:
    """(eta, kappa_eff = (1 - lambda)(1 - eta)), eta the model's if None."""
    if eta is None:
        eta = model.eta
    return eta, (1.0 - model.lambda_param) * (1.0 - eta)


def bound_escape(model: ModelSpec, t: float, t0: float, eps: float,
                 sigma: float, C0: float = 1.0,
                 eta: Optional[float] = None) -> BoundEvaluation:
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
    eta, kappa = _kappa_eff(model, eta)
    al = alpha(model, t, t0)
    x = kappa * al / eps
    denom = math.sqrt(-math.expm1(-2.0 * x)) if x < 350 else 1.0
    pref = (C0 * float(branches(model).x_tilde(t)) * math.sqrt(float(model.a(t)))
            * abs(math.log(sigma)) / sigma * (1.0 + al / eps) / denom)
    return _finish("escape", {"t": t, "t0": t0, "eps": eps, "sigma": sigma,
                              "C0": C0, "eta": eta, "kappa": kappa}, pref, -x)


def return_to_zero_bound(rho: float, sigma: float, a0_t0: float) -> float:
    """Bound exp(-a0(t0) rho^2/sigma^2) on ever returning to zero from rho."""
    if rho <= sigma / math.sqrt(a0_t0):
        raise RhoTooSmall(f"need rho > sigma/sqrt(a0(t0)) = "
                          f"{sigma / math.sqrt(a0_t0):g}")
    return math.exp(-a0_t0 * rho * rho / (sigma * sigma))


def no_exit_linear_bound(model: ModelSpec, t: float, t0: float, eps: float,
                         sigma: float, eta: Optional[float] = None) -> float:
    """Bound on a linear comparison path staying inside (0, x_tilde)."""
    if t <= t0:
        raise DegenerateWindow("need t > t0")
    _, kappa = _kappa_eff(model, eta)
    x = kappa * alpha(model, t, t0) / eps
    a0_t = kappa * float(model.a(t))
    val = (float(branches(model).x_tilde(t)) * math.sqrt(a0_t)
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
    _, kappa = _kappa_eff(model, eta)
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
            tab = zeta_pitchfork(model, eps, tg)
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
            tab = zeta_post_exit(model, eps, tg)
            lo = min(lo, tab.params["t_range"][0])
            hi = max(hi, tab.params["t_range"][1])
    return lo, hi
