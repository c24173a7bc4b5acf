"""First-exit, return-to-zero, delay and branch measurements on paths.

Detection works at grid nodes only, with exclusive boundaries (a state on
the boundary counts as outside); no sub-step bridge correction is applied,
so identical inputs always give identical records.  Batch variants operate
on (B, n) path matrices, whole paths or one time chunk of them with its
slice of the grid, and are what the ensemble runner uses; the single-path
calls validate their inputs and scan their path as a one-row batch.  The
first-exit and delay scans run in the compiled library's first_outside when
it loads (see _compiled), else in NumPy, with the same results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _compiled
from .envelope import EnvelopeTable, SpaceTimeRegion
from .errors import GridMismatch, NonFiniteResult
from .sde import PathSample

__all__ = [
    "ExitRecord", "first_exit", "first_return_to_zero", "measure_delay",
    "branch_at", "sup_normalized_deviation",
    "first_exit_batch", "delay_times_batch", "sup_deviation_batch",
]

PathLike = Union[PathSample, "DetPath"]  # noqa: F821  (duck-typed: t_grid, x_values)


@dataclass(frozen=True)
class ExitRecord:
    """Outcome of scanning one path against one region.

    exit_side is "lower"/"upper" for a boundary exit, "none" when the path
    stayed inside through the whole window, and "time_end" when the path
    ended (or was truncated) before the window closed without leaving.
    """

    exit_time: Optional[float]
    exit_side: str
    region_label: str
    path_index: Optional[int] = None


def _window_indices(t_grid: np.ndarray, t_lo: float, t_hi: float) -> np.ndarray:
    tol = 1e-9
    return np.nonzero((t_grid >= t_lo - tol) & (t_grid <= t_hi + tol))[0]


def first_exit(path: PathLike, region: SpaceTimeRegion) -> ExitRecord:
    """First grid node at which (x, t) is outside the region."""
    t = path.t_grid
    if t[0] > region.t_lo + 1e-9:
        raise GridMismatch("path grid starts after the region window opens")
    if _window_indices(t, region.t_lo, region.t_hi).size == 0:
        raise GridMismatch("path grid has no nodes in the region window")
    times, sides = first_exit_batch(path.x_values[None, :], t, region)
    pidx = getattr(path, "path_index", None)
    if np.isnan(times[0]):
        covered = t[-1] >= region.t_hi - 1e-9
        return ExitRecord(None, "none" if covered else "time_end",
                          region.label, pidx)
    side = "lower" if sides[0] < 0 else "upper"
    return ExitRecord(float(times[0]), side, region.label, pidx)


def first_return_to_zero(path: PathLike, from_time: float) -> Optional[float]:
    """First node after from_time with a sign change or exact zero.

    A non-finite value from from_time up to that node (or to the end of the
    path) raises NonFiniteResult: a NaN is no return, and no sign."""
    t = path.t_grid
    k0 = int(np.searchsorted(t, from_time - 1e-9))
    x = path.x_values[k0:]
    s0 = math.copysign(1.0, x[0]) if x[0] != 0.0 else 0.0
    if s0 == 0.0:
        raise ValueError("path value at from_time must have a definite sign")
    hits = np.nonzero(np.sign(x[1:]) != s0)[0]  # a NaN is among them
    end = hits[0] + 2 if hits.size else len(x)
    if not np.isfinite(x[:end]).all():
        raise NonFiniteResult(f"the path is not finite between t={t[k0]:g} "
                              f"and t={t[k0 + end - 1]:g}")
    if hits.size == 0:
        return None
    return float(t[k0 + 1 + hits[0]])


def measure_delay(path: PathLike, eps: float, model,
                  curves=None) -> Optional[float]:
    """Exit time from the constant-width strip |x| < x_tilde(sqrt(eps)).

    The strip is the stochastic analogue of the deterministic transition
    time; None means the path never left it within its grid.
    """
    from .model import branches
    if curves is None:
        curves = branches(model)
    w = float(curves.x_tilde(math.sqrt(eps)))
    t = delay_times_batch(path.x_values[None, :], path.t_grid, w)[0]
    return None if np.isnan(t) else float(t)


def branch_at(path: PathLike, t: float) -> Optional[int]:
    """Sign of the state at a grid node; None at an exact zero."""
    k = int(round((t - path.t_grid[0]) / (path.t_grid[1] - path.t_grid[0])))
    if not 0 <= k < len(path.t_grid) or abs(path.t_grid[k] - t) > 1e-9 + 1e-9 * abs(t):
        raise GridMismatch(f"t={t!r} is not a grid node")
    x = path.x_values[k]
    if x == 0.0:
        return None
    return 1 if x > 0 else -1


def sup_normalized_deviation(path: PathLike, centreline,
                             envelope: EnvelopeTable) -> float:
    """max_k |x_k - c_k| / sqrt(zeta_k) over the shared grid."""
    c = np.asarray(getattr(centreline, "x_values", centreline), dtype=float)
    n = len(envelope.t_grid)
    if len(path.t_grid) < n or not np.allclose(path.t_grid[:n], envelope.t_grid):
        raise GridMismatch("path grid does not match the envelope grid")
    if len(c) < n:
        raise GridMismatch("centreline shorter than the envelope grid")
    return float(sup_deviation_batch(path.x_values[None, :n], c[:n],
                                     envelope.sqrt_zeta())[0])


# ---------------------------------------------------------------------------
# batch variants (path matrices)


def first_exit_batch(X: np.ndarray, t_grid: np.ndarray,
                     region: SpaceTimeRegion, skip=None) -> tuple:
    """Vectorized first_exit over the rows of X.

    Returns (exit_times with NaN for confined paths, sides with 0 none /
    -1 lower / +1 upper).  Columns of X outside the region's window are
    ignored, so a window that misses t_grid gives no exits.  Rows where the
    bool skip (rows,) is set are skipped and give NaN and 0.
    """
    idx = _window_indices(t_grid, region.t_lo, region.t_hi)
    if idx.size == 0:
        return np.full(X.shape[0], np.nan), np.zeros(X.shape[0], np.int8)
    window = slice(idx[0], idx[-1] + 1)  # consecutive nodes: a view of X
    tw = t_grid[window]
    first, sides = _first_outside(X[:, window], *region.boundaries(tw),
                                  skip)
    return _times_at(first, tw), sides


def delay_times_batch(X: np.ndarray, t_grid: np.ndarray,
                      width, skip=None) -> np.ndarray:
    """First time each row leaves |x| < width; NaN when it never does, or
    where the bool skip (rows,) is set, whose rows are skipped.

    width is a constant or one value per grid node.
    """
    g2 = np.broadcast_to(np.asarray(width, dtype=np.float64), X.shape[1:])
    return _times_at(_first_outside(X, -g2, g2, skip)[0], t_grid)


def _first_outside(X: np.ndarray, g1: np.ndarray, g2: np.ndarray,
                   skip=None) -> tuple:
    """Per row of X, the first column k with x <= g1[k] (side -1) or else
    x >= g2[k] (side 1), and its side: (first, sides), with -1 and 0 for a
    row that stays inside, so a NaN never leaves, and for a row where skip
    is set.  The compiled first_outside scans when it loads and does not
    read the skipped rows; else NumPy scans every row and ignores them."""
    scan = _compiled.LIBRARY.get("first_outside")
    if scan is not None:
        if not _compiled.contiguous_rows(X, writeable=False):
            X = np.ascontiguousarray(X, dtype=np.float64)
        g1, g2 = (np.ascontiguousarray(np.broadcast_to(g, X.shape[1:]),
                                       dtype=np.float64) for g in (g1, g2))
        if skip is not None:
            skip = np.ascontiguousarray(skip, dtype=np.bool_)
        return scan(X, g1, g2, skip)
    first = np.full(X.shape[0], -1, dtype=np.intp)
    sides = np.zeros(X.shape[0], dtype=np.int8)
    low = X <= g1
    outside = low | (X >= g2)
    read = outside.any(axis=1)
    if skip is not None:
        read &= ~np.asarray(skip)
    hit = np.nonzero(read)[0]
    at = outside[hit].argmax(axis=1)
    first[hit] = at
    sides[hit] = np.where(low[hit, at], -1, 1)
    return first, sides


def _times_at(first: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """t_grid[first], NaN where first is -1."""
    times = np.full(first.shape, np.nan)
    hit = first >= 0
    times[hit] = t_grid[first[hit]]
    return times


def sup_deviation_batch(X: np.ndarray, centre: np.ndarray,
                        sqrt_zeta: np.ndarray, where=True) -> np.ndarray:
    """Row-wise sup of |x - c|/sqrt(zeta) over the columns where `where`
    holds (all by default), -inf for a row with none; a NaN there stays.
    centre and sqrt_zeta are one row for all paths or one row per path."""
    dev = np.subtract(X, centre)
    np.abs(dev, out=dev)
    dev /= sqrt_zeta
    return dev.max(axis=1, where=where, initial=-np.inf)
