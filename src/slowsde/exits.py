"""First-exit, delay and sup-deviation scans of path matrices.

Detection works at grid nodes only, with exclusive boundaries (a state on
the boundary counts as outside); no sub-step bridge correction is applied,
so identical inputs always give identical results.  Every scan operates on
(B, n) path matrices, whole paths or one time chunk of them with its slice
of the grid, as the ensemble runner passes them.  The first-exit and delay
scans run in the compiled library's first_outside when it loads (see
_compiled), else in NumPy, with the same results.
"""

from __future__ import annotations

import numpy as np

from . import _compiled
from .envelope import SpaceTimeRegion

__all__ = ["first_exit_batch", "delay_times_batch", "sup_deviation_batch"]


def _window_indices(t_grid: np.ndarray, t_lo: float, t_hi: float) -> np.ndarray:
    tol = 1e-9
    return np.nonzero((t_grid >= t_lo - tol) & (t_grid <= t_hi + tol))[0]


def first_exit_batch(X: np.ndarray, t_grid: np.ndarray,
                     region: SpaceTimeRegion, skip=None) -> tuple:
    """First exit of each row of X from the region, at grid nodes.

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
    # two chunk-sized masks at most: the x >= g2 one is ORed in and freed
    outside = np.less_equal(X, g1)
    np.logical_or(outside, np.greater_equal(X, g2), out=outside)
    read = outside.any(axis=1)
    if skip is not None:
        read &= ~np.asarray(skip)
    hit = np.nonzero(read)[0]
    at = outside[hit].argmax(axis=1)
    first[hit] = at
    low = X[hit, at] <= np.broadcast_to(g1, X.shape[1:])[at]
    sides[hit] = np.where(low, -1, 1)
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
