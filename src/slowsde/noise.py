"""Reproducible Brownian increments.

Streams are keyed by (master_seed, path_index) through the Philox
counter-based generator, so any path can be regenerated in isolation and
ensembles are independent of scheduling order.  Dyadic refinement draws the
midpoint corrections from a jumped substream, keeping every refinement level
consistent with one underlying Brownian path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["NoiseStream", "fill_increments", "path_generators"]


def _bit_generator(master_seed: int, path_index: int, jumps: int = 0):
    bg = np.random.Philox(key=np.array([master_seed, path_index], dtype=np.uint64))
    if jumps:
        bg = bg.jumped(jumps)
    return bg


@dataclass(frozen=True)
class NoiseStream:
    """Deterministic increment source for one path.

    increments() returns n_steps draws from N(0, dt).  Identical
    (seed, index, grid, level) always reproduce the same bits; the mirrored
    stream is the exact negation.
    """

    master_seed: int
    path_index: int
    t0: float
    dt: float
    n_steps: int
    level: int = 0
    mirrored: bool = False

    def __post_init__(self):
        if self.n_steps % (1 << self.level):
            raise ValueError("n_steps must be divisible by 2**level")

    def increments(self) -> np.ndarray:
        n0 = self.n_steps >> self.level
        dt0 = self.dt * (1 << self.level)
        rng = np.random.Generator(_bit_generator(self.master_seed, self.path_index))
        arr = rng.standard_normal(n0) * math.sqrt(dt0)
        dt_c = dt0
        for lev in range(1, self.level + 1):
            rng = np.random.Generator(
                _bit_generator(self.master_seed, self.path_index, jumps=lev))
            xi = rng.standard_normal(arr.size) * (math.sqrt(dt_c) / 2.0)
            half = 0.5 * arr
            arr = np.stack([half + xi, half - xi], axis=1).ravel()
            dt_c *= 0.5
        if self.mirrored:
            arr = -arr
        return arr

    def refine(self) -> "NoiseStream":
        """Halve the step; the new increments sum pairwise to the old ones."""
        return replace(self, dt=self.dt / 2.0, n_steps=2 * self.n_steps,
                       level=self.level + 1)

    def mirror(self) -> "NoiseStream":
        return replace(self, mirrored=not self.mirrored)


def path_generators(master_seed: int, indices) -> list:
    """One Philox generator per path index, positioned at its first increment."""
    return [np.random.Generator(_bit_generator(master_seed, int(idx)))
            for idx in indices]


def fill_increments(out: np.ndarray, master_seed: int, indices,
                    dt: float, mirrored: bool = False, gens=None) -> None:
    """Fill out[b, :] with the next level-0 increments of each path index.

    Without gens every row starts at its path's first increment.  With gens,
    the path_generators(master_seed, indices) of the batch, each row continues
    its path's stream, so filling a batch chunk by chunk gives the same bits
    as one fill of the whole row.  Each row of out must be contiguous.
    """
    if gens is None:
        gens = path_generators(master_seed, indices)
    for b, rng in enumerate(gens):
        rng.standard_normal(out=out[b])
    out *= -math.sqrt(dt) if mirrored else math.sqrt(dt)
