"""Reproducible Brownian increments.

Streams are keyed by (master_seed, path_index) through the Philox
counter-based generator, so any path can be regenerated in isolation and
ensembles are independent of scheduling order.  Dyadic refinement draws the
midpoint corrections from a jumped substream, keeping every refinement level
consistent with one underlying Brownian path.

fill_increments draws a batch's normals in one call of the compiled
library's philox_normal, which runs Philox4x64-10 and NumPy's ziggurat in C
and gives the bits of Generator(Philox).standard_normal; without the
library, NumPy's Generators fill the rows one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _compiled

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


def path_generators(master_seed: int, indices):
    """The Philox streams of the path indices, each at its first increment,
    for the fill that runs: a (paths, PHILOX_WORDS) uint64 array of the
    streams' states when the compiled library loads, else one Generator per
    path."""
    if _compiled.LIBRARY.get("philox_normal") is None:
        return [np.random.Generator(_bit_generator(master_seed, int(idx)))
                for idx in indices]
    # Philox(key=[master_seed, idx]): counter 0 and an empty buffer
    states = np.zeros((len(indices), _compiled.PHILOX_WORDS), dtype=np.uint64)
    states[:, 4] = master_seed
    states[:, 5] = indices
    states[:, 10] = 4
    return states


def fill_increments(out: np.ndarray, master_seed: int, indices,
                    dt: float, mirrored: bool = False, gens=None) -> None:
    """Fill out[b, :] with the next level-0 increments of each path index.

    Without gens every row starts at its path's first increment.  With gens,
    the path_generators(master_seed, indices) of the batch, each row continues
    its path's stream, so filling a batch chunk by chunk gives the same bits
    as one fill of the whole row.  Each row of out must be contiguous.

    The compiled library draws a state array's normals in one call, bit for
    bit those of the Generators, which NumPy fills row by row.  Either way
    each increment is its normal times sqrt(dt), or -sqrt(dt) when mirrored.
    """
    if gens is None:
        gens = path_generators(master_seed, indices)
    scale = -math.sqrt(dt) if mirrored else math.sqrt(dt)
    if isinstance(gens, np.ndarray):
        _compiled.LIBRARY.get("philox_normal")(out, gens, scale)
        return
    for b, rng in enumerate(gens):
        rng.standard_normal(out=out[b])
    out *= scale
