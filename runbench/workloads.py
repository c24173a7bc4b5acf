"""The benchmark's workloads: slowsde configs made from the workload seed.

Every workload uses the standard pitchfork f = t x - x^3 (lambda = 0.4,
eta = 0.1) started at x = 0 at t0 = -1.  The seed only picks the Philox
master seed, so a workload does the same amount of work on every seed.
dt divides t_end - t0 exactly, so the configured grid has exactly
(t_end - t0) / dt steps.
"""

from __future__ import annotations

from dataclasses import dataclass


def _doc(tag: str, eps: float, sigma: float, dt: float, n_paths: int,
         master_seed: int, **experiment) -> dict:
    return {
        "model": {"builtin": "standard", "lambda": 0.4, "eta": 0.1},
        "dynamics": {"eps": eps, "sigma": sigma, "t0": -1.0, "x0": 0.0,
                     "t_end": 1.0, "dt": dt},
        "ensemble": {"n_paths": n_paths, "master_seed": master_seed},
        "experiment": {"tag": tag, **experiment},
    }


def master_seed(seed: int) -> int:
    return seed % (1 << 32)


def delay_wide(seed: int) -> dict:
    return _doc("delay", 0.005, 1e-4, 1e-4, 2000, master_seed(seed),
                t_probe_list=[0.3, 0.5], eta=0.1)


def approach(seed: int) -> dict:
    return _doc("approach", 0.005, 1e-4, 1e-4, 1000, master_seed(seed),
                h_list=[0.0004, 0.0005], tau_window=[0.15, 0.25])


def long_horizon(seed: int) -> dict:
    return _doc("delay", 0.00025, 1e-6, 1e-5, 32, master_seed(seed), eta=0.1)


@dataclass(frozen=True)
class Workload:
    """Timed runs use one thread.  check_threads > 0 adds one untimed run
    with that many threads, whose outputs must match byte for byte."""

    name: str
    make_doc: object           # seed -> config document
    checks: tuple              # names of oracles.CHECKS entries
    check_threads: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("delay-wide", delay_wide,
             ("rescan", "delay_window", "branch_symmetry", "same_bytes"),
             check_threads=2),
    Workload("approach", approach, ("rescan", "approach")),
    Workload("long-horizon", long_horizon,
             ("rescan", "delay_window", "stable_branch")),
)}


def n_steps(doc: dict) -> int:
    dyn = doc["dynamics"]
    return round((dyn["t_end"] - dyn["t0"]) / dyn["dt"])
