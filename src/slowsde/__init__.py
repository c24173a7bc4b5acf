"""Ensemble toolkit for slow-fast SDEs crossing a pitchfork bifurcation.

Simulates eps-slow drift with additive noise in batches of paths, builds
the variance-like envelopes and space-time regions that describe where
paths concentrate, measures first exits / delay / branch selection by
batch scans of reproducible parallel ensembles (run_ensemble), and
compares the empirical statistics against leading-order probability
bounds and exact Gaussian oracles.
"""

from .errors import (ConfigError, DegenerateWindow, EpsTooLarge, GridMismatch,
                     HExceedsSigma, NonFiniteResult, NotHyperbolic, NotStable,
                     OutsideRegime, RegimeViolation, ResourceLimit,
                     RhoTooSmall, RootNotBracketed, RootNotConverged,
                     SandwichViolation, SlowSdeError, StepTooLarge,
                     ValidationFailure)
from .model import (BranchCurves, ModelSpec, PolyDrift, ValidationReport,
                    alpha, branches, model_from_coeffs, model_from_dict,
                    model_from_json, standard_pitchfork)
from .deterministic import (DetPath, adiabatic_solution, bifurcation_delay,
                            det_after_exit, solve_det)
from .envelope import (BoundEvaluation, EnvelopeTable, SpaceTimeRegion,
                       bound_approach, bound_before, bound_escape,
                       bound_stable, bound_unstable, default_strip_width,
                       delay_interval, no_exit_linear_bound, region_D,
                       region_S, return_to_zero_bound, variance,
                       zeta_pitchfork, zeta_post_exit, zeta_stable)
from .montecarlo import (BoundComparison, EnsembleConfig, EnsembleReport,
                         compare_bound, estimate_prob, run_ensemble)
from .noise import NoiseStream
from .sde import PathSample, backend, simulate

__version__ = "0.1.0"
