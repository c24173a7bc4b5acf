"""Sample-path toolkit for slow-fast SDEs crossing a pitchfork bifurcation.

Simulates eps-slow drift with additive noise, builds the variance-like
envelopes and space-time regions that describe where paths concentrate,
measures first exits / delay / branch selection over reproducible parallel
ensembles, and compares the empirical statistics against leading-order
probability bounds and exact Gaussian oracles.
"""

from .errors import (ConfigError, DegenerateWindow, EpsTooLarge, GridMismatch,
                     HExceedsSigma, NonFiniteResult, NotHyperbolic, NotStable,
                     OutsideRegime, RegimeViolation, ResourceLimit,
                     RhoTooSmall, RootNotBracketed, RootNotConverged,
                     SandwichViolation, SlowSdeError, StepTooLarge,
                     ValidationFailure)
from .model import (BranchCurves, ModelSpec, PolyDrift, ValidationReport,
                    alpha, branches, make_model, model_from_coeffs,
                    model_from_dict, model_from_json, standard_pitchfork)
from .deterministic import (DetPath, adiabatic_solution, bifurcation_delay,
                            det_after_exit, solve_det)
from .envelope import (BoundEvaluation, EnvelopeTable, SpaceTimeRegion,
                       bound_approach, bound_before, bound_escape,
                       bound_stable, bound_unstable, default_strip_width,
                       delay_interval, gaussian_exit_bound,
                       martingale_sup_bound, no_exit_linear_bound, region_A,
                       region_B, region_D, region_S, region_delay_strip,
                       region_stable_strip, region_unstable_strip,
                       return_to_zero_bound, variance, zeta_pitchfork,
                       zeta_post_exit, zeta_stable)
from .exits import (ExitRecord, branch_at, first_exit, first_return_to_zero,
                    measure_delay, sup_normalized_deviation)
from .montecarlo import (BoundComparison, EnsembleConfig, EnsembleReport,
                         compare_bound, estimate_prob, exceedance_curve,
                         run_ensemble)
from .noise import NoiseStream
from .sde import (PathSample, backend, simulate, simulate_coupled,
                  simulate_linear)

__version__ = "0.1.0"
