"""Exception types shared across the package."""


class SlowSdeError(Exception):
    """Base class for all package errors."""


class ValidationFailure(SlowSdeError):
    """A user model violates the structural assumptions (symmetry, pitchfork
    derivative conditions, parameter windows)."""


class RootNotBracketed(SlowSdeError, ValueError):
    """A bracketed root search found no sign change; usually the declared
    domain rectangle is too large for the model's bifurcation neighbourhood.
    A ValueError too, as for SciPy's brentq."""


class RootNotConverged(SlowSdeError, RuntimeError):
    """A bracketed root search used up its iterations.  A RuntimeError too,
    as for SciPy's brentq."""


class NonFiniteResult(SlowSdeError, ValueError):
    """A per-path value or a function value a computation depends on is NaN
    or infinite, so it cannot count as a result."""


class StepTooLarge(SlowSdeError):
    """dt exceeds eps/10; the stiff drift would not be resolved."""


class NotHyperbolic(SlowSdeError):
    """|a(t)| dropped below the required threshold on the grid."""


class NotStable(SlowSdeError):
    """The effective linearization is not negative everywhere."""


class EpsTooLarge(SlowSdeError):
    """eps violates the hypothesis eps <= min(4*a(t0)^2, (t0/2)^2)."""


class SandwichViolation(SlowSdeError):
    """A post-exit deterministic solution left the [x_tilde, x_star] wedge
    by more than the discretization tolerance."""


class OutsideRegime(SlowSdeError):
    """Bound evaluated outside its theorem's validity window."""


class HExceedsSigma(OutsideRegime):
    """The unstable-case confinement bound requires h <= sigma."""


class DegenerateWindow(SlowSdeError):
    """Bound requested on a zero-length time window (t == t0)."""


class RhoTooSmall(SlowSdeError):
    """Return-to-zero bound needs rho > sigma / sqrt(a0(t0))."""


class RegimeViolation(SlowSdeError):
    """Noise intensity outside the regime an experiment requires."""


class GridMismatch(SlowSdeError):
    """Two tabulated objects do not share a compatible time grid."""


class ResourceLimit(SlowSdeError):
    """Requested ensemble exceeds the configured step budget."""


class ConfigError(SlowSdeError, ValueError):
    """A config or model document has an unknown, missing, wrongly typed or
    out-of-range value.  A ValueError too, as for a bad argument."""
