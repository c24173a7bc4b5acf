"""Drift families, their linearization, and the bifurcation geometry.

A model bundles the drift f(x, t), its x-derivative, the linearization a(t)
along the reference branch, and the structural constants (lambda window,
slope bounds, domain rectangle) that every other module consumes.  Models
are immutable after construction and all operations here are pure.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from ._brentq import brentq
from .errors import ConfigError, RootNotBracketed, ValidationFailure

__all__ = [
    "PolyDrift",
    "ValidationReport",
    "ModelSpec",
    "BranchCurves",
    "standard_pitchfork",
    "model_from_coeffs",
    "model_from_dict",
    "model_from_json",
    "branches",
    "alpha",
    "gauss_legendre",
    "read_object",
]

SYMMETRY_TOL = 1e-9
DERIVATIVE_TOL = 1e-6
ROOT_TOL = 1e-13
# the standard cubic t x - x^3 as c[i][j], the coefficient of x^i t^j
STANDARD_COEFFS = ((0.0,), (0.0, 1.0), (0.0,), (-1.0,))
MODEL_KINDS = ("pitchfork", "stable-branch", "unstable-branch")
_GL_X, _GL_W = np.polynomial.legendre.leggauss(5)  # 5 nodes on [-1, 1]


def _finite(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _numbers(v) -> bool:
    return isinstance(v, list) and all(map(_finite, v))


# the JSON types of document values, by the name their errors print
JSON_TYPES = {
    "a number": _finite,
    "a number > 0": lambda v: _finite(v) and v > 0,
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "true or false": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    "a number or null": lambda v: v is None or _finite(v),
    "a number or 'x_tilde'": lambda v: v == "x_tilde" or _finite(v),
    "a list of numbers": _numbers,
    "a pair of numbers": lambda v: _numbers(v) and len(v) == 2,
    "a list of lists of numbers":
        lambda v: isinstance(v, list) and all(map(_numbers, v)),
}


def read_object(doc, types: dict, where: str, required=()) -> dict:
    """Check a JSON object against types, {key: a JSON_TYPES name or a tuple
    of the strings allowed}, and return it; an unknown or missing key or a
    value of another type raises ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {doc!r}")
    for key in doc:
        if key not in types:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{where}: missing key {key!r}")
    for key, value in doc.items():
        kind = types[key]
        if isinstance(kind, tuple):
            if not (isinstance(value, str) and value in kind):
                raise ConfigError(f"{where}.{key} must be one of "
                                  f"{', '.join(map(repr, kind))}, "
                                  f"got {value!r}")
        elif not JSON_TYPES[kind](value):
            raise ConfigError(f"{where}.{key} must be {kind}, got {value!r}")
    return doc


class PolyDrift:
    """Polynomial drift f(x, t) = sum_ij c[i, j] x^i t^j.

    Evaluation is Horner in t for the x^i coefficients, then full Horner in
    x, x*c_n + c_(n-1), then f*x + c_i down to c_0: the operands and order
    of the compiled stepping and RK4 kernels, which run it on
    coeff_table's rows, so either gives the same bits.
    """

    def __init__(self, coeffs: Sequence[Sequence[float]]):
        if isinstance(coeffs, (list, tuple)) and coeffs and \
                isinstance(coeffs[0], (list, tuple)):
            width = max(len(row) for row in coeffs)
            c = np.zeros((len(coeffs), width))
            for i, row in enumerate(coeffs):
                c[i, :len(row)] = row
        else:
            c = np.asarray(coeffs, dtype=float)
            if c.ndim == 1:
                c = c[:, None]
        if c.ndim != 2 or c.size == 0:
            raise ValueError("coeffs must be a 2-d array c[i][j] for x^i t^j")
        if not np.isfinite(c).all():
            raise ValueError("coeffs must be finite")
        self.coeffs = np.ascontiguousarray(c)

    def coeff_at(self, t):
        """Coefficients of x^i at time t (Horner in t), one per coeffs row."""
        c = self.coeffs
        out = []
        for i in range(c.shape[0]):
            v = c[i, -1]
            for j in range(c.shape[1] - 2, -1, -1):
                v = v * t + c[i, j]
            out.append(v)
        return out

    def coeff_table(self, t_values: np.ndarray) -> np.ndarray:
        """Per-step coefficient matrix, shape (len(t_values), len(coeffs))."""
        t = np.asarray(t_values, dtype=float)
        tab = np.empty((t.size, self.coeffs.shape[0]))
        for i, col in enumerate(self.coeff_at(t)):
            tab[:, i] = col
        return np.ascontiguousarray(tab)

    def horner(self, ct, x):
        """sum_i ct[i] x^i for the coefficients ct of one time, by full
        Horner; the shape is that of x and ct broadcast together."""
        if len(ct) == 1:
            shape = np.broadcast_shapes(np.shape(x), np.shape(ct[0]))
            if np.shape(ct[0]) == shape:  # a rate a(t) on a long grid
                return ct[0]
            return np.full(shape, ct[0])
        # f is new and already of the full shape, since every coefficient
        # of one time has the same shape: f*x + c can update it in place
        f = x * ct[-1] + ct[-2]
        for c in ct[-3::-1]:
            f *= x
            f += c
        return f

    def __call__(self, x, t):
        return self.horner(self.coeff_at(t), x)

    def dx(self) -> "PolyDrift":
        c = self.coeffs
        if c.shape[0] == 1:
            return PolyDrift(np.zeros((1, c.shape[1])))
        rows = [c[i] * i for i in range(1, c.shape[0])]
        return PolyDrift(np.vstack(rows))

    def is_odd_in_x(self) -> bool:
        return bool(np.all(self.coeffs[0::2] == 0.0))


@dataclass(frozen=True)
class ValidationReport:
    """Residuals from the structural checks run at model construction."""

    symmetry_residual: float
    fx_origin: float
    fxt_origin: float
    fxxx_origin: float
    a_plus: float
    a_minus: float
    big_m: float


@dataclass(frozen=True)
class ModelSpec:
    """A polynomial drift family with its geometry and structural constants.

    The drift is poly; the domain is the rectangle |x| <= d, t_min <= t <=
    t_max.  `equilibrium`, the reference branch of a nonbifurcating model,
    is a coefficient list in t from low order; a model without one
    linearizes at the origin, and a pitchfork model takes none.
    `lambda_param` positions the inner escape-region boundary and must lie
    strictly in (1/3, 1/2); `eta` deflates the leading-order repulsion
    rate, kappa_eff = (1 - lambda) * (1 - eta), as a safety margin for
    dropped corrections.

    The rest is derived from these at construction: drift_dx, poly's
    x-derivative; `a`, the linearization a(t) = f_x(eq(t), t) along the
    reference branch, a polynomial in t; alpha_closed, a's antiderivative
    (coefficients in t from low order); a_plus and a_minus, the extremes
    of a(t)/t (pitchfork) or |a(t)| on (0, t_max]; and validation.
    Pitchfork models are checked for oddness and the supercritical
    derivative conditions; a violation raises ValidationFailure.
    """

    kind: str
    poly: PolyDrift
    t_min: float
    t_max: float
    d: float = 1.0
    lambda_param: float = 0.4
    eta: float = 0.1
    equilibrium: Optional[tuple] = None
    name: str = "custom"
    drift_dx: PolyDrift = field(init=False, repr=False, compare=False)
    a: Callable = field(init=False, repr=False, compare=False)
    alpha_closed: tuple = field(init=False, repr=False, compare=False)
    a_plus: float = field(init=False, repr=False, compare=False)
    a_minus: float = field(init=False, repr=False, compare=False)
    validation: ValidationReport = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        kind, poly, d, t_max = self.kind, self.poly, self.d, self.t_max
        if kind not in MODEL_KINDS:
            raise ValidationFailure(f"unknown model kind {kind!r}")
        if kind == "pitchfork" and not poly.is_odd_in_x():
            raise ValidationFailure(
                "pitchfork coefficient matrix must use odd x powers only")
        if kind == "pitchfork" and self.equilibrium is not None:
            raise ValidationFailure(
                "equilibrium: a pitchfork model linearizes at the origin "
                "and takes no equilibrium")
        if not d > 0:
            raise ValidationFailure(f"d={d:g} leaves no domain; need d > 0")
        if not self.t_min < t_max:
            raise ValidationFailure(
                f"time range [{self.t_min:g}, {t_max:g}] is empty or reversed")

        sym = fx0 = fxt0 = fxxx0 = big_m = 0.0
        if kind == "pitchfork":
            sym, fx0, fxt0, fxxx0, big_m = _validate_pitchfork(poly, d, t_max)
            # each check is written to fail on NaN
            if not sym <= SYMMETRY_TOL:
                raise ValidationFailure(
                    f"symmetry residual {sym:.3g} exceeds {SYMMETRY_TOL:g}; "
                    "drift is not odd in x")
            if not abs(fx0) <= DERIVATIVE_TOL:
                raise ValidationFailure(f"df/dx(0,0) = {fx0:.3g}, expected 0")
            if not abs(fxt0 - 1.0) <= DERIVATIVE_TOL:
                raise ValidationFailure(
                    f"d2f/dtdx(0,0) = {fxt0:.3g}, expected 1")
            if not abs(fxxx0 + 6.0) <= DERIVATIVE_TOL:
                raise ValidationFailure(
                    f"d3f/dx3(0,0) = {fxxx0:.3g}, expected -6 (supercritical)")
            if not math.isfinite(big_m):
                raise ValidationFailure(
                    f"|f_xxx|/6 bound estimate {big_m:.3g} is not finite")

        drift_dx = poly.dx()
        # a(t) = f_x(eq(t), t) is a polynomial in t: keep its antiderivative
        origin = self.equilibrium is None
        eq = np.zeros(1) if origin else np.asarray(self.equilibrium,
                                                    dtype=float)
        rate = np.zeros(1)
        for i, row in enumerate(drift_dx.coeffs):
            rate = P.polyadd(rate, P.polymul(row, P.polypow(eq, i)))
        if origin:  # Horner in t, as PolyDrift tabulates its rows
            a = functools.partial(PolyDrift([rate]), 0.0)
        else:
            def a(t):
                return drift_dx(P.polyval(t, eq), t)
        a_plus, a_minus = _slope_bounds(a, kind, t_max)

        if kind == "pitchfork" and not 1 / 3 < self.lambda_param < 1 / 2:
            raise ValidationFailure(
                f"lambda_param={self.lambda_param} outside the open window "
                "(1/3, 1/2)")
        if not 0 <= self.eta < 1:
            raise ValidationFailure("eta must lie in [0, 1)")
        derived = {"drift_dx": drift_dx, "a": a,
                   "alpha_closed": tuple(P.polyint(rate).tolist()),
                   "a_plus": a_plus, "a_minus": a_minus,
                   "validation": ValidationReport(sym, fx0, fxt0, fxxx0,
                                                  a_plus, a_minus, big_m)}
        for key, value in derived.items():
            object.__setattr__(self, key, value)

    @property
    def drift(self) -> PolyDrift:
        return self.poly

    def in_domain(self, x: float, t: float) -> bool:
        return abs(x) <= self.d and self.t_min <= t <= self.t_max

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "name": self.name, "d": self.d,
               "t_range": [self.t_min, self.t_max]}
        if self.kind == "pitchfork":
            out["lambda"] = self.lambda_param
            out["eta"] = self.eta
        out["coeffs"] = self.poly.coeffs.tolist()
        return out


def _richardson(d_of_h: Callable[[float], float], h: float) -> float:
    # one Richardson step for an O(h^2) central-difference stencil
    return (4.0 * d_of_h(h / 2.0) - d_of_h(h)) / 3.0


def _van_der_corput(n: int, base: int) -> np.ndarray:
    """The first n points of the base-b van der Corput sequence, from 0.

    Digit by digit in the order of scipy.stats.qmc's unscrambled Halton
    sequence, so the points agree bit for bit.
    """
    q = np.arange(n)
    seq = np.zeros(n)
    b2r = 1.0 / base
    while q.any():
        seq += (q % base) * b2r
        b2r /= base
        q //= base
    return seq


def _validate_pitchfork(drift, d, T, n_points=1000) -> tuple:
    # the unscrambled 2-d Halton points in bases 2 and 3
    xs = (2.0 * _van_der_corput(n_points, 2) - 1.0) * d
    ts = (2.0 * _van_der_corput(n_points, 3) - 1.0) * T
    sym = float(np.max(np.abs(np.asarray(drift(xs, ts)) + np.asarray(drift(-xs, ts)))))

    h0 = 1e-3 * min(1.0, d, T)
    fx0 = _richardson(lambda h: (drift(h, 0.0) - drift(-h, 0.0)) / (2 * h), h0)
    fxt0 = _richardson(
        lambda h: (drift(h, h) - drift(-h, h) - drift(h, -h) + drift(-h, -h))
        / (4 * h * h),
        h0,
    )

    def d3(h):
        return (drift(2 * h, 0.0) - 2 * drift(h, 0.0)
                + 2 * drift(-h, 0.0) - drift(-2 * h, 0.0)) / (2 * h ** 3)

    h3 = 1e-2 * min(1.0, d)
    fxxx0 = _richardson(d3, h3)

    # bound on |f_xxx| (enters only as the 6M estimate); the stencil reaches
    # 2 h3 from its centres, which keep that far (and a hair) inside |x| <= d
    lim = d - 2.0 * h3 * (1.0 + 1e-9)
    x, t = np.clip(xs[:200], -lim, lim), ts[:200]
    m = np.abs(_richardson(lambda h: (
        drift(x + 2 * h, t) - 2 * drift(x + h, t)
        + 2 * drift(x - h, t) - drift(x - 2 * h, t)) / (2 * h ** 3), h3)) / 6.0
    return sym, float(fx0), float(fxt0), float(fxxx0), float(np.max(m))


def _slope_bounds(a: Callable, kind: str, t_max: float) -> tuple:
    tg = np.linspace(t_max / 200.0, t_max, 200)
    av = np.asarray([float(a(t)) for t in tg])
    if kind == "pitchfork":
        ratio = av / tg
        return float(np.max(ratio)), float(np.min(ratio))
    mag = np.abs(av)
    return float(np.max(mag)), float(np.min(mag))


def model_from_coeffs(coeffs, config: dict) -> ModelSpec:
    """Model from a polynomial coefficient matrix c[i][j] * x^i * t^j and
    the other keys of its model document, checked by model_from_dict's
    table (_COEFFS_KEYS): kind (required); lambda, eta, d (default 1),
    t_range or T (default 1: [-T, T] for a pitchfork, [0, T] otherwise),
    equilibrium (a coefficient list in t from low order; not on a
    pitchfork) and name.
    """
    read_object(config, {k: v for k, v in _COEFFS_KEYS.items()
                         if k != "coeffs"}, "model", required=("kind",))
    if "T" in config and "t_range" in config:
        raise ConfigError("model: give T or t_range, not both")
    kind = config["kind"]
    if "t_range" in config:
        t_min, t_max = (float(v) for v in config["t_range"])
    else:
        t_hi = float(config.get("T", 1.0))
        t_min, t_max = (-t_hi, t_hi) if kind == "pitchfork" else (0.0, t_hi)
    eq = config.get("equilibrium")
    return ModelSpec(
        kind, PolyDrift(coeffs), t_min, t_max,
        d=float(config.get("d", ModelSpec.d)),
        lambda_param=float(config.get("lambda", ModelSpec.lambda_param)),
        eta=float(config.get("eta", ModelSpec.eta)),
        equilibrium=None if eq is None else tuple(eq),
        name=config.get("name", ModelSpec.name))


# the parameters of a model document
_PARAMS = {"lambda": "a number", "eta": "a number", "d": "a number > 0",
           "T": "a number > 0"}
# the builtin document: only what standard_pitchfork honours
_BUILTIN_KEYS = {"builtin": ("standard",), "kind": ("pitchfork",), **_PARAMS}
_COEFFS_KEYS = {"coeffs": "a list of lists of numbers", "kind": MODEL_KINDS,
                **_PARAMS, "t_range": "a pair of numbers",
                "equilibrium": "a list of numbers", "name": "a string"}


def standard_pitchfork(lambda_param: Optional[float] = None,
                       d: Optional[float] = None, T: Optional[float] = None,
                       eta: Optional[float] = None) -> ModelSpec:
    """The reference cubic model f(x, t) = t*x - x**3 on [-T, T].

    A parameter left None takes its default, as in a model document.
    Closed forms, all derived from the coefficients: a(t) = t,
    alpha(t, s) = (t^2 - s^2)/2, branches x_star = sqrt(t), x_bar =
    sqrt(t/3).
    """
    t_hi = 1.0 if T is None else float(T)
    params = {"d": d, "lambda_param": lambda_param, "eta": eta}
    return ModelSpec("pitchfork", PolyDrift(STANDARD_COEFFS), -t_hi, t_hi,
                     name="standard", **{k: float(v) for k, v in params.items()
                                         if v is not None})


def model_from_dict(doc: dict) -> ModelSpec:
    """Load a model from its JSON document form, checked key by key.

    Either {"builtin": "standard", ...} or a coefficient list {"kind": ...,
    "coeffs": [[...], ...], ...}.  For nonbifurcating kinds an optional
    "equilibrium" entry gives the branch as a polynomial in t (coefficient
    list, low order first).
    """
    if isinstance(doc, dict) and "builtin" in doc:
        read_object(doc, _BUILTIN_KEYS, "model")
        return standard_pitchfork(
            lambda_param=doc.get("lambda"), d=doc.get("d"), T=doc.get("T"),
            eta=doc.get("eta"))
    if isinstance(doc, dict) and "coeffs" not in doc:
        raise ConfigError("model document needs 'builtin' or 'coeffs'")
    read_object(doc, _COEFFS_KEYS, "model", required=("kind",))
    return model_from_coeffs(doc["coeffs"],
                             {k: v for k, v in doc.items() if k != "coeffs"})


def model_from_json(path) -> ModelSpec:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# bifurcation geometry


def _vectorized(fn: Callable[[float], float]) -> Callable:
    def wrapped(t):
        if np.ndim(t) == 0:
            return fn(float(t))
        return np.array([fn(float(v)) for v in np.ravel(t)]).reshape(np.shape(t))

    return wrapped


@dataclass(frozen=True)
class BranchCurves:
    """Equilibrium branches and region boundaries of a pitchfork model.

    x_star is the positive stable branch, x_bar the inflection curve where
    df/dx vanishes, x_tilde = sqrt(lambda) * x_star the escape-region
    boundary sitting strictly between them.  kappa and varrho are the
    leading-order drift rates inside / outside the region.
    """

    x_star: Callable
    x_bar: Callable
    x_tilde: Callable
    a_star: Callable
    kappa: float
    varrho: float
    t_grid: Optional[np.ndarray] = None
    x_star_values: Optional[np.ndarray] = None
    x_bar_values: Optional[np.ndarray] = None
    x_tilde_values: Optional[np.ndarray] = None
    a_star_values: Optional[np.ndarray] = None


def _root_x_bar(model: ModelSpec, t: float) -> float:
    lo = 1e-4 * math.sqrt(t)
    hi = min(model.d, 2.0 * math.sqrt(t))
    flo = model.drift_dx(lo, t)
    fhi = model.drift_dx(hi, t)
    if not (flo > 0 > fhi):
        raise RootNotBracketed(
            f"df/dx(., t={t:g}) has no sign change on ({lo:g}, {hi:g}); "
            "domain too large for the bifurcation neighbourhood")
    return float(brentq(lambda x: model.drift_dx(x, t), lo, hi,
                        xtol=ROOT_TOL, rtol=8.9e-16))


def _root_x_star(model: ModelSpec, t: float, x_bar: float) -> float:
    lo = x_bar + 1e-9 + 1e-6 * math.sqrt(t)
    hi = model.d
    flo = model.drift(lo, t)
    fhi = model.drift(hi, t)
    # a root on the domain edge, f(d, t) = 0, is brentq's end point
    if not (flo > 0 >= fhi):
        raise RootNotBracketed(
            f"f(., t={t:g}) has no sign change on ({lo:g}, {hi:g}); "
            "shrink d or T to stay in the bifurcation neighbourhood")
    return float(brentq(lambda x: model.drift(x, t), lo, hi,
                        xtol=ROOT_TOL, rtol=8.9e-16))


def _standard_drift(model: ModelSpec) -> bool:
    """Whether the drift is the polynomial t x - x^3, whatever the model's
    name; its branches have closed forms."""
    return np.array_equal(model.poly.coeffs,
                          PolyDrift(STANDARD_COEFFS).coeffs)


def branches(model: ModelSpec, t_grid=None) -> BranchCurves:
    """Equilibrium branches of a pitchfork model, tabulated if a grid is given.

    The standard cubic drift uses its closed forms; anything else is found
    by bracketed bisection, with bracket failure raised as RootNotBracketed.
    The ordering x_bar < x_tilde < x_star is verified at every node.
    """
    if model.kind != "pitchfork":
        raise ValidationFailure("branches() applies to pitchfork models only")
    lam = model.lambda_param
    sqrt_lam = math.sqrt(lam)

    if _standard_drift(model):
        def x_star(t):
            # the root search's bracket ends at d, which a root may touch;
            # the slack admits grids that end on d^2 up to their rounding
            x = np.sqrt(t)
            if np.any(x > model.d * (1.0 + 1e-9)):
                raise RootNotBracketed(
                    f"x_star = sqrt(t) leaves |x| <= {model.d:g} after "
                    f"t = {model.d ** 2:g}; shrink T to stay in the domain")
            return x

        x_bar = lambda t: np.sqrt(t / 3.0)       # noqa: E731
        x_tilde = lambda t: sqrt_lam * x_star(t)  # noqa: E731

        def a_star(t):
            x_star(t)
            return -2.0 * np.asarray(t) if np.ndim(t) else -2.0 * t
    else:
        x_bar = _vectorized(lambda t: _root_x_bar(model, t))
        x_star = _vectorized(lambda t: _root_x_star(model, t, _root_x_bar(model, t)))
        x_tilde = lambda t: sqrt_lam * x_star(t)  # noqa: E731
        a_star = lambda t: model.drift_dx(x_star(t), t)  # noqa: E731

    curves = dict(x_star=x_star, x_bar=x_bar, x_tilde=x_tilde, a_star=a_star,
                  kappa=1.0 - lam, varrho=3.0 * lam - 1.0)

    if t_grid is not None:
        tg = np.asarray(t_grid, dtype=float)
        if np.any(tg <= 0) or np.any(tg > model.t_max):
            raise ValidationFailure("branch grid must lie in (0, T]")
        xs = np.asarray(x_star(tg), dtype=float)
        xb = np.asarray(x_bar(tg), dtype=float)
        xt = np.asarray(x_tilde(tg), dtype=float)
        asv = np.asarray(a_star(tg), dtype=float)
        if not np.all((xb < xt) & (xt < xs)):
            raise ValidationFailure("branch ordering x_bar < x_tilde < x_star failed")
        if not np.all(asv < 0):
            raise ValidationFailure("a_star must be negative on (0, T]")
        resid = np.max(np.abs(np.asarray(model.drift(xs, tg))))
        if resid > 1e-10:
            raise ValidationFailure(f"f(x_star, t) residual {resid:.3g} > 1e-10")
        curves.update(t_grid=tg, x_star_values=xs, x_bar_values=xb,
                      x_tilde_values=xt, a_star_values=asv)
    return BranchCurves(**curves)


def gauss_legendre(s: float, t: float, n_panels: int) -> tuple:
    """(nodes, weights) of the 5-point Gauss-Legendre rule on n_panels equal
    panels of [s, t]; the weights are negative for t < s."""
    edges = np.linspace(s, t, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    wts = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, wts


def alpha(model: ModelSpec, t, s):
    """Accumulated linearization integral of a(u) from s to t, by the
    model's antiderivative alpha_closed.  t and s broadcast; scalars give a
    float."""
    val = P.polyval(t, model.alpha_closed) - P.polyval(s, model.alpha_closed)
    return float(val) if np.ndim(val) == 0 else val
