"""The pure-Python brentq against scipy.optimize.brentq, bit for bit.

Every root the package solves goes through slowsde._brentq.brentq; these
tests record the brackets of each call site and solve them again with
SciPy, and compare a seeded set of random transcendental functions.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from slowsde import (NonFiniteResult, RootNotBracketed, RootNotConverged,
                     bifurcation_delay, branches, delay_interval,
                     model_from_coeffs, standard_pitchfork)
from slowsde import _brentq, deterministic, envelope
from slowsde import model as model_mod


def same_bits(x: float, y: float) -> bool:
    return float(x).hex() == float(y).hex()


@pytest.fixture()
def calls(monkeypatch):
    """Every brentq call of the package, with its root, while the test runs."""
    log = []

    def spy(f, a, b, **kw):
        root = _brentq.brentq(f, a, b, **kw)
        log.append((f, a, b, kw, root))
        return root

    for mod in (model_mod, envelope, deterministic):
        monkeypatch.setattr(mod, "brentq", spy)
    return log


def assert_scipy_roots(log, n_min):
    assert len(log) >= n_min
    for f, a, b, kw, root in log:
        assert same_bits(root, optimize.brentq(f, a, b, **kw)), (a, b, kw)


def test_delay_interval_grid(calls):
    model = standard_pitchfork()
    finite = 0
    for eps in (0.002, 0.005, 0.01, 0.02, 0.05):
        for sigma in (1e-8, 1e-6, 1e-4, 1e-2):
            for eta in (0.0, 0.1, 0.3):
                n = len(calls)
                _, t_high = delay_interval(eps, sigma, model, eta=eta)
                if math.isfinite(t_high):
                    finite += 1
                    assert len(calls) == n + 1
                    assert same_bits(t_high, calls[-1][4])
    assert finite == len(calls)
    assert_scipy_roots(calls, 20)


def test_bifurcation_delay(calls):
    # a(t) = t + t^2/2, so the delay is not the mirror time -t0
    skewed = model_from_coeffs([[0.0], [0.0, 1.0, 0.5], [0.0], [-1.0]],
                               {"kind": "pitchfork", "name": "skewed"})
    for model in (standard_pitchfork(), skewed):
        for t0 in (-0.9, -0.6, -0.35, -0.1):
            assert 0.0 < bifurcation_delay(model, t0) < model.t_max
    assert_scipy_roots(calls, 8)


def test_branch_roots_of_quintic_model(calls, quintic):
    t_grid = np.linspace(0.01, quintic.t_max, 12)
    curves = branches(quintic, t_grid)
    assert np.all(curves.x_bar_values < curves.x_star_values)
    # at least an x_bar and an x_star root per node
    assert_scipy_roots(calls, 2 * len(t_grid))


@pytest.mark.parametrize("xtol, rtol", [(2e-12, 8.881784197001252e-16),
                                        (1e-13, 8.9e-16),
                                        (1e-6, 1e-8)])
def test_random_transcendental_functions(xtol, rtol):
    rng = np.random.default_rng(20011)
    compared = 0
    for _ in range(2000):
        a, b, c, d, e, g = rng.normal(size=6)
        lo, hi = np.sort(rng.uniform(-3.0, 3.0, 2))

        def f(x, a=a, b=b, c=c, d=d, e=e, g=g):
            return a * math.sin(3 * b * x + c) + d * x + e * math.expm1(g * x)

        if (f(lo) < 0) == (f(hi) < 0):
            continue
        compared += 1
        assert same_bits(_brentq.brentq(f, lo, hi, xtol=xtol, rtol=rtol),
                         optimize.brentq(f, lo, hi, xtol=xtol, rtol=rtol))
    assert compared > 500


def test_root_at_an_end_and_tiny_values():
    for f, a, b in ((lambda x: x, 0.0, 1.0), (lambda x: x - 1.0, 0.0, 1.0),
                    # f(a) f(b) underflows to -0.0: the signs still differ
                    (lambda x: 1e-200 * (x - 0.3), -1.0, 2.0)):
        assert same_bits(_brentq.brentq(f, a, b), optimize.brentq(f, a, b))


def test_same_signs_raise_value_error():
    with pytest.raises(ValueError):
        optimize.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError) as info:
        _brentq.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    assert isinstance(info.value, RootNotBracketed)


def test_too_few_iterations_raise_runtime_error():
    def f(x):
        return math.sin(x) - 0.1

    with pytest.raises(RuntimeError):
        optimize.brentq(f, 0.0, 3.0, maxiter=2)
    with pytest.raises(RuntimeError) as info:
        _brentq.brentq(f, 0.0, 3.0, maxiter=2)
    assert isinstance(info.value, RootNotConverged)


def test_nan_raises_value_error():
    def f(x):
        return math.nan if x > 0.5 else x - 0.7

    with pytest.raises(ValueError):
        optimize.brentq(f, 0.0, 1.0)
    with pytest.raises(NonFiniteResult):
        _brentq.brentq(f, 0.0, 1.0)
