import numpy as np
import pytest

from slowsde import make_model, model_from_coeffs, standard_pitchfork


@pytest.fixture(scope="session")
def standard():
    return standard_pitchfork()


@pytest.fixture(scope="session")
def linear_stable():
    # f = -x with equilibrium 0
    return model_from_coeffs(
        [[0.0], [-1.0]],
        {"kind": "stable-branch", "equilibrium": lambda t: 0.0, "d": 2.0,
         "t_range": [0.0, 1.0], "name": "linear-stable"})


@pytest.fixture(scope="session")
def linear_unstable():
    # f = +x with equilibrium 0
    return model_from_coeffs(
        [[0.0], [1.0]],
        {"kind": "unstable-branch", "equilibrium": lambda t: 0.0, "d": 2.0,
         "t_range": [0.0, 1.0], "name": "linear-unstable"})


@pytest.fixture(scope="session")
def quintic():
    # f = t x - x^3 + x^5, valid pitchfork in a smaller rectangle
    return model_from_coeffs(
        [[0.0], [0.0, 1.0], [0.0], [-1.0], [0.0], [1.0]],
        {"kind": "pitchfork", "d": 0.7, "T": 0.2, "name": "quintic"})


@pytest.fixture(scope="session")
def nan_patch():
    # t x - x^3, but NaN on 0.02 < |x| < 0.05 once t > 0.3
    def drift(x, t):
        patch = (np.asarray(t) > 0.3) & (np.abs(x) > 0.02) & (np.abs(x) < 0.05)
        return np.where(patch, np.nan, t * x - x ** 3)

    return make_model(drift, {"kind": "pitchfork", "d": 1.5})


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
