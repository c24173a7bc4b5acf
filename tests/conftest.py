import numpy as np
import pytest

from slowsde import _compiled, model_from_coeffs, standard_pitchfork


@pytest.fixture(scope="session")
def standard():
    return standard_pitchfork()


@pytest.fixture(scope="session")
def linear_stable():
    # f = -x with equilibrium 0
    return model_from_coeffs(
        [[0.0], [-1.0]],
        {"kind": "stable-branch", "equilibrium": [0.0], "d": 2.0,
         "t_range": [0.0, 1.0], "name": "linear-stable"})


@pytest.fixture(scope="session")
def linear_unstable():
    # f = +x with equilibrium 0
    return model_from_coeffs(
        [[0.0], [1.0]],
        {"kind": "unstable-branch", "equilibrium": [0.0], "d": 2.0,
         "t_range": [0.0, 1.0], "name": "linear-unstable"})


@pytest.fixture(scope="session")
def quintic():
    # f = t x - x^3 + x^5, valid pitchfork in a smaller rectangle
    return model_from_coeffs(
        [[0.0], [0.0, 1.0], [0.0], [-1.0], [0.0], [1.0]],
        {"kind": "pitchfork", "d": 0.7, "T": 0.2, "name": "quintic"})


@pytest.fixture()
def kernels(monkeypatch):
    """kernels() yields "c", then "numpy": while a name is current, every
    kernel of the compiled library runs, which must build here (stepping,
    the zeta scan, RK4 rows, %.17g tables, Philox normals and the exit
    scans), or none does and each caller takes its NumPy fallback.  Looping
    in the test body keeps one test id for both."""
    library = _compiled.LIBRARY
    for name in _compiled.ARGTYPES:
        assert library.get(name) is not None, f"{name} did not build"

    def each():
        for name, lib in (("c", library), ("numpy", _compiled.Library(None))):
            monkeypatch.setattr(_compiled, "LIBRARY", lib)
            yield name

    return each


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
