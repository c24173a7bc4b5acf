"""Both stepping kernels, both RK4 kernels and PolyDrift.horner against
full Horner, bit for bit.

Every evaluation of a polynomial drift in x is full Horner, x*c_n +
c_(n-1), then f*x + c_i down to c_0: PolyDrift.horner, which the NumPy
fallbacks of em_batch and of the RK4 rows call, and the compiled kernels
em_poly and rk4_poly on the coefficient table.  The references here run
the same rule, zero coefficients included, and results are compared on
their bits, so signed zeros and NaN payloads count.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from slowsde.deterministic import _rk4_rows
from slowsde.model import ModelSpec, PolyDrift
from slowsde.sde import em_batch, time_grid


def full_horner(ct, x):
    """x*c_n + c_(n-1), then f*x + c_i down to c_0, as NumPy calls."""
    if len(ct) == 1:
        return np.full(np.shape(x), ct[0])
    f = np.add(np.multiply(x, ct[-1]), ct[-2])
    for c in ct[-3::-1]:
        f = np.add(np.multiply(f, x), c)
    return f


def em_reference(poly, d, eps, sigma, t0, x0, dt, dw):
    """Euler-Maruyama one step at a time with full Horner; a path freezes
    at its last in-domain value once |x| would exceed d."""
    B, K = dw.shape
    coefs = poly.coeff_table(time_grid(t0, dt, K)[:-1])
    X = np.empty((B, K + 1))
    X[:, 0] = x0
    trunc = np.full(B, np.nan)
    x = X[:, 0].copy()
    alive = np.ones(B, dtype=bool)
    for k in range(K):
        f = full_horner(coefs[k], x)
        xn = np.add(np.add(x, np.multiply(f, dt / eps)),
                    np.multiply(dw[:, k], sigma / math.sqrt(eps)))
        exited = alive & (np.abs(xn) > d)
        trunc[exited] = t0 + (k + 1) * dt
        alive &= ~exited
        x = np.where(alive, xn, x)
        X[:, k + 1] = x
    return X, trunc


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


# NaNs with a payload, one of them signalling
NAN_PAYLOAD = np.array([0x7FF8000000000123, 0xFFF0000000000456],
                       dtype=np.uint64).view(float)
EDGE_STATES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, math.inf,
               -math.inf, math.nan, *NAN_PAYLOAD, 1e200, -1e200, 0.3, -0.4,
               1.0, -1.0, 1.7, -2.5]
D = 1.2

coefficient = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -3.0]),
                        st.floats(-4.0, 4.0, allow_subnormal=False))


@st.composite
def coeff_matrices(draw):
    """c[i][j] with zero rows (either sign), constant +-1 and other
    constant rows, time-dependent rows and -0.0 entries."""
    deg = draw(st.integers(0, 5))
    width = draw(st.integers(1, 3))
    rows = []
    for i in range(deg + 1):
        kind = draw(st.sampled_from(["zero", "one", "const", "vary"]))
        if kind == "zero":
            row = draw(st.lists(st.sampled_from([0.0, -0.0]),
                                min_size=width, max_size=width))
        elif kind == "one":
            row = [draw(st.sampled_from([1.0, -1.0]))] + [0.0] * (width - 1)
        elif kind == "const":
            row = [draw(coefficient)] + draw(st.lists(
                st.sampled_from([0.0, -0.0]), min_size=width - 1,
                max_size=width - 1))
        else:
            row = draw(st.lists(coefficient, min_size=width,
                                max_size=width))
        rows.append(row)
    return np.array(rows)


# every edge state, then drawn ones
states = st.lists(st.one_of(st.sampled_from(EDGE_STATES),
                            st.floats(-2 * D, 2 * D)),
                  max_size=12).map(lambda x: np.array(EDGE_STATES + x))

# the kernels fixture serves every example of a test alike
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])


@SETTINGS
@given(c=coeff_matrices(), x=states,
       t=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-3.0, 3.0)))
def test_horner_is_full_horner(c, x, t):
    poly = PolyDrift(c)
    ct = poly.coeff_at(t)
    with np.errstate(all="ignore"):
        assert np.array_equal(bits(poly.horner(ct, x)),
                              bits(full_horner(ct, x)))
        assert np.array_equal(bits(poly(x, t)), bits(full_horner(ct, x)))


STANDARD = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]])
MINUS_ZERO_C0 = np.array([[-0.0], [0.0], [1.0], [-1.0]])
# paths at -0 whose first increment is +0 or -0
AT_MINUS_ZERO = np.array(EDGE_STATES + [-0.0] * 8)


@SETTINGS
@given(c=coeff_matrices(), x0=states, k_zero=st.integers(0, 1500),
       sigma=st.sampled_from([0.0, 0.1, 1e-160]),
       scale=st.sampled_from([1.0, 1e160]), seed=st.integers(0, 2 ** 32 - 1))
# sigma = 0 gives increments of +-0: skipping the add of c_0 = 0, or any
# zero add when c_0 = -0.0, changes the sign of paths at -0
@example(c=STANDARD, x0=AT_MINUS_ZERO, k_zero=700, sigma=0.0,
         scale=1.0, seed=0)
@example(c=MINUS_ZERO_C0, x0=AT_MINUS_ZERO, k_zero=0, sigma=0.0,
         scale=1.0, seed=0)
def test_em_batch_is_full_horner(kernels, c, x0, k_zero, sigma, scale,
                                 seed):
    """One call and 700-step chunks against the per-step reference, on a
    grid through t = 0 exactly, at step k_zero, with either kernel."""
    dt, K = 2.0 ** -9, 1500
    eps, t0 = 16 * dt, -dt * k_zero
    dw = np.random.default_rng(seed).standard_normal((len(x0), K)) * scale
    poly = PolyDrift(c)
    model = ModelSpec(kind="stable-branch", poly=poly, d=D, t_min=-8.0,
                      t_max=8.0)
    with np.errstate(all="ignore"):
        X, trunc = em_reference(poly, D, eps, sigma, t0, x0, dt, dw)
    for kernel in kernels():
        with np.errstate(all="ignore"):
            got = [em_batch(model, eps, sigma, t0, x0, dt, dw)]
            x, tr, parts = x0, None, [X[:, :1]]
            for k0 in range(0, K, 700):
                Y, tr = em_batch(model, eps, sigma, t0, x, dt,
                                 dw[:, k0:k0 + 700], k0, tr)
                parts.append(Y[:, 1:])
                x = Y[:, -1]
            got.append((np.hstack(parts), tr))
        for Y, tr in got:
            assert np.array_equal(bits(Y), bits(X)), kernel
            assert np.array_equal(bits(tr), bits(trunc)), kernel


@SETTINGS
@given(c=coeff_matrices(), x0=states, seed=st.integers(0, 2 ** 32 - 1),
       h=st.sampled_from([2.0 ** -9, -2.0 ** -9, 1e-3]),
       d=st.sampled_from([D, math.inf]))
def test_rk4_rows_kernels_agree(kernels, c, x0, seed, h, d):
    """RK4 rows through rk4_poly equal the NumPy loop's PolyDrift.horner
    bit for bit, from every edge state, with per-row start steps and
    steps through t = 0 exactly."""
    poly = PolyDrift(c)
    model = ModelSpec(kind="stable-branch", poly=poly, d=D, t_min=-8.0,
                      t_max=8.0)
    n = 300
    t = h * np.arange(-150, n - 150)
    start = np.random.default_rng(seed).integers(0, n, len(x0))
    got = []
    for kernel in kernels():
        out = np.empty((len(x0), n + 1))
        out[:, 0] = x0
        with np.errstate(all="ignore"):
            left = _rk4_rows(model, 1.0 / 16, t, h, out, start, d)
        got.append((bits(out), left))
    assert np.array_equal(got[0][0], got[1][0])
    assert np.array_equal(got[0][1], got[1][1])


def test_degree_zero_has_the_shape_of_x_and_t():
    # a t-dependent constant over a (2, 3) batch of states at 3 times
    dx = PolyDrift([[0.0], [-1.0, -1.0]]).dx()
    t = np.array([0.0, 0.5, 1.0])
    assert dx(np.zeros((2, 3)), t).shape == (2, 3)
    assert np.array_equal(dx(np.zeros((2, 3)), t), np.tile(-1.0 - t, (2, 1)))
    assert dx(np.zeros(3), 2.0).shape == (3,)
    assert dx(0.0, t).shape == (3,)
    assert dx(0.0, 2.0) == -3.0


def test_non_finite_coefficients_rejected():
    with pytest.raises(ValueError, match="finite"):
        PolyDrift([[0.0], [math.nan]])
