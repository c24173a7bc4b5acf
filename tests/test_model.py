import math

import numpy as np
import pytest

from slowsde import (ConfigError, PolyDrift, RootNotBracketed,
                     ValidationFailure, alpha, branches, model_from_coeffs,
                     model_from_dict, standard_pitchfork)
from slowsde.model import gauss_legendre
from slowsde.envelope import _kappa_eff


# t x - x^3 as a coefficient matrix
STANDARD = [[0.0], [0.0, 1.0], [0.0], [-1.0]]


def bisect_root(f, lo, hi, iters=200):
    """Plain bisection oracle, independent of the library's root finding."""
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def test_van_der_corput_matches_scipy_halton():
    from scipy.stats import qmc
    from slowsde.model import _van_der_corput
    for n in (1, 1000, 2200):
        pts = qmc.Halton(d=2, scramble=False).random(n)
        assert np.array_equal(_van_der_corput(n, 2), pts[:, 0])
        assert np.array_equal(_van_der_corput(n, 3), pts[:, 1])


class TestStandardModel:
    def test_drift_value(self, standard):
        assert standard.drift(0.5, 0.2) == pytest.approx(-0.025, abs=1e-15)

    def test_branch_root(self, standard):
        c = branches(standard)
        assert float(c.x_star(0.25)) == pytest.approx(0.5, abs=1e-14)
        assert standard.drift(0.5, 0.25) == pytest.approx(0.0, abs=1e-14)

    def test_alpha_odd_symmetry(self, standard):
        assert alpha(standard, 1.0, -1.0) == 0.0

    def test_alpha_closed(self, standard):
        assert alpha(standard, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert alpha(standard, 0.37, 0.37) == 0.0

    def test_defaults(self, standard):
        assert standard.lambda_param == 0.4
        assert standard.d == 1.0
        assert standard.t_max == 1.0

    def test_branch_closed_forms(self, standard):
        c = branches(standard)
        assert float(c.x_star(0.09)) == pytest.approx(0.3, abs=1e-15)
        assert float(c.x_bar(0.09)) == pytest.approx(math.sqrt(0.03), abs=1e-15)
        assert float(c.x_tilde(0.09)) == pytest.approx(math.sqrt(0.4) * 0.3,
                                                       abs=1e-15)
        assert float(c.a_star(0.09)) == pytest.approx(-0.18, abs=1e-15)

    def test_kappa_varrho(self, standard):
        c = branches(standard)
        assert c.kappa == pytest.approx(0.6)
        assert c.varrho == pytest.approx(0.2)
        assert 0.5 < c.kappa < 2 / 3
        assert 0.0 < c.varrho < 0.5
        # kappa_eff = (1 - lambda)(1 - eta), eta the model's by default
        assert _kappa_eff(standard, None) == (0.1, pytest.approx(0.54))
        assert _kappa_eff(standard, 0.5)[1] == pytest.approx(0.3)


class TestMakeModel:
    def test_quintic_accepted_and_root(self, quintic):
        c = branches(quintic)
        for t in (0.04, 0.09, 0.16):
            xs = float(c.x_star(t))
            oracle = bisect_root(lambda x: quintic.drift(x, t),
                                 float(c.x_bar(t)) + 1e-9, quintic.d)
            assert xs == pytest.approx(oracle, abs=1e-12)
            assert abs(quintic.drift(xs, t)) < 1e-12

    def test_quintic_tabulated(self, quintic):
        tg = np.linspace(0.02, 0.2, 19)
        c = branches(quintic, tg)
        assert np.all(c.x_bar_values < c.x_tilde_values)
        assert np.all(c.x_tilde_values < c.x_star_values)
        assert np.all(c.a_star_values < 0)

    def test_bracket_failure_outside_neighbourhood(self):
        # with d = 1 the quintic has a second equilibrium family in range
        m = model_from_coeffs(
            [[0.0], [0.0, 1.0], [0.0], [-1.0], [0.0], [1.0]],
            {"kind": "pitchfork", "d": 1.0, "T": 0.2, "name": "quintic-wide"})
        with pytest.raises(RootNotBracketed):
            branches(m, np.linspace(0.05, 0.2, 4))

    def test_non_odd_rejected(self):
        # t x - x^3 + 0.1
        with pytest.raises(ValidationFailure, match="odd x powers only"):
            model_from_coeffs([[0.1], [0.0, 1.0], [0.0], [-1.0]],
                              {"kind": "pitchfork"})

    def test_subcritical_rejected(self):
        # t x + x^3
        with pytest.raises(ValidationFailure, match="supercritical"):
            model_from_coeffs([[0.0], [0.0, 1.0], [0.0], [1.0]],
                              {"kind": "pitchfork"})

    def test_nan_drift_rejected(self):
        with pytest.raises(ValueError, match="coeffs must be finite"):
            model_from_coeffs([[0.0], [0.0, 1.0], [0.0], [math.nan]],
                              {"kind": "pitchfork"})

    @pytest.mark.parametrize("key, value", [
        ("a", lambda t: t), ("drift_dx", PolyDrift([[0.0, 1.0]])),
        ("poly", PolyDrift(STANDARD)), ("equilibrium", lambda t: 0.0)],
        ids=["a", "drift_dx", "poly", "callable-equilibrium"])
    def test_only_document_keys(self, key, value):
        # the rate, the derivative and the drift follow from the
        # coefficients, and the equilibrium is a coefficient list
        with pytest.raises(ConfigError, match=f"model.*{key}"):
            model_from_coeffs(STANDARD, {"kind": "pitchfork", key: value})

    @pytest.mark.parametrize("build", [
        lambda: standard_pitchfork(d=-1.0), lambda: standard_pitchfork(T=-0.2),
        lambda: model_from_coeffs([[0.0], [-1.0]], {"kind": "stable-branch",
                                                    "t_range": [0.5, 0.5]})],
        ids=["negative-d", "negative-T", "empty-t_range"])
    def test_empty_domain_rejected(self, build):
        with pytest.raises(ValidationFailure, match="d > 0|empty or reversed"):
            build()

    def test_lambda_window_enforced(self):
        for lam in (1 / 3, 0.5, 0.6):
            with pytest.raises(ValidationFailure, match="lambda"):
                standard_pitchfork(lambda_param=lam)

    def test_closed_forms_follow_the_drift_not_the_name(self, quintic):
        # a quintic document named "standard" gets its own roots, and the
        # standard cubic under another name its closed forms
        named = model_from_dict({"kind": "pitchfork", "name": "standard",
                                 "coeffs": [[0], [0, 1], [0], [-1], [0], [1]],
                                 "d": 0.7, "T": 0.2})
        c = branches(named)
        assert float(c.x_star(0.1)) == float(branches(quintic).x_star(0.1))
        assert abs(named.drift(float(c.x_star(0.1)), 0.1)) < 1e-12
        cubic = model_from_dict({"kind": "pitchfork", "name": "renamed",
                                 "coeffs": [[0], [0, 1], [0], [-1]]})
        assert float(branches(cubic).x_star(0.3)) == math.sqrt(0.3)

    def test_root_on_the_domain_edge(self):
        # x_star(1) = d = 1, where f(d, 1) = 0, found by the root search
        # through a zero x^5 row
        m = model_from_coeffs([[0], [0, 1], [0], [-1], [0], [0]],
                              {"kind": "pitchfork"})
        assert branches(m).x_star(1.0) == 1.0

    def test_closed_forms_stop_at_the_domain_edge(self):
        # the cubic's closed forms and its root search, through a zero x^5
        # row, on d = 0.5: both accept x_star(0.25) = d, where f(d, t) = 0,
        # and both raise once sqrt(t) > d
        closed = standard_pitchfork(d=0.5)
        searched = model_from_coeffs(
            [[0.0], [0.0, 1.0], [0.0], [-1.0], [0.0], [0.0]],
            {"kind": "pitchfork", "d": 0.5})
        a, b = branches(closed, [0.25]), branches(searched, [0.25])
        assert a.x_star_values[0] == b.x_star_values[0] == 0.5
        for name in ("x_bar_values", "x_tilde_values", "a_star_values"):
            assert getattr(a, name) == pytest.approx(getattr(b, name),
                                                     rel=1e-12)
        for t in (0.5, 1.0):
            for m in (closed, searched):
                with pytest.raises(RootNotBracketed):
                    branches(m, [t])
        with pytest.raises(RootNotBracketed):
            branches(closed).x_tilde(np.array([0.1, 0.3]))


class TestAlpha:
    def test_quadrature_vs_antiderivative(self):
        # a(t) = t + t^2 via a pitchfork drift (t + t^2) x - x^3
        m = model_from_coeffs([[0.0], [0.0, 1.0, 1.0], [0.0], [-1.0]],
                              {"kind": "pitchfork", "T": 0.6, "name": "tt2"})
        # model carries the closed form; compare against a Gauss-Legendre
        # sum, exact for this quadratic rate up to rounding
        assert m.alpha_closed is not None
        closed = alpha(m, 0.5, -0.5)
        exact = (0.5 ** 2 / 2 + 0.5 ** 3 / 3) - ((-0.5) ** 2 / 2 + (-0.5) ** 3 / 3)
        assert closed == pytest.approx(exact, abs=1e-15)
        nodes, wts = gauss_legendre(-0.5, 0.5, 4)
        quad_val = float(np.sum(wts * np.array([m.a(u) for u in nodes])))
        assert closed == pytest.approx(quad_val, abs=1e-10)

    def test_closed_form_with_polynomial_equilibrium(self, rng):
        from scipy.integrate import quad
        m = model_from_dict({"kind": "stable-branch", "d": 2.0, "T": 1.0,
                             "coeffs": [[0.0], [-1.0, 0.5], [0.0], [-1.0]],
                             "equilibrium": [0.1, 0.2]})
        assert m.alpha_closed is not None
        for s, t in rng.uniform(0.0, 1.0, (40, 2)):
            ref, _ = quad(lambda u: float(m.a(u)), s, t, epsabs=1e-14,
                          epsrel=1e-10)
            assert alpha(m, t, s) == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_arrays_equal_scalar_calls(self, standard, rng):
        # a rate from a polynomial equilibrium, a(t) = f_x(eq(t), t)
        moving = model_from_dict({"kind": "stable-branch", "d": 2.0,
                                  "t_range": [-1.0, 1.0],
                                  "coeffs": [[0.0], [-1.0, 0.5], [0.0],
                                             [-1.0]],
                                  "equilibrium": [0.1, 0.2]})
        for m in (standard, moving):
            t = rng.uniform(-1.0, 1.0, 50)
            s = rng.uniform(-1.0, 1.0)
            got = alpha(m, t, s)
            want = np.array([alpha(m, float(u), s) for u in t])
            assert got.shape == t.shape
            assert got.tobytes() == want.tobytes()
            got = alpha(m, s, t.reshape(5, 10))
            want = np.array([alpha(m, s, float(u)) for u in t])
            assert got.shape == (5, 10)
            assert got.tobytes() == want.reshape(5, 10).tobytes()

    def test_additivity(self, standard, rng):
        for _ in range(50):
            t, s, u = rng.uniform(-1, 1, 3)
            lhs = alpha(standard, t, s) + alpha(standard, s, u)
            assert lhs == pytest.approx(alpha(standard, t, u), abs=1e-9)

    def test_sign_structure(self, standard):
        # decreasing before zero, increasing after, for t0 < 0
        t0 = -0.8
        ts = np.linspace(t0, 1.0, 181)
        vals = np.array([alpha(standard, t, t0) for t in ts])
        diffs = np.diff(vals)
        assert np.all(diffs[ts[:-1] < -1e-9] < 0)
        assert np.all(diffs[ts[:-1] > 1e-9] > 0)


class TestPolyDrift:
    def test_ragged_rows_padded(self):
        p = PolyDrift([[0.0], [0.0, 1.0], [0.0], [-1.0]])
        assert p.coeffs.shape == (4, 2)
        assert p(0.5, 0.2) == pytest.approx(0.2 * 0.5 - 0.125)

    def test_derivative(self):
        p = PolyDrift([[0.0], [0.0, 1.0], [0.0], [-1.0]])
        dp = p.dx()
        assert dp(0.3, 0.2) == pytest.approx(0.2 - 3 * 0.09, abs=1e-15)

    def test_oddness_of_standard(self, standard, rng):
        xs = rng.uniform(-1, 1, 200)
        ts = rng.uniform(-1, 1, 200)
        assert np.array_equal(standard.drift(-xs, ts), -standard.drift(xs, ts))


class TestModelDocuments:
    def test_builtin_roundtrip(self):
        m = model_from_dict({"kind": "pitchfork", "builtin": "standard"})
        assert m.name == "standard"
        doc = m.to_dict()
        assert doc["lambda"] == 0.4

    def test_coeff_document(self):
        m = model_from_dict({"kind": "pitchfork",
                             "coeffs": [[0.0], [0.0, 1.0], [0.0], [-1.0]]})
        assert m.kind == "pitchfork"
        assert m.drift(0.5, 0.2) == pytest.approx(-0.025)

    def test_slope_bounds_quintic(self, quintic):
        # a(t) = t exactly for the quintic too (the x^5 term has no x^1 part)
        assert quintic.a_plus == pytest.approx(1.0, abs=1e-12)
        assert quintic.a_minus == pytest.approx(1.0, abs=1e-12)
