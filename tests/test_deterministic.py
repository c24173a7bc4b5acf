import math

import numpy as np
import pytest

from slowsde import (NotHyperbolic, SandwichViolation, StepTooLarge,
                     adiabatic_solution, alpha, bifurcation_delay, branches,
                     det_after_exit, model_from_coeffs, solve_det,
                     standard_pitchfork)
from slowsde.deterministic import post_exit_family
from slowsde.sde import time_grid


class TestSolveDet:
    def test_linear_decay(self, linear_stable):
        eps = 0.01
        p = solve_det(linear_stable, eps, 0.0, 1.0, 0.1, eps / 50.0)
        x = p.value_at(0.046)
        assert x == pytest.approx(math.exp(-4.6), rel=1e-6)

    def test_invariant_line(self, standard):
        p = solve_det(standard, 0.01, -0.5, 0.0, 0.5, 2e-4)
        assert np.all(p.x_values == 0.0)

    def test_step_too_large(self, standard):
        with pytest.raises(StepTooLarge):
            solve_det(standard, 0.01, -0.5, 0.1, 0.5, 0.002)

    def test_odd_symmetry(self, standard):
        a = solve_det(standard, 0.01, -0.5, 0.12, 0.5, 2e-4)
        b = solve_det(standard, 0.01, -0.5, -0.12, 0.5, 2e-4)
        assert np.array_equal(a.x_values, -b.x_values)

    def test_delay_jump_window(self):
        # the jump lands just past Pi(-1) = 1, so observe it on a model
        # whose declared window extends a little further
        wide = standard_pitchfork(T=1.2)
        eps = 0.01
        p = solve_det(wide, eps, -1.0, 0.1, 1.15, eps / 50.0)
        # the jump: the first t > 0 with |x| past the middle of the wedge
        curves = branches(wide)
        t = p.t_grid[p.t_grid > 0]
        x = np.abs(p.x_values[p.t_grid > 0])
        hits = np.nonzero(x >= 0.5 * (curves.x_tilde(t) + curves.x_star(t)))[0]
        assert hits.size
        assert 0.9 <= t[hits[0]] <= 1.1
        # small until well after sqrt(eps)
        mid = (p.t_grid >= math.sqrt(eps)) & (p.t_grid <= 0.8)
        assert np.max(np.abs(p.x_values[mid])) < 0.05

    def test_contraction_rate_exact_linear(self, linear_stable):
        eps = 0.01
        a = solve_det(linear_stable, eps, 0.0, 0.5, 0.05, eps / 50.0)
        b = solve_det(linear_stable, eps, 0.0, 0.3, 0.05, eps / 50.0)
        gap = np.abs(a.x_values - b.x_values)
        expected = 0.2 * np.exp(-a.t_grid / eps)
        assert np.allclose(gap[1:], expected[1:], rtol=1e-5)
        # theorem-rate bound with a0 = 1: |gap| <= |x0 - x0'| e^{-t/2eps}
        assert np.all(gap <= 0.2 * np.exp(-a.t_grid / (2 * eps)) + 1e-15)

    def test_rk4_order(self, standard):
        eps = 0.02
        ref = solve_det(standard, eps, 0.3, 0.7, 0.7, eps / 320.0)
        errs = []
        for div in (10, 20):
            p = solve_det(standard, eps, 0.3, 0.7, 0.7, eps / div)
            errs.append(abs(p.x_values[-1] - ref.x_values[-1]))
        assert errs[0] / errs[1] >= 8.0

    def test_local_error_recorded(self, standard):
        p = solve_det(standard, 0.01, 0.2, 0.5, 0.4, 2e-4)
        assert p.local_error is not None
        assert len(p.local_error) == len(p.t_grid) - 1
        assert np.all(p.local_error < 1e-10)

    def test_domain_truncation(self):
        m = model_from_coeffs([[0.0], [1.0]],
                              {"kind": "unstable-branch", "d": 1.0,
                               "equilibrium": lambda t: 0.0,
                               "t_range": [0.0, 1.0], "name": "lin-u"})
        p = solve_det(m, 0.01, 0.0, 0.5, 1.0, 2e-4)
        assert p.truncated_at is not None
        assert np.all(np.abs(p.x_values) <= 1.0)
        assert p.t_grid[-1] < 1.0

    def test_csv_export(self, standard, tmp_path):
        p = solve_det(standard, 0.01, 0.2, 0.5, 0.3, 2e-4)
        out = tmp_path / "path.csv"
        p.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,local_error"
        assert len(lines) == len(p.t_grid) + 1


class TestAdiabatic:
    def test_stable_moving_equilibrium(self):
        # f = -x + t tracks x*(t) = t at lag eps
        m = model_from_coeffs([[0.0, 1.0], [-1.0]],
                              {"kind": "stable-branch", "d": 3.0,
                               "equilibrium": lambda t: t,
                               "t_range": [0.0, 1.0], "name": "moving"})
        for eps in (0.02, 0.01, 0.005):
            p = adiabatic_solution(m, eps, np.linspace(0.0, 1.0, 501))
            dev = p.meta["deviation_sup"]
            assert dev == pytest.approx(eps, rel=0.05)

    def test_unstable_time_reversal(self):
        m = model_from_coeffs([[0.0, -1.0], [1.0]],
                              {"kind": "unstable-branch", "d": 3.0,
                               "equilibrium": lambda t: t,
                               "t_range": [0.0, 1.0], "name": "moving-u"})
        p = adiabatic_solution(m, 0.01, np.linspace(0.0, 1.0, 501))
        # particular solution is x = t + eps; transient sits at the far end
        interior = slice(0, 400)
        gap = np.abs(p.x_values[interior]
                     - (p.t_grid[interior] + 0.01))
        assert np.max(gap) < 0.05 * 0.01

    def test_eps_scaling(self):
        m = model_from_coeffs([[0.0, 1.0], [-1.0]],
                              {"kind": "stable-branch", "d": 3.0,
                               "equilibrium": lambda t: t,
                               "t_range": [0.0, 1.0], "name": "moving"})
        ratios = []
        for eps in (0.02, 0.01, 0.005):
            p = adiabatic_solution(m, eps, np.linspace(0.0, 1.0, 501))
            ratios.append(p.meta["deviation_sup"] / eps)
        assert max(ratios) / min(ratios) < 1.1

    def test_not_hyperbolic(self, standard):
        with pytest.raises(NotHyperbolic):
            adiabatic_solution(standard, 0.01, np.linspace(0.1, 0.5, 11))


class TestBifurcationDelay:
    def test_standard_symmetric(self, standard):
        assert bifurcation_delay(standard, -0.5) == pytest.approx(0.5,
                                                                  abs=1e-10)

    def test_vanishes_at_origin(self, standard):
        assert bifurcation_delay(standard, -0.01) <= 0.02

    def test_cubic_rate_oracle(self):
        # a(t) = t + t^2; root of F(t) = F(-1/2) with F = t^2/2 + t^3/3
        m = model_from_coeffs([[0.0], [0.0, 1.0, 1.0], [0.0], [-1.0]],
                              {"kind": "pitchfork", "T": 0.6, "name": "tt2"})

        def F(t):
            return t * t / 2.0 + t ** 3 / 3.0

        target = F(-0.5)
        lo, hi = 0.0, 0.6
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if F(mid) < target:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert bifurcation_delay(m, -0.5) == pytest.approx(oracle, abs=1e-10)

    def test_infinite_marker(self):
        m = model_from_coeffs([[0.0], [0.0, 1.0], [0.0], [-1.0]],
                              {"kind": "pitchfork", "T": 0.3, "name": "short"})
        assert bifurcation_delay(m, -0.29) < math.inf
        # alpha(0.3, -0.9) < 0 would need t0 beyond the domain; use T small
        m2 = model_from_coeffs([[0.0], [0.0, 1.0], [0.0], [-1.0]],
                               {"kind": "pitchfork", "t_range": [-1.0, 0.3],
                                "name": "asym"})
        assert bifurcation_delay(m2, -0.9) == math.inf


class TestAfterExit:
    def test_sandwich(self, standard):
        eps = 0.01
        p = det_after_exit(standard, eps, 0.1, +1, 1.0, eps / 50.0)
        c = branches(standard)
        xt = c.x_tilde(p.t_grid)
        xs = c.x_star(p.t_grid)
        assert np.all(p.x_values >= xt - 1e-9)
        assert np.all(p.x_values <= xs + 1e-9)

    def test_approach_scaling_in_eps(self, standard):
        gaps = []
        for eps in (0.02, 0.01, 0.005):
            p = det_after_exit(standard, eps, 0.2, +1, 1.0, eps / 50.0)
            gaps.append(p.meta["approach_gap"][-1] / eps)
        assert max(gaps) / min(gaps) < 1.2

    def test_negative_side(self, standard):
        p = det_after_exit(standard, 0.01, 0.15, -1, 0.6, 2e-4)
        assert np.all(p.x_values < 0)

    def test_exit_solutions_contract(self, standard):
        eps = 0.01
        p1 = det_after_exit(standard, eps, 0.1, +1, 1.0, eps / 50.0)
        p2 = det_after_exit(standard, eps, 0.15, +1, 1.0, eps / 50.0)
        n = len(p2.t_grid)
        off = len(p1.t_grid) - n
        gap = p1.x_values[off:] - p2.x_values
        assert np.all(gap >= -1e-12)
        # contraction at rate at least varrho * alpha / eps, deflated 20%
        c = branches(standard)
        t_chk = np.array([0.3, 0.5, 0.8])
        g0 = gap[0]
        for t in t_chk:
            k = int(round((t - p2.t_grid[0]) / (eps / 50.0)))
            rate = c.varrho * alpha(standard, t, 0.15) / eps
            assert gap[k] <= g0 * math.exp(-0.8 * rate) + 1e-15

    def test_same_rows_as_the_approach_family(self, standard):
        # det_after_exit is the family row that starts on the grid's first
        # node; rows starting later are stepped in the same loop
        eps, tau, dt = 0.01, 0.15, 2e-4
        grid = time_grid(tau, dt, 2500)
        curves = branches(standard)
        for sign in (+1, -1):
            xhat, _ = post_exit_family(standard, eps, grid[[0, 40, 700]],
                                           grid, curves, sign)
            det = det_after_exit(standard, eps, tau, sign, grid[-1], dt)
            assert np.array_equal(det.t_grid, grid)
            assert np.array_equal(det.x_values, xhat[0])
            assert xhat[2, 700] == sign * curves.x_tilde(grid[700])

    def test_tau_before_sqrt_eps_rejected(self, standard):
        with pytest.raises(ValueError):
            det_after_exit(standard, 0.01, 0.05, +1, 0.5, 2e-4)

    def test_sandwich_violation_surfaces(self, standard):
        # an absurdly large lambda-violation cannot happen through the API,
        # so force a coarse grid on a tiny window instead: tau exactly at
        # sqrt(eps) with dt at the ceiling still satisfies the ordering
        eps = 0.01
        p = det_after_exit(standard, eps, math.sqrt(eps), +1, 0.5, eps / 10.0)
        assert p.meta["approach_gap"][-1] >= 0
