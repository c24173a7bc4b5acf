import math

import numpy as np
import pytest

from slowsde import (GridMismatch, branch_at, branches, first_exit,
                     first_return_to_zero, measure_delay, simulate, solve_det,
                     standard_pitchfork, sup_normalized_deviation,
                     zeta_stable)
from slowsde.envelope import SpaceTimeRegion, region_D, region_delay_strip
from slowsde.exits import delay_times_batch, first_exit_batch
from slowsde.sde import PathSample, time_grid


def make_path(t_grid, x_values, **kw):
    return PathSample(np.asarray(t_grid, dtype=float),
                      np.asarray(x_values, dtype=float),
                      eps=0.01, sigma=0.0, master_seed=0, path_index=0,
                      scheme="synthetic", **kw)


def strip(width, t_lo, t_hi, label="test"):
    return SpaceTimeRegion(
        lambda t: np.full_like(np.asarray(t, dtype=float), -width),
        lambda t: np.full_like(np.asarray(t, dtype=float), width),
        t_lo, t_hi, label)


class TestFirstExit:
    def test_confined_path(self, standard):
        eps = 0.01
        g = time_grid(math.sqrt(eps), 1e-3, 900)
        p = make_path(g, np.zeros_like(g))
        rec = first_exit(p, region_D(standard, eps))
        assert rec.exit_time is None
        assert rec.exit_side == "none"

    def test_boundary_is_exclusive(self):
        g = time_grid(0.0, 0.1, 5)
        p = make_path(g, np.zeros_like(g))
        reg = SpaceTimeRegion(lambda t: np.zeros_like(np.asarray(t, float)),
                              lambda t: np.ones_like(np.asarray(t, float)),
                              0.0, 0.5, "degenerate")
        rec = first_exit(p, reg)
        assert rec.exit_time == 0.0
        assert rec.exit_side == "lower"

    def test_grid_resolution_semantics(self):
        # crossing between nodes k and k+1 is charged to node k+1
        g = time_grid(0.0, 0.1, 4)
        x = np.array([0.0, 0.0, 0.3, 0.3, 0.3])
        p = make_path(g, x)
        rec = first_exit(p, strip(0.25, 0.0, 0.4))
        assert rec.exit_time == pytest.approx(0.2)
        assert rec.exit_side == "upper"

    def test_time_end_marker(self):
        g = time_grid(0.0, 0.1, 3)
        p = make_path(g, np.zeros(4))
        rec = first_exit(p, strip(1.0, 0.0, 0.9))
        assert rec.exit_time is None
        assert rec.exit_side == "time_end"

    def test_path_must_cover_window_start(self):
        g = time_grid(0.5, 0.1, 3)
        p = make_path(g, np.zeros(4))
        with pytest.raises(GridMismatch):
            first_exit(p, strip(1.0, 0.0, 0.4))

    def test_determinism(self, standard):
        eps = 0.01
        p = simulate(standard, eps, 1e-3, math.sqrt(eps), 0.0, 0.5, 2e-4,
                     master_seed=77)
        reg = region_D(standard, eps)
        a = first_exit(p, reg)
        b = first_exit(p, reg)
        assert a == b

    def test_containment_monotonicity(self, standard, rng):
        eps = 0.01
        inner = strip(0.1, 0.2, 0.8)
        outer = strip(0.2, 0.2, 0.8)
        g = time_grid(0.2, 1e-3, 600)
        for _ in range(20):
            steps = rng.normal(0.0, 0.02, len(g))
            x = np.cumsum(steps)
            p = make_path(g, x)
            r_in = first_exit(p, inner)
            r_out = first_exit(p, outer)
            t_in = r_in.exit_time if r_in.exit_time is not None else math.inf
            t_out = r_out.exit_time if r_out.exit_time is not None else math.inf
            assert t_in <= t_out


class TestReturnToZero:
    def test_no_return(self):
        g = time_grid(0.0, 0.1, 5)
        p = make_path(g, np.full(6, 0.4))
        assert first_return_to_zero(p, 0.0) is None

    def test_single_flip(self):
        g = time_grid(0.0, 0.1, 5)
        p = make_path(g, [0.4, 0.3, 0.2, -0.1, -0.2, -0.3])
        assert first_return_to_zero(p, 0.0) == pytest.approx(0.3)

    def test_exact_zero_counts(self):
        g = time_grid(0.0, 0.1, 3)
        p = make_path(g, [0.4, 0.0, 0.4, 0.4])
        assert first_return_to_zero(p, 0.0) == pytest.approx(0.1)

    def test_needs_definite_sign(self):
        g = time_grid(0.0, 0.1, 3)
        p = make_path(g, [0.0, 0.1, 0.1, 0.1])
        with pytest.raises(ValueError):
            first_return_to_zero(p, 0.0)


class TestMeasureDelay:
    def test_deterministic_oracle(self):
        wide = standard_pitchfork(T=1.2)
        eps = 0.01
        p = solve_det(wide, eps, -1.0, 0.1, 1.1, eps / 50.0)
        d = measure_delay(p, eps, wide)
        assert d is not None
        assert 0.9 <= d <= 1.1

    def test_zero_path_never_exits(self, standard):
        g = time_grid(-1.0, 1e-3, 2000)
        p = make_path(g, np.zeros_like(g))
        assert measure_delay(p, 0.01, standard) is None

    def test_matches_strip_region(self, standard):
        eps = 0.005
        p = simulate(standard, eps, 1e-4, -1.0, 0.0, 1.0, 1e-4,
                     master_seed=13)
        d = measure_delay(p, eps, standard)
        rec = first_exit(p, region_delay_strip(standard, eps, -1.0))
        assert d == rec.exit_time


class TestBranchAt:
    def test_signs(self):
        g = time_grid(0.0, 0.1, 3)
        p = make_path(g, [0.3, -0.2, 0.0, 0.5])
        assert branch_at(p, 0.0) == 1
        assert branch_at(p, 0.1) == -1
        assert branch_at(p, 0.2) is None

    def test_off_grid_rejected(self):
        g = time_grid(0.0, 0.1, 3)
        p = make_path(g, np.ones(4))
        with pytest.raises(GridMismatch):
            branch_at(p, 0.05)


class TestSupDeviation:
    def test_zero_on_centreline(self, linear_stable):
        eps = 0.01
        xdet = solve_det(linear_stable, eps, 0.0, 0.0, 0.2, eps / 50.0)
        tab = zeta_stable(linear_stable, eps, xdet.t_grid, xdet)
        assert sup_normalized_deviation(xdet, xdet, tab) == 0.0

    def test_recovers_h(self, linear_stable):
        eps, h = 0.01, 3.7e-3
        xdet = solve_det(linear_stable, eps, 0.0, 0.0, 0.2, eps / 50.0)
        tab = zeta_stable(linear_stable, eps, xdet.t_grid, xdet)
        shifted = make_path(xdet.t_grid,
                            xdet.x_values + h * np.sqrt(tab.zeta_values))
        assert sup_normalized_deviation(shifted, xdet, tab) == pytest.approx(
            h, rel=1e-12)

    def test_grid_mismatch(self, linear_stable):
        eps = 0.01
        xdet = solve_det(linear_stable, eps, 0.0, 0.0, 0.2, eps / 50.0)
        tab = zeta_stable(linear_stable, eps, xdet.t_grid, xdet)
        other = make_path(xdet.t_grid + 0.05, xdet.x_values)
        with pytest.raises(GridMismatch):
            sup_normalized_deviation(other, xdet, tab)


def scalar_first_exit(t_grid, x, region):
    """Per-node reference for first_exit_batch: (time, side) or (nan, 0)."""
    inside = (t_grid >= region.t_lo - 1e-9) & (t_grid <= region.t_hi + 1e-9)
    g1, g2 = region.boundaries(t_grid[inside])
    for t, xk, lo, hi in zip(t_grid[inside], x[inside], g1, g2):
        if xk <= lo or xk >= hi:
            return t, -1 if xk <= lo else 1
    return math.nan, 0


class TestBatchVariants:
    # the single-path calls are one-row batch calls, so per-node loops are
    # the reference here
    def test_batch_matches_single(self, standard):
        eps = 0.005
        reg = region_D(standard, eps)
        g = time_grid(-0.2, 1e-4, 5000)
        rngl = np.random.default_rng(5)
        X = np.cumsum(rngl.normal(0, 3e-3, (40, len(g))), axis=1)
        times, sides = first_exit_batch(X, g, reg)
        for b in range(40):
            t, side = scalar_first_exit(g, X[b], reg)
            if math.isnan(t):
                assert math.isnan(times[b])
            else:
                assert times[b] == t
                assert side == sides[b]

    def test_delay_batch_matches_single(self, standard):
        eps = 0.005
        g = time_grid(-1.0, 1e-3, 2000)
        rngl = np.random.default_rng(6)
        X = np.cumsum(rngl.normal(0, 5e-3, (20, len(g))), axis=1)
        curves = branches(standard)
        width = float(curves.x_tilde(math.sqrt(eps)))
        times = delay_times_batch(X, g, width)
        for b in range(20):
            # per-node reference
            d = next((t for t, x in zip(g, X[b]) if abs(x) >= width), math.nan)
            if math.isnan(d):
                assert math.isnan(times[b])
            else:
                assert times[b] == d


class TestDelayOrdering:
    def test_delay_after_strip_exit_when_strip_wider(self, standard):
        # when x_tilde(sqrt(eps)) >= h sqrt(zeta) pointwise, the delay time
        # cannot precede the exit from the crossing strip
        from slowsde import zeta_pitchfork
        from slowsde.envelope import region_B
        eps, sigma = 0.005, 1e-4
        dt = eps / 50.0
        g = time_grid(-1.0, dt, 21000)
        curves = branches(standard)
        width = float(curves.x_tilde(math.sqrt(eps)))
        sub = g[g <= math.sqrt(eps) + 1e-12]
        tab = zeta_pitchfork(standard, eps, -1.0, sub)
        h = 0.9 * width / float(np.max(tab.sqrt_zeta()))
        reg = region_B(standard, eps, h, 0.0, -1.0, tab)
        for idx in range(10):
            p = simulate(standard, eps, sigma, -1.0, 0.0, 1.1, dt,
                         master_seed=23, path_index=idx)
            d = measure_delay(p, eps, standard, curves)
            rec = first_exit(p, reg)
            t_d = d if d is not None else math.inf
            if rec.exit_time is not None:
                assert t_d >= rec.exit_time
            else:
                # confined through the crossing window: any delay is later
                assert t_d > math.sqrt(eps)
