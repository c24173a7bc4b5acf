import math

import numpy as np
import pytest

from slowsde import (GridMismatch, NonFiniteResult, branch_at, branches,
                     first_exit, first_return_to_zero, measure_delay,
                     simulate, solve_det, standard_pitchfork,
                     sup_normalized_deviation, zeta_stable)
from slowsde.envelope import SpaceTimeRegion, region_D, region_delay_strip
from slowsde.exits import (delay_times_batch, first_exit_batch,
                           sup_deviation_batch)
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

    @pytest.mark.parametrize("x", [
        [0.4, 0.4, math.nan, 0.4, 0.4, -0.4],   # a NaN is no return
        [0.4, 0.4, math.inf, 0.4, -0.4, -0.4],  # nor an infinity
        [0.4, math.nan, math.nan, math.nan, math.nan, math.nan],
        [math.nan, 0.4, -0.4, 0.4, 0.4, 0.4],   # a NaN has no sign
        [-math.inf, -0.4, -0.4, -0.4, -0.4, -0.4],
    ], ids=["nan-inside", "inf-inside", "nan-to-the-end", "nan-start",
            "inf-start"])
    def test_non_finite_before_the_return_raises(self, x):
        p = make_path(time_grid(0.0, 0.1, 5), x)
        with pytest.raises(NonFiniteResult):
            first_return_to_zero(p, 0.0)

    def test_non_finite_after_the_return_is_not_read(self):
        p = make_path(time_grid(0.0, 0.1, 5),
                      [0.4, 0.3, -0.1, math.nan, math.inf, 0.2])
        assert first_return_to_zero(p, 0.0) == pytest.approx(0.2)


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

    def test_batch_from_each_rows_start(self):
        # one centreline per row; a NaN before a row's start column is
        # masked, one after it stays, and a row not yet started reads -inf
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 6))
        X[0, 1] = X[1, 4] = np.nan
        centre = rng.standard_normal((4, 6))
        sqz = rng.uniform(0.5, 2.0, (4, 6))
        start = np.array([2, 3, 0, 6])
        got = sup_deviation_batch(X, centre, sqz,
                                  np.arange(6) >= start[:, None])
        want = [np.max(np.abs(X[r, s:] - centre[r, s:]) / sqz[r, s:])
                if s < 6 else -np.inf for r, s in enumerate(start)]
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isfinite(got[0]) and np.isnan(got[1])


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


def band(lo, hi):
    """The region lo(t) < x < hi(t) at every t."""
    return SpaceTimeRegion(lo, hi, -math.inf, math.inf, "test")


UNIT = strip(1.0, -math.inf, math.inf)


class TestFirstOutside:
    """The first-exit and delay scans, through the compiled first_outside
    and through NumPy (kernels fixture), against per-node loops."""

    g = time_grid(0.0, 0.1, 36)  # 37 nodes: blocks of 8 and a tail of 5

    def check(self, kernels, X, region, width):
        for kernel in kernels():
            times, sides = first_exit_batch(X, self.g, region)
            delays = delay_times_batch(X, self.g, width)
            for b, x in enumerate(X):
                t, side = scalar_first_exit(self.g, x, region)
                assert np.array_equal([times[b], sides[b]], [t, side],
                                      equal_nan=True), (kernel, b)
                w = np.broadcast_to(width, self.g.shape)
                d = next((t for t, xk, wk in zip(self.g, x, w)
                          if xk >= wk or xk <= -wk), math.nan)
                assert np.array_equal(delays[b], d, equal_nan=True), \
                    (kernel, b)
        return times, sides, delays

    def rows(self):
        """Rows inside (-1, 1) that leave at the first node, at each
        position of a block, in the tail and at the last node."""
        X = np.zeros((12, len(self.g)))
        X[:, 1::2] = 0.5
        for b, k in enumerate([0, 1, 7, 8, 15, 31, 32, 35, 36]):
            X[b, k] = 2.0 if b % 2 else -2.0
        return X

    def test_every_position(self, kernels):
        times, sides, _ = self.check(kernels, self.rows(), UNIT, 1.0)
        assert np.isnan(times[9:]).all() and (sides[:9] != 0).all()

    def test_boundary_values_are_outside(self, kernels):
        X = np.zeros((3, len(self.g)))
        X[0, 12] = -0.5   # equal to g1
        X[1, 20] = 0.75   # equal to g2
        X[2, 30] = np.nextafter(0.75, 0.0)
        times, sides, _ = self.check(kernels, X, band(
            lambda t: np.full_like(t, -0.5), lambda t: np.full_like(t, 0.75)),
            0.5)
        assert sides.tolist() == [-1, 1, 0]
        assert times[:2].tolist() == [self.g[12], self.g[20]]

    def test_nan_never_leaves(self, kernels):
        X = self.rows()
        X[:, :33] = np.nan  # every exit before node 33 is hidden
        times, sides, _ = self.check(kernels, X, UNIT, 1.0)
        assert np.isnan(times[:7]).all() and (sides[7:9] != 0).all()

    def test_window_inside_the_chunk(self, kernels):
        # the window covers nodes 10 to 25, so the exits at nodes 0 to 8
        # and from 31 on are not read
        times, sides, _ = self.check(kernels, self.rows(),
                                     strip(1.0, 1.0, 2.5), 1.0)
        assert np.isnan(times[[0, 1, 2, 3, 5, 6, 7, 8]]).all()
        assert times[4] == self.g[15]

    def test_window_that_misses_the_chunk(self, kernels):
        times, sides, _ = self.check(kernels, self.rows(),
                                     strip(1.0, 5.0, 6.0), 1.0)
        assert np.isnan(times).all() and not sides.any()

    def test_per_node_bounds(self, kernels):
        X = np.cumsum(np.random.default_rng(8).normal(0, 0.1, (40, 37)),
                      axis=1)
        width = 0.2 + 0.02 * np.arange(37)
        times, sides, delays = self.check(kernels, X, band(
            lambda t: -0.1 - 0.1 * t, lambda t: 0.2 + 0.05 * t), width)
        assert np.isfinite(delays).any() and np.isnan(delays).any()
        assert (sides == -1).any() and (sides == 1).any()

    def test_column_slice_and_fortran_order(self, kernels):
        wide = np.hstack([self.rows(), np.full((12, 5), 9.0)])
        self.check(kernels, wide[:, :37], UNIT, 1.0)
        self.check(kernels, np.asfortranarray(self.rows()), UNIT, 1.0)

    @pytest.mark.parametrize("skipped", [[], [0], [1, 4, 9], list(range(12))],
                             ids=["none", "first", "some", "all"])
    def test_skipped_rows_are_not_read(self, kernels, skipped):
        """A skipped row gives no exit, even a NaN row or one that leaves
        at the first node; the other rows give what they give alone."""
        X = self.rows()
        want_t, want_s = first_exit_batch(X, self.g, UNIT)
        want_d = delay_times_batch(X, self.g, 1.0)
        skip = np.zeros(len(X), dtype=bool)
        skip[skipped] = True
        X[skip] = np.where(np.arange(len(self.g)) % 2, np.nan, 5.0)
        for kernel in kernels():
            times, sides = first_exit_batch(X, self.g, UNIT, skip)
            delays = delay_times_batch(X[:, :30], self.g[:30], 1.0, skip)
            assert np.isnan(times[skip]).all() and not sides[skip].any()
            assert np.isnan(delays[skip]).all(), kernel
            assert np.array_equal(times[~skip], want_t[~skip],
                                  equal_nan=True), kernel
            assert np.array_equal(sides[~skip], want_s[~skip]), kernel
            early = np.where(want_d < self.g[30], want_d, np.nan)
            assert np.array_equal(delays[~skip], early[~skip],
                                  equal_nan=True), kernel


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
