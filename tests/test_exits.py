import math
import tracemalloc

import numpy as np
import pytest

from slowsde import (_compiled, branches, simulate, solve_det,
                     standard_pitchfork, zeta_stable)
from slowsde.envelope import SpaceTimeRegion, region_D
from slowsde.exits import (_first_outside, delay_times_batch,
                           first_exit_batch, sup_deviation_batch)
from slowsde.noise import fill_increments
from slowsde.sde import em_batch, time_grid


def strip(width, t_lo, t_hi, label="test"):
    return SpaceTimeRegion(
        lambda t: np.full_like(np.asarray(t, dtype=float), -width),
        lambda t: np.full_like(np.asarray(t, dtype=float), width),
        t_lo, t_hi, label)


class TestFirstExit:
    def test_confined_path(self, standard):
        eps = 0.01
        g = time_grid(math.sqrt(eps), 1e-3, 900)
        times, sides = first_exit_batch(np.zeros((1, len(g))), g,
                                        region_D(standard, eps))
        assert np.isnan(times[0])
        assert sides[0] == 0

    def test_grid_resolution_semantics(self):
        # crossing between nodes k and k+1 is charged to node k+1
        g = time_grid(0.0, 0.1, 4)
        x = np.array([[0.0, 0.0, 0.3, 0.3, 0.3]])
        times, sides = first_exit_batch(x, g, strip(0.25, 0.0, 0.4))
        assert times[0] == pytest.approx(0.2)
        assert sides[0] == 1

    def test_determinism(self, standard):
        eps = 0.01
        p = simulate(standard, eps, 1e-3, math.sqrt(eps), 0.0, 0.5, 2e-4,
                     master_seed=77)
        reg = region_D(standard, eps)
        a = first_exit_batch(p.x_values[None, :], p.t_grid, reg)
        b = first_exit_batch(p.x_values[None, :], p.t_grid, reg)
        assert np.array_equal(a[0], b[0], equal_nan=True)
        assert np.array_equal(a[1], b[1])

    def test_containment_monotonicity(self, standard, rng):
        inner = strip(0.1, 0.2, 0.8)
        outer = strip(0.2, 0.2, 0.8)
        g = time_grid(0.2, 1e-3, 600)
        X = np.cumsum(rng.normal(0.0, 0.02, (20, len(g))), axis=1)
        t_in = np.nan_to_num(first_exit_batch(X, g, inner)[0], nan=math.inf)
        t_out = np.nan_to_num(first_exit_batch(X, g, outer)[0], nan=math.inf)
        assert np.all(t_in <= t_out)


class TestMeasureDelay:
    def test_deterministic_oracle(self):
        wide = standard_pitchfork(T=1.2)
        eps = 0.01
        p = solve_det(wide, eps, -1.0, 0.1, 1.1, eps / 50.0)
        width = float(branches(wide).x_tilde(math.sqrt(eps)))
        d = delay_times_batch(p.x_values[None, :], p.t_grid, width)[0]
        assert 0.9 <= d <= 1.1

    def test_zero_path_never_exits(self, standard):
        g = time_grid(-1.0, 1e-3, 2000)
        width = float(branches(standard).x_tilde(math.sqrt(0.01)))
        d = delay_times_batch(np.zeros((1, len(g))), g, width)[0]
        assert np.isnan(d)


class TestSupDeviation:
    def test_zero_on_centreline(self, linear_stable):
        eps = 0.01
        xdet = solve_det(linear_stable, eps, 0.0, 0.0, 0.2, eps / 50.0)
        tab = zeta_stable(linear_stable, eps, xdet.t_grid, xdet)
        sup = sup_deviation_batch(xdet.x_values[None, :], xdet.x_values,
                                  tab.sqrt_zeta())
        assert sup[0] == 0.0

    def test_recovers_h(self, linear_stable):
        eps, h = 0.01, 3.7e-3
        xdet = solve_det(linear_stable, eps, 0.0, 0.0, 0.2, eps / 50.0)
        tab = zeta_stable(linear_stable, eps, xdet.t_grid, xdet)
        shifted = xdet.x_values + h * np.sqrt(tab.zeta_values)
        sup = sup_deviation_batch(shifted[None, :], xdet.x_values,
                                  tab.sqrt_zeta())
        assert sup[0] == pytest.approx(h, rel=1e-12)

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
    # per-node loops are the reference
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

    def test_numpy_scan_holds_two_masks(self, monkeypatch):
        """The NumPy scan of a (B, K) chunk in which every row leaves, at
        its last node, holds at most two boolean masks of the chunk at once
        (the x >= g2 one is ORed into the x <= g1 one and freed, and the
        rows that leave are gathered from it): its traced peak stays below
        2.5 B K bytes plus 64 KiB, where three masks would take 3 B K."""
        monkeypatch.setattr(_compiled, "LIBRARY", _compiled.Library(None))
        assert _compiled.LIBRARY.get("first_outside") is None
        B, K = 200, 2000
        X = np.zeros((B, K))
        X[:, -1] = 2.0
        g1, g2 = np.full(K, -1.0), np.full(K, 1.0)
        tracemalloc.start()
        first, sides = _first_outside(X, g1, g2)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (first == K - 1).all() and (sides == 1).all()
        assert peak < 2.5 * B * K + 64 * 1024, peak / (B * K)


class TestDelayOrdering:
    def test_delay_after_strip_exit_when_strip_wider(self, standard):
        # when x_tilde(sqrt(eps)) >= h sqrt(zeta) pointwise, the delay time
        # cannot precede the exit from the crossing strip
        from slowsde import zeta_pitchfork
        eps = 0.005
        dt = eps / 50.0
        g = time_grid(-1.0, dt, 21000)
        curves = branches(standard)
        width = float(curves.x_tilde(math.sqrt(eps)))
        sub = g[g <= math.sqrt(eps) + 1e-12]
        tab = zeta_pitchfork(standard, eps, sub)
        h = 0.9 * width / float(np.max(tab.sqrt_zeta()))
        # the crossing strip |x| < h sqrt(zeta(t)) of paths started at 0
        half = h * tab.sqrt_zeta()
        reg = SpaceTimeRegion(lambda t: -np.interp(t, sub, half),
                              lambda t: np.interp(t, sub, half),
                              -1.0, float(sub[-1]), "crossing")
        # sigma sqrt(zeta) is the standard deviation of the linearized path,
        # so with sigma = h/3 the strip is three of them wide: over the
        # window's ~1/(2 eps) = 100 relaxation times eps/|t| a path leaves
        # it with a fair chance, well before sqrt(eps), and some of 10 paths
        # do (h = 0.9 * 0.168 / 7.92 = 0.019, sigma = 0.0064 < sqrt(eps))
        sigma = h / 3.0
        dw = np.empty((10, len(g) - 1))
        fill_increments(dw, 23, range(10), dt)
        X, _ = em_batch(standard, eps, sigma, -1.0, 0.0, dt, dw)
        t_d = np.nan_to_num(delay_times_batch(X, g, width), nan=math.inf)
        exits, _ = first_exit_batch(X, g, reg)
        assert not np.isnan(exits).all()
        for t, exit_time in zip(t_d, exits):
            if not np.isnan(exit_time):
                assert t >= exit_time
            else:
                # confined through the crossing window: any delay is later
                assert t > math.sqrt(eps)
