import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from slowsde import _compiled
from slowsde import (DegenerateWindow, EpsTooLarge, HExceedsSigma,
                     NonFiniteResult, NotStable, OutsideRegime,
                     RegimeViolation, RhoTooSmall, alpha, bound_approach,
                     bound_before, bound_escape, bound_stable, bound_unstable,
                     branches, default_strip_width, delay_interval, envelope,
                     model_from_coeffs, no_exit_linear_bound, region_D,
                     region_S, return_to_zero_bound, solve_det, variance,
                     zeta_pitchfork, zeta_post_exit, zeta_stable)
from slowsde.envelope import (KAPPA_UNSTABLE, STANDARD_POST_EXIT_BRACKETS,
                              STANDARD_ZETA_BRACKETS, EnvelopeTable,
                              calibrate_post_exit_brackets,
                              calibrate_zeta_brackets)
from slowsde.sde import n_steps_for, time_grid


def grid_to(t0, t_end, dt):
    g = time_grid(t0, dt, n_steps_for(t0, t_end, dt))
    return g[g <= t_end + 1e-12]


def scan_rows(model, eps, grid, rows, skip):
    """zeta_rows along rows, each from 1/(2|df/dx|) on its node skip[i],
    which it holds on the nodes before."""
    skip = np.asarray(skip, dtype=np.intp)
    zeta = np.empty_like(rows)
    zeta[:, 0] = 1.0 / (2.0 * np.abs(model.drift_dx(
        rows[np.arange(len(rows)), skip], grid[skip])))
    envelope.zeta_rows(model, eps, grid, rows, skip, zeta)
    return zeta


class TestZetaStable:
    def test_constant_rate_fixed_point(self, linear_stable):
        eps = 0.01
        xdet = solve_det(linear_stable, eps, 0.0, 0.0, 1.0, eps / 50.0)
        tab = zeta_stable(linear_stable, eps, xdet.t_grid, xdet)
        assert np.max(np.abs(tab.zeta_values - 0.5)) < 1e-12
        assert tab.ode_residual() < 1e-6

    def test_drifting_rate_asymptotics(self):
        # abar(t) = -(1+t): zeta(1) = 1/4 + O(eps), oracle via stiff solver
        m = model_from_coeffs([[0.0], [-1.0, -1.0]],
                              {"kind": "stable-branch", "d": 3.0,
                               "equilibrium": [0.0],
                               "t_range": [0.0, 1.0], "name": "drift-rate"})
        eps = 0.01
        xdet = solve_det(m, eps, 0.0, 0.0, 1.0, eps / 50.0)
        tab = zeta_stable(m, eps, xdet.t_grid, xdet)
        sol = solve_ivp(lambda t, z: (2.0 * (-(1 + t)) * z + 1.0) / eps,
                        (0.0, 1.0), [0.5], method="LSODA",
                        rtol=1e-12, atol=1e-14)
        oracle = sol.y[0, -1]
        assert tab.zeta_values[-1] == pytest.approx(oracle, abs=1e-7)
        assert abs(tab.zeta_values[-1] - 0.25) < eps
        assert tab.ode_residual() < 1e-6

    def test_bracket_invariant(self):
        m = model_from_coeffs([[0.0], [-1.0, -1.0]],
                              {"kind": "stable-branch", "d": 3.0,
                               "equilibrium": [0.0],
                               "t_range": [0.0, 1.0], "name": "drift-rate"})
        eps = 0.01
        xdet = solve_det(m, eps, 0.0, 0.0, 1.0, eps / 50.0)
        tab = zeta_stable(m, eps, xdet.t_grid, xdet)
        a_plus, a_minus = tab.params["abar_plus"], tab.params["abar_minus"]
        assert np.all(tab.zeta_values >= 1.0 / (2 * a_plus) - 1e-12)
        assert np.all(tab.zeta_values <= 1.0 / (2 * a_minus) + 1e-12)
        assert tab.max_slope() <= 1.0 / eps

    def test_not_stable_raises(self, linear_unstable):
        eps = 0.01
        xdet = solve_det(linear_unstable, eps, 0.0, 0.0, 0.1, eps / 50.0)
        with pytest.raises(NotStable):
            zeta_stable(linear_unstable, eps, xdet.t_grid, xdet)


class TestZetaPitchfork:
    @pytest.mark.parametrize("eps", [0.01, 0.005])
    def test_regime_brackets(self, standard, eps):
        tg = grid_to(-1.0, math.sqrt(eps), eps / 50.0)
        tab = zeta_pitchfork(standard, eps, tg)
        lo, hi = STANDARD_ZETA_BRACKETS["pre"]
        assert tab.params["pre_range"][0] >= lo
        assert tab.params["pre_range"][1] <= hi
        lo, hi = STANDARD_ZETA_BRACKETS["cross"]
        assert tab.params["cross_range"][0] >= lo
        assert tab.params["cross_range"][1] <= hi
        assert tab.ode_residual() < 1e-6

    def test_monotone_for_increasing_rate(self, standard):
        eps = 0.01
        tg = grid_to(-1.0, math.sqrt(eps), eps / 50.0)
        tab = zeta_pitchfork(standard, eps, tg)
        assert tab.params["nondecreasing"]

    def test_value_at_zero(self, standard):
        # zeta(0) ~ sqrt(pi)/(2 sqrt(eps)) for a(t) = t with decayed memory
        eps = 0.005
        tg = grid_to(-1.0, 0.0, eps / 50.0)
        tab = zeta_pitchfork(standard, eps, tg)
        assert tab.zeta_values[-1] == pytest.approx(
            math.sqrt(math.pi) / (2 * math.sqrt(eps)), rel=0.01)

    def test_eps_too_large(self, standard):
        with pytest.raises(EpsTooLarge):
            zeta_pitchfork(standard, 0.05, grid_to(-0.3, 0.1, 0.005))

    def test_calibration_reproduces_shipped_constants(self):
        fresh = calibrate_zeta_brackets()
        for key in ("pre", "cross"):
            lo, hi = STANDARD_ZETA_BRACKETS[key]
            assert lo <= fresh[key][0]
            assert fresh[key][1] <= hi


class TestEnvelopeTable:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_zeta_rejected(self, bad):
        # NaN <= 0 is False, so the positivity check alone would pass NaN
        with pytest.raises(NonFiniteResult, match="finite"):
            EnvelopeTable(np.arange(3.0), np.array([1.0, bad, 2.0]),
                          np.zeros(3), "test", 0.01)
        assert issubclass(NonFiniteResult, ValueError)

    @pytest.mark.parametrize("node", [0, 40])
    def test_nan_node_of_the_path_rejected(self, linear_stable, node):
        # zeta_rows steps over a NaN rate as idle, and df/dx of f = -x does
        # not read x at all: the path itself must be finite
        eps = 0.01
        xdet = solve_det(linear_stable, eps, 0.0, 0.5, 0.5, eps / 50.0)
        xdet.x_values[node] = np.nan
        with pytest.raises(NonFiniteResult, match="zeta must stay finite"):
            zeta_stable(linear_stable, eps, xdet.t_grid, xdet)

    def test_kernels_give_the_same_tables_and_bytes(self, standard, kernels,
                                                    tmp_path):
        """zeta_pitchfork (one row), zeta_rows (stacked rows that start at
        different nodes) and the CSV export give the same bits and bytes
        through zeta_scan and fmt_g17 as through the NumPy loop and Python
        formatting, down to a one-node grid."""
        eps, dt = 0.005, 1e-4
        grid = time_grid(-0.5, dt, n_steps_for(-0.5, math.sqrt(eps), dt))
        rows = np.full((3, len(grid)), np.nan)
        for r, k0 in enumerate((0, 7, 500)):
            rows[r, k0:] = 0.3 * np.exp(grid[k0:] - grid[k0]) * (r + 1)
        got = []
        for kernel in kernels():
            table = zeta_pitchfork(standard, eps, grid)
            stacked = scan_rows(standard, eps, grid, rows, [0, 7, 500])
            one = zeta_pitchfork(standard, eps, grid[:1])
            path = tmp_path / f"{kernel}.csv"
            table.to_csv(path)
            got.append((table.zeta_values, stacked, one.zeta_values,
                        path.read_bytes()))
        (z1, s1, o1, b1), (z2, s2, o2, b2) = got
        assert np.array_equal(z1.view(np.uint64), z2.view(np.uint64))
        assert np.array_equal(s1.view(np.uint64), s2.view(np.uint64))
        assert np.array_equal(o1.view(np.uint64), o2.view(np.uint64))
        assert o1.shape == (1,)
        assert b1 == b2 and b1.count(b"\n") == len(grid) + 2

    def test_one_row_scan_is_the_row_loop(self, monkeypatch):
        """Without the library one row is scanned on Python floats, and
        gives the bits of the NumPy loop over rows, which two rows take,
        idle (NaN) substeps included."""
        monkeypatch.setattr(_compiled, "LIBRARY", _compiled.Library(None))
        rng = np.random.default_rng(5)
        h = rng.uniform(1e-4, 2e-4, 300)
        m = rng.normal(0.0, 0.3, (len(h) * envelope.SUBSTEPS, 1))
        m[:37] = np.nan
        one, two = np.empty((len(h) + 1, 1)), np.empty((len(h) + 1, 2))
        one[0] = two[0] = 0.7
        envelope._scan_rates(0.01, h, m.copy(), one)
        envelope._scan_rates(0.01, h, np.repeat(m, 2, axis=1), two)
        for col in two.T:
            assert np.array_equal(one[:, 0].view(np.uint64),
                                  col.view(np.uint64))

    @pytest.mark.parametrize("name", ["standard", "quintic"])
    def test_zeta_pitchfork_is_the_scan_of_a(self, request, kernels, name):
        """Along the origin row the Hermite values are 0 and df/dx(0, t) is
        a(t), so zeta_pitchfork gives the recurrence driven by a(t) on the
        refined grid bit for bit, for the cubic and the quintic."""
        model = request.getfixturevalue(name)
        eps, t0 = 0.005, -0.15
        tg = time_grid(t0, 1e-4, n_steps_for(t0, math.sqrt(eps), 1e-4))
        h = np.diff(tg)
        for kernel in kernels():
            want = np.empty((len(tg), 1))
            want[0] = 1.0 / (2.0 * abs(model.a(t0)))
            a_sub = np.asarray(model.a(envelope._refine_nodes(tg)), dtype=float)
            envelope._scan_rates(
                eps, h, envelope._substep_rates(eps, h, a_sub)[:, None], want)
            got = zeta_pitchfork(model, eps, tg).zeta_values
            assert np.array_equal(got.view(np.uint64),
                                  want[:, 0].view(np.uint64)), kernel

    @pytest.mark.parametrize("table, cells", [
        ([[0.5, -2.0], [1.0, 0.1]], "0.5,-2\n1,0.10000000000000001\n"),
        ([[math.nan, 1.0], [0.5, math.nan]], ",1\n0.5,\n"),
        ([[math.inf, -math.inf, 3.0]], "inf,-inf,3\n"),
        (np.empty((0, 3)), "")], ids=["finite", "nan", "inf", "no-rows"])
    def test_write_csv_cells(self, kernels, tmp_path, table, cells):
        """write_csv writes %.17g cells, a NaN as an empty cell and an
        infinity as Python does; a table without rows is its header."""
        for kernel in kernels():
            path = tmp_path / f"{kernel}.csv"
            envelope.write_csv(path, "# h\na,b\n",
                               np.asarray(table, dtype=float).T)
            assert path.read_text() == "# h\na,b\n" + cells, kernel

    def test_zeta_rows_of_a_linear_model(self):
        """f = -(1 + t) x: df/dx has degree 0 in x but depends on t, and
        stacked rows give each row's zeta alone."""
        model = model_from_coeffs(
            [[0.0], [-1.0, -1.0]],
            {"kind": "stable-branch", "equilibrium": [0.0], "d": 2.0,
             "t_range": [0.0, 1.0]})
        eps, grid = 0.01, time_grid(0.0, 2e-4, 1000)
        rows = np.vstack([0.3 * np.exp(-grid), -0.1 * np.exp(-2 * grid)])
        assert model.drift_dx(rows, grid).shape == rows.shape
        stacked = scan_rows(model, eps, grid, rows, [0, 0])
        for row, got in zip(rows, stacked):
            alone = scan_rows(model, eps, grid, row[None, :], [0])[0]
            assert np.array_equal(got, alone)

    def test_late_row_of_a_linear_model_starts_at_its_node(self, kernels):
        """f = -(1 + t) x: df/dx does not read x, so a row that is NaN
        before node 300 would have a finite rate there.  Its zeta still
        starts at node 300 from 1/(2|a|), holding that value until then,
        stacked as alone."""
        model = model_from_coeffs(
            [[0.0], [-1.0, -1.0]],
            {"kind": "stable-branch", "equilibrium": [0.0], "d": 2.0,
             "t_range": [0.0, 1.0]})
        eps, grid = 0.01, time_grid(0.0, 2e-4, 1000)
        rows = np.vstack([0.3 * np.exp(-grid), -0.1 * np.exp(-2 * grid)])
        rows[1, :300] = np.nan
        a_start = model.drift_dx(rows[1, 300], grid[300])
        for kernel in kernels():
            stacked = scan_rows(model, eps, grid, rows, [0, 300])
            alone = scan_rows(model, eps, grid[300:], rows[1:, 300:], [0])
            assert (stacked[1, :301] == 1.0 / (2.0 * abs(a_start))).all(), \
                kernel
            assert np.array_equal(stacked[1, 300:], alone[0]), kernel

    @pytest.mark.parametrize("name", ["standard", "quintic", "linear"])
    def test_zeta_rate_gives_the_numpy_bits(self, request, kernels, name):
        """The rates of zeta_rows through the compiled zeta_rate and
        through NumPy: rows NaN before their starts, a start on the last
        node, blocks of cells cut inside a row, a quintic drift and a
        df/dx of degree 0 in x."""
        if name == "linear":
            model = model_from_coeffs(
                [[0.0], [-1.0, -1.0]],
                {"kind": "stable-branch", "equilibrium": [0.0],
                 "d": 2.0, "t_range": [0.0, 1.0]})
        else:
            model = request.getfixturevalue(name)
        eps, grid = 0.005, time_grid(0.02, 1e-4, 1500)
        rows = np.full((40, len(grid)), np.nan)
        starts = np.linspace(0, 1500, 40).astype(int)
        for r, k0 in enumerate(starts):
            rows[r, k0:] = (0.1 + 0.01 * r) * np.exp(grid[k0] - grid[k0:])
        got = []
        for kernel in kernels():
            compiled = _compiled.LIBRARY.get("zeta_rate") is not None
            assert compiled == (kernel == "c")
            zeta = scan_rows(model, eps, grid, rows, starts)
            assert np.isfinite(zeta[np.arange(40), starts]).all(), kernel
            got.append(zeta)
        assert np.array_equal(got[0].view(np.uint64),
                              got[1].view(np.uint64))


def python_csv(columns) -> str:
    """The rows of columns as format(v, ".17g") cells, "" for a NaN."""
    return "".join(",".join("" if math.isnan(v) else format(v, ".17g")
                            for v in row) + "\n"
                   for row in zip(*(np.asarray(c).tolist() for c in columns)))


class TestWriteCsv:
    """write_csv formats one FMT_BLOCK_ROWS block of rows at a time, copied
    from the columns into one buffer; each block goes to fmt_g17 when it is
    finite and to Python otherwise, with the same bytes."""

    BLOCK = _compiled.FMT_BLOCK_ROWS

    @pytest.mark.parametrize("rows", [0, 1, _compiled.FMT_BLOCK_ROWS,
                                      _compiled.FMT_BLOCK_ROWS + 1])
    def test_rows_at_the_block_edges(self, kernels, tmp_path, rows):
        cols = (np.arange(rows) / 7.0, -np.exp(np.arange(rows) / 3e3))
        for kernel in kernels():
            path = tmp_path / f"{kernel}.csv"
            envelope.write_csv(path, "a,b\n", cols)
            assert path.read_text() == "a,b\n" + python_csv(cols), kernel

    def test_one_block_with_a_nan(self, kernels, tmp_path):
        """Only the middle one of three blocks holds a NaN: the compiled
        run formats the other two in C and gives the bytes of Python
        formatting every row."""
        t = np.linspace(-1.0, 0.1, 3 * self.BLOCK)
        z = np.sqrt(np.arange(3 * self.BLOCK) + 0.5)
        z[self.BLOCK + 17] = math.nan
        for kernel in kernels():
            path = tmp_path / f"{kernel}.csv"
            envelope.write_csv(path, "# h\nt,zeta\n", (t, z))
            assert path.read_text() == "# h\nt,zeta\n" + python_csv((t, z))
        assert (tmp_path / "c.csv").read_bytes().count(b",\n") == 1

    def test_integer_and_list_columns(self, tmp_path):
        envelope.write_csv(tmp_path / "a.csv", "", ([1, 2], np.arange(2),
                                                    [0.5, None]))
        assert (tmp_path / "a.csv").read_text() == "1,0,0.5\n2,1,\n"

    def test_columns_of_one_length(self, tmp_path):
        with pytest.raises(ValueError, match="one length"):
            envelope.write_csv(tmp_path / "a.csv", "", (np.zeros(3),
                                                        np.zeros(4)))

    def test_memory_does_not_grow_with_the_rows(self, kernels, tmp_path):
        """10^6 rows of two columns (16 MB of values) are written holding
        one block at a time: the traced peak stays below 1 MiB (0.26 MiB
        measured).  Python formatting holds more per block (0.74 MiB) and,
        traced, takes seconds per 10^6 rows, so it writes 10^5."""
        for kernel in kernels():
            n = 1_000_000 if kernel == "c" else 100_000
            cols = (np.linspace(-1.0, 0.0158, n), np.sqrt(np.arange(n) + 0.5))
            tracemalloc.start()
            envelope.write_csv(tmp_path / f"{kernel}.csv", "t,z\n", cols)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 1 << 20, (kernel, peak)


class TestZetaPostExit:
    def test_relaxes_to_branch_value(self, standard):
        eps = 0.01
        tg = grid_to(0.2, 1.0, eps / 50.0)
        tab = zeta_post_exit(standard, eps, tg)
        # a_star(1) = -2, so zeta -> 1/4 up to O(eps)
        assert abs(tab.zeta_values[-1] - 0.25) < 2 * eps
        assert tab.ode_residual() < 1e-6

    def test_initial_condition_exact(self, standard):
        eps = 0.01
        tau = 0.2
        tg = grid_to(tau, 1.0, eps / 50.0)
        tab = zeta_post_exit(standard, eps, tg)
        atau = standard.drift_dx(math.sqrt(0.4 * tau), tau)
        assert tab.zeta_values[0] == pytest.approx(1.0 / (2 * abs(atau)),
                                                   rel=1e-12)

    def test_sandwich_and_slope(self, standard):
        eps = 0.005
        tg = grid_to(0.15, 1.0, eps / 50.0)
        tab = zeta_post_exit(standard, eps, tg)
        assert tab.params["sandwich_ok"]
        assert tab.params["slope_ok"]

    def test_t_bracket_vs_shipped(self, standard):
        lo, hi = STANDARD_POST_EXIT_BRACKETS
        fresh = calibrate_post_exit_brackets()
        assert lo <= fresh[0] and fresh[1] <= hi

    def test_searched_roots_stay_on_the_callers_grid(self, standard):
        # t x - x^3 with a zero x^5 row, which takes the root search, and
        # d = T = 1: x_star reaches d at t = 1, so its root search fails for
        # any node past T, and the centreline must run on the grid given,
        # not on one re-derived from its first step
        model = model_from_coeffs([[0], [0, 1], [0], [-1], [0], [0]],
                                  {"kind": "pitchfork"})
        eps = 0.01
        tg = grid_to(0.2, 1.0, eps / 50.0)
        tab = zeta_post_exit(model, eps, tg)
        assert np.array_equal(tab.t_grid, tg)
        assert tab.params["sandwich_ok"]
        closed = zeta_post_exit(standard, eps, tg)
        np.testing.assert_allclose(tab.zeta_values, closed.zeta_values,
                                   rtol=1e-6)


class TestVariance:
    def test_zero_window(self, standard):
        assert variance(standard, 0.01, 1e-3, 0.3, 0.3) == 0.0

    def test_ou_stationary_limit(self, linear_stable):
        sigma = 1e-3
        v = variance(linear_stable, 0.01, sigma, 0.9, 0.0)
        assert v == pytest.approx(sigma ** 2 / 2.0, rel=1e-10)

    def test_growth_sandwich(self, standard):
        # increasing positive rate on [0.1, 0.3]
        eps, sigma = 0.01, 1e-3
        s, t = 0.1, 0.3
        v = variance(standard, eps, sigma, t, s)
        al = alpha(standard, t, s)
        lower = sigma ** 2 / (2 * standard.a(t)) * (math.exp(2 * al / eps) - 1)
        upper = sigma ** 2 / (2 * standard.a(s)) * math.exp(2 * al / eps)
        assert lower <= v <= upper

    def test_sandwich_random_rates(self, rng):
        # random increasing positive polynomial rates a(t) = c0 + c1 t
        for _ in range(10):
            c0 = rng.uniform(0.1, 1.0)
            c1 = rng.uniform(0.1, 2.0)
            m = model_from_coeffs([[0.0], [c0, c1]],
                                  {"kind": "unstable-branch", "d": 5.0,
                                   "equilibrium": [0.0],
                                   "t_range": [0.0, 1.0], "name": "r"})
            eps, sigma = 0.02, 1e-2
            s, t = 0.05, 0.35
            v = variance(m, eps, sigma, t, s)
            al = alpha(m, t, s)
            a_fn = lambda u: c0 + c1 * u  # noqa: E731
            lower = sigma ** 2 / (2 * a_fn(t)) * (math.exp(2 * al / eps) - 1)
            upper = sigma ** 2 / (2 * a_fn(s)) * math.exp(2 * al / eps)
            assert lower <= v <= upper


class TestRegions:
    def test_region_d_boundaries(self, standard):
        reg = region_D(standard, 0.01)
        g1, g2 = reg.boundaries(0.25)
        assert g2 == pytest.approx(math.sqrt(0.4) * 0.5, abs=1e-14)
        assert g1 == pytest.approx(-math.sqrt(0.4) * 0.5, abs=1e-14)

    def test_region_s_clipped_inside_d(self, standard):
        eps, sigma = 0.005, 1e-4
        regS = region_S(standard, eps, sigma)
        regD = region_D(standard, eps)
        ts = np.linspace(math.sqrt(eps), 1.0, 300)
        s1, s2 = regS.boundaries(ts)
        d1, d2 = regD.boundaries(ts)
        assert np.all(s2 <= d2 + 1e-15)
        assert np.all(s1 >= d1 - 1e-15)


class TestBounds:
    def test_stable_arithmetic(self, standard):
        sigma = 1e-3
        b = bound_stable(standard, 0.5, 0.005, sigma, 5 * sigma, t_start=-0.5)
        assert b.exponent == pytest.approx(-12.5)
        c = abs(alpha(standard, 0.5, -0.5)) / 0.005 ** 2 + 2.0
        assert b.prefactor == pytest.approx(c)
        assert b.bound == pytest.approx(min(1.0, c * math.exp(-12.5)))

    def test_clamp_to_one(self, standard):
        b = bound_stable(standard, 0.5, 0.005, 1e-3, 1e-6, t_start=0.0)
        assert b.bound == 1.0 and b.clamped

    def test_prefactor_quadrature_cross_check(self):
        m = model_from_coeffs([[0.0], [0.0, 1.0, 0.5], [0.0], [-1.0]],
                              {"kind": "pitchfork", "T": 0.8, "name": "tq"})
        eps = 0.005
        b = bound_stable(m, 0.5, eps, 1e-3, 5e-3, t_start=-0.5)
        closed = alpha(m, 0.5, -0.5)
        assert b.prefactor == pytest.approx(abs(closed) / eps ** 2 + 2.0,
                                            rel=1e-9)

    def test_unstable_formula(self, linear_unstable):
        # sigma/h = 2, alpha/eps = 10 (constant rate 1: alpha(0.1) = 0.1)
        b = bound_unstable(linear_unstable, 0.1, 0.01, 2e-3, 1e-3)
        assert b.prefactor == pytest.approx(math.sqrt(math.e))
        assert b.exponent == pytest.approx(-KAPPA_UNSTABLE * 4.0 * 10.0)

    def test_unstable_clamps_at_start(self, linear_unstable):
        b = bound_unstable(linear_unstable, 0.0, 0.01, 1e-3, 1e-3)
        assert b.bound == 1.0

    def test_unstable_h_window(self, linear_unstable):
        with pytest.raises(HExceedsSigma):
            bound_unstable(linear_unstable, 0.1, 0.01, 1e-3, 2e-3)

    def test_unstable_quadrature_cross_check(self, linear_unstable):
        # constant rate 1: alpha(0.05) = 0.05
        b = bound_unstable(linear_unstable, 0.05, 0.01, 1e-3, 5e-4)
        assert b.exponent == pytest.approx(-KAPPA_UNSTABLE * 4.0 * 5.0,
                                           rel=1e-9)

    def test_before_window_checks(self, standard):
        eps, sigma = 0.005, 1e-4
        b = bound_before(standard, math.sqrt(eps), eps, sigma, 5 * sigma, -1.0)
        assert b.exponent == pytest.approx(-12.5)
        with pytest.raises(OutsideRegime):
            bound_before(standard, math.sqrt(eps), eps, 0.2, 1e-3, -1.0)
        with pytest.raises(OutsideRegime):
            bound_before(standard, 0.5, eps, sigma, 5 * sigma, -1.0)
        with pytest.raises(OutsideRegime):
            bound_before(standard, math.sqrt(eps), eps, sigma, 1.0, -1.0)

    def test_escape_components(self, standard):
        eps, sigma = 0.01, 1e-4
        t0 = math.sqrt(eps)
        # pick t so that alpha/eps = 20
        t = math.sqrt(2 * 20 * eps + eps)
        b = bound_escape(standard, t, t0, eps, sigma, C0=1.0, eta=0.1)
        assert b.exponent == pytest.approx(-0.54 * 20.0, rel=1e-12)
        xt = math.sqrt(0.4) * math.sqrt(t)
        pref = (xt * math.sqrt(t) * abs(math.log(sigma)) / sigma * 21.0
                / math.sqrt(1 - math.exp(-2 * 0.54 * 20)))
        assert b.prefactor == pytest.approx(pref, rel=1e-12)

    def test_escape_degenerate_window(self, standard):
        with pytest.raises(DegenerateWindow):
            bound_escape(standard, 0.1, 0.1, 0.005, 1e-4)

    def test_escape_monotone_in_t(self, standard):
        eps, sigma = 0.005, 1e-4
        ts = np.linspace(0.35, 0.9, 12)
        vals = [bound_escape(standard, float(t), math.sqrt(eps), eps,
                             sigma).bound for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_bounds_monotone_in_h(self, standard):
        eps, sigma = 0.005, 1e-4
        hs = np.array([2, 3, 4, 5, 6]) * sigma
        vals = [bound_before(standard, math.sqrt(eps), eps, sigma, float(h),
                             -1.0).bound for h in hs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_return_to_zero_identity(self):
        # rho = h/sqrt(a(t0)) with h = 2 sigma sqrt(|log sigma|), a0 = kappa a
        sigma, kappa, a_t0 = 1e-3, 0.6, 0.3
        h = default_strip_width(sigma)
        rho = h / math.sqrt(a_t0)
        prob = return_to_zero_bound(rho, sigma, kappa * a_t0)
        assert prob == pytest.approx(sigma ** (4 * kappa), rel=1e-12)

    def test_return_to_zero_unit_exponent(self):
        sigma = 1e-3
        a0 = 0.12
        rho = sigma / math.sqrt(a0)  # makes a0 rho^2/sigma^2 = 1
        with pytest.raises(RhoTooSmall):
            return_to_zero_bound(rho, sigma, a0)
        prob = return_to_zero_bound(rho * (1 + 1e-9), sigma, a0)
        assert prob == pytest.approx(math.exp(-1), rel=1e-6)

    def test_no_exit_linear_bound_small(self, standard):
        eps, sigma = 0.005, 1e-4
        val = no_exit_linear_bound(standard, 0.5, math.sqrt(eps), eps, sigma)
        assert val < 5e-3
        assert no_exit_linear_bound(standard, math.sqrt(eps) * 1.0001,
                                    math.sqrt(eps), eps, sigma) == 1.0
        with pytest.raises(DegenerateWindow):
            no_exit_linear_bound(standard, 0.1, 0.1, eps, sigma)

    def test_approach_bound(self, standard):
        eps, sigma = 0.005, 1e-4
        b = bound_approach(standard, 1.0, eps, sigma, 5 * sigma, tau=0.15)
        assert b.exponent == pytest.approx(-12.5)
        # prefactor ~ |int a_star| / eps^2 + 2 ~ (1 - tau^2)/eps^2
        assert b.prefactor == pytest.approx((1 - 0.15 ** 2) / eps ** 2 + 2,
                                            rel=0.02)
        with pytest.raises(OutsideRegime):
            bound_approach(standard, 1.0, eps, sigma, 0.2, tau=0.15)


class TestDelayInterval:
    def test_example_values(self, standard):
        eps, sigma = 0.005, 1e-4
        t_low, t_high = delay_interval(eps, sigma, standard)
        assert t_low == pytest.approx(math.sqrt(0.005), abs=1e-12)
        # closed-form inversion oracle
        kappa = 0.6 * 0.9
        target = (2.0 / kappa) * eps * abs(math.log(sigma))
        oracle = math.sqrt(2 * target + eps)
        assert t_high == pytest.approx(oracle, abs=1e-10)

    def test_regime_violation(self, standard):
        with pytest.raises(RegimeViolation):
            delay_interval(0.005, 0.2, standard)
        with pytest.raises(RegimeViolation):
            delay_interval(0.005, 1e-200, standard)

    def test_collapse_near_sqrt_eps(self, standard):
        # closer to sqrt(eps): window shrinks
        _, hi1 = delay_interval(0.005, 1e-4, standard)
        _, hi2 = delay_interval(0.005, 1e-2, standard)
        assert hi2 < hi1


class TestNoExitLinearMonteCarlo:
    def test_empirical_below_bound(self, standard):
        # 1e4 linear comparison paths from the inner-strip boundary (the
        # worst case): the fraction still confined to (0, x_tilde) at each
        # probe time must sit below the evaluator.  The empirical transition
        # is much sharper than the bound's decay, so the check is one-sided.
        from slowsde import default_strip_width
        from slowsde.noise import fill_increments
        from slowsde.sde import linear_batch
        from slowsde.sde import time_grid as tgrid
        eps, sigma = 0.005, 1e-4
        dt = eps / 50.0
        t0 = math.sqrt(eps)
        kappa = (1 - standard.lambda_param) * (1 - standard.eta)
        rate = lambda t: kappa * t  # noqa: E731
        curves = branches(standard)
        rho = default_strip_width(sigma) / math.sqrt(float(standard.a(t0)))
        probes = (0.4, 0.5)
        cols = [int(round((t - t0) / dt)) for t in probes]
        n_steps = max(cols)  # the grid reaches the node nearest each probe
        g = tgrid(t0, dt, n_steps)
        xt = np.asarray(curves.x_tilde(g))
        n_paths = 10000
        counts = np.zeros(len(probes), dtype=int)
        for lo in range(0, n_paths, 2048):
            hi = min(lo + 2048, n_paths)
            dw = np.empty((hi - lo, n_steps))
            fill_increments(dw, 37, range(lo, hi), dt)
            X, _ = linear_batch(rate, eps, sigma, t0, rho, dt, dw)
            inside = (X[:, 1:] > 0.0) & (X[:, 1:] < xt[None, 1:])
            cum = np.cumprod(inside, axis=1).astype(bool)
            for j, c in enumerate(cols):
                counts[j] += int(np.sum(cum[:, c - 1]))
        for j, t in enumerate(probes):
            bound = no_exit_linear_bound(standard, float(t), t0, eps, sigma)
            assert counts[j] / n_paths <= bound


def test_precompute_benchmark_script_bit_identical():
    """benchmarks/bench_precompute.py runs and finds the library's zeta
    table, CSV bytes and post-exit family equal to the fallbacks'."""
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_precompute.py"),
         "1"], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bit-identical" in proc.stdout.splitlines()
