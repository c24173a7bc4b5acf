import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest

from slowsde import (NoiseStream, StepTooLarge, branches, make_model,
                     model_from_coeffs, simulate, simulate_coupled,
                     simulate_linear, solve_det, variance)
from slowsde.noise import fill_increments, path_generators
from slowsde.sde import em_batch, linear_batch, n_steps_for, time_grid


class TestNoiseStream:
    def test_reproducible(self):
        a = NoiseStream(42, 7, 0.0, 1e-3, 100).increments()
        b = NoiseStream(42, 7, 0.0, 1e-3, 100).increments()
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = NoiseStream(42, 7, 0.0, 1e-3, 100).increments()
        b = NoiseStream(42, 8, 0.0, 1e-3, 100).increments()
        assert not np.array_equal(a, b)

    def test_mirror_is_exact_negation(self):
        s = NoiseStream(42, 7, 0.0, 1e-3, 100)
        assert np.array_equal(s.mirror().increments(), -s.increments())

    def test_refinement_sums_to_parent(self):
        s = NoiseStream(9, 0, 0.0, 1e-3, 64)
        base = s.increments()
        fine = s.refine().increments()
        recombined = fine.reshape(-1, 2).sum(axis=1)
        assert np.allclose(recombined, base, atol=1e-15)

    def test_refinement_variance(self):
        s = NoiseStream(9, 0, 0.0, 1e-2, 256)
        fine = s.refine().refine()
        inc = fine.increments()
        assert inc.var() == pytest.approx(fine.dt, rel=0.2)

    def test_fill_matches_stream(self):
        out = np.empty((3, 50))
        fill_increments(out, 11, [4, 5, 6], 1e-3)
        for b, idx in enumerate([4, 5, 6]):
            ref = NoiseStream(11, idx, 0.0, 1e-3, 50).increments()
            assert np.array_equal(out[b], ref)

    def test_chunked_fill_matches_one_fill(self):
        whole = np.empty((3, 2500))
        fill_increments(whole, 11, [4, 5, 6], 1e-3, mirrored=True)
        gens = path_generators(11, [4, 5, 6])
        buf = np.empty((3, 1024))
        for lo in range(0, 2500, 1024):
            part = buf[:, :min(1024, 2500 - lo)]
            fill_increments(part, 11, [4, 5, 6], 1e-3, True, gens)
            assert np.array_equal(part, whole[:, lo:lo + part.shape[1]])


class TestSimulate:
    def test_zero_noise_matches_euler_bitwise(self, standard):
        p = simulate(standard, 0.01, 0.0, -0.5, 0.1, 0.5, 2e-4)
        d = solve_det(standard, 0.01, -0.5, 0.1, 0.5, 2e-4, method="euler")
        assert np.array_equal(p.x_values, d.x_values)

    def test_mirrored_noise_negates_path(self, standard):
        noise = NoiseStream(3, 0, -0.2, 2e-4, 2000)
        a = simulate(standard, 0.01, 1e-3, -0.2, 0.02, 0.2, 2e-4, noise=noise)
        b = simulate(standard, 0.01, 1e-3, -0.2, -0.02, 0.2, 2e-4,
                     noise=noise.mirror())
        assert np.array_equal(a.x_values, -b.x_values)

    def test_step_too_large(self, standard):
        with pytest.raises(StepTooLarge):
            simulate(standard, 0.01, 1e-3, 0.0, 0.0, 0.1, 0.005)

    def test_ou_moments(self, linear_stable):
        # modest-N version of the Gaussian oracle checks
        eps, sigma, dt = 0.01, 1e-3, 2e-4
        n, steps = 20000, 500
        dw = np.empty((n, steps))
        fill_increments(dw, 99, range(n), dt)
        X, _ = em_batch(linear_stable, eps, sigma, 0.0, 0.0, dt, dw)
        t = 0.1
        k = int(round(t / dt))
        v_exact = sigma ** 2 / 2 * (1 - math.exp(-2 * t / eps))
        xs = X[:, k]
        assert abs(xs.mean()) < 4 * xs.std() / math.sqrt(n)
        v_hat = xs.var(ddof=1)
        se = v_hat * math.sqrt(2.0 / (n - 1))
        # EM at dt = eps/50 carries a ~1% variance bias; 5 se covers it here
        assert abs(v_hat - v_exact) < 5 * se

    def test_truncation_freezes_state(self):
        m = model_from_coeffs([[0.0], [1.0]],
                              {"kind": "unstable-branch", "d": 0.5,
                               "equilibrium": lambda t: 0.0,
                               "t_range": [0.0, 1.0], "name": "lin-u"})
        p = simulate(m, 0.01, 0.0, 0.0, 0.115, 1.0, 2e-4)
        assert p.truncated_at is not None
        k = int(round((p.truncated_at - p.t_grid[0]) / p.dt))
        assert np.all(p.x_values[k:] == p.x_values[k - 1])
        assert np.max(np.abs(p.x_values)) <= 0.5


def em_per_step(model, eps, sigma, t0, x0, dt, dw):
    """Reference Euler-Maruyama: one step at a time over path-major rows,
    each path frozen at its last in-domain value once |x| would exceed d."""
    B, K = dw.shape
    t = time_grid(t0, dt, K)
    X = np.empty((B, K + 1))
    X[:, 0] = x0
    trunc = np.full(B, np.nan)
    x = X[:, 0].copy()
    alive = np.ones(B, dtype=bool)
    for k in range(K):
        f = np.asarray(model.drift(x, t[k]), dtype=float)
        xn = (x + dt / eps * f) + sigma / math.sqrt(eps) * dw[:, k]
        exited = alive & (np.abs(xn) > model.d)
        trunc[exited] = t0 + (k + 1) * dt
        alive &= ~exited
        x = np.where(alive, xn, x)
        X[:, k + 1] = x
    return X, trunc


def em_in_chunks(model, eps, sigma, t0, x0, dt, dw, chunk):
    """em_batch over consecutive time chunks, carrying state and trunc."""
    start = np.empty((dw.shape[0], 1))
    start[:, 0] = x0
    parts, x, trunc = [start], x0, None
    for k0 in range(0, dw.shape[1], chunk):
        X, trunc = em_batch(model, eps, sigma, t0, x, dt,
                            dw[:, k0:k0 + chunk], k0, trunc)
        parts.append(X[:, 1:])
        x = X[:, -1]
    return np.hstack(parts), trunc


class TestChunkedStepping:
    """em_batch against the per-step reference, in one call and in chunks."""

    eps, sigma, dt, t0, K = 0.01, 0.15, 2e-4, -0.3, 3000
    # the two outermost paths start outside |x| <= d and freeze at once
    x0 = np.linspace(-0.72, 0.72, 48)

    def _run(self, model, rng):
        dw = rng.standard_normal((48, self.K)) * math.sqrt(self.dt)
        args = (model, self.eps, self.sigma, self.t0, self.x0, self.dt, dw)
        return em_per_step(*args), em_batch(*args), em_in_chunks(*args, 700)

    @pytest.mark.parametrize("drift", ["polynomial", "callable"])
    def test_matches_per_step(self, quintic, rng, drift):
        model = quintic if drift == "polynomial" else make_model(
            lambda x, t: t * x - x ** 3 + x ** 5,
            {"kind": "pitchfork", "d": 0.7, "T": 0.2})
        (X, trunc), *runs = self._run(model, rng)
        assert np.isfinite(trunc).any() and np.isnan(trunc).any()
        for got, got_trunc in runs:
            assert np.array_equal(got, X)
            assert np.array_equal(got_trunc, trunc, equal_nan=True)

    def test_frozen_in_every_later_chunk(self, quintic, rng):
        _, _, (got, trunc) = self._run(quintic, rng)
        exited = np.nonzero(np.isfinite(trunc))[0]
        node = np.rint((trunc[exited] - self.t0) / self.dt).astype(int)
        # paths leave in several of the 700-step chunks, from the first step
        assert len(set((node - 1) // 700)) >= 2 and node.min() == 1
        for b, k in zip(exited, node):
            assert np.all(got[b, k:] == got[b, k - 1])

    def test_benchmark_script_bit_identical(self):
        """benchmarks/bench_stepping.py runs and finds chunked em_batch equal
        to its per-step loop."""
        root = Path(__file__).resolve().parents[1]
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + os.pathsep + path if path else src)
        proc = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "bench_stepping.py"),
             "64", "3000"], env=env, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "bit-identical" in proc.stdout.splitlines()


class TestTimeGrid:
    def test_grid_stays_inside_window(self):
        n = n_steps_for(0.0, 0.99999, 3e-4)
        assert n == 3333
        assert time_grid(0.0, 3e-4, n)[-1] <= 0.99999

    def test_dividing_step_hits_t_end(self):
        assert n_steps_for(-1.0, 1.0, 1e-4) == 20000
        assert n_steps_for(0.0, 0.2, 2e-4) == 1000

    def test_step_longer_than_window(self):
        with pytest.raises(ValueError):
            n_steps_for(0.0, 1e-4, 2e-4)


class TestSimulateLinear:
    def test_zero_rate_random_walk(self):
        eps, sigma, dt = 0.01, 1e-3, 2e-4
        n, steps = 20000, 500
        dw = np.empty((n, steps))
        fill_increments(dw, 5, range(n), dt)
        X, _ = linear_batch(lambda t: np.zeros_like(t), eps, sigma, 0.0, 0.0,
                            dt, dw)
        t = steps * dt
        v_hat = X[:, -1].var(ddof=1)
        v_exact = sigma ** 2 * t / eps
        assert v_hat == pytest.approx(v_exact, rel=5 * math.sqrt(2.0 / n))

    def test_single_step_multiplier(self):
        eps, dt = 0.01, 2e-4
        p = simulate_linear(lambda t: np.full_like(t, -1.0), eps, 0.0, 0.0,
                            1.0, dt, dt)
        assert p.x_values[1] == pytest.approx(math.exp(-dt / eps), rel=1e-15)

    def test_ks_against_gaussian_oracle(self, linear_stable):
        # rate -(1+t); variance oracle from the envelope quadrature
        m = model_from_coeffs([[0.0], [-1.0, -1.0]],
                              {"kind": "stable-branch", "d": 3.0,
                               "equilibrium": lambda t: 0.0,
                               "t_range": [0.0, 1.0], "name": "drift-rate"})
        eps, sigma, dt = 0.01, 1e-3, 2e-4
        n, steps = 10000, 1000
        dw = np.empty((n, steps))
        fill_increments(dw, 17, range(n), dt)
        X, _ = linear_batch(lambda t: -(1.0 + t), eps, sigma, 0.0, 0.0, dt, dw)
        t = steps * dt
        v = variance(m, eps, sigma, t, 0.0)
        stat = kstest(X[:, -1] / math.sqrt(v), "norm").statistic
        assert stat < 1.6276 / math.sqrt(n)

    def test_additivity(self):
        eps, sigma, dt = 0.01, 1e-3, 2e-4
        rate = lambda t: -(1.0 + t)  # noqa: E731
        noise = NoiseStream(21, 0, 0.0, dt, 400)
        a = simulate_linear(rate, eps, sigma, 0.0, 0.3, 0.08, dt, noise=noise)
        b = simulate_linear(rate, eps, 0.0, 0.0, 0.4, 0.08, dt)
        c = simulate_linear(rate, eps, sigma, 0.0, 0.7, 0.08, dt, noise=noise)
        assert np.allclose(a.x_values + b.x_values, c.x_values,
                           rtol=1e-13, atol=1e-18)


class TestCoupled:
    def test_zero_noise_strict_order(self, standard):
        # strictly inside the wedge the drift dominates its linear minorant,
        # so the ordering is strict until the nonlinear path leaves
        eps, dt = 0.01, 2e-4
        rate = lambda t: 0.6 * t  # noqa: E731
        curves = branches(standard)
        x0 = 0.5 * float(curves.x_tilde(0.1))
        nl, lin = simulate_coupled(standard, rate, eps, 0.0, (x0, 0.1), 0.4,
                                   dt)
        xt = np.asarray(curves.x_tilde(nl.t_grid))
        exits = np.nonzero(nl.x_values >= xt)[0]
        end = exits[0] if exits.size else len(nl.t_grid)
        assert end > 50
        assert np.all(nl.x_values[5:end] > lin.x_values[5:end])


class TestPathIO:
    def test_csv(self, standard, tmp_path):
        p = simulate(standard, 0.01, 1e-3, -0.1, 0.0, 0.0, 2e-4)
        f = tmp_path / "p.csv"
        p.to_csv(f)
        assert f.read_text().splitlines()[1] == "t,x"
