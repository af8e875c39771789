"""Tests for the path simulators and the Monte-Carlo ensemble driver.

Oracles: exact autocovariances of fractional Gaussian noise and of
ARFIMA(0, d, 0) noise (hand values from the Gamma-function form), the
Gaussian limit of the stable-increment transform at alpha=2, and
determinism/thread-independence contracts.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import math

import numpy as np
import pytest
from scipy import stats as sps

from hhtscale import (
    SimConfig,
    decompose,
    monte_carlo_ensemble,
    scaling_exponent,
    simulate,
    spectral_track,
)
from hhtscale.simulate import (
    _arfima_autocovariance,
    _circulant_root,
    ordered_map,
    rng_for_path,
    simulate_arfima,
    simulate_bm,
    simulate_fbm,
    simulate_slm,
)


def fgn_autocovariance(h: float, lags: np.ndarray) -> np.ndarray:
    k = lags.astype(np.float64)
    return 0.5 * (
        np.abs(k + 1) ** (2 * h) - 2 * np.abs(k) ** (2 * h) + np.abs(k - 1) ** (2 * h)
    )


class TestFbm:
    def test_fgn_autocovariance_matches_theory(self):
        h = 0.7
        n, n_paths = 512, 200
        lags = np.arange(6)
        estimates = np.empty((n_paths, lags.size))
        for i in range(n_paths):
            path = simulate_fbm(n, h, rng_for_path(123, i))
            g = np.diff(path)  # recover the noise increments
            for j, k in enumerate(lags):
                m = g.shape[0] - k
                estimates[i, j] = float(np.dot(g[: m], g[k : k + m]) / m)
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(n_paths)
        target = fgn_autocovariance(h, lags)
        assert np.all(np.abs(mean - target) < 4.0 * se)

    def test_half_hurst_increments_are_white(self):
        n, n_paths = 512, 200
        lag1 = np.empty(n_paths)
        for i in range(n_paths):
            g = np.diff(simulate_fbm(n, 0.5, rng_for_path(77, i)))
            lag1[i] = float(np.dot(g[:-1], g[1:]) / (g.shape[0] - 1))
        se = lag1.std(ddof=1) / np.sqrt(n_paths)
        assert abs(lag1.mean()) < 4.0 * se

    def test_measured_exponent_monotone_in_hurst(self):
        grand_means = []
        for h in (0.2, 0.4, 0.6, 0.8):
            config = SimConfig(process="fbm", length=1024, seed=31, paths=100, hurst=h)
            grand_means.append(monte_carlo_ensemble(config).grand_mean)
        assert np.all(np.diff(grand_means) > 0.0)


class TestSlm:
    def test_alpha_two_increments_are_gaussian_variance_two(self):
        path = simulate_slm(100_000, 2.0, rng_for_path(9, 0))
        inc = np.diff(np.concatenate([[0.0], path]))
        n = inc.shape[0]
        se_var = 2.0 * np.sqrt(2.0 / (n - 1))
        assert abs(float(inc.var(ddof=1)) - 2.0) < 4.0 * se_var
        assert abs(float(inc.mean())) < 4.0 * np.sqrt(2.0 / n)
        # the transform at alpha=2 is exactly Gaussian, not just matched in
        # moments
        _, p_value = sps.kstest(inc[:20_000], "norm", args=(0.0, np.sqrt(2.0)))
        assert p_value > 0.01

    def test_alpha_two_matches_brownian_scaling(self):
        slm_cfg = SimConfig(process="slm", length=2048, seed=5, paths=200, alpha=2.0)
        fbm_cfg = SimConfig(process="fbm", length=2048, seed=6, paths=200, hurst=0.5)
        diff = abs(
            monte_carlo_ensemble(slm_cfg).grand_mean
            - monte_carlo_ensemble(fbm_cfg).grand_mean
        )
        assert diff < 0.02

    def test_heavy_tails_below_two(self):
        # alpha < 2 increments have infinite variance; extreme order
        # statistics dwarf the Gaussian case
        heavy = np.diff(simulate_slm(50_000, 1.2, rng_for_path(14, 0)))
        light = np.diff(simulate_slm(50_000, 2.0, rng_for_path(14, 1)))
        ratio = np.abs(heavy).max() / np.abs(light).max()
        assert ratio > 10.0


def arfima_autocovariance(d: float, lags) -> np.ndarray:
    """gamma(k) = Gamma(1-2d) Gamma(k+d) / (Gamma(1-d) Gamma(d) Gamma(k+1-d)),
    through its ratio form rho(k) = prod_{j<=k} (j-1+d)/(j-d)."""
    gamma0 = math.gamma(1 - 2 * d) / math.gamma(1 - d) ** 2
    return np.array(
        [gamma0 * math.prod((j - 1 + d) / (j - d) for j in range(1, k + 1)) for k in lags]
    )


class TestArfima:
    @pytest.mark.parametrize("d", [-0.3, 0.3, 0.45])
    def test_autocovariance_matches_theory(self, d):
        n, n_paths = 512, 200
        lags = np.arange(6)
        estimates = np.empty((n_paths, lags.size))
        for i in range(n_paths):
            g = np.diff(simulate_arfima(n, d, rng_for_path(321, i)))
            for j, k in enumerate(lags):
                m = g.shape[0] - k
                estimates[i, j] = float(np.dot(g[:m], g[k : k + m]) / m)
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(n_paths)
        target = arfima_autocovariance(d, lags)
        assert np.all(np.abs(mean - target) < 4.0 * se)

    def test_autocovariance_hand_values(self):
        for d in (-0.45, -0.3, 0.2, 0.3, 0.45):
            gamma = _arfima_autocovariance(d, 4)
            assert np.allclose(gamma, arfima_autocovariance(d, range(5)), rtol=1e-13, atol=0)
            assert gamma[1] / gamma[0] == pytest.approx(d / (1 - d), rel=1e-13)
        # d = 0.3: gamma(0) = Gamma(0.4) / Gamma(0.7)^2, rho(1..3) = 3/7, 39/119, 299/1071
        gamma = _arfima_autocovariance(0.3, 3)
        assert gamma[0] == pytest.approx(1.31645606213, rel=1e-11)
        assert np.allclose(gamma / gamma[0], [1, 3 / 7, 39 / 119, 299 / 1071], rtol=1e-14, atol=0)

    def test_zero_d_autocovariance_is_white(self):
        assert np.array_equal(_arfima_autocovariance(0.0, 4), [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_negative_d_autocovariance_is_negative_at_every_lag(self):
        gamma = _arfima_autocovariance(-0.3, 50)
        assert gamma[0] > 0.0
        assert np.all(gamma[1:] < 0.0)  # antipersistent noise

    @pytest.mark.parametrize("d", [-0.499, -0.45, -0.3, -0.1, 0.0, 0.1, 0.3, 0.45, 0.499])
    def test_embedding_is_non_negative_definite(self, d):
        # the eigenvalue floor of the circulant embedding never trips
        for length in (2, 3, 16, 1950, 10_000, 10_384, 20_000):
            path = simulate_arfima(length, d, rng_for_path(6, length))
            assert path.shape == (length,) and np.all(np.isfinite(path))

    def test_zero_d_path_is_brownian(self):
        cfg = SimConfig(process="arfima", length=4096, seed=2, paths=1, d=0.0)
        ts = simulate(cfg)
        inc = np.diff(np.concatenate([[0.0], ts.values]))
        assert abs(float(inc.var(ddof=1)) - 1.0) < 0.1


def inline_circulant_root(gamma: np.ndarray) -> np.ndarray:
    """The eigenvalue roots as the simulators computed them inline, per path."""
    circ = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.fft.fft(circ).real
    assert lam.min() >= -1e-8 * lam.max()
    return np.sqrt(np.clip(lam, 0.0, None))


class TestCirculantRoot:
    @pytest.mark.parametrize("kind, param", [("fgn", 0.3), ("fgn", 0.7),
                                             ("arfima", -0.2), ("arfima", 0.2)])
    def test_equals_the_inline_formula(self, kind, param):
        for n in (2, 257, 10_000):
            if kind == "fgn":
                gamma = fgn_autocovariance(param, np.arange(n + 1))
            else:
                gamma = _arfima_autocovariance(param, n)
            root = _circulant_root(kind, param, n)
            assert root.tobytes() == inline_circulant_root(gamma).tobytes()
            assert not root.flags.writeable
            with pytest.raises(ValueError):
                root[0] = 0.0

    def test_cache_is_bounded(self):
        assert _circulant_root.cache_info().maxsize == 8
        for n in range(16, 36):
            _circulant_root("fgn", 0.6, n)
        assert _circulant_root.cache_info().currsize <= 8

    def test_paths_keep_their_bits(self):
        # recorded before the roots were cached: fBm H = 0.3, 0.7 and ARFIMA
        # d = -0.2, 0.2, three paths each at three lengths
        digest = hashlib.sha256()
        for length in (257, 1950, 10_000):
            for shape in ({"process": "fbm", "hurst": 0.3}, {"process": "fbm", "hurst": 0.7},
                          {"process": "arfima", "d": -0.2}, {"process": "arfima", "d": 0.2}):
                config = SimConfig(length=length, seed=11, **shape)
                for path in range(3):
                    digest.update(simulate(config, path).values.tobytes())
        assert digest.hexdigest() == (
            "d2425c067567e6790bf9e561a87221362234b5c55d2577e7c61e57f932414b17"
        )


class TestSimConfig:
    def test_rejects_unknown_process(self):
        with pytest.raises(ValueError, match="unknown process"):
            SimConfig(process="ou", length=100)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            SimConfig(process="bm", length=1)
        with pytest.raises(ValueError):
            SimConfig(process="bm", length=100, paths=0)

    def test_fbm_requires_hurst_in_unit_interval(self):
        with pytest.raises(ValueError, match="fbm"):
            SimConfig(process="fbm", length=100)
        with pytest.raises(ValueError, match="fbm"):
            SimConfig(process="fbm", length=100, hurst=1.2)

    def test_slm_requires_alpha_and_dyadic_grid(self):
        with pytest.raises(ValueError, match="slm"):
            SimConfig(process="slm", length=10_384)
        with pytest.raises(ValueError, match="slm"):
            SimConfig(process="slm", length=10_384, alpha=2.5)
        with pytest.raises(ValueError, match="slm"):
            SimConfig(process="slm", length=10_384, alpha=1.0)
        SimConfig(process="slm", length=10_384, alpha=1.5)
        # any length is accepted: the increments need no grid
        SimConfig(process="slm", length=10_000, alpha=1.5)

    def test_arfima_requires_d_in_open_half_interval(self):
        with pytest.raises(ValueError, match="arfima"):
            SimConfig(process="arfima", length=100)
        with pytest.raises(ValueError, match="arfima"):
            SimConfig(process="arfima", length=100, d=0.5)


class TestDeterminism:
    def test_same_seed_same_path(self):
        cfg = SimConfig(process="fbm", length=256, seed=42, hurst=0.6)
        a = simulate(cfg, path_index=3)
        b = simulate(cfg, path_index=3)
        assert np.array_equal(a.values, b.values)

    def test_distinct_paths_differ(self):
        cfg = SimConfig(process="bm", length=256, seed=42)
        a = simulate(cfg, path_index=0)
        b = simulate(cfg, path_index=1)
        assert not np.array_equal(a.values, b.values)

    def test_path_streams_are_insensitive_to_batching(self):
        # path i's stream depends only on (seed, i), never on which other
        # paths were drawn first
        direct = simulate_bm(64, rng_for_path(7, 5))
        rng_for_path(7, 4).standard_normal(1000)  # unrelated consumption
        again = simulate_bm(64, rng_for_path(7, 5))
        assert np.array_equal(direct, again)


class TestOrderedMap:
    def test_keeps_job_order_for_any_thread_count(self):
        jobs = list(range(-9, 0))
        expected = [abs(j) for j in jobs]
        for threads in (0, 1, 2):
            assert ordered_map(abs, jobs, threads) == expected

    def test_never_asks_for_more_workers_than_jobs(self, monkeypatch):
        asked = []

        class SerialPool:  # records the worker count and starts no process
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, worker, jobs, chunksize=1):
                return map(worker, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        assert ordered_map(abs, [-1, -2], 64) == [1, 2]
        assert ordered_map(abs, list(range(-9, 0)), 4) == list(range(9, 0, -1))
        assert asked == [2, 4]


class TestMonteCarloEnsemble:
    def test_thread_count_does_not_change_results(self):
        cfg = SimConfig(process="fbm", length=256, seed=19, paths=6, hurst=0.5)
        one = monte_carlo_ensemble(cfg, threads=1)
        two = monte_carlo_ensemble(cfg, threads=2)
        assert np.array_equal(one.mean_hstar_t, two.mean_hstar_t, equal_nan=True)
        assert one.grand_mean == two.grand_mean
        assert one.grand_std == two.grand_std
        assert one.mean_r2 == two.mean_r2
        assert one.ghe_mean == two.ghe_mean
        assert one.ghe_std == two.ghe_std

    def test_single_path_matches_direct_pipeline(self):
        cfg = SimConfig(process="fbm", length=512, seed=3, paths=1, hurst=0.7)
        stats = monte_carlo_ensemble(cfg)
        ts = simulate(cfg, path_index=0)
        scaling = scaling_exponent(spectral_track(decompose(ts.values)))
        assert np.array_equal(stats.mean_hstar_t, scaling.h_star, equal_nan=True)
        assert stats.grand_mean == pytest.approx(np.nanmean(scaling.h_star), abs=1e-12)
        assert np.isnan(stats.ghe_std)

    def test_grand_std_pools_over_paths_and_time(self):
        cfg = SimConfig(process="bm", length=256, seed=8, paths=4)
        stats = monte_carlo_ensemble(cfg)
        # oracle: rebuild the pooled deviation sum from the per-path tracks
        tracks = [
            scaling_exponent(spectral_track(decompose(simulate(cfg, i).values)))
            for i in range(4)
        ]
        samples = np.concatenate([t.h_star[t.defined] for t in tracks])
        pooled = np.sqrt(
            np.sum((samples - stats.grand_mean) ** 2) / (samples.size - 1)
        )
        assert stats.grand_std == pytest.approx(pooled, rel=1e-12)

    def test_rejects_bad_threads(self):
        cfg = SimConfig(process="bm", length=128, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_ensemble(cfg, threads=0)
