"""Tests for the path simulators and the Monte-Carlo ensemble driver.

Oracles: exact autocovariance of fractional Gaussian noise, the Gaussian
limit of the stable-increment transform at alpha=2, hand-computed
fractional-filter weights, and determinism/thread-independence contracts.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import fft as sfft
from scipy import signal as ssig
from scipy import stats as sps

from hhtscale import (
    EmdConfig,
    SimConfig,
    decompose,
    monte_carlo_ensemble,
    scaling_exponent,
    simulate,
    spectral_track,
)
from hhtscale.simulate import (
    _arfima_psi,
    _fast_fft_length,
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


class TestArfima:
    def test_filter_weights_hand_values(self):
        psi = _arfima_psi(0.3, 4)
        assert np.allclose(psi, [1.0, 0.3, 0.195, 0.1495], atol=1e-15)

    def test_zero_d_is_identity_filter(self):
        psi = _arfima_psi(0.0, 5)
        assert np.array_equal(psi, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_zero_d_path_is_brownian(self):
        cfg = SimConfig(process="arfima", length=4096, seed=2, paths=1, d=0.0)
        ts = simulate(cfg)
        inc = np.diff(np.concatenate([[0.0], ts.values]))
        assert abs(float(inc.var(ddof=1)) - 1.0) < 0.1

    def test_weights_alternate_sign_for_negative_d(self):
        psi = _arfima_psi(-0.3, 6)
        assert psi[0] == 1.0 and psi[1] == -0.3
        assert np.all(psi[1:] < 0.0)  # antipersistent kernel stays negative

    @pytest.mark.parametrize(
        "length, d", [(16, 0.0), (100, -0.3), (1950, 0.2), (4096, 0.45)]
    )
    def test_noise_equals_scipy_fftconvolve(self, length, d):
        path = simulate_arfima(length, d, rng_for_path(4, 1))
        truncation = 10 * length
        innovations = rng_for_path(4, 1).standard_normal(length + truncation)
        psi = _arfima_psi(d, truncation + 1)
        full = ssig.fftconvolve(innovations, psi, mode="full")
        noise = full[truncation : truncation + length]
        assert np.array_equal(path, np.cumsum(noise))

    def test_fft_length_matches_scipy_next_fast_len(self):
        for n in range(1, 3001):
            assert _fast_fft_length(n) == sfft.next_fast_len(n, real=True), n


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
        assert a.label == "fbm[3]"

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
        scaling = scaling_exponent(spectral_track(decompose(ts.values, EmdConfig())))
        assert np.array_equal(stats.mean_hstar_t, scaling.h_star, equal_nan=True)
        assert stats.grand_mean == pytest.approx(scaling.grand_mean(), abs=1e-12)
        assert np.isnan(stats.ghe_std)
        assert stats.n_paths == 1
        assert stats.rng_name == "philox"

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
