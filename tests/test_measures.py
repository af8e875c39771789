"""Tests for the scaling-exponent and complexity measures.

Synthetic spectral tracks with known power-law structure make exact
oracles: amplitudes a_k = tau_k**H must regress to slope H with perfect
fit, and hand-computable energy distributions pin the entropy values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hhtscale import (
    SpectralTrack,
    complexity,
    decompose,
    generalized_hurst_q1,
    rolling_scaling_exponent,
    scaling_exponent,
    spectral_track,
)


def synthetic_track(amplitudes: np.ndarray, periods: np.ndarray) -> SpectralTrack:
    """A fully-valid spectral track with the given amplitude/period arrays."""
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    periods = np.asarray(periods, dtype=np.float64)
    frequencies = 2.0 * np.pi / periods
    return SpectralTrack(
        amplitudes=amplitudes,
        frequencies=frequencies,
        periods=periods,
        validity=np.ones(amplitudes.shape, dtype=bool),
    )


def power_law_track(h: float, n_comp: int = 6, length: int = 50) -> SpectralTrack:
    """Amplitudes following a_k = tau_k**h exactly, dyadic periods."""
    periods = np.repeat(2.0 ** np.arange(1, n_comp + 1), length).reshape(n_comp, length)
    return synthetic_track(periods**h, periods)


class TestScalingExponent:
    def test_exact_power_law_recovers_slope(self):
        for h in (0.2, 0.5, 0.9):
            result = scaling_exponent(power_law_track(h))
            assert result.defined.all()
            assert np.allclose(result.h_star, h, atol=1e-12)
            assert np.allclose(result.r_squared, 1.0, atol=1e-12)
            assert np.all(result.points_used == 6)

    def test_noisy_power_law_within_standard_error(self):
        h = 0.6
        sigma = 0.1
        n_comp, length = 8, 1000
        rng = np.random.default_rng(5)
        periods = np.repeat(2.0 ** np.arange(1, n_comp + 1), length).reshape(
            n_comp, length
        )
        amplitudes = periods**h * np.exp(sigma * rng.standard_normal(periods.shape))
        result = scaling_exponent(synthetic_track(amplitudes, periods))
        ln_tau = np.log(periods[:, 0])
        sxx = float(np.sum((ln_tau - ln_tau.mean()) ** 2))
        slope_se = sigma / np.sqrt(sxx)  # per-sample OLS standard error
        h_star = result.h_star[result.defined]
        assert abs(h_star.mean() - h) < 4.0 * slope_se / np.sqrt(length)
        assert 0.5 * slope_se < h_star.std(ddof=1) < 1.5 * slope_se

    def test_flat_amplitudes_give_zero_slope_zero_r2(self):
        periods = np.repeat(2.0 ** np.arange(1, 6), 10).reshape(5, 10)
        result = scaling_exponent(synthetic_track(np.ones_like(periods), periods))
        assert result.defined.all()
        assert np.allclose(result.h_star, 0.0, atol=1e-15)
        assert np.allclose(result.r_squared, 0.0, atol=1e-15)

    def test_requires_three_components(self):
        with pytest.raises(ValueError, match="components"):
            scaling_exponent(power_law_track(0.5, n_comp=2))

    def test_invalid_samples_leave_gaps(self):
        track = power_law_track(0.5, n_comp=4, length=20)
        track.validity[:, 7] = False  # no usable points at t=7
        track.validity[2:, 13] = False  # only two points at t=13
        result = scaling_exponent(track)
        assert not result.defined[7] and np.isnan(result.h_star[7])
        assert not result.defined[13] and np.isnan(result.h_star[13])
        assert result.points_used[13] == 2
        kept = np.ones(20, dtype=bool)
        kept[[7, 13]] = False
        assert result.defined[kept].all()

    def test_equal_periods_are_degenerate(self):
        periods = np.full((4, 10), 8.0)
        amplitudes = np.vstack([np.full(10, a) for a in (1.0, 2.0, 3.0, 4.0)])
        result = scaling_exponent(synthetic_track(amplitudes, periods))
        assert not result.defined.any()
        assert np.all(np.isnan(result.h_star))

    def test_periods_must_span_an_octave(self):
        # three periods within 1.4% of each other give a slope with no
        # leverage; three spanning two octaves give the power law's slope
        amplitudes = np.array([[1.0], [3.0], [2.0]])
        narrow = scaling_exponent(synthetic_track(amplitudes, [[1000.0], [1007.0], [1014.0]]))
        assert not narrow.defined.any() and np.isnan(narrow.h_star).all()
        assert narrow.points_used[0] == 3
        wide = scaling_exponent(synthetic_track(amplitudes, [[1000.0], [2000.0], [4000.0]]))
        assert wide.defined.all() and np.isfinite(wide.h_star).all()

    def test_pipeline_scale_invariance(self):
        rng = np.random.default_rng(21)
        x = np.cumsum(rng.standard_normal(2048))
        base = scaling_exponent(spectral_track(decompose(x)))
        for factor in (3.0, 2.0**1000, 2.0**-1000, 1e-300, 1e300):
            scaled = scaling_exponent(spectral_track(decompose(factor * x)))
            assert np.array_equal(base.defined, scaled.defined), factor
            diff = np.abs(base.h_star[base.defined] - scaled.h_star[base.defined])
            assert diff.max() < 1e-9, factor


class TestRollingScalingExponent:
    def test_constant_track_matches_plain(self):
        track = power_law_track(0.7, n_comp=5, length=40)
        plain = scaling_exponent(track)
        rolled = rolling_scaling_exponent(track, window=8)
        assert not rolled.defined[:7].any()
        assert rolled.defined[7:].all()
        assert np.allclose(rolled.h_star[7:], plain.h_star[7:], atol=1e-12)

    def test_full_window_equals_whole_track_average(self):
        rng = np.random.default_rng(11)
        n_comp, length = 5, 64
        periods = np.repeat(2.0 ** np.arange(1, n_comp + 1), length).reshape(
            n_comp, length
        ) * np.exp(0.05 * rng.standard_normal((n_comp, length)))
        amplitudes = periods**0.4 * np.exp(0.1 * rng.standard_normal(periods.shape))
        track = synthetic_track(amplitudes, periods)
        rolled = rolling_scaling_exponent(track, window=length)
        assert rolled.defined[-1] and not rolled.defined[:-1].any()
        # oracle: regress on the per-component whole-track means
        ln_a = np.log(amplitudes.mean(axis=1))
        ln_tau = np.log(periods.mean(axis=1))
        dx = ln_tau - ln_tau.mean()
        expected = float(np.dot(dx, np.log(amplitudes.mean(axis=1)) - ln_a.mean())
                         / np.dot(dx, dx))
        assert abs(rolled.h_star[-1] - expected) < 1e-12

    def test_samples_with_no_valid_component_stay_undefined(self):
        # a trimmed end margin: the trailing windows there still hold valid
        # samples from before it, but the margin itself must stay undefined
        track = power_law_track(0.7, n_comp=5, length=40)
        track.validity[:, 30:] = False
        rolled = rolling_scaling_exponent(track, window=8)
        assert rolled.defined[7:30].all()
        assert not rolled.defined[30:].any()
        assert np.isnan(rolled.h_star[30:]).all()

    def test_window_bounds(self):
        track = power_law_track(0.5, n_comp=4, length=16)
        with pytest.raises(ValueError):
            rolling_scaling_exponent(track, window=1)
        with pytest.raises(ValueError):
            rolling_scaling_exponent(track, window=17)


class TestComplexity:
    def test_uniform_energy_reaches_log_n(self):
        for n in (2, 5, 11):
            periods = np.repeat(2.0 ** np.arange(1, n + 1), 6).reshape(n, 6)
            track = synthetic_track(np.full((n, 6), 3.0), periods)
            result = complexity(track)
            assert result.defined.all()
            assert np.allclose(result.c_star, np.log(n), atol=1e-12)
            assert result.c_star[result.defined].mean() == pytest.approx(np.log(n), abs=1e-12)

    def test_single_active_component_is_zero(self):
        amplitudes = np.zeros((4, 8))
        amplitudes[2] = 5.0
        periods = np.repeat(2.0 ** np.arange(1, 5), 8).reshape(4, 8)
        result = complexity(synthetic_track(amplitudes, periods))
        assert np.allclose(result.c_star, 0.0, atol=1e-15)

    def test_known_two_component_distribution(self):
        amplitudes = np.array([[2.0], [1.0]])
        periods = np.array([[2.0], [4.0]])
        track = synthetic_track(amplitudes, periods)
        # squared weights: p = (4/5, 1/5)
        p = np.array([0.8, 0.2])
        expected_sq = float(-(p * np.log(p)).sum())
        assert complexity(track).c_star[0] == pytest.approx(expected_sq, abs=1e-14)
        # linear weights: p = (2/3, 1/3)
        p = np.array([2.0, 1.0]) / 3.0
        expected_lin = float(-(p * np.log(p)).sum())
        assert complexity(track, weight="linear").c_star[0] == pytest.approx(
            expected_lin, abs=1e-14
        )

    def test_zero_energy_sample_is_undefined(self):
        amplitudes = np.ones((3, 5))
        amplitudes[:, 2] = 0.0
        periods = np.repeat(2.0 ** np.arange(1, 4), 5).reshape(3, 5)
        result = complexity(synthetic_track(amplitudes, periods))
        assert not result.defined[2] and np.isnan(result.c_star[2])
        assert result.defined[[0, 1, 3, 4]].all()

    def test_sample_with_no_valid_component_is_undefined(self):
        amplitudes = np.array([[1.0, 1.0, 2.0], [2.0, 3.0, 1.0], [4.0, 1.0, 3.0]])
        track = synthetic_track(amplitudes, np.ones((3, 3)))
        plain = complexity(track)
        track.validity[:, 0] = False  # e.g. inside the trimmed margin
        track.validity[1:, 2] = False  # one valid component is enough
        result = complexity(track)
        assert not result.defined[0] and np.isnan(result.c_star[0])
        assert result.defined[1:].all()
        assert np.array_equal(result.c_star[1:], plain.c_star[1:])

    def test_rejects_unknown_weight(self):
        with pytest.raises(ValueError, match="weight"):
            complexity(power_law_track(0.5), weight="cubic")

    def test_pipeline_scale_invariance(self):
        rng = np.random.default_rng(22)
        x = np.cumsum(rng.standard_normal(1024))
        base = complexity(spectral_track(decompose(x)))
        for factor in (3.0, 2.0**1000, 2.0**-1000, 1e-300, 1e300):
            scaled = complexity(spectral_track(decompose(factor * x)))
            assert np.array_equal(base.defined, scaled.defined), factor
            diff = np.abs(base.c_star[base.defined] - scaled.c_star[base.defined])
            assert diff.max() < 1e-9, factor

    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=8),
            elements=st.floats(0.0, 1e6, allow_nan=False),
        )
    )
    def test_entropy_bounds_property(self, amplitudes):
        n = amplitudes.shape[0]
        periods = np.repeat(
            2.0 ** np.arange(1, n + 1), amplitudes.shape[1]
        ).reshape(amplitudes.shape)
        result = complexity(synthetic_track(amplitudes, periods))
        vals = result.c_star[result.defined]
        assert np.all(vals >= -1e-12)
        assert np.all(vals <= np.log(n) + 1e-12)


class TestGeneralizedHurst:
    def test_linear_trend_has_unit_exponent(self):
        result = generalized_hurst_q1(np.arange(500, dtype=np.float64))
        assert result.h_g == pytest.approx(1.0, abs=1e-12)
        assert result.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_random_walk_near_half(self):
        rng = np.random.default_rng(8)
        x = np.cumsum(rng.standard_normal(20_000))
        result = generalized_hurst_q1(x)
        assert abs(result.h_g - 0.5) < 0.05
        assert result.r_squared > 0.99

    def test_length_precondition(self):
        with pytest.raises(ValueError, match="too short"):
            generalized_hurst_q1(np.arange(189, dtype=np.float64))
        generalized_hurst_q1(np.arange(190, dtype=np.float64))  # boundary passes

    def test_validation(self):
        with pytest.raises(ValueError):
            generalized_hurst_q1(np.zeros((10, 10)))
        with pytest.raises(ValueError):
            generalized_hurst_q1(np.arange(500, dtype=np.float64), tau_max=1)
        with pytest.raises(ValueError, match="degenerate"):
            generalized_hurst_q1(np.full(500, 2.5))
