"""Tests for trading-day panels and the Brownian reference band."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from hhtscale import (
    TradingCalendar,
    bm_reference_band,
    complexity,
    decompose,
    measure_day_means,
    measure_track,
    outside_band_likelihood,
    panelize,
    scaling_exponent,
    spectral_track,
)
from hhtscale.intraday import _nan_percentiles
from hhtscale.simulate import _nan_quiet


def make_calendar(lengths, split=None) -> TradingCalendar:
    """Calendar of consecutive days with the given lengths.

    ``split`` cuts every day into two sessions at that offset.
    """
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).tolist()
    return TradingCalendar(
        day_ids=[f"2024-01-{i + 1:02d}" for i in range(len(lengths))],
        day_slices=[(start, start + n) for start, n in zip(starts, lengths)],
        splits=None if split is None else [start + split for start in starts],
    )


class TestPanelize:
    def test_equal_days(self):
        track = np.arange(1.0, 7.0)
        panel = panelize(track, make_calendar([3, 3]))
        assert panel.n_days == 2 and panel.width == 3
        assert np.array_equal(panel.matrix, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert np.allclose(panel.day_mean, [2.5, 3.5, 4.5])
        assert panel.lunch_gap is None

    def test_ragged_days_are_nan_padded(self):
        track = np.arange(1.0, 6.0)
        panel = panelize(track, make_calendar([3, 2]))
        assert panel.width == 3
        assert np.array_equal(panel.matrix[1, :2], [4.0, 5.0])
        assert np.isnan(panel.matrix[1, 2])
        assert panel.day_mean[2] == 3.0  # only day 0 contributes

    def test_nan_measure_entries_are_skipped(self):
        track = np.array([1.0, np.nan, 3.0, 5.0, np.nan, 7.0])
        panel = panelize(track, make_calendar([3, 3]))
        assert np.allclose(panel.day_mean, [3.0, np.nan, 5.0], equal_nan=True)

    def test_day_mean_is_row_permutation_invariant(self):
        rng = np.random.default_rng(4)
        days = rng.standard_normal((5, 8))
        base = panelize(days.ravel(), make_calendar([8] * 5))
        shuffled = panelize(days[[3, 0, 4, 1, 2]].ravel(), make_calendar([8] * 5))
        assert np.allclose(base.day_mean, shuffled.day_mean)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="coverage"):
            panelize(np.zeros(5), make_calendar([3, 3]))

    def test_two_session_days_record_lunch_gap(self):
        panel = panelize(np.zeros(8), make_calendar([4, 4], split=3))
        assert panel.lunch_gap == (3, 3)

    def test_lunch_gap_spans_every_day_split(self):
        # days splitting after 10 and 14 bars: the range covers both
        calendar = TradingCalendar(
            day_ids=["2024-01-01", "2024-01-02"],
            day_slices=[(0, 20), (20, 40)],
            splits=[10, 34],
        )
        assert panelize(np.zeros(40), calendar).lunch_gap == (10, 14)

    def test_rejects_non_vector_track(self):
        with pytest.raises(ValueError):
            panelize(np.zeros((2, 3)), make_calendar([3, 3]))


class TestNanColumnMean:
    def test_hand_case(self):
        m = np.array([[1.0, np.nan], [3.0, np.nan]])
        assert np.allclose(_nan_quiet(np.nanmean, m, axis=0), [2.0, np.nan], equal_nan=True)


class TestMeasureTrack:
    def test_is_the_whole_chain(self):
        x = np.cumsum(np.random.default_rng(14).standard_normal(600))
        track = spectral_track(decompose(x), trim_fraction=0.05)
        h = measure_track(x, "hstar", trim_fraction=0.05)
        c = measure_track(x, "cstar", trim_fraction=0.05)
        assert np.array_equal(h, scaling_exponent(track).h_star, equal_nan=True)
        assert np.array_equal(c, complexity(track).c_star, equal_nan=True)
        with pytest.raises(ValueError, match="measure"):
            measure_track(x, "hurst")


class TestMeasureDayMeans:
    def test_windows_the_measure_not_the_data(self):
        # oracle: run the pipeline on the whole path, then cut the measure
        # track into day rows and average columns
        rng = np.random.default_rng(12)
        n_days, day_length = 4, 256
        x = np.cumsum(rng.standard_normal(n_days * day_length))
        profile = measure_day_means(x, n_days, day_length)
        h = scaling_exponent(spectral_track(decompose(x))).h_star
        expected = _nan_quiet(np.nanmean, h.reshape(n_days, day_length), axis=0)
        assert np.array_equal(profile, expected, equal_nan=True)

    def test_entropy_measure_produces_finite_profile(self):
        rng = np.random.default_rng(13)
        x = np.cumsum(rng.standard_normal(1024))
        profile = measure_day_means(x, 4, 256, measure="cstar")
        assert profile.shape == (256,)
        assert np.isfinite(profile).all()

    def test_validation(self):
        x = np.zeros(100)
        with pytest.raises(ValueError, match="measure"):
            measure_day_means(x, 2, 50, measure="hurst")
        with pytest.raises(ValueError, match="length"):
            measure_day_means(np.zeros(99), 2, 50)


class TestOutsideBandLikelihood:
    def test_all_inside_is_zero(self):
        matrix = np.full((5, 3), 0.5)
        lo, hi = np.zeros(3), np.ones(3)
        assert np.array_equal(outside_band_likelihood(matrix, lo, hi), np.zeros(3))

    def test_all_above_is_one(self):
        matrix = np.full((5, 3), 2.0)
        lo, hi = np.zeros(3), np.ones(3)
        assert np.array_equal(outside_band_likelihood(matrix, lo, hi), np.ones(3))

    def test_mixed_hand_case(self):
        matrix = np.array(
            [
                [-1.0, 0.5, 2.0],
                [0.5, 0.5, 0.5],
                [0.5, 3.0, np.nan],
                [np.nan, 0.5, np.nan],
            ]
        )
        lo, hi = np.zeros(3), np.ones(3)
        out = outside_band_likelihood(matrix, lo, hi)
        assert out[0] == pytest.approx(1.0 / 3.0)
        assert out[1] == pytest.approx(1.0 / 4.0)
        assert out[2] == pytest.approx(1.0 / 2.0)

    def test_band_edges_count_as_inside(self):
        matrix = np.array([[0.0, 1.0]])
        lo, hi = np.zeros(2), np.ones(2)
        assert np.array_equal(outside_band_likelihood(matrix, lo, hi), [0.0, 0.0])

    def test_empty_column_is_nan(self):
        matrix = np.array([[0.5, np.nan], [0.5, np.nan]])
        out = outside_band_likelihood(matrix, np.zeros(2), np.ones(2))
        assert out[0] == 0.0 and np.isnan(out[1])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            outside_band_likelihood(np.zeros(3), np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="band length"):
            outside_band_likelihood(np.zeros((2, 3)), np.zeros(2), np.ones(3))


class TestBmReferenceBand:
    def test_band_is_ordered_and_deterministic(self):
        lo1, hi1 = bm_reference_band(day_length=256, n_days=8, n_sims=10, seed=77)
        lo2, hi2 = bm_reference_band(day_length=256, n_days=8, n_sims=10, seed=77)
        defined = ~np.isnan(lo1)
        assert defined.any()
        assert np.all(lo1[defined] <= hi1[defined])
        assert np.array_equal(lo1, lo2, equal_nan=True)
        assert np.array_equal(hi1, hi2, equal_nan=True)

    def test_thread_count_does_not_change_band(self):
        serial = bm_reference_band(day_length=128, n_days=8, n_sims=10, seed=3)
        pooled = bm_reference_band(
            day_length=128, n_days=8, n_sims=10, seed=3, threads=2
        )
        assert np.array_equal(serial[0], pooled[0], equal_nan=True)
        assert np.array_equal(serial[1], pooled[1], equal_nan=True)

    def test_margin_columns_stay_nan_without_a_warning(self):
        # trim 0.02 of one 390-sample day leaves columns NaN on every path
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = bm_reference_band(390, 1, n_sims=10, trim_fraction=0.02)
        assert np.isnan(lo[0]) and np.isnan(hi[0])
        assert np.array_equal(np.isnan(lo), np.isnan(hi))
        assert not np.isnan(lo).all()

    def test_percentiles_equal_nanpercentile_bits(self):
        # random panels of 1..120 paths with NaN cells, all-NaN columns, a
        # column with one value and, every third panel, tied values; signed
        # zeros are left out: -0.0 and 0.0 tie, and NumPy's partition and
        # this sort may put either first
        rng = np.random.default_rng(25)
        for case in range(400):
            rows, cols = int(rng.integers(1, 121)), int(rng.integers(2, 40))
            stack = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-3, 3)
            if case % 3 == 0:
                stack = np.round(stack, 1) + 0.0
            stack[rng.random((rows, cols)) < rng.uniform(0.0, 0.9)] = np.nan
            stack[:, rng.integers(cols)] = np.nan
            stack[1:, rng.integers(cols)] = np.nan
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = np.nanpercentile(stack, [5.0, 95.0], axis=0)
            got = _nan_percentiles(stack, (5.0, 95.0))
            assert got.tobytes() == want.tobytes(), case

    def test_validation(self):
        with pytest.raises(ValueError, match="n_sims"):
            bm_reference_band(day_length=64, n_days=4, n_sims=5)
        with pytest.raises(ValueError, match="measure"):
            bm_reference_band(day_length=64, n_days=4, n_sims=10, measure="x")
        with pytest.raises(ValueError, match="threads must be >= 1"):
            bm_reference_band(day_length=64, n_days=4, n_sims=10, threads=0)
