"""Tests for the analytic-signal spectral tracks.

The Hilbert transform has an exact time-domain form: circular convolution
with a cotangent kernel.  That O(n^2) construction is slow but independent
of any FFT, which makes it the reference the fast implementation is held
against here.
"""

from __future__ import annotations

import numpy as np
import pytest

from hhtscale import (
    ImfDecomposition,
    decompose,
    hilbert_transform,
    spectral_track,
)
from hhtscale.spectral import _analytic


def hilbert_by_convolution(x: np.ndarray) -> np.ndarray:
    """Discrete Hilbert transform as an explicit circular convolution.

    The kernel is the closed-form inverse DFT of the -i*sign(frequency)
    mask: for even n it is (2/n)*cot(pi*m/n) at odd lags and zero at even
    lags; for odd n it is (1/n)*cot(pi*m/(2n)) at odd lags and
    -(1/n)*tan(pi*m/(2n)) at nonzero even lags.
    """
    n = x.shape[0]
    m = np.arange(n)
    kernel = np.zeros(n)
    odd = m % 2 == 1
    if n % 2 == 0:
        kernel[odd] = (2.0 / n) / np.tan(np.pi * m[odd] / n)
    else:
        even = (m % 2 == 0) & (m != 0)
        kernel[odd] = (1.0 / n) / np.tan(np.pi * m[odd] / (2.0 * n))
        kernel[even] = -(1.0 / n) * np.tan(np.pi * m[even] / (2.0 * n))
    out = np.empty(n)
    for i in range(n):
        out[i] = np.dot(kernel, x[(i - m) % n])
    return out


def tone_decomposition(
    length: int, period: float, amplitude: float = 1.0
) -> ImfDecomposition:
    """A single-component decomposition built directly from an exact tone."""
    t = np.arange(length)
    imf = amplitude * np.cos(2.0 * np.pi * t / period)
    return ImfDecomposition(
        imfs=imf[np.newaxis, :],
        residue=np.zeros(length),
        sift_counts=[1],
        stop_reasons=["oscillatory"],
    )


class TestHilbertTransform:
    def test_matches_convolution_oracle(self):
        rng = np.random.default_rng(42)
        for case in range(20):
            n = int(rng.integers(4, 65))
            x = rng.standard_normal(n)
            fast = hilbert_transform(x)
            slow = hilbert_by_convolution(x)
            assert np.allclose(fast, slow, atol=1e-8), f"case {case}, n={n}"

    def test_matches_convolution_oracle_at_every_short_length(self):
        rng = np.random.default_rng(43)
        for n in range(4, 65):
            x = rng.standard_normal(n)
            assert np.allclose(hilbert_transform(x), hilbert_by_convolution(x), atol=1e-8), n

    def test_cosine_maps_to_sine(self):
        # an integer number of cycles makes the discrete transform exact
        n = 1024
        t = np.arange(n)
        for cycles in (3, 17, 100):
            x = np.cos(2.0 * np.pi * cycles * t / n)
            expected = np.sin(2.0 * np.pi * cycles * t / n)
            interior = slice(n // 20, n - n // 20)
            err = np.abs(hilbert_transform(x) - expected)[interior].max()
            assert err < 1e-6

    def test_analytic_signal_real_part_is_input(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        z = _analytic(x)
        assert np.allclose(z.real, x, atol=1e-12)

    def test_analytic_signal_real_part_is_the_input_bits(self):
        # z = x + iH is assembled, not transformed back, so its real part is
        # x itself, signed zeros included
        rng = np.random.default_rng(5)
        for n in (4, 5, 100, 257, 1950, 10_384):
            x = rng.standard_normal(n)
            x[::7] = -0.0
            assert _analytic(x).real.tobytes() == x.tobytes(), n

    def test_circular_shift_commutes(self):
        # shifting the input circularly shifts the analytic signal; the
        # amplitude envelope moves with it
        rng = np.random.default_rng(2)
        x = rng.standard_normal(128)
        shift = 37
        z = _analytic(x)
        z_shifted = _analytic(np.roll(x, shift))
        assert np.allclose(z_shifted, np.roll(z, shift), atol=1e-10)
        assert np.allclose(np.abs(z_shifted), np.roll(np.abs(z), shift), atol=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hilbert_transform(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            hilbert_transform(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            hilbert_transform(np.array([1.0, np.nan, 3.0, 4.0]))


class TestSpectralTrack:
    def test_tone_amplitude_and_period(self):
        period = 32.0
        amp = 1.7
        track = spectral_track(tone_decomposition(4096, period, amp))
        interior = slice(200, 4096 - 200)
        assert np.allclose(track.amplitudes[0, interior], amp, rtol=1e-3)
        assert np.allclose(track.periods[0, interior], period, rtol=1e-3)
        assert np.all(track.validity[0, interior])

    def test_tone_frequency_is_phase_slope(self):
        period = 64.0  # divides the length: no spectral leakage
        track = spectral_track(tone_decomposition(2048, period))
        omega = 2.0 * np.pi / period
        interior = slice(100, 2048 - 100)
        assert np.allclose(track.frequencies[0, interior], omega, rtol=1e-3)

    def test_period_three_tone(self):
        # the phase advances 2*pi/3 per sample: two steps together pass pi,
        # so only one-step changes give the frequency back
        track = spectral_track(tone_decomposition(3000, 3.0), trim_fraction=0.1)
        inside = track.validity[0]
        assert inside.sum() == 2400
        assert np.abs(track.frequencies[0, inside] - 2.0 * np.pi / 3.0).max() <= 1e-12

    def test_tone_mean_square_amplitude(self):
        # the analytic-signal envelope of A*cos is constant A, so the mean
        # squared amplitude is A^2 (not the time-average power A^2/2)
        amp = 2.0
        track = spectral_track(tone_decomposition(4096, 64.0, amp))
        mean_sq = float(np.mean(track.amplitudes[0] ** 2))
        assert abs(mean_sq - amp**2) < 1e-2
        assert abs(mean_sq - 0.5 * amp**2) > 1.0

    def test_component_frequencies_are_ordered(self):
        # earlier components carry the faster oscillations: averaged over
        # seeds, mean instantaneous frequency decreases with component index
        n_seeds = 50
        depth = 6
        sums = np.zeros(depth)
        counts = np.zeros(depth)
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed)
            dec = decompose(rng.standard_normal(2048))
            track = spectral_track(dec, trim_fraction=0.02)
            for k in range(min(depth, dec.n_imfs)):
                valid = track.validity[k]
                if valid.any():
                    sums[k] += float(track.frequencies[k, valid].mean())
                    counts[k] += 1
        assert np.all(counts > 0)
        means = sums / counts
        assert np.all(np.diff(means) < 0.0)

    def test_amplitudes_are_nonnegative(self):
        rng = np.random.default_rng(9)
        dec = decompose(rng.standard_normal(512))
        track = spectral_track(dec)
        assert np.all(track.amplitudes >= 0.0)

    def test_periods_nan_where_frequency_nonpositive(self):
        rng = np.random.default_rng(10)
        dec = decompose(np.cumsum(rng.standard_normal(512)))
        track = spectral_track(dec)
        bad = track.frequencies <= 0.0
        assert np.all(np.isnan(track.periods[bad]))
        assert not np.any(np.isnan(track.periods[~bad]))

    def test_trim_fraction_masks_edges(self):
        track = spectral_track(tone_decomposition(200, 16.0), trim_fraction=0.1)
        assert not track.validity[:, :20].any()
        assert not track.validity[:, 180:].any()
        inner = spectral_track(tone_decomposition(200, 16.0))
        assert np.array_equal(
            track.validity[:, 20:180], inner.validity[:, 20:180]
        )

    def test_zero_trim_keeps_positive_frequency_samples(self):
        track = spectral_track(tone_decomposition(256, 16.0))
        assert np.array_equal(track.validity, track.frequencies > 0.0)

    def test_shapes_follow_decomposition(self):
        rng = np.random.default_rng(3)
        dec = decompose(rng.standard_normal(300))
        track = spectral_track(dec)
        assert track.n_imfs == dec.n_imfs
        assert track.length == 300
        for field in (
            track.amplitudes,
            track.frequencies,
            track.periods,
            track.validity,
        ):
            assert field.shape == (dec.n_imfs, 300)

    def test_stack_transform_matches_each_row(self):
        # each component's row of the stack must be what _analytic gives
        # for that component alone
        for length in (777, 1950):
            dec = decompose(np.cumsum(np.random.default_rng(length).standard_normal(length)))
            track = spectral_track(dec)
            for k in range(dec.n_imfs):
                z = _analytic(dec.imfs[k])
                assert np.array_equal(track.amplitudes[k], np.abs(z))

    def test_rejects_empty_decomposition(self):
        dec = decompose(np.full(64, 5.0))  # constant input: no components
        assert dec.n_imfs == 0
        with pytest.raises(ValueError):
            spectral_track(dec)

    def test_rejects_bad_trim(self):
        dec = tone_decomposition(128, 16.0)
        with pytest.raises(ValueError):
            spectral_track(dec, trim_fraction=0.5)
        with pytest.raises(ValueError):
            spectral_track(dec, trim_fraction=-0.1)


@pytest.mark.parametrize("length", [16, 17, 1001, 10_000, 10_384])
@pytest.mark.parametrize("n_imfs", [1, 2, 3, 5])
def test_paired_transforms_match_the_row_by_row_track(monkeypatch, length, n_imfs):
    # Both builds take two components per FFT call, and an odd count's last
    # row runs alone; each must give the bits of a track whose transforms
    # are made one row at a time by the 1-D _hilbert.
    from hhtscale import spectral

    rng = np.random.default_rng(length * 10 + n_imfs)
    imfs = np.cumsum(rng.standard_normal((n_imfs, length)), axis=1)
    dec = ImfDecomposition(
        imfs=imfs, residue=np.zeros(length), sift_counts=[1] * n_imfs,
        stop_reasons=["oscillatory"] * n_imfs,
    )
    fresh = spectral_track(dec, 0.05)
    retained = [field.copy() for field in vars(spectral._retained_track(dec, 0.05)).values()]
    one_row = spectral._hilbert
    monkeypatch.setattr(
        spectral, "_hilbert", lambda x: np.array([one_row(row) for row in np.atleast_2d(x)])
    )
    reference = vars(spectral_track(dec, 0.05)).values()
    for want, got, kept in zip(reference, vars(fresh).values(), retained):
        assert got.tobytes() == want.tobytes()
        assert kept.tobytes() == want.tobytes()
