"""Instantaneous amplitude/frequency tracks of decomposed components.

Each component is paired with its Hilbert transform to form an analytic
signal z; the modulus gives the instantaneous amplitude.  The phase advance
from one sample to the next is the angle of z[t+1]*conj(z[t]), which lies in
(-pi, pi] by construction; the mean of the two steps around a sample is
its instantaneous frequency (radians/sample), so no running phase is ever
built.  Oscillation periods follow as 2*pi/frequency (samples).  Samples
where the estimated frequency is non-positive — phase briefly running
backwards, a known artifact of the discrete transform — are flagged
invalid, as is an optional margin at both ends where boundary distortion
dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emd import ImfDecomposition

__all__ = ["SpectralTrack", "hilbert_transform", "spectral_track"]


def _analytic(x: np.ndarray) -> np.ndarray:
    """Analytic signal of each row of ``x`` (along the last axis)."""
    n = x.shape[-1]
    if n < 4:
        raise ValueError("need at least 4 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    spec = np.fft.fft(x)
    gain = np.zeros(n)
    gain[0] = 1.0
    if n % 2 == 0:
        gain[n // 2] = 1.0
        gain[1 : n // 2] = 2.0
    else:
        gain[1 : (n + 1) // 2] = 2.0
    spec *= gain
    return np.fft.ifft(spec)


def hilbert_transform(x) -> np.ndarray:
    """Hilbert transform of a real 1-D series: the imaginary part of its
    analytic signal.

    The analytic signal comes from the frequency-domain method: forward
    DFT, zero the negative-frequency bins, double the positive bins (DC and
    Nyquist untouched), inverse DFT.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("hilbert_transform expects a 1-D series")
    return _analytic(x).imag


@dataclass
class SpectralTrack:
    """Per-component instantaneous quantities, shape (n_imfs, length).

    amplitudes : analytic-signal modulus, >= 0.
    frequencies : phase advance per sample, radians: the mean of the two
        one-step phase changes around each sample, the one-sided step at
        the ends.
    periods : 2*pi/frequency in samples where the frequency is positive,
        NaN elsewhere.
    validity : False where the frequency is non-positive or inside the
        trimmed boundary margin.
    """

    amplitudes: np.ndarray
    frequencies: np.ndarray
    periods: np.ndarray
    validity: np.ndarray

    @property
    def n_imfs(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def length(self) -> int:
        return self.amplitudes.shape[1]


def spectral_track(decomposition: ImfDecomposition, trim_fraction: float = 0.0) -> SpectralTrack:
    """Amplitude/frequency/period tracks for every component of a decomposition.

    The residue takes no part.  ``trim_fraction`` flags that fraction of
    samples at each end invalid (0 keeps everything).
    """
    if decomposition.n_imfs < 1:
        raise ValueError("decomposition has no oscillatory components")
    if not (0.0 <= trim_fraction < 0.5):
        raise ValueError("trim_fraction must be in [0, 0.5)")
    length = decomposition.length
    analytic = _analytic(np.asarray(decomposition.imfs, dtype=np.float64))  # one FFT for all rows
    amplitudes = np.abs(analytic)
    # Scale each row by a power of two (largest amplitude in [0.5, 1), at most
    # 2**1023 for subnormal rows) so the products of neighbours below neither
    # overflow nor underflow; the scaling is exact and leaves angles alone.
    exponent = np.frexp(amplitudes.max(axis=1))[1]
    z = analytic * np.ldexp(1.0, np.minimum(-exponent, 1023))[:, None]
    # one-step phase change, wrapped into (-pi, pi]
    step = np.angle(z[:, 1:] * z[:, :-1].conj())
    # central differences of the phase inside, one-sided at the ends
    frequencies = np.empty_like(amplitudes)
    frequencies[:, 1:-1] = 0.5 * (step[:, :-1] + step[:, 1:])
    frequencies[:, 0] = step[:, 0]
    frequencies[:, -1] = step[:, -1]

    positive = frequencies > 0.0
    periods = np.full_like(frequencies, np.nan)
    periods[positive] = 2.0 * np.pi / frequencies[positive]

    validity = positive.copy()
    margin = int(trim_fraction * length)
    if margin > 0:
        validity[:, :margin] = False
        validity[:, length - margin :] = False
    return SpectralTrack(
        amplitudes=amplitudes,
        frequencies=frequencies,
        periods=periods,
        validity=validity,
    )
