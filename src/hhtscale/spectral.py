"""Instantaneous amplitude/frequency tracks of decomposed components.

Each component x is paired with its Hilbert transform H to form an
analytic signal z = x + iH, whose real part is x itself; the modulus gives
the instantaneous amplitude.  H comes from one real FFT and one real
inverse FFT (Marple 1999, IEEE Trans. Signal Process. 47(9)): the half
spectrum of x times -i, with the DC bin and, for an even length, the
Nyquist bin zeroed.  The phase advance from one sample to the next is the
angle of z[t+1]*conj(z[t]), which lies in (-pi, pi] by construction; the
mean of the two steps around a sample is its instantaneous frequency
(radians/sample), so no running phase is ever built.  Oscillation periods
follow as 2*pi/frequency (samples).  Samples
where the estimated frequency is non-positive — phase briefly running
backwards, a known artifact of the discrete transform — are flagged
invalid, as is an optional margin at both ends where boundary distortion
dominates.

The tracks are built one component at a time: each analytic signal is
transformed, measured, scaled and turned into phase steps while it is the
only one alive, so no whole-stack complex array is ever made.  The
neighbour product is written conj(z[t]) * z[t+1], one row at a time, so a
component's bits do not depend on the stack it shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emd import ImfDecomposition

__all__ = ["SpectralTrack", "hilbert_transform", "spectral_track"]


def _hilbert(x: np.ndarray) -> np.ndarray:
    """Hilbert transform of the real 1-D series ``x``, from its half spectrum."""
    n = x.shape[0]
    if n < 4:
        raise ValueError("need at least 4 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    spec = np.fft.rfft(x)
    spec *= -1j
    spec[0] = 0.0
    if n % 2 == 0:
        spec[-1] = 0.0
    return np.fft.irfft(spec, n)


def _analytic(x: np.ndarray) -> np.ndarray:
    """Analytic signal x + iH of the real 1-D series ``x``."""
    z = np.empty(x.shape[0], dtype=np.complex128)
    z.imag = _hilbert(x)
    z.real = x
    return z


def hilbert_transform(x) -> np.ndarray:
    """Hilbert transform of a real 1-D series: the imaginary part of its
    analytic signal.

    Computed from the real DFT: forward real FFT, multiply each bin by -i,
    zero the DC bin and (even length) the Nyquist bin, real inverse FFT.
    This equals the imaginary part of the full-spectrum analytic signal
    (negative-frequency bins zeroed, positive bins doubled).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("hilbert_transform expects a 1-D series")
    return _hilbert(x)


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
    imfs = np.asarray(decomposition.imfs, dtype=np.float64)
    amplitudes = np.empty(imfs.shape)
    frequencies = np.empty(imfs.shape)
    for imf, amplitude, frequency in zip(imfs, amplitudes, frequencies):
        z = _analytic(imf)
        np.abs(z, out=amplitude)
        # Scale z by a power of two (largest amplitude in [0.5, 1), at most
        # 2**1023 for a subnormal row) so the products of neighbours below
        # neither overflow nor underflow; the scaling is exact and leaves
        # angles alone.
        z *= np.ldexp(1.0, min(-np.frexp(amplitude.max())[1], 1023))
        # One-step phase change, wrapped into (-pi, pi].  The operands stay
        # in this order: the complex multiply is not commutative in the last
        # bit on every SIMD target, and with the conj temporary first NumPy's
        # temporary elision keeps the order at any length.
        step = np.angle(np.conj(z[:-1]) * z[1:])
        # central differences of the phase inside, one-sided at the ends
        np.add(step[:-1], step[1:], out=frequency[1:-1])
        frequency[1:-1] *= 0.5
        frequency[0] = step[0]
        frequency[-1] = step[-1]

    validity = frequencies > 0.0
    periods = np.full_like(frequencies, np.nan)
    np.divide(2.0 * np.pi, frequencies, out=periods, where=validity)

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
