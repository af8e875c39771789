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
only one alive, so no whole-stack complex array is ever made.  The Hilbert
transforms alone go two components per FFT call: NumPy's pocketfft runs a
multi-row transform lane by lane with the arithmetic of a lone row, so a
pair gets the bits of two single calls for less time, and pairs, unlike the
whole stack, keep the temporaries small.  The
neighbour product is written conj(z[t]) * z[t+1], one row at a time, so a
component's bits do not depend on the stack it shares.

``spectral_track`` returns fresh arrays.  The ensemble worker builds its
tracks into a per-thread workspace instead (``_retained_track``): the
amplitude, frequency, period and validity stacks, of shape
(default_max_imfs(T), T), and one complex row, kept between calls so that
a path does not fault its large arrays in again.  The workspace only grows,
hands out ``[:K, :T]`` views, and is kept only while it holds at most
``RETAINED_BYTES_MAX`` bytes (about 4.2 MB at T = 10,000); a longer series
gets fresh stacks per call.  Both builds write the same bits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .emd import ImfDecomposition, default_max_imfs

__all__ = ["SpectralTrack", "hilbert_transform", "spectral_track"]

# The most workspace bytes a thread keeps between ``_retained_track`` calls:
# the workspace of a 10,384-sample SLM path takes 4.3 MB.
RETAINED_BYTES_MAX = 8 << 20

_workspace = threading.local()


def _hilbert(x: np.ndarray) -> np.ndarray:
    """Hilbert transform of the real 1-D series ``x``, or of each row of the
    2-D ``x``, from its half spectrum."""
    n = x.shape[-1]
    if n < 4:
        raise ValueError("need at least 4 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    spec = np.fft.rfft(x)
    spec *= -1j
    spec[..., 0] = 0.0
    if n % 2 == 0:
        spec[..., -1] = 0.0
    return np.fft.irfft(spec, n)


def _analytic(
    x: np.ndarray, out: np.ndarray | None = None, hilbert: np.ndarray | None = None
) -> np.ndarray:
    """Analytic signal x + iH of the real 1-D series ``x``, written into
    ``out`` (a complex row of the same length) when given, from ``x``'s
    Hilbert transform ``hilbert`` when already made."""
    z = np.empty(x.shape[0], dtype=np.complex128) if out is None else out
    z.imag = _hilbert(x) if hilbert is None else hilbert
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


def _check(decomposition: ImfDecomposition, trim_fraction: float) -> None:
    if decomposition.n_imfs < 1:
        raise ValueError("decomposition has no oscillatory components")
    if not (0.0 <= trim_fraction < 0.5):
        raise ValueError("trim_fraction must be in [0, 0.5)")


def _fill_track(
    imfs, trim_fraction, row, amplitudes, frequencies, periods=None, validity=None
) -> SpectralTrack:
    """The track of the (K, T) components ``imfs``, written into the given
    (K, T) stacks, with the complex row ``row`` of length T holding each
    analytic signal in turn.  ``periods`` and ``validity`` are made when not
    given, once the rows' temporaries are freed, as a fresh track's are."""
    length = imfs.shape[1]
    for index, (imf, amplitude, frequency) in enumerate(zip(imfs, amplitudes, frequencies)):
        if index % 2 == 0:  # the Hilbert transforms of this row and the next
            transforms = _hilbert(imfs[index : index + 2])
        z = _analytic(imf, row, transforms[index % 2])
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

    validity = np.greater(frequencies, 0.0, out=validity)
    if periods is None:
        periods = np.empty_like(frequencies)
    periods.fill(np.nan)
    np.divide(2.0 * np.pi, frequencies, out=periods, where=validity)

    margin = int(trim_fraction * length)
    if margin > 0:
        validity[:, :margin] = False
        validity[:, length - margin :] = False
    return SpectralTrack(amplitudes, frequencies, periods, validity)


def spectral_track(decomposition: ImfDecomposition, trim_fraction: float = 0.0) -> SpectralTrack:
    """Amplitude/frequency/period tracks for every component of a decomposition.

    The residue takes no part.  ``trim_fraction`` flags that fraction of
    samples at each end invalid (0 keeps everything).
    """
    _check(decomposition, trim_fraction)
    imfs = np.asarray(decomposition.imfs, dtype=np.float64)
    row = np.empty(imfs.shape[1], dtype=np.complex128)
    return _fill_track(imfs, trim_fraction, row, np.empty(imfs.shape), np.empty(imfs.shape))


def _retained_track(decomposition: ImfDecomposition, trim_fraction: float = 0.0) -> SpectralTrack:
    """``spectral_track``'s result, with the same bits, built into this
    thread's workspace: its arrays are views that the thread's next call
    overwrites, so the caller must drop the track before calling again."""
    _check(decomposition, trim_fraction)
    imfs = np.asarray(decomposition.imfs, dtype=np.float64)
    n_imfs, length = imfs.shape
    held = getattr(_workspace, "track", None)
    if held is None or n_imfs > held.n_imfs or length > held.length:
        rows, columns = max(n_imfs, default_max_imfs(length)), length
        if held is not None:  # grow only: a shorter series comes back later
            rows, columns = max(rows, held.n_imfs), max(columns, held.length)
        # three float stacks, one bool stack and one complex row
        if rows * columns * 25 + columns * 16 > RETAINED_BYTES_MAX:
            return spectral_track(decomposition, trim_fraction)
        shape = (rows, columns)
        held = _workspace.track = SpectralTrack(
            np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
        )
        _workspace.row = np.empty(columns, dtype=np.complex128)
    stacks = (held.amplitudes, held.frequencies, held.periods, held.validity)
    views = [stack[:n_imfs, :length] for stack in stacks]
    return _fill_track(imfs, trim_fraction, _workspace.row[:length], *views)
