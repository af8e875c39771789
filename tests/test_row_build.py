"""The spectral track and the measures, built one component at a time.

``spectral_track`` transforms, measures and scales each component in its own
row; ``scaling_exponent`` / ``rolling_scaling_exponent`` build each row's
trailing means and logs, once per regression pass, and add the column sums
row by row; ``complexity`` adds its column maximum, totals and entropy terms
row by row.  The references below are the whole-stack formulas those builds
replace: one real FFT pair over the stack, one batched scaling, one batched neighbour
product conj(z[t]) * z[t+1], boolean-indexed periods, whole-stack trailing
sums, logs, shares and entropy terms, and column reductions over axis 0.
Each result must equal its reference bit for bit.  The stacks sit on both
sides of NumPy's 256 KiB temporary-elision size (the conj temporary of the
neighbour product holds K (T - 1) complex values), where the product's
operand order would change if it were written the other way round.
Traced-memory checks bound what each build allocates on an 11 x 10,384
stack, the size of an SLM path's, and what one SLM ensemble path allocates
once its thread holds a track workspace.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from hhtscale import (
    ImfDecomposition,
    SimConfig,
    complexity,
    decompose,
    monte_carlo_ensemble,
    rolling_scaling_exponent,
    scaling_exponent,
    simulate,
    spectral_track,
)
from hhtscale._kernels import available_backends, get_backend

MIN_POINTS = 3


def component_stack(n_imfs: int, length: int, seed: int) -> np.ndarray:
    """Rows like sifted components, highest frequency first: tones of
    doubling period whose amplitude and phase wander, plus a little noise,
    so some samples run backwards in phase and are flagged invalid."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    period = 3.0 * 2.0 ** np.arange(n_imfs)[:, None]
    drift = np.cumsum(rng.standard_normal((n_imfs, length)), axis=1) / np.sqrt(length)
    tones = period**0.5 * np.exp(0.3 * drift) * np.cos(2.0 * np.pi * t / period + drift)
    return tones + 0.05 * rng.standard_normal((n_imfs, length))


def as_decomposition(imfs: np.ndarray) -> ImfDecomposition:
    n_imfs, length = imfs.shape
    return ImfDecomposition(
        imfs=imfs, residue=np.zeros(length), sift_counts=[1] * n_imfs,
        stop_reasons=["oscillatory"] * n_imfs,
    )


def reference_track(imfs: np.ndarray, trim_fraction: float):
    """The whole-stack spectral track: (amplitudes, frequencies, periods,
    validity)."""
    n = imfs.shape[1]
    spec = np.fft.rfft(imfs, axis=1)
    spec *= -1j
    spec[:, 0] = 0.0
    if n % 2 == 0:
        spec[:, -1] = 0.0
    analytic = imfs + 1j * np.fft.irfft(spec, n, axis=1)
    amplitudes = np.abs(analytic)
    exponent = np.frexp(amplitudes.max(axis=1))[1]
    z = analytic * np.ldexp(1.0, np.minimum(-exponent, 1023))[:, None]
    step = np.angle(np.conj(z[:, :-1]) * z[:, 1:])
    frequencies = np.empty_like(amplitudes)
    frequencies[:, 1:-1] = 0.5 * (step[:, :-1] + step[:, 1:])
    frequencies[:, 0] = step[:, 0]
    frequencies[:, -1] = step[:, -1]
    positive = frequencies > 0.0
    periods = np.full_like(frequencies, np.nan)
    periods[positive] = 2.0 * np.pi / frequencies[positive]
    validity = positive.copy()
    margin = int(trim_fraction * n)
    if margin > 0:
        validity[:, :margin] = False
        validity[:, n - margin :] = False
    return amplitudes, frequencies, periods, validity


def reference_regression(ln_a, ln_tau, valid):
    """The whole-stack column regression: (slope, r2, count, defined)."""
    count = valid.sum(axis=0)
    safe = np.maximum(count, 1)
    mean_x = np.where(valid, ln_tau, 0.0).sum(axis=0) / safe
    mean_y = np.where(valid, ln_a, 0.0).sum(axis=0) / safe
    dx = np.where(valid, ln_tau - mean_x, 0.0)
    dy = np.where(valid, ln_a - mean_y, 0.0)
    sxx = (dx * dx).sum(axis=0)
    syy = (dy * dy).sum(axis=0)
    sxy = (dx * dy).sum(axis=0)
    # the used periods must span an octave
    spread = np.where(valid, ln_tau, -np.inf).max(axis=0)
    spread -= np.where(valid, ln_tau, np.inf).min(axis=0)
    defined = (count >= MIN_POINTS) & (sxx > 0.0) & (spread >= np.log(2.0))
    slope = np.full(ln_a.shape[1], np.nan)
    r2 = np.full(ln_a.shape[1], np.nan)
    np.divide(sxy, sxx, out=slope, where=defined)
    denom = sxx * syy
    ok = defined & (denom > 0.0)
    np.divide(sxy * sxy, denom, out=r2, where=ok)
    np.clip(r2, 0.0, 1.0, out=r2)
    r2[defined & ~ok] = 0.0
    return slope, r2, count.astype(np.intp), defined


def reference_scaling(amplitudes, periods, validity):
    valid = validity & (amplitudes > 0.0)
    ln_a = np.log(np.where(valid, amplitudes, 1.0))
    ln_tau = np.log(np.where(valid, periods, 1.0))
    return reference_regression(ln_a, ln_tau, valid)


def reference_rolling(amplitudes, periods, validity, window):
    valid = (validity & (amplitudes > 0.0)).astype(np.float64)
    amp = np.where(valid > 0, amplitudes, 0.0)
    per = np.where(valid > 0, periods, 0.0)

    def trailing_sum(a):
        cs = np.cumsum(a, axis=1)
        out = cs.copy()
        out[:, window:] = cs[:, window:] - cs[:, :-window]
        return out

    counts = trailing_sum(valid)
    amp_bar = np.full_like(amp, np.nan)
    per_bar = np.full_like(per, np.nan)
    have = counts > 0
    np.divide(trailing_sum(amp), counts, out=amp_bar, where=have)
    np.divide(trailing_sum(per), counts, out=per_bar, where=have)
    usable = have & (amp_bar > 0.0)
    usable[:, : window - 1] = False
    usable[:, ~validity.any(axis=0)] = False
    ln_a = np.log(np.where(usable, amp_bar, 1.0))
    ln_tau = np.log(np.where(usable, per_bar, 1.0))
    return reference_regression(ln_a, ln_tau, usable)


def reference_complexity(amplitudes, validity, weight):
    """The whole-stack entropy of the component energy shares: (c_star,
    defined)."""
    amplitudes = np.abs(amplitudes)
    amplitudes = np.ldexp(amplitudes, -np.frexp(amplitudes.max(axis=0))[1])
    w = amplitudes**2 if weight == "squared" else amplitudes
    total = w.sum(axis=0)
    defined = (total > 0.0) & validity.any(axis=0)
    p = np.divide(w, total, out=np.zeros_like(w), where=defined)
    terms = np.zeros_like(p)
    positive = p > 0.0
    np.multiply(p, np.log(p, out=np.zeros_like(p), where=positive), out=terms, where=positive)
    c = -terms.sum(axis=0)
    c[~defined] = np.nan
    return c, defined


def _stacks():
    """(id, imfs): synthetic stacks below and above the elision size, and a
    decomposed fBm path from each backend."""
    for n_imfs, length in ((3, 257), (6, 1950), (11, 10_384)):
        yield f"synthetic-{n_imfs}x{length}", component_stack(n_imfs, length, seed=length)
    x = simulate(SimConfig(process="fbm", length=1950, hurst=0.3, seed=4), 0).values
    for backend in available_backends():
        yield f"fbm-{backend}", decompose(x, backend=get_backend(backend)).imfs


STACKS = dict(_stacks())


@pytest.mark.parametrize("name", list(STACKS))
@pytest.mark.parametrize("trim_fraction", [0.0, 0.1])
def test_row_build_equals_whole_stack_formulas(name, trim_fraction):
    imfs = STACKS[name]
    track = spectral_track(as_decomposition(imfs), trim_fraction)
    expected = reference_track(imfs, trim_fraction)
    got = (track.amplitudes, track.frequencies, track.periods, track.validity)
    for field, a, b in zip(("amplitudes", "frequencies", "periods", "validity"), got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=field == "periods"), field

    amplitudes, _, periods, validity = expected
    checks = [
        (scaling_exponent(track), reference_scaling(amplitudes, periods, validity)),
        (rolling_scaling_exponent(track, 16),
         reference_rolling(amplitudes, periods, validity, 16)),
    ]
    for result, (slope, r2, count, defined) in checks:
        assert np.array_equal(result.h_star, slope, equal_nan=True)
        assert np.array_equal(result.r_squared, r2, equal_nan=True)
        assert np.array_equal(result.points_used, count)
        assert result.points_used.dtype == count.dtype
        assert np.array_equal(result.defined, defined)
        assert result.defined.any()
    for weight in ("squared", "linear"):
        result = complexity(track, weight)
        c_star, defined = reference_complexity(amplitudes, validity, weight)
        assert result.c_star.tobytes() == c_star.tobytes(), weight
        assert np.array_equal(result.defined, defined) and result.defined.any(), weight


@pytest.mark.parametrize("n_imfs, length", [(11, 10_384), (3, 257)])
def test_component_frequencies_do_not_depend_on_the_stack(n_imfs, length):
    # the neighbour product's operand order is fixed, so a component has the
    # same frequency bits alone as among any number of others
    imfs = component_stack(n_imfs, length, seed=length)
    stacked = spectral_track(as_decomposition(imfs)).frequencies
    for k in range(n_imfs):
        alone = spectral_track(as_decomposition(imfs[k : k + 1])).frequencies[0]
        assert alone.tobytes() == stacked[k].tobytes(), k


def _traced_peak(call, *args):
    """Peak bytes that ``call(*args)`` allocates, its result included, above
    what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_row_build_bounds_traced_peak():
    # On this stack the whole-stack forms peaked at 9.2 MB (track), 7.1 MB
    # (scaling), 8.8 MB (rolling, window 30) and 4.8 MB (complexity) above
    # their inputs; the row-wise track at 5.5, the regression with whole-stack
    # logs at 3.2, and the streamed builds at 1.5, 1.6 and 0.8.
    decomposition = as_decomposition(component_stack(11, 10_384, seed=10_384))
    track_peak, track = _traced_peak(spectral_track, decomposition)
    scaling_peak, _ = _traced_peak(scaling_exponent, track)
    rolling_peak, _ = _traced_peak(rolling_scaling_exponent, track, 30)
    complexity_peak, _ = _traced_peak(complexity, track)
    assert track_peak < 6.0e6, track_peak
    assert scaling_peak < 2.0e6, scaling_peak
    assert rolling_peak < 3.6e6, rolling_peak
    assert complexity_peak < 2.0e6, complexity_peak


def test_ensemble_path_bounds_traced_peak():
    # One SLM path: with its components alive through the H* regression, and
    # that regression's whole-stack logs, it peaked at 6.6 MB; freeing the
    # components once the track is built and streaming the logs, at 4.1 MB;
    # with the track built into the thread's retained stacks, at 2.1 MB.  The
    # bound leaves 0.4 MB for NumPy's temporaries.
    config = SimConfig(process="slm", length=10_384, alpha=1.5, seed=4)
    monte_carlo_ensemble(config)  # warm-up: first-call allocations, the workspace
    peak, _ = _traced_peak(monte_carlo_ensemble, config)
    assert peak < 2.5e6, peak
