"""Per-sample scaling and complexity measures over a spectral track.

At every time step the components supply paired observations
(amplitude a_k, period tau_k).  Regressing ln a on ln tau across components
yields a local scaling exponent (the slope) — amplitude growing with period
as a power law — together with the regression R^2 and the number of points
used.  A rolling variant smooths amplitudes and periods with a trailing
window first.  The same amplitudes, turned into a normalized energy
distribution across components, give a Shannon-entropy complexity: 0 when
one component holds all energy, ln(n) when energy spreads evenly.

A whole-series comparator is included: the q=1 structure-function scaling
exponent (mean absolute increment vs lag in log-log).

The per-sample measures are streamed one component row at a time: each
pass over the components builds a row's logs, trailing means or energy
shares, adds them into per-sample sums in row order, and drops them, so no
(components, length) temporary is made and the sums have the bits of
reductions over axis 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralTrack

__all__ = [
    "ComplexityTrack",
    "GheResult",
    "ScalingTrack",
    "complexity",
    "generalized_hurst_q1",
    "rolling_scaling_exponent",
    "scaling_exponent",
]

MIN_REGRESSION_POINTS = 3
# the least spread of ln tau a defined regression spans: one octave.  EMD
# acts as a dyadic filter bank (Flandrin, Rilling & Goncalves 2004), so a
# slope that reads a scaling exponent spans at least that.
MIN_LN_TAU_SPREAD = math.log(2.0)


@dataclass
class ScalingTrack:
    """Local scaling exponent per sample.

    h_star / r_squared are NaN where undefined: fewer than three usable
    components, or usable periods that span less than an octave (largest
    ln tau minus smallest below ln 2), where the slope has no leverage;
    ``defined`` carries the same information as a boolean mask;
    ``points_used`` counts the components entering each regression.
    """

    h_star: np.ndarray
    r_squared: np.ndarray
    points_used: np.ndarray
    defined: np.ndarray

    @property
    def length(self) -> int:
        return self.h_star.shape[0]


@dataclass
class ComplexityTrack:
    """Entropy of the component energy distribution per sample."""

    c_star: np.ndarray
    defined: np.ndarray
    n_imfs: int

    @property
    def length(self) -> int:
        return self.c_star.shape[0]


@dataclass(frozen=True)
class GheResult:
    """q=1 structure-function scaling fit."""

    h_g: float
    r_squared: float


def _column_regression(rows, length) -> ScalingTrack:
    """Per-column OLS of ln a on ln tau over the components flagged usable.

    ``rows()`` yields one ``(ln_a, ln_tau, use)`` triple of length-``length``
    rows per component, with ln_a = ln_tau = +0.0 (ln 1) where ``use`` is
    False, so the first pass adds them unmasked.  It is called once per
    pass, so each row's logs are computed again in the second pass and no
    (components, length) stack of them is ever held.  h_star/r_squared are
    NaN where undefined: below three used rows, or where the used ln tau
    span less than ``MIN_LN_TAU_SPREAD``; the first pass keeps their running
    minimum and maximum beside the sums.  Each column sum adds the rows one
    at a time, in row order, as a reduction over axis 0 adds them, so the
    sums have its bits without its whole-stack temporaries; they start from
    -0.0, which leaves the first row's values unchanged.
    """
    count = np.zeros(length, dtype=np.intp)
    sum_x, sum_y = np.full(length, -0.0), np.full(length, -0.0)
    lo, hi = np.full(length, np.inf), np.full(length, -np.inf)
    for y, x, use in rows():
        count += use
        sum_x += x
        sum_y += y
        np.minimum(lo, x, out=lo, where=use)
        np.maximum(hi, x, out=hi, where=use)
    safe = np.maximum(count, 1)
    mean_x = sum_x / safe
    mean_y = sum_y / safe
    sxx, syy, sxy = np.full((3, length), -0.0)
    for y, x, use in rows():
        dx = np.where(use, x - mean_x, 0.0)
        dy = np.where(use, y - mean_y, 0.0)
        sxx += dx * dx
        syy += dy * dy
        sxy += dx * dy

    defined = (count >= MIN_REGRESSION_POINTS) & (sxx > 0.0) & (hi - lo >= MIN_LN_TAU_SPREAD)
    slope = np.full(length, np.nan)
    r2 = np.full(length, np.nan)
    np.divide(sxy, sxx, out=slope, where=defined)
    denom = sxx * syy
    ok = defined & (denom > 0.0)
    np.divide(sxy * sxy, denom, out=r2, where=ok)
    np.clip(r2, 0.0, 1.0, out=r2)
    # zero spread in ln_a: slope 0, no explainable variance
    r2[defined & ~ok] = 0.0
    return ScalingTrack(h_star=slope, r_squared=r2, points_used=count, defined=defined)


def _log_rows(amplitude, period, use):
    """One component's ``(ln_a, ln_tau, use)`` row for
    :func:`_column_regression`: the logs where ``use`` holds, 0 (ln 1)
    elsewhere."""
    return np.log(np.where(use, amplitude, 1.0)), np.log(np.where(use, period, 1.0)), use


def scaling_exponent(track: SpectralTrack) -> ScalingTrack:
    """Per-sample slope of ln(amplitude) against ln(period) across components.

    Components enter a sample's regression when flagged valid there and the
    amplitude is positive.  Fewer than three points, or periods that span
    less than an octave, leave the sample undefined.  Each component's logs
    are taken from its own row, once per regression pass.
    """
    if track.n_imfs < MIN_REGRESSION_POINTS:
        raise ValueError(
            f"scaling exponent needs >= {MIN_REGRESSION_POINTS} components, "
            f"got {track.n_imfs}"
        )

    def rows():
        for amplitude, period, flag in zip(track.amplitudes, track.periods, track.validity):
            yield _log_rows(amplitude, period, flag & (amplitude > 0.0))

    return _column_regression(rows, track.length)


def rolling_scaling_exponent(track: SpectralTrack, window: int) -> ScalingTrack:
    """Scaling exponent from trailing moving averages of amplitude and period.

    Each component's amplitude and period are averaged over the valid
    samples among the last ``window`` ones; the regression then proceeds as
    in :func:`scaling_exponent`.  Samples before the first full window, and
    samples where no component is valid (inside the trimmed margin), are
    undefined.  Each component's trailing sums, means and logs are built
    from its own row, once per regression pass.
    """
    length = track.length
    if not (2 <= window <= length):
        raise ValueError("window must be within [2, series length]")
    live = track.validity.any(axis=0)
    live[: window - 1] = False  # incomplete trailing windows

    def trailing_sum(a):
        cs = np.cumsum(a)
        cs[window:] = cs[window:] - cs[:-window]
        return cs

    def trailing_mean(a, use, counts, have):
        out = np.full(length, np.nan)
        np.divide(trailing_sum(np.where(use, a, 0.0)), counts, out=out, where=have)
        return out

    def rows():
        for amplitude, period, flag in zip(track.amplitudes, track.periods, track.validity):
            use = flag & (amplitude > 0.0)
            counts = trailing_sum(use.astype(np.float64))
            have = counts > 0
            amp_bar = trailing_mean(amplitude, use, counts, have)
            usable = have & (amp_bar > 0.0) & live
            yield _log_rows(amp_bar, trailing_mean(period, use, counts, have), usable)

    return _column_regression(rows, length)


def complexity(track: SpectralTrack, weight: str = "squared") -> ComplexityTrack:
    """Shannon entropy of the component energy distribution per sample.

    ``weight="squared"`` (default) distributes by squared amplitude;
    ``weight="linear"`` by plain amplitude.  Terms with zero weight
    contribute nothing (0*ln 0 = 0).  Samples with no energy at all, or
    where no component is valid (inside the trimmed margin), are undefined.
    The column maximum, the totals and the entropy terms are each
    accumulated one component row at a time, in row order, so they have the
    bits of reductions over axis 0.
    """
    if weight not in ("squared", "linear"):
        raise ValueError("weight must be 'squared' or 'linear'")
    length = track.length
    peak = np.zeros(length)
    for amplitude in track.amplitudes:
        np.maximum(peak, np.abs(amplitude), out=peak)
    # Scale each sample's amplitudes by a power of two (largest in [0.5, 1))
    # so the squares neither overflow nor underflow; the scaling is exact
    # and cancels in the shares.
    exponent = -np.frexp(peak)[1]

    def weights():
        for amplitude in track.amplitudes:
            scaled = np.ldexp(np.abs(amplitude), exponent)
            yield scaled**2 if weight == "squared" else scaled

    total = np.full(length, -0.0)
    for w in weights():
        total += w
    defined = (total > 0.0) & track.validity.any(axis=0)
    entropy = np.full(length, -0.0)
    for w in weights():
        p = np.divide(w, total, out=np.zeros(length), where=defined)
        positive = p > 0.0
        term = np.zeros(length)
        np.multiply(p, np.log(p, out=np.zeros(length), where=positive), out=term, where=positive)
        entropy += term
    c = -entropy
    c[~defined] = np.nan
    return ComplexityTrack(c_star=c, defined=defined, n_imfs=track.n_imfs)


def generalized_hurst_q1(series, tau_max: int = 19) -> GheResult:
    """q=1 structure-function exponent of a path.

    Computes the mean absolute increment E|X(t+tau) - X(t)| for
    tau = 1..tau_max and fits a line to its log-log trend; the slope is the
    scaling exponent.  It holds over the whole float range; a path with a
    non-finite value has a NaN slope and a NaN R^2.
    """
    x = np.asarray(getattr(series, "values", series), dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a 1-D series")
    if tau_max < 2:
        raise ValueError("tau_max must be >= 2")
    if x.shape[0] < 10 * tau_max:
        raise ValueError(
            f"series too short: need >= 10*tau_max = {10 * tau_max} samples, got {x.shape[0]}"
        )
    taus = np.arange(1, tau_max + 1)

    def moments_of(path):
        return np.array([np.mean(np.abs(path[tau:] - path[:-tau])) for tau in taus])

    with np.errstate(over="ignore"):
        moments = moments_of(x)
    if not np.all(np.isfinite(moments)):
        # An increment or a sum overflowed.  The path scaled by a power of
        # two (largest |value| in [0.5, 1)) has the same slope up to
        # rounding, and the scaling is exact; it is taken only here, so
        # that every other path keeps its bits.
        moments = moments_of(np.ldexp(x, -np.frexp(np.abs(x).max())[1]))
    if np.any(moments <= 0.0):
        raise ValueError("degenerate series: zero mean absolute increment at some lag")
    lx = np.log(taus.astype(np.float64))
    ly = np.log(moments)
    dx = lx - lx.mean()
    dy = ly - ly.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    sxy = float(np.dot(dx, dy))
    slope = sxy / sxx
    if math.isnan(slope):  # a non-finite path: no fit, not a perfect one
        r2 = math.nan
    else:
        r2 = 0.0 if syy == 0.0 else min(1.0, (sxy * sxy) / (sxx * syy))
    return GheResult(h_g=float(slope), r_squared=float(r2))

