"""Trading-day panels, Brownian reference bands, and outside-band rates.

A per-sample measure track (local scaling exponent or entropy) is cut into
one row per trading day.  Averaging the rows gives the mean intraday
profile; a Monte-Carlo ensemble of Brownian-motion paths pushed through the
identical pipeline gives a 5th-95th percentile reference band for that
profile; the fraction of days falling outside the band at each intraday
index measures how unusual the observed behaviour is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emd import decompose
from .measures import complexity, scaling_exponent
from .series import TradingCalendar
from .simulate import SimConfig, _nan_quiet, check_threads, ordered_map, simulate
from .spectral import spectral_track

__all__ = [
    "IntradayPanel",
    "bm_reference_band",
    "measure_day_means",
    "measure_track",
    "outside_band_likelihood",
    "panelize",
]

MEASURES = ("hstar", "cstar")


@dataclass
class IntradayPanel:
    """Day-by-day view of a measure track.

    matrix : (n_days, width) array, NaN where a day is shorter than the
        widest one or where the measure itself is undefined.
    day_mean : per-index mean over days, skipping NaN.
    lunch_gap : optional (first, last) range of the columns where days
        split into two sessions: the least and greatest of the days' split
        columns, equal when every day splits at the same column.  Samples
        are contiguous across the break, which takes no column of its own,
        so the range only drives plot annotations.

    Reference bands come from :func:`bm_reference_band` and outside-band
    rates from :func:`outside_band_likelihood`.
    """

    matrix: np.ndarray
    day_mean: np.ndarray
    lunch_gap: tuple[int, int] | None = None

    @property
    def n_days(self) -> int:
        return self.matrix.shape[0]

    @property
    def width(self) -> int:
        return self.matrix.shape[1]


def panelize(track, calendar: TradingCalendar) -> IntradayPanel:
    """Cut a per-sample track into one row per trading day.

    ``track`` must cover exactly the samples the calendar indexes.  Shorter
    days are right-padded with NaN; the day-mean skips undefined entries.
    """
    values = np.asarray(track, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("panelize expects a one-dimensional track")
    coverage = calendar.day_slices[-1][1] if calendar.day_slices else 0
    if values.shape[0] != coverage:
        raise ValueError(
            f"track length {values.shape[0]} does not match calendar "
            f"coverage {coverage}"
        )
    lengths = calendar.day_lengths()
    width = int(max(lengths))
    matrix = np.full((calendar.n_days, width), np.nan)
    for row, (start, stop) in enumerate(calendar.day_slices):
        matrix[row, : stop - start] = values[start:stop]

    lunch_gap = None
    if calendar.splits:
        offsets = [split - day[0] for split, day in zip(calendar.splits, calendar.day_slices)]
        lunch_gap = (min(offsets), max(offsets))

    return IntradayPanel(
        matrix=matrix, day_mean=_nan_quiet(np.nanmean, matrix, axis=0), lunch_gap=lunch_gap
    )


def measure_track(x, measure: str, trim_fraction: float = 0.0) -> np.ndarray:
    """Per-sample ``H*`` ("hstar") or ``C*`` ("cstar") track of one series.

    The whole analysis chain: decompose, spectral tracks, then the measure.
    """
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}")
    track = spectral_track(decompose(x), trim_fraction=trim_fraction)
    if measure == "hstar":
        return scaling_exponent(track).h_star
    return complexity(track).c_star


def measure_day_means(
    values,
    n_days: int,
    day_length: int,
    measure: str = "hstar",
    trim_fraction: float = 0.0,
) -> np.ndarray:
    """Day-mean measure profile of one path cut into equal windows.

    Runs the full pipeline (:func:`measure_track`) on the whole path, then
    windows the resulting track -- the windowing applies to the measure,
    not to the data.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.shape[0] != n_days * day_length:
        raise ValueError("path length must equal n_days * day_length")
    per_sample = measure_track(x, measure, trim_fraction)
    return _nan_quiet(np.nanmean, per_sample.reshape(n_days, day_length), axis=0)


def _band_worker(args) -> np.ndarray:
    seed, path_index, n_days, day_length, measure, trim = args
    cfg = SimConfig(process="bm", length=n_days * day_length, seed=seed)
    path = simulate(cfg, path_index=path_index)
    return measure_day_means(path.values, n_days, day_length, measure, trim)


def bm_reference_band(
    day_length: int,
    n_days: int,
    n_sims: int = 100,
    seed: int = 0,
    measure: str = "hstar",
    trim_fraction: float = 0.0,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """5th/95th percentile band of Brownian day-mean measure profiles.

    Each of ``n_sims`` Brownian paths of length ``n_days * day_length`` is
    pushed through the full pipeline; the band brackets the resulting
    day-mean curves per intraday index (linear-interpolated percentiles).
    """
    if n_sims < 10:
        raise ValueError("n_sims must be >= 10")
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}")
    check_threads(threads)
    jobs = [(seed, i, n_days, day_length, measure, trim_fraction) for i in range(n_sims)]
    stack = np.vstack(ordered_map(_band_worker, jobs, threads))
    # a column inside the trimmed margin is NaN on every path and stays NaN
    band_lo, band_hi = _nan_percentiles(stack, (5.0, 95.0))
    return band_lo, band_hi


def _nan_percentiles(stack: np.ndarray, percents) -> np.ndarray:
    """``np.nanpercentile(stack, percents, axis=0)`` with linear
    interpolation, bit for bit, from one sort of the columns, and without
    the ``numpy.ma`` import that NumPy's version makes: one row per percent,
    NaN where a column has no defined value.

    NumPy's arithmetic is kept: the virtual index (count - 1) * q, its
    weight measured from index -1 at the last value, and a lerp that counts
    back from the upper value once the weight reaches 0.5.
    """
    ordered = np.sort(stack, axis=0)  # NaN sorts last
    count = np.count_nonzero(~np.isnan(stack), axis=0)
    defined = count > 0
    count, ordered = count[defined], ordered[:, defined]
    columns = np.arange(count.shape[0])
    out = np.full((len(percents), stack.shape[1]), np.nan)
    for row, quantile in zip(out, np.true_divide(percents, 100)):
        virtual = (count - 1) * quantile
        below = np.floor(virtual)
        last = virtual >= count - 1
        below[last] = -1.0
        weight = virtual - below
        lower = ordered[np.where(last, count - 1, below).astype(np.intp), columns]
        upper = ordered[np.where(last, count - 1, below + 1).astype(np.intp), columns]
        diff = upper - lower
        value = lower + diff * weight
        np.subtract(upper, diff * (1 - weight), out=value, where=weight >= 0.5)
        row[defined] = value
    return out


def outside_band_likelihood(
    matrix: np.ndarray, band_lo: np.ndarray, band_hi: np.ndarray
) -> np.ndarray:
    """Per-index fraction of defined days falling outside [band_lo, band_hi].

    NaN where a column has no defined entries.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    band_lo = np.asarray(band_lo, dtype=np.float64)
    band_hi = np.asarray(band_hi, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be two-dimensional (days x indices)")
    if band_lo.shape != (matrix.shape[1],) or band_hi.shape != (matrix.shape[1],):
        raise ValueError("band length must match the panel's column count")
    defined = ~np.isnan(matrix)
    counts = defined.sum(axis=0)
    below = np.where(defined, matrix < band_lo, False).sum(axis=0)
    above = np.where(defined, matrix > band_hi, False).sum(axis=0)
    out = np.full(matrix.shape[1], np.nan)
    has = counts > 0
    out[has] = (below[has] + above[has]) / counts[has]
    return out
