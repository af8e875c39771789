"""Reference path simulators and the Monte-Carlo scaling ensemble.

Four integrated processes with known scaling behaviour:

* ``bm`` — Brownian motion (unit-variance Gaussian increments, cumsum).
* ``fbm`` — fractional Brownian motion via circulant embedding of
  fractional Gaussian noise (exact covariance, FFT-based).
* ``slm`` — stable Lévy motion: i.i.d. symmetric alpha-stable increments
  drawn by the Chambers–Mallows–Stuck transform, integrated; its
  self-similarity index is 1/alpha.
* ``arfima`` — ARFIMA(0, d, 0) noise, exact by the same circulant
  embedding of its autocovariance, then integrated; long-memory exponent d
  maps to an expected scaling exponent of d + 1/2.

Randomness comes from numpy's counter-based Philox generator; path ``i`` of
a run seeded ``s`` always uses ``SeedSequence(s, spawn_key=(i,))``, so
ensembles are reproducible for any thread count and any path subset.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .emd import decompose
from .measures import generalized_hurst_q1, scaling_exponent
from .series import TimeSeries
from .spectral import spectral_track

__all__ = [
    "EnsembleStats",
    "SimConfig",
    "monte_carlo_ensemble",
    "rng_for_path",
    "simulate",
    "simulate_arfima",
    "simulate_bm",
    "simulate_fbm",
    "simulate_slm",
]

RNG_NAME = "philox"

PROCESSES = ("bm", "fbm", "slm", "arfima")


@dataclass(frozen=True)
class SimConfig:
    """Simulation request: process name, length, seed, and shape parameters."""

    process: str
    length: int
    seed: int = 0
    paths: int = 1
    hurst: float | None = None
    alpha: float | None = None
    d: float | None = None

    def __post_init__(self):
        if self.process not in PROCESSES:
            raise ValueError(f"unknown process {self.process!r} (one of {PROCESSES})")
        if self.length < 2:
            raise ValueError("length must be >= 2")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.process == "fbm":
            if self.hurst is None or not (0.0 < self.hurst < 1.0):
                raise ValueError("fbm requires hurst in (0, 1)")
        if self.process == "slm":
            if self.alpha is None or not (1.0 < self.alpha <= 2.0):
                raise ValueError("slm requires alpha in (1, 2]")
        if self.process == "arfima":
            if self.d is None or not (-0.5 < self.d < 0.5):
                raise ValueError("arfima requires d in (-0.5, 0.5)")


def rng_for_path(seed: int, path_index: int) -> np.random.Generator:
    """Independent counter-derived stream for one path of an ensemble."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(path_index,))))


def simulate_bm(length: int, rng: np.random.Generator) -> np.ndarray:
    """Brownian motion: cumulative sum of standard normal increments."""
    return np.cumsum(rng.standard_normal(length))


@functools.lru_cache(maxsize=8)
def _circulant_root(kind: str, param: float, n: int) -> np.ndarray:
    """Square roots of the circulant embedding's eigenvalues (Davies & Harte
    1987), read-only, for ``n`` samples of "fgn" noise of Hurst exponent
    ``param`` or "arfima" noise of memory ``param``.

    The autocovariance at lags 0..n is embedded in a circulant of size 2n,
    whose FFT eigenvalues are non-negative for these covariances; one below
    ``-1e-8`` times the largest raises ValueError, and rounding noise below
    zero is clipped.  The roots depend only on the arguments, so the last
    few settings are kept: each holds 2n doubles.
    """
    gamma = _fgn_autocovariance(param, n) if kind == "fgn" else _arfima_autocovariance(param, n)
    circ = np.concatenate([gamma, gamma[-2:0:-1]])  # size 2n, fold at lag n
    lam = np.fft.fft(circ).real
    floor = -1e-8 * lam.max()
    if lam.min() < floor:
        raise ValueError(f"circulant embedding failed: eigenvalue {lam.min():.3e} < 0")
    root = np.sqrt(np.clip(lam, 0.0, None))
    root.flags.writeable = False
    return root


def _circulant_noise(root: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact stationary Gaussian noise of n samples from the 2n eigenvalue
    roots of ``_circulant_root``.

    The complex Gaussian weights are Hermitian (w[2n - k] = conj w[k], real
    at 0 and n) and the roots are even, so the inverse FFT is real up to
    rounding; its real part, first n samples, is the path.
    """
    n = root.shape[0] // 2
    w0 = rng.standard_normal()
    wn = rng.standard_normal()
    u = rng.standard_normal(n - 1)
    v = rng.standard_normal(n - 1)
    weights = np.empty(2 * n, dtype=np.complex128)
    weights[0] = w0
    weights[n] = wn
    half = (u + 1j * v) / math.sqrt(2.0)
    weights[1:n] = half
    weights[n + 1 :] = np.conj(half[::-1])
    sample = np.fft.ifft(root * weights) * math.sqrt(2.0 * n)
    return sample.real[:n]


def _fgn_autocovariance(hurst: float, n: int) -> np.ndarray:
    """Fractional Gaussian noise autocovariance at lags 0..n:
    gamma(k) = 0.5*(|k+1|^2H - 2|k|^2H + |k-1|^2H)."""
    k = np.arange(n + 1, dtype=np.float64)
    two_h = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h)


def simulate_fbm(length: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Fractional Brownian motion: integrated exact fractional Gaussian noise."""
    return np.cumsum(_circulant_noise(_circulant_root("fgn", hurst, length), rng))


def simulate_slm(length: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric alpha-stable Lévy motion (standard scale, zero drift).

    Increments use the Chambers–Mallows–Stuck transform; alpha = 2 reduces
    to Gaussian increments of variance 2 (the standard-parameterization
    normal limit).
    """
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size=length)
    w = rng.exponential(1.0, size=length)
    if alpha == 2.0:
        increments = 2.0 * np.sin(u) * np.sqrt(w)
    else:
        increments = (
            np.sin(alpha * u)
            / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
        )
    return np.cumsum(increments)


def _arfima_autocovariance(d: float, n: int) -> np.ndarray:
    """ARFIMA(0, d, 0) autocovariance at lags 0..n for unit innovation variance:
    gamma(0) = Gamma(1-2d) / Gamma(1-d)^2, gamma(k) = gamma(k-1) * (k-1+d) / (k-d)."""
    gamma0 = math.exp(math.lgamma(1.0 - 2.0 * d) - 2.0 * math.lgamma(1.0 - d))
    k = np.arange(1, n + 1, dtype=np.float64)
    return gamma0 * np.concatenate([[1.0], np.cumprod((k - 1.0 + d) / (k - d))])


def simulate_arfima(length: int, d: float, rng: np.random.Generator) -> np.ndarray:
    """Integrated ARFIMA(0, d, 0) path: exact fractionally differenced noise."""
    return np.cumsum(_circulant_noise(_circulant_root("arfima", d, length), rng))


def simulate(config: SimConfig, path_index: int = 0) -> TimeSeries:
    """One path of the configured process as a TimeSeries."""
    rng = rng_for_path(config.seed, path_index)
    if config.process == "bm":
        values = simulate_bm(config.length, rng)
    elif config.process == "fbm":
        values = simulate_fbm(config.length, config.hurst, rng)
    elif config.process == "slm":
        values = simulate_slm(config.length, config.alpha, rng)
    else:
        values = simulate_arfima(config.length, config.d, rng)
    return TimeSeries(values, dt=1.0)


@dataclass
class EnsembleStats:
    """Aggregates of the scaling measure over a simulated ensemble.

    mean_hstar_t : per-sample ensemble mean of the local scaling exponent.
    grand_mean : mean over samples of ``mean_hstar_t`` (the time average of
        the per-sample ensemble mean), not a mean over every defined sample:
        a sample defined on few paths weighs as much as one defined on all.
    grand_std : standard deviation about ``grand_mean`` pooled over every
        defined sample of every path (ddof=1).
    mean_r2 : same double average of the regression R^2 as ``grand_mean``.
    ghe_mean / ghe_std : ensemble mean/std of the whole-path q=1
        structure-function exponent.
    """

    config: SimConfig
    mean_hstar_t: np.ndarray
    grand_mean: float
    grand_std: float
    mean_r2: float
    ghe_mean: float
    ghe_std: float


def check_threads(threads: int) -> None:
    """Reject a worker-process count below one."""
    if threads < 1:
        raise ValueError("threads must be >= 1")


def ordered_map(worker, jobs: list, threads: int) -> list:
    """``[worker(job) for job in jobs]``, on ``min(threads, len(jobs))``
    processes when that is more than one.  Results keep the order of
    ``jobs``, so anything reduced from them is independent of the thread
    count."""
    if threads <= 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    # imported here: a single-process run never pays for the pool's import
    from concurrent.futures import ProcessPoolExecutor
    workers = min(threads, len(jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, jobs, chunksize=max(1, len(jobs) // (4 * workers))))


def _ensemble_worker(args):
    config, tau_max, trim_fraction, path_index = args
    ts = simulate(config, path_index)
    # the components are freed as soon as the track is built, before H*
    track = spectral_track(decompose(ts.values), trim_fraction)
    scaling = scaling_exponent(track)
    ghe = generalized_hurst_q1(ts.values, tau_max)
    return scaling.h_star, scaling.r_squared, ghe.h_g


def monte_carlo_ensemble(
    config: SimConfig,
    tau_max: int = 19,
    trim_fraction: float = 0.0,
    threads: int = 1,
) -> EnsembleStats:
    """Simulate ``config.paths`` paths and aggregate their scaling measures.

    Results are independent of ``threads``: each path's stream derives from
    its index, and reductions run in path order.
    """
    check_threads(threads)
    jobs = [(config, tau_max, trim_fraction, index) for index in range(config.paths)]
    results = ordered_map(_ensemble_worker, jobs, threads)

    hstar = np.stack([r[0] for r in results])  # (paths, T), NaN where undefined
    r2 = np.stack([r[1] for r in results])
    ghe = np.array([r[2] for r in results])

    with np.errstate(invalid="ignore"):
        mean_hstar_t = _nan_quiet(np.nanmean, hstar, axis=0)
        grand_mean = float(_nan_quiet(np.nanmean, mean_hstar_t))
        defined = ~np.isnan(hstar)
        n_defined = int(defined.sum())
        if n_defined > 1:
            dev = np.where(defined, hstar - grand_mean, 0.0)
            grand_std = float(np.sqrt((dev * dev).sum() / (n_defined - 1)))
        else:
            grand_std = float("nan")
        mean_r2 = float(_nan_quiet(np.nanmean, _nan_quiet(np.nanmean, r2, axis=0)))
    ghe_mean = float(ghe.mean())
    ghe_std = float(ghe.std(ddof=1)) if config.paths > 1 else float("nan")
    return EnsembleStats(
        config=config,
        mean_hstar_t=mean_hstar_t,
        grand_mean=grand_mean,
        grand_std=grand_std,
        mean_r2=mean_r2,
        ghe_mean=ghe_mean,
        ghe_std=ghe_std,
    )


def _nan_quiet(reduce, a, *args, **kwargs):
    """``reduce(a, ...)`` for a NumPy nan-reduction such as ``np.nanmean``,
    without its all-NaN RuntimeWarning (all-NaN slices give NaN)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        return reduce(a, *args, **kwargs)


# intraday binds this module's ``simulate`` when it loads.  Loading it here,
# once every name above exists, binds the function itself, never a stand-in
# that a caller puts in this module's place later (a tracer's wrapper would
# otherwise stay bound in intraday after the trace ends).
from . import intraday  # noqa: E402, F401
