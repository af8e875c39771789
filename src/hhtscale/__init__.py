"""hhtscale: adaptive mode decomposition and time-varying scaling analysis.

The package decomposes a noisy series into oscillatory components by
envelope sifting, follows each component's instantaneous amplitude and
frequency through a Hilbert transform, and condenses the result into two
per-sample measures: a local scaling exponent (amplitude-vs-period slope)
and an entropy-like mode-concentration complexity.  Reference simulators
(Brownian and fractional Brownian motion, stable Lévy motion, fractionally
integrated noise) and an intraday panel/reference-band pipeline support
calibration and market-data studies.
"""

__version__ = "0.1.0"

from .emd import (  # noqa: E402
    EmdConfig,
    ImfDecomposition,
    decompose,
    default_max_imfs,
)
from .intraday import (  # noqa: E402
    IntradayPanel,
    bm_reference_band,
    measure_day_means,
    measure_track,
    outside_band_likelihood,
    panelize,
)
from .manifest import RunManifest, file_digest  # noqa: E402
from .measures import (  # noqa: E402
    ComplexityTrack,
    GheResult,
    ScalingTrack,
    complexity,
    generalized_hurst_q1,
    rolling_scaling_exponent,
    scaling_exponent,
)
from .series import (  # noqa: E402
    DataError,
    TimeSeries,
    TradingCalendar,
    ingest_prices,
)
from .simulate import (  # noqa: E402
    EnsembleStats,
    SimConfig,
    monte_carlo_ensemble,
    simulate,
)
from .spectral import (  # noqa: E402
    SpectralTrack,
    hilbert_transform,
    spectral_track,
)

__all__ = [
    "ComplexityTrack",
    "DataError",
    "EmdConfig",
    "EnsembleStats",
    "GheResult",
    "ImfDecomposition",
    "IntradayPanel",
    "RunManifest",
    "ScalingTrack",
    "SimConfig",
    "SpectralTrack",
    "TimeSeries",
    "TradingCalendar",
    "__version__",
    "bm_reference_band",
    "complexity",
    "decompose",
    "default_max_imfs",
    "file_digest",
    "generalized_hurst_q1",
    "hilbert_transform",
    "ingest_prices",
    "measure_day_means",
    "measure_track",
    "monte_carlo_ensemble",
    "outside_band_likelihood",
    "panelize",
    "rolling_scaling_exponent",
    "scaling_exponent",
    "simulate",
    "spectral_track",
]
