"""hhtscale: adaptive mode decomposition and time-varying scaling analysis.

The package decomposes a noisy series into oscillatory components by
envelope sifting, follows each component's instantaneous amplitude and
frequency through a Hilbert transform, and condenses the result into two
per-sample measures: a local scaling exponent (amplitude-vs-period slope)
and an entropy-like mode-concentration complexity.  Reference simulators
(Brownian and fractional Brownian motion, stable Lévy motion, fractionally
integrated noise) and an intraday panel/reference-band pipeline support
calibration and market-data studies.

Each exported name loads its module on first use (PEP 562), so
``import hhtscale`` costs next to nothing and a program pays only for the
modules it calls.  ``hhtscale.simulate`` is the function, also once the
``hhtscale.simulate`` module has loaded.
"""

import sys
import types

__version__ = "0.1.0"

# the exported names of each submodule
_EXPORTS = {
    "emd": ("ImfDecomposition", "decompose", "default_max_imfs"),
    "intraday": (
        "IntradayPanel", "bm_reference_band", "measure_day_means", "measure_track",
        "outside_band_likelihood", "panelize",
    ),
    "manifest": ("RunManifest", "file_digest"),
    "measures": (
        "ComplexityTrack", "GheResult", "ScalingTrack", "complexity", "generalized_hurst_q1",
        "rolling_scaling_exponent", "scaling_exponent",
    ),
    "series": ("DataError", "TimeSeries", "TradingCalendar", "ingest_prices"),
    "simulate": ("EnsembleStats", "SimConfig", "monte_carlo_ensemble", "simulate"),
    "spectral": ("SpectralTrack", "hilbert_transform", "spectral_track"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["__version__", *_SOURCE])


def __getattr__(name):
    """Load an exported name, or a submodule, on first use."""
    # __import__ rather than importlib.import_module: only the former shows
    # in ``python -X importtime``
    if name in _SOURCE:
        value = getattr(__import__(f"{__name__}.{_SOURCE[name]}", fromlist=[name]), name)
    elif name in _EXPORTS:
        value = __import__(f"{__name__}.{name}", fromlist=["*"])
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """This package's module type.  The import system binds each submodule
    to its name here as the submodule loads; ``simulate`` stays the
    exported function (the module is ``sys.modules["hhtscale.simulate"]``)."""

    def __setattr__(self, name, value):
        if name == "simulate" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
