"""The package's public surface: every exported name is on purpose."""

from __future__ import annotations

import importlib
from pathlib import Path

import hhtscale

PUBLIC = {
    "ComplexityTrack",
    "DataError",
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
}


def test_public_surface_is_pinned():
    # adding an export, or keeping one that no pipeline path calls, is a
    # deliberate change to this list
    assert len(hhtscale.__all__) == len(PUBLIC)
    assert set(hhtscale.__all__) == PUBLIC
    root = Path(hhtscale.__file__).parent
    for source in sorted(root.rglob("*.py")):
        parts = source.relative_to(root.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(parts))
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
