"""The ensemble worker's per-thread spectral-track workspace.

Each thread builds its ensemble paths' tracks into stacks that it keeps
between paths, grows when a longer series or more components come, and
hands out as ``[:K, :T]`` views.  A path's results must bit-equal those of
a fresh ``spectral_track``, whatever ran in the thread before; they must
outlive the next path; threads must not share stacks; and a series too long
for the retained-size cap must leave nothing retained.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hhtscale import (
    ImfDecomposition,
    SimConfig,
    decompose,
    generalized_hurst_q1,
    monte_carlo_ensemble,
    scaling_exponent,
    simulate,
    spectral_track,
)
from hhtscale import spectral
from hhtscale._kernels import available_backends
from hhtscale.simulate import _ensemble_worker

from conftest import fresh_interpreter

TAU_MAX = 19


def in_new_thread(call, *args):
    """``call(*args)`` in a thread of its own, which starts with no workspace."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(call, *args).result()


def held_shape():
    """The shape of this thread's retained stacks, or None."""
    held = getattr(spectral._workspace, "track", None)
    return None if held is None else held.amplitudes.shape


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("trim_fraction", [0.0, 0.1])
def test_paths_of_changing_length_equal_fresh_tracks(monkeypatch, backend, trim_fraction):
    # grows at 10,384, then hands out smaller views of the same stacks
    monkeypatch.setenv("HHTSCALE_BACKEND", backend)
    configs = [SimConfig(process="bm", length=n, seed=n) for n in (10_000, 10_384, 257, 10_000)]

    def paths():
        out = []
        for config in configs:
            out.append((_ensemble_worker((config, TAU_MAX, trim_fraction, 0)), held_shape()))
        return out

    got = in_new_thread(paths)
    assert [shape for _, shape in got] == [(16, 10_000)] + [(16, 10_384)] * 3
    for config, ((h_star, r_squared, h_g), _) in zip(configs, got):
        x = simulate(config, 0).values
        expected = scaling_exponent(spectral_track(decompose(x), trim_fraction))
        assert h_star.tobytes() == expected.h_star.tobytes(), config.length
        assert r_squared.tobytes() == expected.r_squared.tobytes(), config.length
        assert h_g == generalized_hurst_q1(x, TAU_MAX).h_g, config.length


def test_results_outlive_the_next_path():
    config = SimConfig(process="fbm", length=2_000, hurst=0.7, seed=1)

    def two_paths():
        first = _ensemble_worker((config, TAU_MAX, 0.0, 0))
        kept = [a.copy() for a in first[:2]]
        _ensemble_worker((config, TAU_MAX, 0.0, 1))
        return first, kept

    (h_star, r_squared, _), (h_kept, r_kept) = in_new_thread(two_paths)
    assert h_star.tobytes() == h_kept.tobytes()
    assert r_squared.tobytes() == r_kept.tobytes()


def test_concurrent_threads_give_the_serial_bits():
    # more threads than cores, switching often: each keeps its own stacks
    configs = [
        SimConfig(process="slm", length=10_384, alpha=1.5, seed=3, paths=3),
        SimConfig(process="fbm", length=10_000, hurst=0.3, seed=5, paths=3),
        SimConfig(process="bm", length=2_000, seed=6, paths=3),
        SimConfig(process="arfima", length=5_000, d=0.2, seed=8, paths=3),
    ]
    serial = [in_new_thread(monte_carlo_ensemble, config) for config in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(configs)) as pool:
            futures = [pool.submit(monte_carlo_ensemble, config) for config in configs]
            concurrent = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    fields = ("grand_mean", "grand_std", "mean_r2", "ghe_mean", "ghe_std")
    for a, b in zip(serial, concurrent):
        assert a.mean_hstar_t.tobytes() == b.mean_hstar_t.tobytes(), a.config.process
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


def test_length_above_the_cap_retains_nothing():
    length = 20_000  # 17 stacks of 20,000 samples: 8.8 MB
    rng = np.random.default_rng(0)
    imfs = rng.standard_normal((3, length))
    decomposition = ImfDecomposition(
        imfs=imfs, residue=np.zeros(length), sift_counts=[1] * 3, stop_reasons=["oscillatory"] * 3
    )

    def build():
        return spectral._retained_track(decomposition, 0.05), held_shape()

    track, shape = in_new_thread(build)
    assert shape is None
    expected = spectral_track(decomposition, 0.05)
    for name in ("amplitudes", "frequencies", "periods", "validity"):
        assert getattr(track, name).tobytes() == getattr(expected, name).tobytes(), name


def test_second_path_builds_its_track_without_page_faults():
    # Fresh stacks made the second path's track take 362-471 minor faults
    # (glibc hands the freed stacks back and the next path faults them in);
    # the retained stacks take none.  The whole path's count is not bounded
    # here: on this SLM path the sift's own heap churn still crosses glibc's
    # trim threshold, and the pages it gives back fault in again elsewhere.
    script = (
        "import importlib, resource\n"
        "from hhtscale import SimConfig, monte_carlo_ensemble\n"
        "simulate = importlib.import_module('hhtscale.simulate')\n"
        "build, faults = simulate.spectral_track, []\n"
        "def counted(*args):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    track = build(*args)\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "    return track\n"
        "simulate.spectral_track = counted\n"
        "config = SimConfig(process='slm', length=10_384, alpha=1.5, seed=4)\n"
        "monte_carlo_ensemble(config)\n"
        "monte_carlo_ensemble(config)\n"
        "print(faults[1])\n"
    )
    faults = int(fresh_interpreter(script))
    assert faults < 100, faults
