"""In-memory spans around calls into hhtscale's modules, and what they add up to.

Nothing inside the package is edited.  ``instrument`` swaps the names that
one module looks up in another (``hhtscale.simulate.decompose``,
``hhtscale.cli.ingest_prices`` and so on) for wrappers that open a span,
and restores them on exit.  The sift kernels are counted and timed through
the public ``decompose(..., backend=...)`` argument: the wrapper passes a
``CountingBackend`` around whatever backend ``get_backend()`` resolves, so
the arithmetic, and therefore every output byte, is unchanged.

A span's layer is the module part of its name (``emd.decompose`` belongs
to ``emd``); the root span of an operation is ``op``.  A span's self time
is its duration minus its children's, so per operation the layers' self
times plus the root's own (``trace.unaccounted_ms``) add up to the
operation's traced wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from collections import defaultdict

import numpy as np

ROOT_SPAN = "op"
_NAME, _PARENT, _OP, _START, _END = range(5)


class Tracer:
    """Spans as ``(name, parent index, op id, start, end)``, in start order.

    A span is a list while open and a tuple once closed: the cyclic garbage
    collector stops scanning tuples of plain values, and a traced run holds
    tens of thousands of spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self.decompositions: list[tuple] = []  # (op, input, ImfDecomposition)
        self.defined_shares: list[float] = []  # H* defined share per scaling call

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.op, time.perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        name, parent, op, start, _ = self.spans[index]
        self.spans[index] = (name, parent, op, start, time.perf_counter())
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id):
        """Root span of one operation; every span opened inside carries ``op_id``."""
        self.op = op_id
        index = self.begin(ROOT_SPAN)
        try:
            yield
        finally:
            self.end(index)
            self.op = None

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced


class CountingBackend:
    """A sift backend that times every kernel call as a ``kernels.*`` span."""

    def __init__(self, inner, tracer: Tracer):
        self.name = inner.name
        self.find_extrema = tracer.wrap("kernels.find_extrema", inner.find_extrema)
        self.spline_eval = tracer.wrap("kernels.spline_eval", inner.spline_eval)


# (module, attribute, span name): the calls into each layer that the
# workloads make.  A name imported with ``from x import y`` is looked up in
# the importing module's globals, so each caller's copy is wrapped.
_CALLS = (
    ("hhtscale", "monte_carlo_ensemble", "simulate.monte_carlo_ensemble"),
    ("hhtscale.cli", "run", "cli.run"),
    ("hhtscale.simulate", "simulate", "simulate.simulate"),
    ("hhtscale.simulate", "spectral_track", "spectral.spectral_track"),
    ("hhtscale.simulate", "scaling_exponent", "measures.scaling_exponent"),
    ("hhtscale.simulate", "generalized_hurst_q1", "measures.generalized_hurst_q1"),
    ("hhtscale.intraday", "simulate", "simulate.simulate"),
    ("hhtscale.intraday", "spectral_track", "spectral.spectral_track"),
    ("hhtscale.intraday", "scaling_exponent", "measures.scaling_exponent"),
    ("hhtscale.intraday", "complexity", "measures.complexity"),
    ("hhtscale.cli", "ingest_prices", "series.ingest_prices"),
    ("hhtscale.cli", "spectral_track", "spectral.spectral_track"),
    ("hhtscale.cli", "scaling_exponent", "measures.scaling_exponent"),
    ("hhtscale.cli", "rolling_scaling_exponent", "measures.rolling_scaling_exponent"),
    ("hhtscale.cli", "complexity", "measures.complexity"),
    ("hhtscale.cli", "generalized_hurst_q1", "measures.generalized_hurst_q1"),
    ("hhtscale.cli", "bm_reference_band", "intraday.bm_reference_band"),
    ("hhtscale.cli", "panelize", "intraday.panelize"),
    ("hhtscale.cli", "outside_band_likelihood", "intraday.outside_band_likelihood"),
    ("hhtscale.cli", "file_digest", "manifest.file_digest"),
)
_DECOMPOSE_CALLERS = ("hhtscale.simulate", "hhtscale.intraday", "hhtscale.cli")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's cross-module calls in spans for the duration."""
    from hhtscale._kernels import get_backend
    from hhtscale.emd import decompose
    from hhtscale.manifest import RunManifest

    def traced_decompose(series, config=None, backend=None):
        kernel = CountingBackend(backend if backend is not None else get_backend(), tracer)
        index = tracer.begin("emd.decompose")
        try:
            result = decompose(series, config, kernel)
        finally:
            tracer.end(index)
        tracer.decompositions.append((tracer.op, getattr(series, "values", series), result))
        return result

    def record_defined(args, track):
        tracer.defined_shares.append(float(np.mean(track.defined)))

    saved = []

    def swap(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for module_name, attr, span in _CALLS:
            module = importlib.import_module(module_name)
            on_result = record_defined if attr.endswith("scaling_exponent") else None
            swap(module, attr, tracer.wrap(span, getattr(module, attr), on_result))
        for module_name in _DECOMPOSE_CALLERS:
            swap(importlib.import_module(module_name), "decompose", traced_decompose)
        swap(RunManifest, "write", tracer.wrap("manifest.write", RunManifest.write))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis


def op_breakdown(tracer: Tracer) -> dict:
    """Per operation: wall time, self time per layer, and the root's own time (s)."""
    children = defaultdict(float)
    for span in tracer.spans:
        if span[_PARENT] >= 0:
            children[span[_PARENT]] += span[_END] - span[_START]
    ops: dict = {}
    for index, span in enumerate(tracer.spans):
        self_time = span[_END] - span[_START] - children[index]
        entry = ops.setdefault(span[_OP], {"wall": 0.0, "layers": defaultdict(float), "unaccounted": 0.0})
        if span[_NAME] == ROOT_SPAN:
            entry["wall"] = span[_END] - span[_START]
            entry["unaccounted"] = self_time
        else:
            entry["layers"][span[_NAME].split(".")[0]] += self_time
    return ops


def call_times(tracer: Tracer, ops=None) -> dict[str, list[float]]:
    """Durations (s) of every span, grouped by name, optionally for some ops only."""
    out = defaultdict(list)
    for span in tracer.spans:
        if ops is None or span[_OP] in ops:
            out[span[_NAME]].append(span[_END] - span[_START])
    return out


def child_time(tracer: Tracer, parent_name: str, prefixes: tuple[str, ...]) -> list[float]:
    """For each ``parent_name`` span, the summed duration of its direct
    children whose names start with one of ``prefixes``."""
    totals = {i: 0.0 for i, span in enumerate(tracer.spans) if span[_NAME] == parent_name}
    for span in tracer.spans:
        if span[_PARENT] in totals and span[_NAME].startswith(prefixes):
            totals[span[_PARENT]] += span[_END] - span[_START]
    return [totals[i] for i in sorted(totals)]


def write_spans(tracer: Tracer, path) -> None:
    """Dump every span as one JSON array per line: name, parent, op, start, end."""
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# single-layer timings outside any workload operation


def per_call_us(fn, *args, repeats: int = 40) -> float:
    """Median wall time of ``repeats`` calls, in microseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def kernel_timings(seed: int, length: int) -> dict:
    """Per-call extrema scan, spline envelope and mirror padding on a seeded
    random walk of ``length``, for every backend the environment has."""
    from hhtscale._kernels import available_backends, get_backend, mirror_extrema

    x = np.cumsum(np.random.default_rng(seed).standard_normal(length))
    out = {}
    for name in available_backends():
        backend = get_backend(name)
        extrema = backend.find_extrema(x)
        tmax, vmax, _, _ = mirror_extrema(*extrema, x, 2)
        out[name] = {
            "find_extrema_us": per_call_us(backend.find_extrema, x),
            "spline_eval_us": per_call_us(backend.spline_eval, tmax, vmax, length),
        }
    extrema = get_backend().find_extrema(x)
    out["mirror_extrema_us"] = per_call_us(mirror_extrema, *extrema, x, 2, repeats=200)
    return out


def simulate_timings(seed: int, size: dict) -> dict[str, float]:
    """Median ms per path of each reference process at the ensemble's length."""
    from hhtscale import SimConfig, simulate

    from workloads import ENSEMBLE_MIX

    out = {}
    for process, shape in ENSEMBLE_MIX:
        length = size["slm_length" if process == "slm" else "length"]
        config = SimConfig(process, length, seed=seed, **shape)
        out[process] = per_call_us(simulate, config, 0, repeats=5) / 1e3
    return out
