import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import CubicSpline

import hhtscale
from hhtscale import SimConfig, emd, simulate
from hhtscale._kernels import (
    InsufficientExtremaError, available_backends, build, common, envelope_step, get_backend,
    mirror_extrema, numpy_backend, sift_to_gate,
)


def backends():
    return [get_backend(name) for name in available_backends()]


BACKENDS = backends()
IDS = [b.name for b in BACKENDS]


class TestBackendSelection:
    def test_python_always_available(self):
        assert "python" in available_backends()

    def test_compiled_extension_built(self):
        # the build ships the compiled kernels; this guards against silently
        # falling back to the interpreter everywhere
        assert "compiled" in available_backends()

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("HHTSCALE_BACKEND", "python")
        assert get_backend().name == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_backend("fortran")


@pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
class TestFindExtrema:
    def test_simple_wave(self, backend):
        x = np.sin(2 * np.pi * np.arange(256) / 32.0)
        max_pos, max_val, min_pos, min_val = backend.find_extrema(x)
        assert len(max_pos) == 8
        assert len(min_pos) == 8
        assert np.allclose(max_val, 1.0, atol=1e-6)
        assert np.allclose(min_val, -1.0, atol=1e-6)

    def test_endpoints_never_extrema(self, backend):
        x = np.array([5.0, 1.0, 2.0, 1.0, 5.0])
        max_pos, _, min_pos, _ = backend.find_extrema(x)
        assert 0 not in max_pos and len(x) - 1 not in max_pos
        assert 0 not in min_pos and len(x) - 1 not in min_pos

    def test_plateau_floor_midpoint(self, backend):
        # equal-value run of length 2 starting at index 2: midpoint floor = 2
        x = np.array([0.0, 1.0, 3.0, 3.0, 1.0, 2.0, 0.0])
        max_pos, max_val, _, _ = backend.find_extrema(x)
        assert 2 in max_pos
        # run of length 3 at indices 1..3: floor midpoint = 2
        y = np.array([0.0, 4.0, 4.0, 4.0, 1.0, 3.0, 0.0])
        max_pos, _, _, _ = backend.find_extrema(y)
        assert max_pos[0] == 2

    def test_monotone_has_no_extrema(self, backend):
        x = np.linspace(0.0, 1.0, 50)
        max_pos, _, min_pos, _ = backend.find_extrema(x)
        assert len(max_pos) == 0
        assert len(min_pos) == 0


class TestBackendAgreement:
    @pytest.mark.skipif(len(BACKENDS) < 2, reason="single backend build")
    def test_extrema_identical_on_random_walks(self):
        rng = np.random.default_rng(7)
        a, b = BACKENDS[0], BACKENDS[1]
        for trial in range(100):
            x = np.cumsum(rng.standard_normal(rng.integers(16, 400)))
            if trial % 3 == 0:  # force plateaus
                x = np.round(x, 1)
            ra = a.find_extrema(x)
            rb = b.find_extrema(x)
            for left, right in zip(ra, rb):
                assert np.array_equal(left, right)

    @pytest.mark.skipif(len(BACKENDS) < 2, reason="single backend build")
    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(min_value=0, max_value=60),
            elements=st.one_of(
                st.integers(-3, 3).map(float),
                st.sampled_from((np.nan, np.inf, -np.inf)),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
        )
    )
    # a NaN step counts as a fall in both scans
    @example(np.array([0.0, 1.0, np.nan, 1.0, 0.0, 2.0, 0.0]))
    def test_extrema_identical_with_non_finite_samples(self, x):
        a, b = BACKENDS[0], BACKENDS[1]
        with np.errstate(invalid="ignore"):  # inf - inf in the NumPy scan's steps
            found = zip(a.find_extrema(x), b.find_extrema(x))
        for left, right in found:
            assert left.dtype == right.dtype
            assert left.tobytes() == right.tobytes()

    @pytest.mark.skipif(len(BACKENDS) < 2, reason="single backend build")
    def test_extrema_identical_across_scan_blocks(self):
        # sift.c scans 64 steps per block; around one and two blocks and at
        # 10,000 samples, flat, NaN and infinite steps at 62-66 and 126-130,
        # a plateau across a block edge, a leading flat run longer than a
        # block, and a rise and a fall across whole blocks
        a, b = BACKENDS[0], BACKENDS[1]
        rng = np.random.default_rng(28)
        cases = []
        for n in (0, 1, 2, 63, 64, 65, 66, 127, 128, 129, 130, 10_000):
            walk = np.cumsum(rng.standard_normal(n))
            cases.append(walk)
            for edge in (62, 126):
                for special in ("flat", np.nan, np.inf, -np.inf):
                    for at in [[k] for k in range(edge + 1, edge + 6)] + [
                        list(range(edge + 1, edge + 6))
                    ]:
                        x = walk.copy()
                        for k in (k for k in at if k < n):
                            x[k] = x[k - 1] if special == "flat" else special
                        cases.append(x)
            x = walk.copy()
            x[60:70] = x[59] if n > 59 else 0.0
            x[124:134] = x[123] if n > 123 else 0.0
            cases.append(x.copy())
            x[:100] = 0.0
            cases.append(x)
            x = walk.copy()
            ramp = np.r_[np.arange(150), 300 - np.arange(150, 300)] * 0.01
            x[200:500] = ramp[: max(0, n - 200)]
            cases.append(x)
        for _ in range(300):  # mixed elements, as in the Hypothesis case, past 60 samples
            n = int(rng.integers(60, 300))
            x = rng.integers(-3, 4, n).astype(float)
            pick = rng.random(n)
            x[pick < 0.3] = rng.uniform(-1e6, 1e6, int((pick < 0.3).sum()))
            x[pick > 0.97] = rng.choice([np.nan, np.inf, -np.inf], int((pick > 0.97).sum()))
            cases.append(x)
        for x in cases:
            with np.errstate(invalid="ignore"):  # inf - inf in the NumPy scan's steps
                found = zip(a.find_extrema(x), b.find_extrema(x))
            for left, right in found:
                assert left.dtype == right.dtype
                assert left.tobytes() == right.tobytes(), len(x)

    @pytest.mark.skipif(len(BACKENDS) < 2, reason="single backend build")
    def test_spline_agreement(self):
        rng = np.random.default_rng(11)
        a, b = BACKENDS[0], BACKENDS[1]
        for _ in range(100):
            k = int(rng.integers(2, 12))
            knots_x = np.sort(rng.uniform(-5, 50, size=k))
            knots_x += np.arange(k) * 1e-3  # ensure strict ascent
            knots_y = rng.standard_normal(k)
            n = 40
            ya = a.spline_eval(knots_x, knots_y, n)
            yb = b.spline_eval(knots_x, knots_y, n)
            # extrapolated tails can reach ~1e4, so allow a relative term
            assert np.allclose(ya, yb, atol=1e-9, rtol=1e-11)


@pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
class TestSplineEval:
    def test_matches_scipy_natural_spline(self, backend):
        rng = np.random.default_rng(3)
        cases = [
            (np.sort(rng.uniform(-3.0, 30.0, size=9)), rng.standard_normal(9), 25),
            # three knots: a single interior second derivative
            (np.array([2.0, 5.0, 9.0]), np.array([1.0, -2.0, 0.5]), 12),
            # uneven spacing, grid running past both end knots
            (
                np.array([3.5, 4.0, 7.25, 15.0, 16.0, 21.5]),
                np.array([0.3, -1.2, 2.0, 0.1, -0.4, 1.1]),
                26,
            ),
        ]
        for knots_x, knots_y, n in cases:
            ours = backend.spline_eval(knots_x, knots_y, n)
            ref = CubicSpline(knots_x, knots_y, bc_type="natural")(np.arange(n))
            assert np.allclose(ours, ref, atol=1e-9)

    def test_two_knots_is_a_line(self, backend):
        out = backend.spline_eval(
            np.array([-1.0, 3.0]), np.array([0.0, 8.0]), 4
        )
        assert np.allclose(out, 2.0 * np.arange(4) + 2.0)

    def test_interpolates_knots(self, backend):
        knots_x = np.array([0.0, 2.0, 5.0, 7.0])
        knots_y = np.array([1.0, -1.0, 4.0, 0.0])
        out = backend.spline_eval(knots_x, knots_y, 8)
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert out[2] == pytest.approx(-1.0, abs=1e-12)
        assert out[5] == pytest.approx(4.0, abs=1e-12)
        assert out[7] == pytest.approx(0.0, abs=1e-12)


class TestMirrorExtrema:
    def _extrema(self, x):
        return get_backend("python").find_extrema(x)

    def test_knots_cover_and_ascend(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = np.cumsum(rng.standard_normal(200))
            max_pos, max_val, min_pos, min_val = self._extrema(x)
            if len(max_pos) < 2 or len(min_pos) < 2:
                continue
            tmax, vmax, tmin, vmin = mirror_extrema(
                max_pos, max_val, min_pos, min_val, x, 2
            )
            for knots in (tmax, tmin):
                assert np.all(np.diff(knots) > 0)
                assert knots[0] <= 0.0
                assert knots[-1] >= len(x) - 1.0
            assert len(tmax) == len(vmax)
            assert len(tmin) == len(vmin)

    def test_boundary_anchoring_when_endpoint_exceeds_envelope(self):
        # the first sample sits above the first maximum: the upper envelope
        # must anchor at the boundary sample itself
        x = np.array([5.0, 1.0, 2.0, 0.5, 1.5, 0.2, 3.0, 0.1, 2.0, 0.0, 4.0])
        max_pos, max_val, min_pos, min_val = self._extrema(x)
        tmax, vmax, _, _ = mirror_extrema(max_pos, max_val, min_pos, min_val, x, 2)
        assert 0.0 in tmax
        assert vmax[list(tmax).index(0.0)] == 5.0

    def test_requires_two_of_each(self):
        x = np.sin(np.linspace(0, 2 * np.pi, 32))
        max_pos, max_val, min_pos, min_val = self._extrema(x)
        with pytest.raises(Exception):
            mirror_extrema(max_pos[:1], max_val[:1], min_pos, min_val, x, 2)

    def test_knots_pinned(self):
        # SHA-256 of every knot byte over seeded walks and tick-quantized
        # walks (plateaus), for nbsym 1-3; a rewrite of the rules must
        # reproduce the knots bit for bit
        rng = np.random.default_rng(20261018)
        digest = hashlib.sha256()
        for _ in range(150):
            walk = np.cumsum(rng.standard_normal(int(rng.integers(16, 600))))
            for x in (walk, np.round(2.0 * walk) / 2.0):
                extrema = self._extrema(x)
                if len(extrema[0]) < 2 or len(extrema[2]) < 2:
                    continue
                for nbsym in (1, 2, 3):
                    for arr in mirror_extrema(*extrema, x, nbsym):
                        assert arr.dtype == np.float64
                        digest.update(len(arr).to_bytes(4, "little") + arr.tobytes())
        assert digest.hexdigest() == (
            "524a25053df9961e4da981eedd0998c3ec99e5143e5991fbfd0b1abdeeefe2d1"
        )

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(min_value=8, max_value=120),
            elements=st.one_of(
                st.integers(-4, 4).map(float),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_reflection_commutes(self, x, nbsym):
        # mirroring the extrema reflected by t -> end - t gives the knots
        # reflected the same way
        max_pos, max_val, min_pos, min_val = self._extrema(x)
        assume(len(max_pos) >= 2 and len(min_pos) >= 2)
        end = len(x) - 1
        reflected = (end - max_pos[::-1], max_val[::-1], end - min_pos[::-1], min_val[::-1])
        try:
            tmax, vmax, tmin, vmin = mirror_extrema(max_pos, max_val, min_pos, min_val, x, nbsym)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                mirror_extrema(*reflected, x[::-1], nbsym)
            return
        rmax, rvmax, rmin, rvmin = mirror_extrema(*reflected, x[::-1], nbsym)
        assert np.array_equal(rmax, end - tmax[::-1])
        assert np.array_equal(rvmax, vmax[::-1])
        assert np.array_equal(rmin, end - tmin[::-1])
        assert np.array_equal(rvmin, vmin[::-1])

    def test_python_backend_pads_through_common(self, monkeypatch):
        # the package mirror is the Python rule whether or not the library
        # loads, and the NumPy backend's sift steps each pad through it once
        assert mirror_extrema is common.mirror_extrema
        calls = []

        def counting(*args):
            calls.append(args[-1])
            return mirror_extrema(*args)

        monkeypatch.setattr(common, "mirror_extrema", counting)
        x = np.cumsum(np.random.default_rng(8).standard_normal(1000))
        result = emd.decompose(x, backend=numpy_backend)
        assert calls == [emd.MIRRORED_EXTREMA] * sum(result.sift_counts) != []


@st.composite
def _sift_series(draw):
    """Random walks, tick-quantized walks (plateaus) and Cauchy walks
    (spikes) of 16 to 300 samples, scaled by 2**-1000, 1 or 2**1000."""
    n = draw(st.integers(min_value=16, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(("walk", "ticks", "cauchy")))
    x = np.cumsum(rng.standard_cauchy(n) if kind == "cauchy" else rng.standard_normal(n))
    if kind == "ticks":
        x = np.round(4.0 * x) / 4.0
    return np.ldexp(x, draw(st.sampled_from((-1000, 0, 1000))))


# length 16 with exactly two maxima and two minima
_TWO_EACH = np.array([0, 1, 0, -1, 0, 1, 0, -1, -0.5, -0.2, 0, 0.1, 0.2, 0.3, 0.4, 0.5])


class _TwoKernels:
    """A backend with only the two-kernel interface (as perfbench's
    CountingBackend has), counting its ``spline_eval`` calls."""

    def __init__(self, inner):
        self.name = inner.name
        self.find_extrema = inner.find_extrema
        self._spline_eval = inner.spline_eval
        self.spline_calls = 0

    def spline_eval(self, knot_t, knot_v, n_out):
        self.spline_calls += 1
        return self._spline_eval(knot_t, knot_v, n_out)


class _CountingComponent:
    """The compiled backend, counting its ``sift_component`` calls."""

    def __init__(self, inner):
        self.name = inner.name
        self.find_extrema = inner.find_extrema
        self.spline_eval = inner.spline_eval
        self._sift_component = inner.sift_component
        self.component_calls = 0

    def sift_component(self, h, budget):
        self.component_calls += 1
        return self._sift_component(h, budget)


def _sift_outcome(sift, x):
    try:
        steps, h, status = sift(x)
    except RuntimeError as exc:  # a mirror failure
        return type(exc), str(exc)
    assert h.dtype == np.float64
    return steps, h.tobytes(), status


def _decompose_case(case):
    """The series of one case of the decomposition comparisons."""
    if case == "ticks":  # tick-quantized: plateaus in the input
        walk = np.cumsum(np.random.default_rng(4).standard_normal(2000))
        return np.round(4.0 * walk) / 4.0
    if case == "slm-capped":  # its first component stops at the step cap
        return simulate(SimConfig(process="slm", length=3000, seed=1, alpha=1.0 / 0.7)).values
    if case == "exhausted":  # the last component runs out of extrema after a step
        return np.cumsum(np.random.default_rng(6).standard_normal(200))
    process, shape = case
    return simulate(SimConfig(process=process, length=2000, seed=9, **shape)).values


@pytest.mark.skipif("compiled" not in available_backends(), reason="no compiled kernels")
class TestEnvelopeStep:
    """The compiled component sift against the loop of steps composed of
    ``find_extrema``, ``mirror_extrema`` and two ``spline_eval`` calls."""

    @settings(max_examples=300, deadline=None)
    @given(_sift_series())
    @example(_TWO_EACH)
    @example(np.arange(16.0))  # too few extrema
    @example(np.repeat([0.0, 1.0, -1.0, 2.0, -2.0, 1.0, 0.0], 20))  # long plateaus
    # the mirror rule's three branches at each end (common._mirror_left):
    # both ends redone about the boundary
    @example(np.array(
        [-2, -3, -4, -5, -5, -7, -12, -17, -15, -6, -5, 1, -5, -6, 1, 0, -1, -1, -2, -3]
    ) / 4.0)
    # left end inside (about the first extremum), right end outside (the
    # boundary sample is a knot)
    @example(np.array([0, 1, 0, 0, -1, 0, -6, -3, -4, -3, -4, -3, -7, -3, -9, -14]) / 4.0)
    # left end outside, right end inside
    @example(np.array([5, 7, 6, 6, 9, 3, 11, 8, 5, 10, 13, 18, 23, 24, 19, 17]) / 4.0)
    def test_matches_the_composed_step_bit_for_bit(self, x):
        # a budget of one step
        compiled = get_backend("compiled")
        composed = _TwoKernels(compiled)
        want = _sift_outcome(lambda h: sift_to_gate(h, composed, 1), x)
        assert _sift_outcome(lambda h: compiled.sift_component(h, 1), x) == want
        # and the NumPy kernels compose the same bits
        assert _sift_outcome(lambda h: sift_to_gate(h, numpy_backend, 1), x) == want

    def test_too_few_extrema_names_the_counts(self):
        with pytest.raises(InsufficientExtremaError, match="found 1/0"):
            envelope_step(_TWO_EACH[:4], numpy_backend)
        # the component sift reports no step and hands the input back
        steps, h, status = get_backend("compiled").sift_component(_TWO_EACH[:4], 5)
        assert (steps, h.tobytes(), status) == (0, _TWO_EACH[:4].tobytes(), 1)

    @pytest.mark.parametrize("case", [
        pytest.param(("fbm", {"hurst": 0.5}), id="fbm-shape0"),
        pytest.param(("slm", {"alpha": 1.0 / 0.7}), id="slm-shape1"),
        "ticks", "slm-capped", "exhausted",
    ])
    def test_decompose_through_the_two_kernel_interface(self, case):
        x = _decompose_case(case)
        compiled = _CountingComponent(get_backend("compiled"))
        fused = emd.decompose(x, backend=compiled)
        wrapper = _TwoKernels(get_backend("compiled"))
        for other in (emd.decompose(x, backend=wrapper),
                      emd.decompose(x, backend=numpy_backend)):
            assert other.imfs.tobytes() == fused.imfs.tobytes()
            assert other.residue.tobytes() == fused.residue.tobytes()
            assert (other.sift_counts, other.stop_reasons) == (
                fused.sift_counts, fused.stop_reasons,
            )
        # perfbench's traced check: two envelopes per sift iteration
        assert wrapper.spline_calls == 2 * sum(fused.sift_counts)
        # one component call per component, and one more for a residue
        # with too few extrema
        sifted = fused.n_imfs + (fused.n_imfs < emd.default_max_imfs(len(x)))
        assert fused.n_imfs <= compiled.component_calls <= sifted
        if case == "ticks":
            assert np.any(np.diff(x) == 0.0)
        if case == "slm-capped":
            assert fused.stop_reasons[0] == emd.STOP_MAX_ITER
        if case == "exhausted":
            assert fused.stop_reasons[-1] == emd.STOP_EXTREMA and fused.sift_counts[-1] > 0

    @pytest.mark.parametrize("process, shape, length", [
        ("bm", {}, 10_000),
        ("fbm", {"hurst": 0.7}, 10_000),
        ("arfima", {"d": 0.2}, 10_000),
        ("slm", {"alpha": 1.5}, 10_384),
    ])
    def test_decompose_at_the_benchmark_lengths(self, process, shape, length):
        # each ensemble_t10k process at its benchmark length: the one-call
        # sift against the loop of the Python mirror and hht_spline_eval
        x = simulate(SimConfig(process=process, length=length, seed=0, **shape)).values
        fused = emd.decompose(x, backend=get_backend("compiled"))
        composed = emd.decompose(x, backend=_TwoKernels(get_backend("compiled")))
        assert composed.imfs.tobytes() == fused.imfs.tobytes()
        assert composed.residue.tobytes() == fused.residue.tobytes()
        assert (composed.sift_counts, composed.stop_reasons) == (
            fused.sift_counts, fused.stop_reasons,
        )


def _composed_sift(h, budget):
    """The sift spelled out over ``envelope_step`` on the NumPy kernels:
    ``(steps, h, status)``, each step's output ``h - env``."""
    for steps in range(budget):
        try:
            env, oscillatory = envelope_step(h, numpy_backend)
        except InsufficientExtremaError:
            return steps, h, 1
        h = h - env
        if oscillatory:
            return steps + 1, h, 0
    return budget, h, 2


def _first_sift_stopping(x, status):
    """The first residue, peeling components off ``x`` by the composed sift,
    whose sift runs at least one step and stops with ``status``."""
    residue = x
    while True:
        steps, h, stopped = _composed_sift(residue, emd.MAX_SIFT_ITERATIONS)
        assert steps > 0, "no sift stopped with the status"
        if stopped == status:
            return residue
        residue = residue - h


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
@pytest.mark.parametrize("status, x", [
    # a period off the sample grid, so that the envelope mean is not exactly 0
    pytest.param(0, np.sin(2 * np.pi * np.arange(512) / 37 + 0.3), id="gate-tone"),
    pytest.param(1, _decompose_case("exhausted"), id="extrema-exhausted"),
    pytest.param(2, _decompose_case("slm-capped"), id="budget-slm-capped"),
])
def test_sift_to_gate_finishes_the_component_and_names_the_stop(backend, status, x):
    residue = _first_sift_stopping(x, status)
    steps, h, _ = _composed_sift(residue, emd.MAX_SIFT_ITERATIONS)
    got = _sift_outcome(lambda r: sift_to_gate(r, backend, emd.MAX_SIFT_ITERATIONS), residue)
    assert got == (steps, h.tobytes(), status)


def _have_compiler():
    try:
        build.find_compiler()
    except build.BuildError:
        return False
    return True


# sift.c and the sanitizer driver must compile clean as strict C99
_STRICT_FLAGS = (
    "-std=c99", "-Wall", "-Wextra", "-Wpedantic", "-Wshadow", "-Wcast-qual", "-Wvla", "-Werror",
)


class TestLoader:
    """The compiled library's build and lookup (``_kernels.build``)."""

    @pytest.mark.skipif(
        os.path.isabs(shlex.split(sysconfig.get_config_var("CC") or "cc")[0]),
        reason="the interpreter's C compiler is an absolute path, found without PATH",
    )
    def test_no_compiler_falls_back_with_one_warning(self, tmp_path):
        # a copy of the package with no library built, imported with no
        # compiler on PATH, sifts the bits of HHTSCALE_BACKEND=python and of
        # the compiled kernels
        package = Path(hhtscale.__file__).parent
        shutil.copytree(
            package, tmp_path / "hhtscale", ignore=shutil.ignore_patterns("*.so", "__pycache__")
        )
        (tmp_path / "bin").mkdir()
        env = {"PATH": str(tmp_path / "bin"), "PYTHONPATH": str(tmp_path)}
        code = (
            "import hhtscale\n"
            "from hhtscale._kernels import available_backends, get_backend\n"
            "print(available_backends())\n"
            "try:\n"
            "    get_backend('compiled')\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "import hashlib\n"
            "import numpy as np\n"
            "from hhtscale.emd import decompose\n"
            "x = np.cumsum(np.random.default_rng(17).standard_normal(3000))\n"
            "result = decompose(x)\n"
            "digest = hashlib.sha256(result.imfs.tobytes() + result.residue.tobytes())\n"
            "digest.update(repr((result.sift_counts, result.stop_reasons)).encode())\n"
            "print(digest.hexdigest())\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        backends, error, shipped = done.stdout.splitlines()
        assert backends == "('python',)"
        assert "no C compiler found" in error
        x = np.cumsum(np.random.default_rng(17).standard_normal(3000))
        for backend in BACKENDS:
            result = emd.decompose(x, backend=backend)
            digest = hashlib.sha256(result.imfs.tobytes() + result.residue.tobytes())
            digest.update(repr((result.sift_counts, result.stop_reasons)).encode())
            assert digest.hexdigest() == shipped, backend.name
        (warning,) = done.stderr.splitlines()
        assert "compiled sift kernels unavailable" in warning
        assert "no C compiler found" in warning
        assert list((tmp_path / "hhtscale" / "_kernels").glob("*.so")) == []

    def test_flags_keep_results_independent_of_the_host(self):
        assert "-ffp-contract=off" in build.OPT_FLAGS
        assert not {"-ffast-math", "-march=native"} & set(build.OPT_FLAGS)

    @pytest.mark.skipif(not _have_compiler(), reason="no C compiler found")
    def test_source_compiles_without_warnings(self, tmp_path):
        cmd = [
            *build.find_compiler(), *build.OPT_FLAGS, *_STRICT_FLAGS,
            "-fPIC", "-shared", str(build.SOURCE), "-o", str(tmp_path / "sift.so"),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif(not _have_compiler(), reason="no C compiler found")
    def test_entries_run_clean_under_sanitizers(self, tmp_path):
        # tests/sift_driver.c includes sift.c and runs its entries and its
        # mirror on edge inputs; AddressSanitizer and UndefinedBehaviorSanitizer
        # abort on any access past a buffer, leak or undefined operation
        cc = build.find_compiler()
        flags = ["-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
        probe = tmp_path / "probe.c"
        probe.write_text("int main(void) { return 0; }\n")
        made = subprocess.run(
            [*cc, *flags, str(probe), "-o", str(tmp_path / "probe")],
            capture_output=True, text=True, timeout=300,
        )
        if made.returncode != 0 or subprocess.run([str(tmp_path / "probe")]).returncode != 0:
            pytest.skip("no sanitizer runtime for the C compiler")
        driver = tmp_path / "driver"
        made = subprocess.run(
            [
                *cc, *build.OPT_FLAGS, *flags, *_STRICT_FLAGS,
                str(Path(__file__).with_name("sift_driver.c")), "-o", str(driver),
            ],
            capture_output=True, text=True, timeout=300,
        )
        assert made.returncode == 0, made.stderr
        ran = subprocess.run([str(driver)], capture_output=True, text=True, timeout=300)
        assert ran.returncode == 0, ran.stdout + ran.stderr
        assert ran.stdout == "ok\n"

    @pytest.mark.skipif(not _have_compiler(), reason="no C compiler found")
    def test_portable_scan_runs_clean_under_sanitizers(self, tmp_path):
        # with __SSE2__ undefined the scan takes its step bits from the plain
        # loop, on every block, as on a target without SSE2: sift.c compiles
        # clean, and the driver's cases pass under the sanitizers
        cc = build.find_compiler()
        portable = [*build.OPT_FLAGS, *_STRICT_FLAGS, "-U__SSE2__"]
        library = tmp_path / "sift.so"
        made = subprocess.run(
            [*cc, *portable, "-fPIC", "-shared", str(build.SOURCE), "-o", str(library)],
            capture_output=True, text=True, timeout=300,
        )
        assert made.returncode == 0, made.stderr
        flags = ["-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
        probe = tmp_path / "probe.c"
        probe.write_text("int main(void) { return 0; }\n")
        made = subprocess.run(
            [*cc, *flags, str(probe), "-o", str(tmp_path / "probe")],
            capture_output=True, text=True, timeout=300,
        )
        if made.returncode != 0 or subprocess.run([str(tmp_path / "probe")]).returncode != 0:
            pytest.skip("no sanitizer runtime for the C compiler")
        driver = tmp_path / "driver"
        made = subprocess.run(
            [*cc, *portable, *flags, str(Path(__file__).with_name("sift_driver.c")), "-o",
             str(driver)],
            capture_output=True, text=True, timeout=300,
        )
        assert made.returncode == 0, made.stderr
        ran = subprocess.run([str(driver)], capture_output=True, text=True, timeout=300)
        assert ran.returncode == 0, ran.stdout + ran.stderr
        assert ran.stdout == "ok\n"

    @pytest.mark.skipif(
        not _have_compiler() or shutil.which("nm") is None, reason="no C compiler or nm"
    )
    def test_library_exports_three_entries(self, tmp_path):
        # the scan, the spline and the component sift; every helper is static
        library = build.build_library(tmp_path)
        listed = subprocess.run(
            ["nm", "-D", "--defined-only", str(library)], capture_output=True, text=True,
            timeout=60, check=True,
        ).stdout
        functions = {line.split()[-1] for line in listed.splitlines() if line.split()[1] == "T"}
        assert functions == {"hht_find_extrema", "hht_spline_eval", "hht_sift_component"}

    def test_compile_error_is_reported_and_cleaned_up(self, tmp_path):
        failing_cc = [sys.executable, "-c", "import sys; sys.exit('sift.c:9: error: boom')"]
        with pytest.raises(build.BuildError, match="exited 1: sift.c:9: error: boom"):
            build.build_library(tmp_path, compiler=failing_cc)
        assert list(tmp_path.iterdir()) == []

    def test_build_prunes_superseded_libraries(self, tmp_path, monkeypatch):
        # a stand-in compiler that writes an empty library
        touch_cc = [sys.executable, "-c", "import sys; open(sys.argv[sys.argv.index('-o') + 1], 'w')"]
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        stale = ["_sift_0123456789abcdef" + suffix, "_sift_fedcba9876543210" + suffix]
        kept = [
            "_sift_0123456789abcdef.cpython-39-other.so",  # another platform
            build.library_name() + ".x1y2z3.tmp.so",  # another build's temporary
            "_sift_0123456789ABCDEF" + suffix,
            "_sift_0123456789abcde" + suffix,
            "_sift_notes.txt",
        ]
        for name in stale + kept:
            (tmp_path / name).write_text("")
        # one stale library vanishes under a concurrent build's prune
        real_unlink = Path.unlink

        def unlink_raced(path, missing_ok=False):
            real_unlink(path)
            if path.name == stale[0]:
                raise FileNotFoundError(path)

        monkeypatch.setattr(Path, "unlink", unlink_raced)
        target = build.build_library(tmp_path, compiler=touch_cc)
        assert target == tmp_path / build.library_name()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([target.name, *kept])

    @pytest.mark.skipif(not _have_compiler(), reason="no C compiler found")
    def test_concurrent_builds_into_one_directory(self, tmp_path):
        sync, target = tmp_path / "sync", tmp_path / "lib"
        sync.mkdir()
        target.mkdir()
        # each process waits for the other before building, so both compile
        # and both rename into place at about the same time
        code = (
            "import os, sys, time\n"
            "import numpy as np\n"
            "from hhtscale._kernels import build, numpy_backend\n"
            "from hhtscale._kernels.compiled import Kernels\n"
            "sync, target, me = sys.argv[1:]\n"
            "open(os.path.join(sync, me), 'w').close()\n"
            "deadline = time.monotonic() + 60\n"
            "while len(os.listdir(sync)) < 2 and time.monotonic() < deadline:\n"
            "    time.sleep(0.001)\n"
            "kernels = Kernels(build.build_library(target))\n"
            "x = np.cumsum(np.random.default_rng(int(me)).standard_normal(500))\n"
            "for a, b in zip(kernels.find_extrema(x), numpy_backend.find_extrema(x)):\n"
            "    assert np.array_equal(a, b)\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, str(sync), str(target), str(i)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for i in range(2)
        ]
        outputs = [proc.communicate(timeout=180) for proc in procs]
        for proc, (out, err) in zip(procs, outputs):
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        assert [p.name for p in target.iterdir()] == [build.library_name()]

    @pytest.mark.skipif(
        not _have_compiler() or not hasattr(os, "getuid"), reason="no C compiler found"
    )
    def test_read_only_package_dir_builds_in_private_temp_dir(self, tmp_path, monkeypatch):
        import hhtscale._kernels as kernels

        package, temp = tmp_path / "package", tmp_path / "tmp"
        package.mkdir()
        temp.mkdir()
        monkeypatch.setattr(kernels, "_HERE", package)
        real_access = os.access
        # chmod cannot make a directory read-only for root, so say it is
        monkeypatch.setattr(
            os, "access", lambda path, mode: path != package and real_access(path, mode)
        )
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        loaded, reason = kernels._load_compiled()
        assert reason is None
        private = temp / f"hhtscale-kernels-{os.getuid()}"
        assert (private.stat().st_mode & 0o777) == 0o700
        library = private / build.library_name()
        built_at = library.stat().st_mtime_ns
        x = np.cumsum(np.random.default_rng(2).standard_normal(300))
        assert np.array_equal(loaded.find_extrema(x)[0], get_backend("python").find_extrema(x)[0])
        # a second import finds it there instead of building again
        again, reason = kernels._load_compiled()
        assert again is not None and reason is None
        assert library.stat().st_mtime_ns == built_at
        assert list(package.iterdir()) == []


def _kernel_inputs():
    """Seeded series for the extrema scan and knot sets for the spline."""
    rng = np.random.default_rng(20261019)
    series = []
    for length in [*range(17), 10_000]:
        walk = np.cumsum(rng.standard_normal(length))
        series += [walk, np.round(4.0 * walk) / 4.0, np.cumsum(rng.standard_cauchy(length))]
    knots = []
    for k in (2, 3, 4, 7, 40):
        for _ in range(6):
            # non-integer, negative and past both grid ends
            t = np.cumsum(rng.uniform(0.05, 9.0, size=k)) - rng.uniform(-3.0, 12.0)
            v = rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 3)
            knots.append((t, v, int(rng.integers(0, 60))))
    walk = np.cumsum(rng.standard_normal(10_000))
    max_pos, max_val, _, _ = numpy_backend.find_extrema(walk)
    knots.append((max_pos.astype(np.float64), max_val, 10_000))
    return series, knots


def _update(digest, *arrays):
    for arr in arrays:
        arr = np.asarray(arr)
        arr = arr.astype(np.int64) if arr.dtype.kind == "i" else arr.astype(np.float64)
        digest.update(len(arr).to_bytes(4, "little") + arr.tobytes())


class TestPinnedBits:
    """SHA-256 of every output bit of the kernels on seeded inputs; a faster
    rewrite must reproduce them exactly."""

    @pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
    def test_kernel_outputs_pinned(self, backend):
        series, knots = _kernel_inputs()
        digest = hashlib.sha256()
        for x in series:
            _update(digest, *backend.find_extrema(x))
        for t, v, n_out in knots:
            _update(digest, backend.spline_eval(t, v, n_out))
        assert digest.hexdigest() == (
            "a9f7f64e6fd292b0eb75d60a94a1fdf97ecfab54ff128b0b81214a14660fa404"
        )
