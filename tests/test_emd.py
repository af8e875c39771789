import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hhtscale import SimConfig, emd, simulate
from hhtscale.emd import (
    STOP_EXTREMA,
    STOP_GATE,
    STOP_MAX_ITER,
    decompose,
    default_max_imfs,
)
from hhtscale._kernels import (
    InsufficientExtremaError,
    available_backends,
    envelope_step,
    get_backend,
)


def tone(length, period, amplitude=1.0, phase=0.0):
    return amplitude * np.sin(2 * np.pi * np.arange(length) / period + phase)


class TestConfig:
    def test_defaults(self):
        # max_imfs is decompose's one setting, and it defaults to the cap
        x = np.cumsum(np.random.default_rng(3).standard_normal(256))
        result = decompose(x)
        assert 1 <= result.n_imfs <= default_max_imfs(256)
        assert result.imfs.tobytes() == decompose(x, default_max_imfs(256)).imfs.tobytes()
        assert emd.MAX_SIFT_ITERATIONS == 20
        assert emd.MIRRORED_EXTREMA == 2

    def test_validation(self):
        x = np.cumsum(np.random.default_rng(3).standard_normal(256))
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_imfs must be >= 1"):
                decompose(x, bad)

    def test_default_cap_tracks_log2(self):
        assert default_max_imfs(1024) == 12
        assert default_max_imfs(10_000) == 16


def sift_step(h):
    """The envelope mean of one sift step of ``decompose`` on the default
    backend."""
    env, _ = envelope_step(np.asarray(h, dtype=np.float64), get_backend())
    return env


def relative_change(h, env):
    """How much the step from ``h`` to ``h - env`` changes ``h``:
    sum(env**2) / sum(h**2)."""
    return float(np.dot(env, env) / np.dot(h, h))


class TestEnvelopeMean:
    def test_monotone_input_raises(self):
        with pytest.raises(InsufficientExtremaError):
            sift_step(np.linspace(0, 1, 64))

    def test_tone_envelope_mean_is_small(self):
        env = sift_step(tone(512, 32))
        assert np.abs(env[32:-32]).max() < 1e-3

    def test_offset_appears_in_envelope_mean(self):
        env = sift_step(tone(512, 32) + 3.0)
        assert np.allclose(env[32:-32], 3.0, atol=1e-3)

    @pytest.mark.parametrize("name", available_backends())
    def test_power_of_two_scaling_is_exact(self, name):
        # the envelope kernels are exactly homogeneous under power-of-two
        # scaling, with no overflow or underflow over the whole float range
        kernel = get_backend(name)
        x = np.cumsum(np.random.default_rng(5).standard_normal(512))
        base, _ = envelope_step(x, kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (-1000, 0, 1000):
                env, _ = envelope_step(np.ldexp(x, k), kernel)
                assert env.tobytes() == np.ldexp(base, k).tobytes()


class TestSiftOnce:
    def test_triangle_wave_is_nearly_invariant(self):
        t = np.arange(512)
        x = 2.0 * np.abs((t / 64.0) % 1.0 - 0.5) - 0.5
        assert relative_change(x, sift_step(x)) < 5e-3

    def test_one_sift_removes_constant_offset(self):
        x = tone(512, 32) + 3.0
        env = sift_step(x)
        assert abs((x - env)[64:-64].mean()) < 1e-6
        # removing the offset changes the series a lot
        assert relative_change(x, env) > 0.5

    def test_chirp_sd_decreases_after_early_iterations(self):
        t = np.arange(2048)
        h = np.sin(2 * np.pi * (t / 128.0 + t * t / 2.0e5))
        sds = []
        for _ in range(8):
            env = sift_step(h)
            sds.append(relative_change(h, env))
            h = h - env
        tail = sds[3:]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))


class TestDecompose:
    def test_pure_tone_single_component(self):
        x = tone(1024, 64)
        result = decompose(x)
        assert result.n_imfs == 1
        corr = np.corrcoef(result.imfs[0], x)[0, 1]
        assert corr > 0.99
        assert np.abs(result.residue).max() < 0.05

    def test_constant_input_no_components(self):
        x = np.full(64, 3.25)
        result = decompose(x)
        assert result.n_imfs == 0
        assert np.array_equal(result.residue, x)

    def test_two_tones_separate(self):
        hi = tone(4096, 32)
        lo = tone(4096, 512, amplitude=0.8)
        result = decompose(hi + lo)
        assert result.n_imfs >= 2
        assert np.corrcoef(result.imfs[0], hi)[0, 1] > 0.95
        best_lo = max(
            np.corrcoef(result.imfs[k], lo)[0, 1] for k in range(1, result.n_imfs)
        )
        assert best_lo > 0.95

    def test_completeness_on_mixed_inputs(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            kind = trial % 3
            if kind == 0:
                x = rng.standard_normal(1000)
            elif kind == 1:
                x = tone(1000, 50) + 0.3 * tone(1000, 300, phase=1.0)
            else:
                x = np.cumsum(rng.standard_normal(1000))
            result = decompose(x)
            err = np.abs(result.reconstruct() - x).max()
            assert err / max(np.abs(x).max(), 1e-30) < 1e-10

    def test_white_noise_component_count(self):
        counts = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            result = decompose(rng.standard_normal(10_000))
            counts.append(result.n_imfs)
        assert min(counts) >= 10
        assert max(counts) <= 17

    def test_components_oscillate_around_zero(self):
        rng = np.random.default_rng(9)
        for x in (rng.standard_normal(5000), np.cumsum(rng.standard_normal(5000))):
            result = decompose(x)
            for k in range(result.n_imfs - 1):
                c = result.imfs[k]
                assert abs(c.mean()) <= 1e-3 * c.std()

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2000)
        a = decompose(x)
        b = decompose(x)
        assert np.array_equal(a.imfs, b.imfs)
        assert np.array_equal(a.residue, b.residue)
        assert a.sift_counts == b.sift_counts

    def test_max_imfs_cap(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4096)
        result = decompose(x, max_imfs=3)
        assert result.n_imfs == 3

    def test_stop_reason_vocabulary(self):
        rng = np.random.default_rng(2)
        result = decompose(rng.standard_normal(2048))
        assert {STOP_GATE, STOP_MAX_ITER, STOP_EXTREMA} == {
            "oscillatory", "max-iterations", "extrema-exhausted",
        }
        assert set(result.stop_reasons) <= {STOP_GATE, STOP_MAX_ITER, STOP_EXTREMA}
        assert all(c <= emd.MAX_SIFT_ITERATIONS for c in result.sift_counts)

    def test_iteration_cap_stops_heavy_tailed_sifts(self):
        # stable Levy motion at 1/alpha = 0.7 sifts its first components up
        # to the cap (sift_counts [20, 20, 20, 7, 6, 4, 2, 3])
        cfg = SimConfig(process="slm", length=4096, seed=1, alpha=1.0 / 0.7)
        result = decompose(simulate(cfg, 0).values)
        assert STOP_MAX_ITER in result.stop_reasons
        for count, reason in zip(result.sift_counts, result.stop_reasons):
            assert count <= emd.MAX_SIFT_ITERATIONS
            if reason == STOP_MAX_ITER:
                assert count == emd.MAX_SIFT_ITERATIONS

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(12)
        x = np.cumsum(rng.standard_normal(2048))
        base = decompose(x)
        for factor in (3.0, 1e-300, 1e300):
            scaled = decompose(factor * x)
            assert base.n_imfs == scaled.n_imfs
            # in the input's units, as 3.0 * x is held to atol 1e-9
            assert np.allclose(scaled.imfs / factor, base.imfs, atol=1e-9 / 3.0)
        # power-of-two factors scale every result exactly, on every backend,
        # with no overflow or underflow over the whole float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in available_backends():
                kernel = get_backend(name)
                base = decompose(x, backend=kernel)
                for exponent in (1000, -1000):
                    scaled = decompose(np.ldexp(x, exponent), backend=kernel)
                    assert np.array_equal(scaled.imfs, np.ldexp(base.imfs, exponent)), name
                    assert np.array_equal(
                        scaled.residue, np.ldexp(base.residue, exponent)
                    ), name

    def test_input_validation(self):
        with pytest.raises(ValueError):
            decompose(np.arange(8.0))  # too short
        with pytest.raises(ValueError):
            decompose(np.full(32, np.nan))
        with pytest.raises(ValueError):
            decompose(np.zeros((4, 32)))

    @pytest.mark.skipif(
        len(available_backends()) < 2, reason="single backend build"
    )
    def test_backends_agree_end_to_end(self):
        rng = np.random.default_rng(33)
        x = np.cumsum(rng.standard_normal(4096))
        results = [
            decompose(x, backend=get_backend(name)) for name in available_backends()
        ]
        first = results[0]
        for other in results[1:]:
            assert other.n_imfs == first.n_imfs
            assert np.allclose(other.imfs, first.imfs, atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(min_value=16, max_value=200),
            elements=st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
            ),
        )
    )
    def test_completeness_property(self, x):
        result = decompose(x)
        scale = max(np.abs(x).max(), 1.0)
        assert np.abs(result.reconstruct() - x).max() <= 1e-10 * scale


@pytest.mark.parametrize("name", available_backends())
def test_decompose_outputs_pinned(name):
    # SHA-256 of every output bit of decompose on seeded paths of each
    # process, under the gate-or-20-steps rule; both backends, and any
    # faster sift of the same rule, reproduce them exactly
    digest = hashlib.sha256()
    shapes = {"bm": {}, "fbm": {"hurst": 0.7}, "slm": {"alpha": 1.0 / 0.7}, "arfima": {"d": 0.2}}
    for process, shape in shapes.items():
        config = SimConfig(process=process, length=3000, seed=5, **shape)
        for path in range(2):
            result = decompose(simulate(config, path).values, backend=get_backend(name))
            digest.update(result.imfs.tobytes() + result.residue.tobytes())
            digest.update(repr((result.sift_counts, result.stop_reasons)).encode())
    assert digest.hexdigest() == (
        "52c5ec7646f646d534b0931f7487403550b03755755b2324100be3eb92a58c06"
    )
