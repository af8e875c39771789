"""README's invariants as properties of the whole pipeline, on both backends:
the same bits from either backend, scale invariance of ``H*`` and ``C*``, and
only the documented errors on input too plain to analyse."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hhtscale import complexity, decompose, scaling_exponent, spectral_track
from hhtscale._kernels import available_backends, get_backend

BACKENDS = available_backends()
NO_COMPONENTS = "decomposition has no oscillatory components"
TOO_FEW_COMPONENTS = "scaling exponent needs >= 3 components"


@st.composite
def walks(draw):
    """Random, tick-quantized (plateaus), Cauchy (spikes) and block-plateau
    walks of 16 to 1,000 samples."""
    n = draw(st.integers(min_value=16, max_value=1000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(("walk", "ticks", "cauchy", "blocks")))
    if kind == "blocks":
        width = draw(st.integers(min_value=2, max_value=20))
        return np.repeat(np.cumsum(rng.standard_normal(-(-n // width))), width)[:n]
    x = np.cumsum(rng.standard_cauchy(n) if kind == "cauchy" else rng.standard_normal(n))
    return np.round(4.0 * x) / 4.0 if kind == "ticks" else x


def _digest(x, backend):
    """SHA-256 of every output bit of ``decompose``, or its error."""
    try:
        result = decompose(x, backend=get_backend(backend))
    except ValueError as exc:
        return type(exc), str(exc)
    digest = hashlib.sha256(result.imfs.tobytes() + result.residue.tobytes())
    digest.update(repr((result.sift_counts, result.stop_reasons)).encode())
    return digest.hexdigest()


def _pipeline(x, backend):
    """The decomposition, ``H*`` (None below three components) and ``C*``."""
    result = decompose(x, backend=get_backend(backend))
    track = spectral_track(result)
    try:
        hstar = scaling_exponent(track)
    except ValueError as exc:
        assert str(exc).startswith(TOO_FEW_COMPONENTS)
        hstar = None
    return result, hstar, complexity(track)


def _assert_close(base, scaled, values):
    assert np.array_equal(base.defined, scaled.defined)
    diff = np.abs(getattr(base, values) - getattr(scaled, values))[base.defined]
    assert diff.size == 0 or diff.max() < 1e-9


@pytest.mark.skipif(len(BACKENDS) < 2, reason="single backend build")
@settings(max_examples=150, deadline=None)
@given(walks(), st.sampled_from((1.0, 1e300, 1e-300, 2.0**1000, 2.0**-1000)))
def test_backends_give_the_same_bits(x, factor):
    x = x * factor
    assert _digest(x, "compiled") == _digest(x, "python")


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(walks(), st.floats(min_value=-300.0, max_value=300.0), st.integers(-1000, 1000))
def test_measures_are_scale_invariant(backend, x, decades, exponent):
    scaled = x * 10.0**decades
    tiny = np.finfo(np.float64).tiny
    # where the scaled input stays normal, rounding the product is all
    # that changes
    assume(np.all(np.isfinite(scaled)) and np.all((scaled == 0.0) | (np.abs(scaled) >= tiny)))
    try:
        base, base_h, base_c = _pipeline(x, backend)
    except ValueError as exc:
        assert str(exc) == NO_COMPONENTS
        with pytest.raises(ValueError, match=NO_COMPONENTS):
            _pipeline(scaled, backend)
        return
    _, hstar, cstar = _pipeline(scaled, backend)
    _assert_close(base_c, cstar, "c_star")
    assert (hstar is None) == (base_h is None)
    if hstar is not None:
        _assert_close(base_h, hstar, "h_star")
    # a power-of-two factor scales every output exactly
    two = decompose(np.ldexp(x, exponent), backend=get_backend(backend))
    if np.array_equal(np.ldexp(np.ldexp(x, exponent), -exponent), x):  # no bit lost
        assert two.imfs.tobytes() == np.ldexp(base.imfs, exponent).tobytes()
        assert two.residue.tobytes() == np.ldexp(base.residue, exponent).tobytes()
        assert (two.sift_counts, two.stop_reasons) == (base.sift_counts, base.stop_reasons)


finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


@st.composite
def plain_inputs(draw):
    """Length-16 series of any finite values, constant series, and monotone
    series (plateaus included) of 16 to 300 samples."""
    kind = draw(st.sampled_from(("short", "constant", "monotone")))
    if kind == "short":
        return kind, draw(hnp.arrays(np.float64, 16, elements=finite))
    n = draw(st.integers(min_value=16, max_value=300))
    if kind == "constant":
        return kind, np.full(n, draw(finite))
    steps = draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1e6)))
    return kind, np.cumsum(steps) * draw(st.sampled_from((1.0, -1.0, 1e-300, -1e290)))


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(plain_inputs())
def test_plain_inputs_raise_only_documented_errors(backend, case):
    kind, x = case
    try:
        _pipeline(x, backend)
    except ValueError as exc:
        assert str(exc) == NO_COMPONENTS
        return
    assert kind == "short"
