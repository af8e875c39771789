"""Envelope-sifting decomposition into oscillatory components.

A series is split into a small stack of zero-mean oscillations ("components"
below, stored newest-frequency first) plus a non-oscillating residue.  One
sift step subtracts the mean of the upper/lower extrema envelopes (natural
cubic splines through mirrored extrema); a component is accepted when the
normalized step-to-step change

    sd = sum((h_prev - h_new)**2) / sum(h_prev**2)

drops below a threshold *and* the candidate is properly oscillatory (every
local maximum positive, every local minimum negative), or after
``MAX_SIFT_ITERATIONS`` steps (Huang et al. 1998).  Each envelope is padded
at both ends with ``MIRRORED_EXTREMA`` mirrored extrema (Rilling, Flandrin &
Gonçalvès 2003).  Each accepted component is then centered: its arithmetic
mean is moved into the residue, so components oscillate around zero exactly.
Extraction stops when the residue has fewer than four extrema, when
envelopes can no longer be built, or at the component cap.

Where the stop rule lives: the oscillatory gate runs with the steps, in
``_kernels.sift_to_gate`` (one C call per component on the compiled
backend, which subtracts every step that fails the gate); the SD test, the
iteration cap and the centering are here.  Most steps fail the gate, so the
SD test runs only on the few that pass it.

The additive bookkeeping is exact by construction: components are obtained
by running subtraction from the input, so ``sum(imfs) + residue``
reconstructs the input to float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import MIRRORED_EXTREMA, get_backend, sift_to_gate

__all__ = [
    "EmdConfig",
    "ImfDecomposition",
    "decompose",
    "default_max_imfs",
]

STOP_SD = "sd-threshold"
STOP_MAX_ITER = "max-iterations"
STOP_EXTREMA = "extrema-exhausted"

MIN_LENGTH = 16
MAX_SIFT_ITERATIONS = 100  # sift steps per component before it is taken as is


def default_max_imfs(length: int) -> int:
    """Component cap used when the config leaves it unset: ceil(log2 T) + 2."""
    return int(math.ceil(math.log2(length))) + 2


@dataclass(frozen=True)
class EmdConfig:
    """Sifting parameters.

    max_imfs=None resolves to ``default_max_imfs(len(series))`` at call time.
    The iteration cap and the envelope padding are the fixed
    ``MAX_SIFT_ITERATIONS`` and ``MIRRORED_EXTREMA``.
    """

    sd_threshold: float = 0.2
    max_imfs: int | None = None

    def __post_init__(self):
        if not (self.sd_threshold > 0.0):
            raise ValueError("sd_threshold must be positive")
        if self.max_imfs is not None and self.max_imfs < 1:
            raise ValueError("max_imfs must be >= 1 when given")


@dataclass
class ImfDecomposition:
    """Result of :func:`decompose`.

    imfs : (n_imfs, length) array, highest-frequency component first.
    residue : (length,) array; input minus the component sum.
    sift_counts : sift iterations spent per component.
    stop_reasons : per component, one of "sd-threshold", "max-iterations",
        "extrema-exhausted".
    """

    imfs: np.ndarray
    residue: np.ndarray
    sift_counts: list[int]
    stop_reasons: list[str]

    @property
    def n_imfs(self) -> int:
        return self.imfs.shape[0]

    @property
    def length(self) -> int:
        return self.residue.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Sum of components plus residue (should reproduce the input)."""
        return self.imfs.sum(axis=0) + self.residue


def _sd(h: np.ndarray, env: np.ndarray) -> float:
    """sd of the step from ``h`` to ``h - env``; their difference is exactly
    the envelope mean."""
    denom = float(np.dot(h, h))
    return float(np.dot(env, env)) / denom if denom > 0.0 else 0.0


def decompose(series, config: EmdConfig | None = None, backend=None) -> ImfDecomposition:
    """Decompose a series into oscillatory components plus a residue.

    ``series`` may be a TimeSeries or any 1-D float sequence of length >= 16.
    Deterministic: identical input and config give bit-identical output.
    """
    cfg = config or EmdConfig()
    kernel = backend if backend is not None else get_backend()
    x = np.ascontiguousarray(getattr(series, "values", series), dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("decompose expects a one-dimensional series")
    if x.shape[0] < MIN_LENGTH:
        raise ValueError(f"series too short for decomposition (need >= {MIN_LENGTH})")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    max_imfs = cfg.max_imfs if cfg.max_imfs is not None else default_max_imfs(x.shape[0])
    # Sifting is positively homogeneous, so it runs on x / 2**exponent, whose
    # largest |value| is in [0.5, 1): the squared sums of sd then neither
    # overflow nor underflow, and scaling back by 2**exponent is exact.
    exponent = int(np.frexp(np.abs(x).max(initial=0.0))[1])
    x = np.ldexp(x, -exponent)

    residue = x.copy()
    imfs: list[np.ndarray] = []
    sift_counts: list[int] = []
    stop_reasons: list[str] = []
    # scale-relative floor: once the residue is float dust next to the input,
    # further "components" would be rounding noise
    tiny = 1e-24 * float(np.dot(x, x))

    while len(imfs) < max_imfs:
        if float(np.dot(residue, residue)) <= tiny:
            break
        h = residue  # each step makes a new array; residue is never written
        count = 0
        reason = STOP_MAX_ITER
        while count < MAX_SIFT_ITERATIONS:
            budget = MAX_SIFT_ITERATIONS - count
            steps, h, env = sift_to_gate(h, kernel, budget)
            count += steps
            if env is None:
                if steps < budget:
                    reason = STOP_EXTREMA
                break
            # A finished component swings through zero everywhere: maxima
            # above it, minima below.  Without this gate broadband noise
            # converges after a sift or two and collapses into too few
            # components.  The step that passed it is subtracted either way.
            sd = _sd(h, env)
            h = h - env
            if sd < cfg.sd_threshold:
                reason = STOP_SD
                break
        if count == 0:
            break  # the residue has too few extrema for envelopes: it stays whole
        h -= h.mean()  # the component's offset belongs to the residue
        imfs.append(h)
        sift_counts.append(count)
        stop_reasons.append(reason)
        residue = residue - h

    stack = np.array(imfs) if imfs else np.empty((0, x.shape[0]), dtype=np.float64)
    return ImfDecomposition(
        imfs=np.ldexp(stack, exponent, out=stack),
        residue=np.ldexp(residue, exponent),
        sift_counts=sift_counts,
        stop_reasons=stop_reasons,
    )
