"""Envelope-sifting decomposition into oscillatory components.

A series is split into a small stack of zero-mean oscillations ("components"
below, stored newest-frequency first) plus a non-oscillating residue.  One
sift step subtracts the mean of the upper/lower extrema envelopes (natural
cubic splines through mirrored extrema).  A component is sifted until a
step's input is properly oscillatory (every local maximum positive, every
local minimum negative), and that step is subtracted too; a component that
has not passed this gate after ``MAX_SIFT_ITERATIONS`` steps is taken as
the steps left it (Huang et al. 1998; a fixed small sift budget as in Wu &
Huang 2009).  Each envelope is padded at both ends with
``MIRRORED_EXTREMA`` mirrored extrema (Rilling, Flandrin & Gonçalvès 2003).
Each component is then centered: its arithmetic mean is moved into the
residue, so components oscillate around zero exactly.  Extraction stops
when the residue has fewer than four extrema, when envelopes can no longer
be built, or at the component cap.

Each component is one ``_kernels.sift_to_gate`` call (one C call on the
compiled backend), which holds the gate and the step budget; this module
sets the budget and centers each component.

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

STOP_GATE = "oscillatory"
STOP_MAX_ITER = "max-iterations"
STOP_EXTREMA = "extrema-exhausted"

MIN_LENGTH = 16
MAX_SIFT_ITERATIONS = 20  # sift steps per component before it is taken as is


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

    max_imfs: int | None = None

    def __post_init__(self):
        if self.max_imfs is not None and self.max_imfs < 1:
            raise ValueError("max_imfs must be >= 1 when given")


@dataclass
class ImfDecomposition:
    """Result of :func:`decompose`.

    imfs : (n_imfs, length) array, highest-frequency component first.
    residue : (length,) array; input minus the component sum.
    sift_counts : sift iterations spent per component.
    stop_reasons : per component, why its sift stopped: "oscillatory" (a
        step's input passed the gate and that step was subtracted),
        "max-iterations" (``MAX_SIFT_ITERATIONS`` steps were spent: the
        component has not passed the gate) or "extrema-exhausted" (the sift
        ran out of extrema).  On the acceptance ensembles 18-31% of fBm and
        ARFIMA components, and 43-47% of stable Levy ones at 1/alpha = 0.7
        and 0.9, stop at the cap.
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
    # largest |value| is in [0.5, 1): the squared sums below then neither
    # overflow nor underflow, and scaling back by 2**exponent is exact.
    exponent = int(np.frexp(np.abs(x).max(initial=0.0))[1])
    x = np.ldexp(x, -exponent)

    residue = x  # a new array; each component makes the next residue
    imfs: list[np.ndarray] = []
    sift_counts: list[int] = []
    stop_reasons: list[str] = []
    # scale-relative floor: once the residue is float dust next to the input,
    # further "components" would be rounding noise
    tiny = 1e-24 * float(np.dot(x, x))

    while len(imfs) < max_imfs:
        if float(np.dot(residue, residue)) <= tiny:
            break
        # A finished component swings through zero everywhere: maxima above
        # it, minima below.  Sift until a step's input does, within the budget.
        count, h, env = sift_to_gate(residue, kernel, MAX_SIFT_ITERATIONS)
        if count == 0:
            break  # the residue has too few extrema for envelopes: it stays whole
        if env is not None:
            h = h - env  # the step that passed the gate is subtracted too
            reason = STOP_GATE
        elif count < MAX_SIFT_ITERATIONS:
            reason = STOP_EXTREMA
        else:
            reason = STOP_MAX_ITER
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
