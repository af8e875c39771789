"""Sift kernel backends.

The envelope kernels exist twice: plain C (``sift.c``, called through
``compiled``) for speed, and a numpy implementation
(``numpy_backend``) that runs everywhere and serves as the tests' oracle.

At import the compiled library is looked up under its source-hash name (see
``build``) next to this file, where ``setup.py`` puts it.  If it is not
there, ``sift.c`` is compiled once with the system C compiler into this
directory or, when this directory is not writable, into a private per-user
directory under the system temporary directory, where later imports find
it.  If that fails, one warning gives the reason and the numpy backend is
used.  The ``HHTSCALE_BACKEND`` environment variable (``compiled`` or
``python``) forces a choice.

One component's sift has one entry, :func:`sift_to_gate`: sift steps
from ``h``, through the step whose input passes the oscillatory gate (every
maximum positive, every minimum negative), until ``h`` runs out of extrema
or the step budget is spent, and say which of the three stopped it.  The
compiled backend runs the whole loop in one C call,
``Kernels.sift_component``; the numpy backend, and any backend with only
``find_extrema`` and ``spline_eval``, runs the same loop over
:func:`envelope_step`, the step composed of those two kernels and
``common``'s mirror padding in Python, with the same bits.  The gate and
the budget live here and in ``sift.c``; ``emd.decompose`` sets the budget
(``MAX_SIFT_ITERATIONS``), names the stop status and centers the component.
"""

import logging
import os
import tempfile
from pathlib import Path

from . import build, common, numpy_backend
from .common import MIRRORED_EXTREMA, InsufficientExtremaError, mirror_extrema
from .compiled import Kernels

logger = logging.getLogger(__name__)

_ENV_VAR = "HHTSCALE_BACKEND"
_HERE = Path(__file__).resolve().parent

__all__ = [
    "MIRRORED_EXTREMA", "InsufficientExtremaError", "available_backends", "envelope_step",
    "get_backend", "mirror_extrema", "sift_to_gate",
]


def _private_dir() -> Path:
    """This user's directory for libraries built where ``_HERE`` is
    read-only; refused if another user owns it."""
    if not hasattr(os, "getuid"):
        raise build.BuildError(f"{_HERE} is not writable")
    path = Path(tempfile.gettempdir()) / f"hhtscale-kernels-{os.getuid()}"
    path.mkdir(mode=0o700, exist_ok=True)
    if path.stat().st_uid != os.getuid():
        raise build.BuildError(f"{path} belongs to another user")
    return path


def _load_compiled():
    """``(Kernels, None)``, building the library if need be, or
    ``(None, reason)`` when the compiled kernels are unavailable."""
    try:
        path = _HERE / build.library_name()
        if not path.exists():
            directory = _HERE if os.access(_HERE, os.W_OK) else _private_dir()
            path = directory / path.name
            if not path.exists():
                path = build.build_library(directory)
                logger.info("built the compiled sift kernels: %s", path)
        return Kernels(path), None
    except (build.BuildError, OSError) as exc:
        return None, str(exc)


compiled_backend, _unavailable = _load_compiled()
if compiled_backend is None:
    logger.warning("compiled sift kernels unavailable, using the numpy backend: %s", _unavailable)


def available_backends():
    """Names of the backends usable in this environment."""
    names = ["python"]
    if compiled_backend is not None:
        names.insert(0, "compiled")
    return tuple(names)


def get_backend(name=None):
    """Resolve a backend by name.

    ``None`` (the default) consults ``HHTSCALE_BACKEND`` and falls back to
    the compiled kernels when available, else the numpy implementation.
    """
    if name is None:
        name = os.environ.get(_ENV_VAR, "auto")
    if name in ("auto", ""):
        return compiled_backend if compiled_backend is not None else numpy_backend
    if name == "compiled":
        if compiled_backend is None:
            raise RuntimeError(
                f"compiled backend requested via {_ENV_VAR} but unavailable: {_unavailable}"
            )
        return compiled_backend
    if name == "python":
        return numpy_backend
    raise ValueError(f"unknown sift backend {name!r} (use 'compiled' or 'python')")


def envelope_step(h, backend):
    """``(env, oscillatory)``: the mean of ``h``'s upper and lower envelopes,
    each padded with ``MIRRORED_EXTREMA`` mirrored extrema at each end, and
    whether every maximum of ``h`` is positive and every minimum negative,
    composed of ``backend.find_extrema``, ``common.mirror_extrema`` and two
    ``backend.spline_eval`` calls.  Raises InsufficientExtremaError below two
    maxima or two minima.
    """
    max_pos, max_val, min_pos, min_val = backend.find_extrema(h)
    if len(max_pos) < 2 or len(min_pos) < 2:
        raise InsufficientExtremaError.found(len(max_pos), len(min_pos))
    oscillatory = bool(max_val.min() > 0.0 and min_val.max() < 0.0)
    tmax, vmax, tmin, vmin = common.mirror_extrema(
        max_pos, max_val, min_pos, min_val, h, MIRRORED_EXTREMA
    )
    # the mean built in the upper envelope's array: the bits of
    # 0.5 * (upper + lower) without its two temporaries
    env = backend.spline_eval(tmax, vmax, h.shape[0])
    env += backend.spline_eval(tmin, vmin, h.shape[0])
    env *= 0.5
    return env, oscillatory


def sift_to_gate(h, backend, budget):
    """Sift steps from ``h``, each subtracting its envelope mean, through
    the step whose input is oscillatory (every maximum positive, every
    minimum negative), until ``h`` runs out of extrema, or until ``budget``
    >= 1 steps are spent.  A backend with a ``sift_component`` runs it; any
    other runs this loop over :func:`envelope_step`, with the same bits.

    Returns ``(steps, h, status)``: the steps run, what they left (``h``
    itself when none ran), and why the sift stopped: 0 the gate passed, 1
    too few extrema, 2 the budget was spent.
    """
    component = getattr(backend, "sift_component", None)
    if component is not None:
        return component(h, budget)
    for steps in range(budget):
        try:
            env, oscillatory = envelope_step(h, backend)
        except InsufficientExtremaError:
            return steps, h, 1
        h = h - env
        if oscillatory:
            return steps + 1, h, 0
    return budget, h, 2
