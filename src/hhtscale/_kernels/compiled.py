"""Compiled sift kernels: ``sift.c`` called through ``ctypes``.

``find_extrema`` and ``spline_eval`` have ``numpy_backend``'s contract,
signatures and return dtypes (see that module for the semantics), and
``envelope_step`` is one sift step's envelope mean in one call, padded with
``common.MIRRORED_EXTREMA`` mirrored extrema, which
``_kernels.envelope_step`` runs where a backend has it.  Every array is
made contiguous float64, checked for shape, or allocated here before its
pointer reaches C.  A kernel with several outputs writes them into one
buffer per dtype, and the arrays returned are views of it.
"""

import ctypes
import os

import numpy as np

from .common import InsufficientExtremaError

__all__ = ["Kernels"]

_PTR = ctypes.c_void_p
_SIZE = ctypes.c_ssize_t  # ptrdiff_t in sift.c
_COUNTS = _SIZE * 2
_STEP_INFO = _SIZE * 3  # maxima, minima, oscillatory
_MIRROR_ERRORS = {
    -1: "mirror padding failed to cover the series",
    -2: "mirror padding produced non-increasing knots",
}
_SCRATCH_ERROR = "spline_eval could not allocate its scratch space"


class Kernels:
    """The kernels of one built library file (see ``build.build_library``)."""

    name = "compiled"

    def __init__(self, path):
        lib = ctypes.CDLL(os.fspath(path))
        self._find = lib.hht_find_extrema
        self._find.argtypes = [_PTR, _SIZE, _SIZE, _PTR, _PTR, _COUNTS]
        self._find.restype = None
        self._spline = lib.hht_spline_eval
        self._spline.argtypes = [_PTR, _PTR, _SIZE, _PTR, _SIZE]
        self._spline.restype = ctypes.c_int
        self._step = lib.hht_sift_step
        self._step.argtypes = [_PTR, _SIZE, _PTR, _STEP_INFO]
        self._step.restype = ctypes.c_int

    def find_extrema(self, x):
        """Locate local maxima/minima of a 1-D array (plateaus count once).

        Returns
        -------
        (max_pos, max_val, min_pos, min_val)
            Integer positions (ascending) and sample values.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("find_extrema expects a one-dimensional array")
        n = x.shape[0]
        cap = n // 2 + 1
        # the maxima in the first cap entries, the minima in the rest
        pos = np.empty(2 * cap, dtype=np.intp)
        val = np.empty(2 * cap, dtype=np.float64)
        counts = _COUNTS()
        self._find(x.ctypes.data, n, cap, pos.ctypes.data, val.ctypes.data, counts)
        nmax, nmin = counts
        return pos[:nmax], val[:nmax], pos[cap:cap + nmin], val[cap:cap + nmin]

    def spline_eval(self, knot_t, knot_v, n_out):
        """Natural cubic spline through (knot_t, knot_v) sampled at 0..n_out-1."""
        t = np.ascontiguousarray(knot_t, dtype=np.float64)
        v = np.ascontiguousarray(knot_v, dtype=np.float64)
        if t.shape[0] < 2:
            raise ValueError("spline_eval needs at least two knots")
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError("spline_eval needs one-dimensional knot arrays of equal length")
        out = np.empty(n_out, dtype=np.float64)
        if self._spline(t.ctypes.data, v.ctypes.data, t.shape[0], out.ctypes.data, out.shape[0]):
            raise MemoryError(_SCRATCH_ERROR)
        return out

    def envelope_step(self, h):
        """The mean of the upper and lower envelopes of ``h``, in one call.

        The same bits as composing ``find_extrema``,
        ``common.mirror_extrema`` and two ``spline_eval`` calls and taking ``(upper + lower) * 0.5``, with
        the same RuntimeError and MemoryError.

        Returns
        -------
        (env, oscillatory) : (ndarray, bool)
            The envelope mean, and whether every maximum of ``h`` is
            positive and every minimum negative.

        Raises
        ------
        InsufficientExtremaError
            When ``h`` has fewer than two maxima or two minima.
        """
        h = np.ascontiguousarray(h, dtype=np.float64)
        if h.ndim != 1:
            raise ValueError("envelope_step expects a one-dimensional array")
        env = np.empty(h.shape[0], dtype=np.float64)
        info = _STEP_INFO()
        status = self._step(h.ctypes.data, h.shape[0], env.ctypes.data, info)
        if status == 1:
            raise InsufficientExtremaError.found(info[0], info[1])
        if status == -3:
            raise MemoryError(_SCRATCH_ERROR)
        if status:
            raise RuntimeError(_MIRROR_ERRORS[status])
        return env, bool(info[2])
