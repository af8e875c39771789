"""Compiled sift kernels: ``sift.c`` called through ``ctypes``.

``find_extrema`` and ``spline_eval`` have ``numpy_backend``'s contract,
signatures and return dtypes (see that module for the semantics), and
``sift_component`` sifts one component in one C call, through the step
whose input passes the oscillatory gate, which ``_kernels.sift_to_gate``
runs where a backend has it.  The gate, the step budget and the stop status
live in ``sift.c``; the iteration cap that sets the budget and the
centering stay in ``emd.decompose``.  Every array is made contiguous
float64, checked for shape, or allocated here before its pointer reaches
C.  ``find_extrema`` writes its outputs into one buffer per dtype, and the
arrays it returns are views of it; ``sift_component`` returns the component
in an array of its own, so that a kept component holds no more memory than
its samples.
"""

import ctypes
import os

import numpy as np

__all__ = ["Kernels"]

_PTR = ctypes.c_void_p
_SIZE = ctypes.c_ssize_t  # ptrdiff_t in sift.c
_COUNTS = _SIZE * 2
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
        self._component = lib.hht_sift_component
        self._component.argtypes = [_PTR, _SIZE, _SIZE, _PTR, ctypes.POINTER(_SIZE)]
        self._component.restype = ctypes.c_int

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

    def sift_component(self, h, budget):
        """Sift steps from ``h`` in one call, through the step whose input
        passes the oscillatory gate, until ``h`` runs out of extrema, or
        until ``budget`` steps are spent.

        The same bits, steps, status and errors as ``_kernels.sift_to_gate``
        running its loop over ``find_extrema``, ``common.mirror_extrema`` and
        two ``spline_eval`` calls per step.

        Returns
        -------
        (steps, h, status) : (int, ndarray, int)
            The steps run, what they left, and why the sift stopped: 0 the
            gate passed (every maximum positive, every minimum negative), 1
            too few extrema, 2 the budget was spent.
        """
        h = np.ascontiguousarray(h, dtype=np.float64)
        if h.ndim != 1:
            raise ValueError("sift_component expects a one-dimensional array")
        if budget < 1:
            raise ValueError("sift_component needs a budget of at least one step")
        out = np.empty(h.shape[0], dtype=np.float64)
        steps = _SIZE()
        status = self._component(h.ctypes.data, h.shape[0], budget, out.ctypes.data, steps)
        if status == -3:
            raise MemoryError("sift_component could not allocate its workspace")
        if status < 0:
            raise RuntimeError(_MIRROR_ERRORS[status])
        return steps.value, out, status
