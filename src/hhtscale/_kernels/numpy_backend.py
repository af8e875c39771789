"""Pure numpy implementation of the sift kernels.

Used when the compiled kernels (``sift.c``) are unavailable or when forced
via the ``HHTSCALE_BACKEND=python`` environment variable, and the reference
the tests hold the compiled kernels to.  The contract is shared with the
compiled backend:

* ``find_extrema`` — strict local extrema; a run of equal samples counts
  once, at the floor-midpoint of the run; series endpoints never qualify.
* ``spline_eval`` — natural cubic spline through the given knots evaluated
  on the integer grid ``0 .. n_out - 1`` (two knots degrade to a line).
"""

import numpy as np

name = "python"

__all__ = ["find_extrema", "spline_eval", "name"]


def find_extrema(x):
    """Locate local maxima/minima of a 1-D array.

    Returns
    -------
    (max_pos, max_val, min_pos, min_val)
        Integer positions (ascending) and sample values.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    d = np.diff(x)
    nz = np.flatnonzero(d)
    empty_i = np.empty(0, dtype=np.intp)
    empty_f = np.empty(0, dtype=np.float64)
    if nz.size < 2:
        return empty_i, empty_f, empty_i.copy(), empty_f.copy()
    # a step that is not a rise (NaN included) is a fall, as in sift.c's scan
    s = np.where(d[nz] > 0.0, 1, -1)
    j = np.flatnonzero(s[:-1] != s[1:])
    if j.size == 0:
        return empty_i, empty_f, empty_i.copy(), empty_f.copy()
    mid = (nz[j] + 1 + nz[j + 1]) // 2
    rising = s[j] > 0
    max_pos = mid[rising].astype(np.intp)
    min_pos = mid[~rising].astype(np.intp)
    return max_pos, x[max_pos], min_pos, x[min_pos]


def spline_eval(knot_t, knot_v, n_out):
    """Natural cubic spline through (knot_t, knot_v) sampled at 0..n_out-1."""
    knot_t = np.asarray(knot_t, dtype=np.float64)
    knot_v = np.asarray(knot_v, dtype=np.float64)
    if knot_t.shape[0] < 2:
        raise ValueError("spline_eval needs at least two knots")
    grid = np.arange(n_out, dtype=np.float64)
    h = np.diff(knot_t)
    slope = np.diff(knot_v) / h
    m = _second_derivatives(h, 6.0 * np.diff(slope), 2.0 * (h[:-1] + h[1:]))
    # segment seg covers t[seg] < i <= t[seg + 1]; the end segments extend
    # past the outer knots
    seg = np.clip(np.searchsorted(knot_t, grid) - 1, 0, h.shape[0] - 1)
    c1 = slope - h * (2.0 * m[:-1] + m[1:]) / 6.0
    c2 = m[:-1] / 2.0
    c3 = (m[1:] - m[:-1]) / (6.0 * h)
    d = grid - knot_t[seg]
    return knot_v[seg] + d * (c1[seg] + d * (c2[seg] + d * c3[seg]))


def _second_derivatives(h, rhs, diag):
    """Natural-spline second derivatives at every knot (zero at both ends).

    Solves the tridiagonal system with sub/super-diagonals ``h[1:-1]`` and
    ``diag`` on the diagonal by the Thomas algorithm, in the order
    ``sift.c`` uses, on Python floats (faster than numpy scalars here).
    """
    h, rhs, diag = h.tolist(), rhs.tolist(), diag.tolist()
    n = len(diag)
    cp = [0.0] * n
    dp = [0.0] * n
    c = d = 0.0
    for idx in range(n):
        w = diag[idx] - h[idx] * c
        c = h[idx + 1] / w
        d = (rhs[idx] - h[idx] * d) / w
        cp[idx] = c
        dp[idx] = d
    m = [0.0] * (n + 2)
    for idx in range(n - 1, -1, -1):
        m[idx + 1] = dp[idx] - cp[idx] * m[idx + 2]
    return np.array(m)
