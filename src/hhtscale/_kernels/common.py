"""Boundary handling shared by the sift backends.

Envelope splines need knots beyond both ends of the data, otherwise the
envelopes sag toward the first/last extremum and the decomposition leaks
low-frequency error into every component.  The classic cure is to mirror a
few extrema past each end.  The rule below follows the widely used scheme
from Rilling's reference implementation, stated once for the left end:

* normally extrema are reflected about the first extremum;
* when the boundary sample pokes beyond the first opposite extremum, the
  reflection axis moves to the boundary sample itself, which then also
  enters as an envelope knot;
* if the mirrored knots still fail to reach past the boundary, the axis is
  moved to the boundary and the reflection is redone.

The right end is the same rule applied to the extrema reflected by
t -> end - t, with its knots reflected back.  Positions are integers held
in floats, far below 2**53, so every reflection is exact and both ends obey
one rule bit for bit.  Only the ``nbsym + 1`` extrema nearest an end take
part, so the rule runs on short Python lists.

``sift.c`` states the rule in C for ``MIRRORED_EXTREMA`` extrema (its static
``mirror_extrema``) inside the compiled component sift; this module pads
every step composed of kernels, and it is the oracle the tests hold the C
steps to.
"""

import numpy as np

__all__ = ["InsufficientExtremaError", "MIRRORED_EXTREMA", "mirror_extrema"]

MIRRORED_EXTREMA = 2  # extrema mirrored past each envelope end; sift.c #defines the same


class InsufficientExtremaError(ValueError):
    """The series lacks the two maxima and two minima envelopes need."""

    @classmethod
    def found(cls, n_maxima, n_minima):
        """The error for a series with these counts of extrema."""
        return cls(f"need >= 2 maxima and >= 2 minima, found {n_maxima}/{n_minima}")


def _mirror_left(max_p, max_v, min_p, min_v, x0, nbsym):
    """Knots mirrored past t = 0.

    Takes lists of the first ``nbsym + 1`` maxima and minima (ascending
    positions) and the boundary sample ``x0``; returns the lists
    ``(tmax, vmax, tmin, vmin)`` of mirrored knots, positions ascending.
    """
    first_is_max = max_p[0] < min_p[0]
    # `a` is the kind of the first extremum, `b` the other kind; `inside`
    # says the boundary sample stays short of the first `b` extremum
    if first_is_max:
        a_p, a_v, b_p, b_v = max_p, max_v, min_p, min_v
        inside = x0 > b_v[0]
    else:
        a_p, a_v, b_p, b_v = min_p, min_v, max_p, max_v
        inside = x0 < b_v[0]
    if inside:
        # reflect about the first extremum
        sym, ka_p, ka_v = a_p[0], a_p[1 : nbsym + 1], a_v[1 : nbsym + 1]
        kb_p, kb_v = b_p[:nbsym], b_v[:nbsym]
        if 2.0 * sym - ka_p[-1] > 0.0 or 2.0 * sym - kb_p[-1] > 0.0:
            # mirrored knots do not reach the boundary; redo about the boundary
            sym, ka_p, ka_v = 0.0, a_p[:nbsym], a_v[:nbsym]
    else:
        # boundary sample acts as an extremum of kind b; reflect about it
        sym, ka_p, ka_v = 0.0, a_p[:nbsym], a_v[:nbsym]
        kb_p, kb_v = [0.0] + b_p[: nbsym - 1], [x0] + b_v[: nbsym - 1]
    ta = [2.0 * sym - p for p in reversed(ka_p)]
    tb = [2.0 * sym - p for p in reversed(kb_p)]
    if first_is_max:
        return ta, ka_v[::-1], tb, kb_v[::-1]
    return tb, kb_v[::-1], ta, ka_v[::-1]


def mirror_extrema(max_pos, max_val, min_pos, min_val, x, nbsym):
    """Extend extrema past both series ends by mirror reflection.

    Parameters
    ----------
    max_pos, max_val : ndarray
        Positions (ascending ints) and values of the local maxima.
    min_pos, min_val : ndarray
        Same for the local minima.
    x : ndarray
        The series being sifted (only the boundary samples are read).
    nbsym : int
        Number of extrema to mirror on each side.

    Returns
    -------
    (tmax, vmax, tmin, vmin) : tuple of float64 ndarrays
        Strictly ascending knot positions/values for the upper and lower
        envelope splines, covering [0, len(x) - 1].
    """
    if len(max_pos) < 2 or len(min_pos) < 2:
        raise ValueError("mirror_extrema needs at least two maxima and two minima")
    if nbsym < 1:
        raise ValueError("nbsym must be >= 1")

    max_pos = np.asarray(max_pos, dtype=np.float64)
    min_pos = np.asarray(min_pos, dtype=np.float64)
    max_val = np.asarray(max_val, dtype=np.float64)
    min_val = np.asarray(min_val, dtype=np.float64)
    end = float(len(x) - 1)
    k = nbsym + 1

    lt_max, lv_max, lt_min, lv_min = _mirror_left(
        max_pos[:k].tolist(), max_val[:k].tolist(),
        min_pos[:k].tolist(), min_val[:k].tolist(), float(x[0]), nbsym,
    )
    # the right end: the left rule on the extrema reflected by t -> end - t
    rt_max, rv_max, rt_min, rv_min = _mirror_left(
        [end - p for p in max_pos[-k:].tolist()[::-1]], max_val[-k:].tolist()[::-1],
        [end - p for p in min_pos[-k:].tolist()[::-1]], min_val[-k:].tolist()[::-1],
        float(x[-1]), nbsym,
    )

    tmax = np.concatenate((lt_max, max_pos, [end - t for t in reversed(rt_max)]))
    vmax = np.concatenate((lv_max, max_val, rv_max[::-1]))
    tmin = np.concatenate((lt_min, min_pos, [end - t for t in reversed(rt_min)]))
    vmin = np.concatenate((lv_min, min_val, rv_min[::-1]))

    if tmax[0] > 0.0 or tmax[-1] < end or tmin[0] > 0.0 or tmin[-1] < end:
        raise RuntimeError("mirror padding failed to cover the series")
    if (tmax[1:] <= tmax[:-1]).any() or (tmin[1:] <= tmin[:-1]).any():
        raise RuntimeError("mirror padding produced non-increasing knots")
    return tmax, vmax, tmin, vmin
