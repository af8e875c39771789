/* Compiled sift kernels: extrema scan, natural-spline envelope evaluation
 * and the mirror padding of the envelope knots.
 *
 * Plain C with no Python C-API, called through ctypes by compiled.py, which
 * validates shapes and allocates every output.  The contract (plateaus,
 * endpoints, extrapolation) is numpy_backend.py's and the mirror rule is
 * common.py's; tests/test_kernels.py holds the two implementations of each
 * to it and to each other, bit for bit.
 *
 * Built with the system C compiler by setup.py or, in a source checkout,
 * on first import (build.py).  Never build it with -ffast-math or with
 * floating-point contraction: results must not depend on the host CPU.
 */

#include <stddef.h>
#include <stdlib.h>
#include <string.h>

/* Strict local extrema of x[0..n-1].  A run of equal samples counts once, at
 * the floor-midpoint of the run; the endpoints never qualify.  Maxima go to
 * pos[0..] and val[0..], minima to pos[cap..] and val[cap..], positions
 * ascending, where cap >= n / 2 + 1; the counts go to cnt[0] (maxima) and
 * cnt[1] (minima).
 *
 * The scan has no data-dependent branch: every step stores a candidate at
 * the next free slot of both kinds and advances a count only where the
 * slope turns, and a flat step (d == 0) keeps the last slope through a
 * mask.  Neither kind can turn more than n / 2 times, so the spare store
 * stays inside cap. */
void hht_find_extrema(const double *x, ptrdiff_t n, ptrdiff_t cap,
                      ptrdiff_t *pos, double *val, ptrdiff_t *cnt)
{
    ptrdiff_t i, p, moved, up, keep, last = -1, last_sign = 0, cmax = 0, cmin = 0;
    ptrdiff_t *min_pos = pos + cap;
    double *min_val = val + cap;
    double d;

    for (i = 0; i < n - 1; i++) {
        d = x[i + 1] - x[i];
        moved = d != 0.0;
        up = d > 0.0;
        /* the middle of the run since the last move, where a turn sits */
        p = (last + 1 + i) / 2;
        pos[cmax] = p;
        val[cmax] = x[p];
        min_pos[cmin] = p;
        min_val[cmin] = x[p];
        cmax += (last_sign == 1) & moved & !up;
        cmin += (last_sign == -1) & up;
        keep = moved - 1; /* all ones on a flat step */
        last_sign = ((2 * up - 1) & ~keep) | (last_sign & keep);
        last = (i & ~keep) | (last & keep);
    }
    cnt[0] = cmax;
    cnt[1] = cmin;
}

/* Natural cubic spline through the k >= 2 knots (t, v), t ascending,
 * evaluated on the integer grid 0 .. n_out - 1 into out (two knots give a
 * line).  Grid point i lies in segment s when t[s] < i <= t[s + 1]; the end
 * segments extend past the outer knots.  Returns 0, or -1 when scratch
 * memory cannot be allocated. */
int hht_spline_eval(const double *t, const double *v, ptrdiff_t k,
                    double *out, ptrdiff_t n_out)
{
    ptrdiff_t i, idx, s, *first;
    double slope, tt, d, w, r, bb, lim;
    double *h, *sl, *m, *cp, *dp, *c1, *c2, *c3;

    if (k == 2) {
        slope = (v[1] - v[0]) / (t[1] - t[0]);
        for (i = 0; i < n_out; i++)
            out[i] = v[0] + slope * ((double)i - t[0]);
        return 0;
    }

    /* one block: h, sl, c1, c2, c3 [k - 1], m [k], cp, dp [k - 2], then
     * first [n_out + 1] */
    h = malloc((size_t)(8 * k - 9) * sizeof(double) + (size_t)(n_out + 1) * sizeof(ptrdiff_t));
    if (h == NULL)
        return -1;
    sl = h + (k - 1);
    c1 = sl + (k - 1);
    c2 = c1 + (k - 1);
    c3 = c2 + (k - 1);
    m = c3 + (k - 1);
    cp = m + k;
    dp = cp + (k - 2);
    first = (ptrdiff_t *)(dp + (k - 2));

    for (i = 0; i < k - 1; i++) {
        h[i] = t[i + 1] - t[i];
        sl[i] = (v[i + 1] - v[i]) / h[i];
    }

    /* Second derivatives m[1..k-2] (m[0] = m[k-1] = 0) from the tridiagonal
     * system, by the Thomas algorithm. */
    bb = 2.0 * (h[0] + h[1]);
    cp[0] = h[1] / bb;
    dp[0] = 6.0 * (sl[1] - sl[0]) / bb;
    for (idx = 1; idx < k - 2; idx++) {
        i = idx + 1;
        r = 6.0 * (sl[i] - sl[i - 1]);
        bb = 2.0 * (h[i - 1] + h[i]);
        w = bb - h[i - 1] * cp[idx - 1];
        cp[idx] = h[i] / w;
        dp[idx] = (r - h[i - 1] * dp[idx - 1]) / w;
    }
    m[0] = 0.0;
    m[k - 1] = 0.0;
    m[k - 2] = dp[k - 3];
    for (idx = k - 4; idx >= 0; idx--)
        m[idx + 1] = dp[idx] - cp[idx] * m[idx + 2];

    for (s = 0; s < k - 1; s++) {
        c1[s] = sl[s] - h[s] * (2.0 * m[s] + m[s + 1]) / 6.0;
        c2[s] = m[s] / 2.0;
        c3[s] = (m[s + 1] - m[s]) / (6.0 * h[s]);
    }

    /* The segment map: segment s + 1 begins at the first grid point past
     * t[s + 1], so first[i] counts the segments that begin at i, and a
     * running sum of it is each point's segment.  Knots are compared in
     * double before any cast, so no out-of-range or non-finite value is
     * converted to an integer. */
    memset(first, 0, (size_t)(n_out + 1) * sizeof(ptrdiff_t));
    lim = (double)n_out;
    for (i = 1; i < k - 1; i++) {
        tt = t[i];
        first[tt < 0.0 ? 0 : tt < lim ? (ptrdiff_t)tt + 1 : n_out]++;
    }
    s = 0;
    for (i = 0; i < n_out; i++) {
        s += first[i];
        d = (double)i - t[s];
        out[i] = v[s] + d * (c1[s] + d * (c2[s] + d * c3[s]));
    }
    free(h);
    return 0;
}

/* Extrema of one kind as seen from one end of the series: the j-th nearest
 * that end sits at distance at(j) from it.  From the right end that is the
 * reflection end - t. */
typedef struct {
    const double *t, *v;
    ptrdiff_t n;
    double end;
    int right;
} side;

static double at(const side *s, ptrdiff_t j)
{
    return s->right ? s->end - s->t[s->n - 1 - j] : s->t[j];
}

static double value_at(const side *s, ptrdiff_t j)
{
    return s->v[s->right ? s->n - 1 - j : j];
}

static ptrdiff_t min_size(ptrdiff_t a, ptrdiff_t b)
{
    return a < b ? a : b;
}

/* Knots of one kind mirrored about distance sym: extrema lo .. lo + n - 1
 * counted from the end, after the boundary sample (distance 0, value x0)
 * when boundary is set.  Writes them to (t, v) in ascending position and
 * returns how many. */
static ptrdiff_t put_mirrored(const side *s, ptrdiff_t lo, ptrdiff_t n, int boundary,
                              double sym, double x0, double *t, double *v)
{
    ptrdiff_t i, j, count = n + boundary;
    double p, mirrored;

    for (i = 0; i < count; i++) {
        /* knots ascend outward from the right end and inward from the left */
        j = s->right ? i : count - 1 - i;
        p = boundary && j == 0 ? 0.0 : at(s, lo + j - boundary);
        mirrored = 2.0 * sym - p;
        t[i] = s->right ? s->end - mirrored : mirrored;
        v[i] = boundary && j == 0 ? x0 : value_at(s, lo + j - boundary);
    }
    return count;
}

/* Rilling's rule at one end, stated for the left end as in common.py (the
 * right end sees the extrema reflected by t -> end - t).  x0 is the end's
 * boundary sample.  Writes the mirrored maxima to (tmax, vmax) and minima
 * to (tmin, vmin), positions ascending, and their counts to cnt[0..1]. */
static void mirror_end(const side *mx, const side *mn, double x0, ptrdiff_t nbsym,
                       double *tmax, double *vmax, double *tmin, double *vmin,
                       ptrdiff_t *cnt)
{
    int first_is_max = at(mx, 0) < at(mn, 0), inside, boundary = 0;
    /* a is the kind of the first extremum, b the other kind; inside says
     * the boundary sample stays short of the first b extremum */
    const side *a = first_is_max ? mx : mn, *b = first_is_max ? mn : mx;
    ptrdiff_t a_lo, a_n, b_n;
    double sym = 0.0;

    inside = first_is_max ? x0 > value_at(b, 0) : x0 < value_at(b, 0);
    a_lo = 0;
    a_n = min_size(nbsym, a->n);
    if (inside) {
        /* reflect about the first extremum, unless the mirrored knots then
         * fail to reach the boundary: redo about the boundary */
        b_n = min_size(nbsym, b->n);
        sym = at(a, 0);
        if (2.0 * sym - at(a, min_size(nbsym, a->n - 1)) > 0.0
            || 2.0 * sym - at(b, b_n - 1) > 0.0) {
            sym = 0.0;
        } else {
            a_lo = 1;
            a_n = min_size(nbsym, a->n - 1);
        }
    } else {
        /* the boundary sample acts as an extremum of kind b */
        b_n = min_size(nbsym - 1, b->n);
        boundary = 1;
    }
    if (first_is_max) {
        cnt[0] = put_mirrored(a, a_lo, a_n, 0, sym, x0, tmax, vmax);
        cnt[1] = put_mirrored(b, 0, b_n, boundary, sym, x0, tmin, vmin);
    } else {
        cnt[0] = put_mirrored(b, 0, b_n, boundary, sym, x0, tmax, vmax);
        cnt[1] = put_mirrored(a, a_lo, a_n, 0, sym, x0, tmin, vmin);
    }
}

/* Whether some knot fails to lie past the one before it. */
static int stalls(const double *t, ptrdiff_t n)
{
    ptrdiff_t i;
    int bad = 0;

    for (i = 1; i < n; i++)
        bad |= t[i] <= t[i - 1];
    return bad;
}

/* Envelope knots: the maxima (max_t, max_v)[0..nmax-1] and minima
 * (min_t, min_v)[0..nmin-1], positions ascending, nmax, nmin >= 2, with
 * nbsym >= 1 extrema of each kind mirrored past both ends of a series of
 * n_x samples whose first and last samples are x0 and x1 (see common.py).
 * Writes the upper knots to (tmax, vmax) and the lower to (tmin, vmin),
 * each with room for its count plus 2 * nbsym, and the counts to cnt[0..1].
 * Returns 0, -1 when the knots fail to cover the series, or -2 when they
 * do not strictly ascend. */
int hht_mirror_extrema(const double *max_t, const double *max_v, ptrdiff_t nmax,
                       const double *min_t, const double *min_v, ptrdiff_t nmin,
                       double x0, double x1, ptrdiff_t n_x, ptrdiff_t nbsym,
                       double *tmax, double *vmax, double *tmin, double *vmin,
                       ptrdiff_t *cnt)
{
    double end = (double)(n_x - 1);
    side mx = {max_t, max_v, nmax, end, 0}, mn = {min_t, min_v, nmin, end, 0};
    side right_mx = {max_t, max_v, nmax, end, 1}, right_mn = {min_t, min_v, nmin, end, 1};
    ptrdiff_t left[2], right[2], a, b;

    /* the left end's mirrored knots, the extrema, then the right end's */
    mirror_end(&mx, &mn, x0, nbsym, tmax, vmax, tmin, vmin, left);
    memcpy(tmax + left[0], max_t, (size_t)nmax * sizeof(double));
    memcpy(vmax + left[0], max_v, (size_t)nmax * sizeof(double));
    memcpy(tmin + left[1], min_t, (size_t)nmin * sizeof(double));
    memcpy(vmin + left[1], min_v, (size_t)nmin * sizeof(double));
    a = left[0] + nmax;
    b = left[1] + nmin;
    mirror_end(&right_mx, &right_mn, x1, nbsym, tmax + a, vmax + a, tmin + b, vmin + b, right);
    cnt[0] = a + right[0];
    cnt[1] = b + right[1];

    if (tmax[0] > 0.0 || tmax[cnt[0] - 1] < end || tmin[0] > 0.0 || tmin[cnt[1] - 1] < end)
        return -1;
    if (stalls(tmax, cnt[0]) || stalls(tmin, cnt[1]))
        return -2;
    return 0;
}
