/* Compiled sift kernels: the extrema scan, natural-spline envelope
 * evaluation, and hht_sift_step, which runs the scan, the mirror padding of
 * the envelope knots and both envelopes for one sift step in one call.
 *
 * Plain C with no Python C-API, called through ctypes by compiled.py, which
 * validates shapes and allocates every output.  The contract (plateaus,
 * endpoints, extrapolation) is numpy_backend.py's and the mirror rule is
 * common.py's; tests/test_kernels.py holds the two scans and the two
 * splines to each other, and hht_sift_step to the step composed of the scan,
 * common.py's mirror and two spline calls, bit for bit.
 *
 * Built with the system C compiler by setup.py or, in a source checkout,
 * on first import (build.py).  Never build it with -ffast-math or with
 * floating-point contraction: results must not depend on the host CPU.
 */

#include <stddef.h>
#include <stdlib.h>
#include <string.h>

/* Extrema of each kind mirrored past each end of the envelopes; the same
 * count as common.py's MIRRORED_EXTREMA. */
#define MIRRORED_EXTREMA 2

/* Strict local extrema of x[0..n-1].  A run of equal samples counts once, at
 * the floor-midpoint of the run; the endpoints never qualify.  Maxima go to
 * pos[0..] and val[0..], minima to pos[cap..] and val[cap..], positions
 * ascending, where cap >= n / 2 + 1; the counts go to cnt[0] (maxima) and
 * cnt[1] (minima).
 *
 * Flat steps are skipped, and a step that is not a rise (NaN included)
 * counts as a fall.  Where the slope turns, the middle of the run since the
 * last move is stored: a rise then a fall is a maximum, a fall then a rise
 * a minimum. */
void hht_find_extrema(const double *x, ptrdiff_t n, ptrdiff_t cap,
                      ptrdiff_t *pos, double *val, ptrdiff_t *cnt)
{
    ptrdiff_t i, p, last = -1, cmax = 0, cmin = 0;
    int last_sign = 0, s;
    double d;

    for (i = 0; i < n - 1; i++) {
        d = x[i + 1] - x[i];
        if (d == 0.0)
            continue;
        s = d > 0.0 ? 1 : -1;
        p = (last + 1 + i) / 2;
        if (last_sign == 1 && s == -1) {
            pos[cmax] = p;
            val[cmax++] = x[p];
        } else if (last_sign == -1 && s == 1) {
            pos[cap + cmin] = p;
            val[cap + cmin++] = x[p];
        }
        last_sign = s;
        last = i;
    }
    cnt[0] = cmax;
    cnt[1] = cmin;
}

/* One natural cubic spline through k >= 2 knots (t, v), t ascending, and
 * its 5k - 6 doubles of scratch: h, sl [k - 1], m [k], cp, dp [k - 2].  Once
 * solved, the segment coefficients overwrite the scratch: c1 in sl, c2 in
 * cp (and on into dp), c3 in h. */
typedef struct {
    const double *t, *v;
    ptrdiff_t k;
    double *h, *sl, *m, *cp, *dp, *c1, *c2, *c3;
} spline;

/* Points sp at its knots and at the scratch w, fills the knot spacings and
 * segment slopes, and, for k > 2, takes the first step of the Thomas
 * forward sweep for the second derivatives m[1..k-2] (m[0] = m[k-1] = 0).
 * Returns the scratch past sp's own. */
static double *spline_begin(spline *sp, const double *t, const double *v, ptrdiff_t k,
                            double *w)
{
    ptrdiff_t i;
    double bb, *h = w, *sl = w + (k - 1);

    sp->t = t;
    sp->v = v;
    sp->k = k;
    sp->h = h;
    sp->sl = sl;
    sp->m = sl + (k - 1);
    sp->cp = sp->m + k;
    sp->dp = sp->cp + (k - 2);
    for (i = 0; i < k - 1; i++) {
        h[i] = t[i + 1] - t[i];
        sl[i] = (v[i + 1] - v[i]) / h[i];
    }
    if (k > 2) {
        bb = 2.0 * (h[0] + h[1]);
        sp->cp[0] = h[1] / bb;
        sp->dp[0] = 6.0 * (sl[1] - sl[0]) / bb;
    }
    sp->m[0] = 0.0;
    sp->m[k - 1] = 0.0;
    return sp->dp + (k - 2);
}

/* Step idx (1 <= idx < k - 2) of sp's forward sweep. */
static void forward_step(spline *sp, ptrdiff_t idx)
{
    const double *h = sp->h;
    ptrdiff_t i = idx + 1;
    double r, bb, w;

    r = 6.0 * (sp->sl[i] - sp->sl[i - 1]);
    bb = 2.0 * (h[i - 1] + h[i]);
    w = bb - h[i - 1] * sp->cp[idx - 1];
    sp->cp[idx] = h[i] / w;
    sp->dp[idx] = (r - h[i - 1] * sp->dp[idx - 1]) / w;
}

/* Step j (0 <= j < k - 2) of sp's back substitution, from the top down. */
static void back_step(spline *sp, ptrdiff_t j)
{
    ptrdiff_t idx = sp->k - 3 - j;

    sp->m[idx + 1] = j == 0 ? sp->dp[idx] : sp->dp[idx] - sp->cp[idx] * sp->m[idx + 2];
}

/* sp's segment coefficients, from its second derivatives. */
static void spline_coefs(spline *sp)
{
    ptrdiff_t s;
    double *h = sp->h, *m = sp->m;

    sp->c1 = sp->sl;
    sp->c2 = sp->cp;
    sp->c3 = h;
    for (s = 0; s < sp->k - 1; s++) {
        sp->c1[s] = sp->sl[s] - h[s] * (2.0 * m[s] + m[s + 1]) / 6.0;
        sp->c2[s] = m[s] / 2.0;
        sp->c3[s] = (m[s + 1] - m[s]) / (6.0 * h[s]);
    }
}

/* Solves spline a and, unless b is NULL, spline b, one Thomas step of each
 * in turn, so that the serial division chain of one overlaps the other's;
 * each keeps its own arithmetic.  Then writes their coefficients. */
static void spline_solve(spline *a, spline *b)
{
    ptrdiff_t j, ka = a->k, kb = b != NULL ? b->k : 0;

    for (j = 1; j < ka - 2 || j < kb - 2; j++) {
        if (j < ka - 2)
            forward_step(a, j);
        if (j < kb - 2)
            forward_step(b, j);
    }
    for (j = 0; j < ka - 2 || j < kb - 2; j++) {
        if (j < ka - 2)
            back_step(a, j);
        if (j < kb - 2)
            back_step(b, j);
    }
    spline_coefs(a);
    if (b != NULL)
        spline_coefs(b);
}

/* The segment map of sp on the grid 0 .. n_out - 1: grid point i lies in
 * segment s when t[s] < i <= t[s + 1], and the end segments extend past
 * the outer knots.  Segment s + 1 begins at the first grid point past
 * t[s + 1], so first[i] counts the segments that begin at i, and a running
 * sum of first is each point's segment.  Knots are compared in double
 * before any cast, so no out-of-range or non-finite value is converted to
 * an integer. */
static void segment_map(const spline *sp, ptrdiff_t *first, ptrdiff_t n_out)
{
    ptrdiff_t i;
    double tt, lim = (double)n_out;

    memset(first, 0, (size_t)(n_out + 1) * sizeof(ptrdiff_t));
    for (i = 1; i < sp->k - 1; i++) {
        tt = sp->t[i];
        first[tt < 0.0 ? 0 : tt < lim ? (ptrdiff_t)tt + 1 : n_out]++;
    }
}

/* sp at grid point i, which lies in segment s. */
static double spline_at(const spline *sp, ptrdiff_t s, ptrdiff_t i)
{
    double d = (double)i - sp->t[s];

    return sp->v[s] + d * (sp->c1[s] + d * (sp->c2[s] + d * sp->c3[s]));
}

/* Natural cubic spline through the k >= 2 knots (t, v), t ascending,
 * evaluated on the integer grid 0 .. n_out - 1 into out (two knots give a
 * line; see segment_map for the segments).  Returns 0, or -1 when scratch
 * memory cannot be allocated. */
int hht_spline_eval(const double *t, const double *v, ptrdiff_t k,
                    double *out, ptrdiff_t n_out)
{
    ptrdiff_t i, s, *first;
    double *w;
    spline sp;

    /* one block: the spline's scratch, then the segment map */
    w = malloc((size_t)(5 * k - 6) * sizeof(double) + (size_t)(n_out + 1) * sizeof(ptrdiff_t));
    if (w == NULL)
        return -1;
    first = (ptrdiff_t *)spline_begin(&sp, t, v, k, w);
    spline_solve(&sp, NULL);
    segment_map(&sp, first, n_out);
    s = 0;
    for (i = 0; i < n_out; i++) {
        s += first[i];
        out[i] = spline_at(&sp, s, i);
    }
    free(w);
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
static void mirror_end(const side *mx, const side *mn, double x0,
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
    a_n = min_size(MIRRORED_EXTREMA, a->n);
    if (inside) {
        /* reflect about the first extremum, unless the mirrored knots then
         * fail to reach the boundary: redo about the boundary */
        b_n = min_size(MIRRORED_EXTREMA, b->n);
        sym = at(a, 0);
        if (2.0 * sym - at(a, min_size(MIRRORED_EXTREMA, a->n - 1)) > 0.0
            || 2.0 * sym - at(b, b_n - 1) > 0.0) {
            sym = 0.0;
        } else {
            a_lo = 1;
            a_n = min_size(MIRRORED_EXTREMA, a->n - 1);
        }
    } else {
        /* the boundary sample acts as an extremum of kind b */
        b_n = min_size(MIRRORED_EXTREMA - 1, b->n);
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
 * MIRRORED_EXTREMA extrema of each kind mirrored past both ends of a series
 * of n_x samples whose first and last samples are x0 and x1 (see
 * common.py).  Writes the upper knots to (tmax, vmax) and the lower to
 * (tmin, vmin), each with room for its count plus 2 * MIRRORED_EXTREMA, and
 * the counts to cnt[0..1].  Returns 0, -1 when the knots fail to cover the
 * series, or -2 when they do not strictly ascend. */
static int mirror_extrema(const double *max_t, const double *max_v, ptrdiff_t nmax,
                          const double *min_t, const double *min_v, ptrdiff_t nmin,
                          double x0, double x1, ptrdiff_t n_x,
                          double *tmax, double *vmax, double *tmin, double *vmin,
                          ptrdiff_t *cnt)
{
    double end = (double)(n_x - 1);
    side mx = {max_t, max_v, nmax, end, 0}, mn = {min_t, min_v, nmin, end, 0};
    side right_mx = {max_t, max_v, nmax, end, 1}, right_mn = {min_t, min_v, nmin, end, 1};
    ptrdiff_t left[2], right[2], a, b;

    /* the left end's mirrored knots, the extrema, then the right end's */
    mirror_end(&mx, &mn, x0, tmax, vmax, tmin, vmin, left);
    memcpy(tmax + left[0], max_t, (size_t)nmax * sizeof(double));
    memcpy(vmax + left[0], max_v, (size_t)nmax * sizeof(double));
    memcpy(tmin + left[1], min_t, (size_t)nmin * sizeof(double));
    memcpy(vmin + left[1], min_v, (size_t)nmin * sizeof(double));
    a = left[0] + nmax;
    b = left[1] + nmin;
    mirror_end(&right_mx, &right_mn, x1, tmax + a, vmax + a, tmin + b, vmin + b, right);
    cnt[0] = a + right[0];
    cnt[1] = b + right[1];

    if (tmax[0] > 0.0 || tmax[cnt[0] - 1] < end || tmin[0] > 0.0 || tmin[cnt[1] - 1] < end)
        return -1;
    if (stalls(tmax, cnt[0]) || stalls(tmin, cnt[1]))
        return -2;
    return 0;
}

/* One sift step's envelope mean of x[0..n-1]: the extrema scan, Rilling's
 * mirror padding of MIRRORED_EXTREMA extrema past each end, both
 * natural-spline envelopes and env[i] = (upper[i] + lower[i]) * 0.5, each
 * value by the same operations as hht_find_extrema, mirror_extrema and
 * hht_spline_eval compose them.  Writes the counts of maxima and minima to
 * info[0..1] and to info[2] whether x swings through zero everywhere
 * (every maximum positive, every minimum negative).  Returns 0, 1 when x
 * has fewer than two maxima or two minima (env is then not written),
 * mirror_extrema's -1 or -2, or -3 when scratch memory cannot be
 * allocated. */
int hht_sift_step(const double *x, ptrdiff_t n, double *env, ptrdiff_t *info)
{
    ptrdiff_t i, nmax, nmin, knots, cnt[2], *pos, *first_max, *first_min;
    ptrdiff_t cap = n / 2 + 1, s_max = 0, s_min = 0;
    double *val, *w, *tpos, *tmax, *vmax, *tmin, *vmin;
    spline sp[2];
    int status, oscillatory = 1;

    /* the scan's positions and values, and later both segment maps */
    pos = malloc((size_t)(2 * cap) * (sizeof(ptrdiff_t) + sizeof(double)));
    if (pos == NULL)
        return -3;
    val = (double *)(pos + 2 * cap);
    hht_find_extrema(x, n, cap, pos, val, info);
    nmax = info[0];
    nmin = info[1];
    info[2] = 0;
    if (nmax < 2 || nmin < 2) {
        free(pos);
        return 1;
    }
    for (i = 0; i < nmax; i++)
        oscillatory &= val[i] > 0.0;
    for (i = 0; i < nmin; i++)
        oscillatory &= val[cap + i] < 0.0;
    info[2] = oscillatory;

    /* one block sized to the at most `knots` knots of both envelopes: the
     * positions as doubles, each knot's position and value, then both
     * splines' scratch (under 5 doubles a knot) */
    knots = nmax + nmin + 4 * MIRRORED_EXTREMA;
    w = malloc((size_t)(nmax + nmin + 7 * knots) * sizeof(double));
    if (w == NULL) {
        free(pos);
        return -3;
    }
    tpos = w;
    tmax = tpos + nmax + nmin;
    vmax = tmax + nmax + 2 * MIRRORED_EXTREMA;
    tmin = vmax + nmax + 2 * MIRRORED_EXTREMA;
    vmin = tmin + nmin + 2 * MIRRORED_EXTREMA;
    for (i = 0; i < nmax; i++)
        tpos[i] = (double)pos[i];
    for (i = 0; i < nmin; i++)
        tpos[nmax + i] = (double)pos[cap + i];
    status = mirror_extrema(tpos, val, nmax, tpos + nmax, val + cap, nmin, x[0], x[n - 1], n,
                            tmax, vmax, tmin, vmin, cnt);
    if (status == 0) {
        /* mirror padding adds at least one knot of each kind at each end,
         * so each envelope has k >= 4 knots */
        spline_begin(&sp[1], tmin, vmin, cnt[1],
                     spline_begin(&sp[0], tmax, vmax, cnt[0], vmin + nmin + 2 * MIRRORED_EXTREMA));
        spline_solve(&sp[0], &sp[1]);
        first_max = pos;
        first_min = pos + (n + 1);
        segment_map(&sp[0], first_max, n);
        segment_map(&sp[1], first_min, n);
        for (i = 0; i < n; i++) {
            s_max += first_max[i];
            s_min += first_min[i];
            env[i] = (spline_at(&sp[0], s_max, i) + spline_at(&sp[1], s_min, i)) * 0.5;
        }
    }
    free(w);
    free(pos);
    return status;
}
