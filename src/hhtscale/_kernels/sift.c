/* Compiled sift kernels: the extrema scan, natural-spline envelope
 * evaluation, and hht_sift_component, which sifts one component in one call
 * until the oscillatory gate passes and returns it finished.
 *
 * Where the stop rule lives: this file holds its gate ("every maximum
 * positive, every minimum negative", evaluated on each step's input), the
 * step budget and the status that says what stopped the sift (the gate, too
 * few extrema or the budget); emd.decompose sets the budget (its iteration
 * cap), names the status and centers the component, and
 * _kernels.sift_to_gate runs the same loop in Python for a backend without
 * hht_sift_component.
 *
 * Plain C with no Python C-API, called through ctypes by compiled.py, which
 * validates shapes and allocates every output.  The contract (plateaus,
 * endpoints, extrapolation) is numpy_backend.py's and the mirror rule is
 * common.py's, in its shape: mirror_left is common._mirror_left, and
 * mirror_extrema applies it to the left end and to the extrema nearest the
 * right end reflected by t -> end - t, then reflects those knots back.
 * tests/test_kernels.py holds the two scans and the two splines to each
 * other, and hht_sift_component to the loop composed of the scan,
 * common.py's mirror and two spline calls per step, bit for bit.
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
 * its 5k - 5 doubles of scratch: h, sl [k - 1], m [k], cp [k - 2], dp
 * [k - 1], one more than the sweep uses, so that the k - 1 values of c2
 * fit when k = 2.  Once solved, the segment coefficients overwrite the
 * scratch: c1 in sl, c2 in cp (and on into dp), c3 in h. */
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
    return sp->dp + (k - 1);
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

    sp->m[idx + 1] = sp->dp[idx] - sp->cp[idx] * sp->m[idx + 2];
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

/* Solves the splines sp[0 .. count - 1], one Thomas step of each in turn,
 * so that the serial division chain of one overlaps the others'; each keeps
 * its own arithmetic.  Then writes their coefficients. */
static void spline_solve(spline *sp, int count)
{
    ptrdiff_t j, k = 0;
    int q;

    for (q = 0; q < count; q++)
        k = sp[q].k > k ? sp[q].k : k;
    for (j = 1; j < k - 2; j++)
        for (q = 0; q < count; q++)
            if (j < sp[q].k - 2)
                forward_step(&sp[q], j);
    for (j = 0; j < k - 2; j++)
        for (q = 0; q < count; q++)
            if (j < sp[q].k - 2)
                back_step(&sp[q], j);
    for (q = 0; q < count; q++)
        spline_coefs(&sp[q]);
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
    w = malloc((size_t)(5 * k - 5) * sizeof(double) + (size_t)(n_out + 1) * sizeof(ptrdiff_t));
    if (w == NULL)
        return -1;
    first = (ptrdiff_t *)spline_begin(&sp, t, v, k, w);
    spline_solve(&sp, 1);
    segment_map(&sp, first, n_out);
    s = 0;
    for (i = 0; i < n_out; i++) {
        s += first[i];
        out[i] = spline_at(&sp, s, i);
    }
    free(w);
    return 0;
}

static ptrdiff_t min_size(ptrdiff_t a, ptrdiff_t b)
{
    return a < b ? a : b;
}

/* Knots mirrored past t = 0, statement by statement as common._mirror_left:
 * from extrema of kind q (0 maxima, 1 minima) at positions p[q][0 ..
 * n[q] - 1], ascending, with values v[q][..], n[q] >= 2, and the boundary
 * sample x0, writes the mirrored knots of kind q to (kt[q], kv[q]),
 * positions ascending, and their count to cnt[q].  Only the first
 * MIRRORED_EXTREMA + 1 extrema of each kind are read.  Kind q mirrors the
 * slice p[q][lo[q] .. lo[q] + len[q] - 1] (the oracle's ka or kb); outside,
 * the boundary sample leads kind b's slice. */
static void mirror_left(const double *p[2], const double *v[2], const ptrdiff_t n[2], double x0,
                        double *kt[2], double *kv[2], ptrdiff_t cnt[2])
{
    /* a is the kind of the first extremum, b the other kind; inside says
     * the boundary sample stays short of the first b extremum */
    int a = p[0][0] < p[1][0] ? 0 : 1, b = 1 - a, q;
    int inside = a == 0 ? x0 > v[b][0] : x0 < v[b][0];
    ptrdiff_t lo[2] = {0, 0}, len[2], i;
    double sym = 0.0;

    if (inside) {
        /* reflect about the first extremum */
        sym = p[a][0];
        lo[a] = 1;
        len[a] = min_size(MIRRORED_EXTREMA, n[a] - 1);
        len[b] = min_size(MIRRORED_EXTREMA, n[b]);
        if (2.0 * sym - p[a][len[a]] > 0.0 || 2.0 * sym - p[b][len[b] - 1] > 0.0) {
            /* mirrored knots do not reach the boundary; redo about the boundary */
            sym = 0.0;
            lo[a] = 0;
            len[a] = min_size(MIRRORED_EXTREMA, n[a]);
        }
    } else {
        /* boundary sample acts as an extremum of kind b; reflect about it */
        len[a] = min_size(MIRRORED_EXTREMA, n[a]);
        len[b] = min_size(MIRRORED_EXTREMA - 1, n[b]);
    }
    for (q = 0; q < 2; q++) {
        for (i = 0; i < len[q]; i++) {
            kt[q][i] = 2.0 * sym - p[q][lo[q] + len[q] - 1 - i];
            kv[q][i] = v[q][lo[q] + len[q] - 1 - i];
        }
        cnt[q] = len[q];
    }
    if (!inside) {
        /* the boundary knot, nearest the end */
        kt[b][cnt[b]] = 0.0;
        kv[b][cnt[b]++] = x0;
    }
}

/* Envelope knots: extrema of kind q (0 maxima, 1 minima) at positions
 * t[q][0 .. n[q] - 1], ascending, with values v[q][..], n[q] >= 2, with
 * MIRRORED_EXTREMA extrema of each kind mirrored past both ends of a series
 * of n_x samples whose first and last samples are x0 and x1, as
 * common.mirror_extrema pads them.  Writes the knots of kind q to (kt[q],
 * kv[q]), each with room for n[q] + 2 * MIRRORED_EXTREMA, and their counts
 * to cnt[q].  Returns 0, -1 when the knots fail to cover the series, or -2
 * when they do not strictly ascend. */
static int mirror_extrema(const double *t[2], const double *v[2], const ptrdiff_t n[2],
                          double x0, double x1, ptrdiff_t n_x,
                          double *kt[2], double *kv[2], ptrdiff_t cnt[2])
{
    double end = (double)(n_x - 1);
    double rt[2][MIRRORED_EXTREMA + 1], rv[2][MIRRORED_EXTREMA + 1];
    double rkt[2][MIRRORED_EXTREMA], rkv[2][MIRRORED_EXTREMA];
    const double *right_t[2] = {rt[0], rt[1]}, *right_v[2] = {rv[0], rv[1]};
    double *right_kt[2] = {rkt[0], rkt[1]}, *right_kv[2] = {rkv[0], rkv[1]};
    ptrdiff_t q, i, right_n[2], right_cnt[2];
    int short_of_series = 0, stalls = 0;

    mirror_left(t, v, n, x0, kt, kv, cnt);
    /* the right end: the left rule on the extrema reflected by t -> end - t */
    for (q = 0; q < 2; q++) {
        right_n[q] = min_size(MIRRORED_EXTREMA + 1, n[q]);
        for (i = 0; i < right_n[q]; i++) {
            rt[q][i] = end - t[q][n[q] - 1 - i];
            rv[q][i] = v[q][n[q] - 1 - i];
        }
    }
    mirror_left(right_t, right_v, right_n, x1, right_kt, right_kv, right_cnt);

    /* the left end's knots, the extrema, then the right end's reflected back */
    for (q = 0; q < 2; q++) {
        memcpy(kt[q] + cnt[q], t[q], (size_t)n[q] * sizeof(double));
        memcpy(kv[q] + cnt[q], v[q], (size_t)n[q] * sizeof(double));
        cnt[q] += n[q];
        for (i = right_cnt[q] - 1; i >= 0; i--) {
            kt[q][cnt[q]] = end - rkt[q][i];
            kv[q][cnt[q]++] = rkv[q][i];
        }
        short_of_series |= kt[q][0] > 0.0 || kt[q][cnt[q] - 1] < end;
        for (i = 1; i < cnt[q]; i++)
            stalls |= kt[q][i] <= kt[q][i - 1];
    }
    return short_of_series ? -1 : stalls ? -2 : 0;
}

/* One component's workspace, one block for all its steps: the scan of the
 * current h (positions, values and counts as hht_find_extrema writes them),
 * its extrema positions as doubles, both envelopes' knots and spline
 * scratch, the second h buffer, and both segment maps. */
typedef struct {
    ptrdiff_t cap, cnt[2], *pos, *first[2];
    double *val, *tpos, *knots, *alt;
} workspace;

/* Points ws into one block for series of n samples; returns the block, to
 * be freed, or NULL when it cannot be allocated.  The knots and scratch of
 * one step take at most 14 (cap + 2 MIRRORED_EXTREMA) doubles: each kind's
 * knot positions and values, and its spline's 5k - 5 for k knots. */
static void *workspace_begin(workspace *ws, ptrdiff_t n)
{
    ptrdiff_t cap = n / 2 + 1, knots = 14 * (cap + 2 * MIRRORED_EXTREMA);
    double *w = malloc((size_t)(4 * cap + knots + n) * sizeof(double)
                       + (size_t)(2 * cap + 2 * (n + 1)) * sizeof(ptrdiff_t));

    if (w == NULL)
        return NULL;
    ws->cap = cap;
    ws->val = w;
    ws->tpos = w + 2 * cap;
    ws->knots = ws->tpos + 2 * cap;
    ws->alt = ws->knots + knots;
    ws->pos = (ptrdiff_t *)(ws->alt + n);
    ws->first[0] = ws->pos + 2 * cap;
    ws->first[1] = ws->first[0] + (n + 1);
    return w;
}

/* The envelopes of h[0..n-1], whose extrema ws holds: Rilling's mirror
 * padding of MIRRORED_EXTREMA extrema past each end, then the upper (sp[0])
 * and lower (sp[1]) natural splines, solved, with their segment maps in
 * ws->first, as mirror_extrema and hht_spline_eval compose them.  Writes to
 * *oscillatory whether every maximum of h is positive and every minimum
 * negative.  Returns 0, or mirror_extrema's -1 or -2. */
static int envelopes(const workspace *ws, const double *h, ptrdiff_t n, spline sp[2],
                     int *oscillatory)
{
    const double *t[2], *v[2];
    double *tpos = ws->tpos, *scratch = ws->knots, *kt[2], *kv[2];
    ptrdiff_t i, q, cnt[2];
    int status;

    *oscillatory = 1;
    for (q = 0; q < 2; q++) {
        t[q] = tpos;
        v[q] = ws->val + q * ws->cap;
        for (i = 0; i < ws->cnt[q]; i++) {
            tpos[i] = (double)ws->pos[q * ws->cap + i];
            *oscillatory &= q == 0 ? v[q][i] > 0.0 : v[q][i] < 0.0;
        }
        tpos += ws->cnt[q];
        kt[q] = scratch;
        kv[q] = kt[q] + ws->cnt[q] + 2 * MIRRORED_EXTREMA;
        scratch = kv[q] + ws->cnt[q] + 2 * MIRRORED_EXTREMA;
    }
    status = mirror_extrema(t, v, ws->cnt, h[0], h[n - 1], n, kt, kv, cnt);
    if (status != 0)
        return status;
    /* mirror padding adds at least one knot of each kind at each end, so
     * each envelope has k >= 4 knots */
    for (q = 0; q < 2; q++)
        scratch = spline_begin(&sp[q], kt[q], kv[q], cnt[q], scratch);
    spline_solve(sp, 2);
    for (q = 0; q < 2; q++)
        segment_map(&sp[q], ws->first[q], n);
    return 0;
}

/* The mean of the envelopes sp on the grid 0 .. n - 1, out[i] =
 * (upper[i] + lower[i]) * 0.5. */
static void envelope_mean(const workspace *ws, const spline sp[2], ptrdiff_t n, double *out)
{
    const ptrdiff_t *first0 = ws->first[0], *first1 = ws->first[1];
    ptrdiff_t i, s0 = 0, s1 = 0;

    for (i = 0; i < n; i++) {
        s0 += first0[i];
        s1 += first1[i];
        out[i] = (spline_at(&sp[0], s0, i) + spline_at(&sp[1], s1, i)) * 0.5;
    }
}

/* Sifts x[0..n-1] into one component.  Each step subtracts the envelope
 * mean of its input h (the first h is x), as hht_find_extrema,
 * mirror_extrema and two hht_spline_eval calls compose it, and stops after
 * the step whose input passes the oscillatory gate (every maximum positive,
 * every minimum negative); any other step scans its result for the next.
 * Runs at most budget >= 1 steps; the step that spends the budget does not
 * scan its result, which no step reads.  Returns
 *   0 when a step's input passed the gate,
 *   1 when h has fewer than two maxima or two minima,
 *   2 when the budget is spent,
 * each with h what the steps left (x itself when none ran), or
 * mirror_extrema's -1 or -2, or -3 when the workspace cannot be allocated.
 * *steps gets the steps run.  h holds n doubles and does not overlap x. */
int hht_sift_component(const double *x, ptrdiff_t n, ptrdiff_t budget, double *h,
                       ptrdiff_t *steps)
{
    workspace ws;
    spline sp[2];
    const double *cur = x;
    double *next, *block = workspace_begin(&ws, n);
    ptrdiff_t i;
    int status, oscillatory;

    if (block == NULL)
        return -3;
    *steps = 0;
    hht_find_extrema(x, n, ws.cap, ws.pos, ws.val, ws.cnt);
    for (;;) {
        if (ws.cnt[0] < 2 || ws.cnt[1] < 2) {
            status = 1;
            break;
        }
        status = envelopes(&ws, cur, n, sp, &oscillatory);
        if (status != 0)
            break;
        ++*steps;
        /* h - env, alternately into h and the workspace's buffer */
        next = cur == h ? ws.alt : h;
        envelope_mean(&ws, sp, n, next);
        for (i = 0; i < n; i++)
            next[i] = cur[i] - next[i];
        cur = next;
        if (oscillatory)
            break;
        /* budget spent: h - env is the result, and no step scans it */
        if (*steps >= budget) {
            status = 2;
            break;
        }
        hht_find_extrema(cur, n, ws.cap, ws.pos, ws.val, ws.cnt);
    }
    if (cur != h)
        memcpy(h, cur, (size_t)n * sizeof(double));
    free(block);
    return status;
}
