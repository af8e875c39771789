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
 * The scan takes its steps 64 at a time as bitmasks of rises and flat
 * steps (two steps per SSE2 instruction where the target has SSE2, the
 * x86-64 baseline, else a plain loop with the same bits) and, where a block
 * has no flat step, reads its extrema off the masks; see hht_find_extrema.
 * Each sift step builds both envelopes in two sweeps over their knots, a
 * forward one that also fills byte-wide segment maps and a back one that
 * also writes the segment coefficients, with the operations of
 * hht_spline_eval's pass-by-pass solve and so its bits; see
 * solve_envelopes.
 *
 * Built with the system C compiler by setup.py or, in a source checkout,
 * on first import (build.py).  Never build it with -ffast-math or with
 * floating-point contraction: results must not depend on the host CPU.
 */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* Extrema of each kind mirrored past each end of the envelopes; the same
 * count as common.py's MIRRORED_EXTREMA. */
#define MIRRORED_EXTREMA 2

/* Steps per block of the extrema scan, one bit of a uint64_t each. */
#define SCAN_BLOCK 64

/* The bits of the m <= SCAN_BLOCK steps d = x[j + 1] - x[j], j = 0 .. m - 1:
 * bit j of *rise is d > 0, bit j of *flat is d == 0, so a NaN step sets
 * neither.  SSE2 takes two steps per subtraction and compare, which are the
 * scalar IEEE operations lane by lane; the plain loop sets the same bits.
 * The compiler does not vectorize that loop, and the scan built with the
 * plain loop alone takes nearly twice as long (BENCH_28.json
 * levers_in_process.scan_sse2_vs_plain). */
static void step_bits(const double *x, int m, uint64_t *rise, uint64_t *flat)
{
    uint64_t r = 0, f = 0;
    int j = 0;
    double d;

#ifdef __SSE2__
    const __m128d zero = _mm_setzero_pd();
    __m128d dd;

    for (; j + 2 <= m; j += 2) {
        dd = _mm_sub_pd(_mm_loadu_pd(x + j + 1), _mm_loadu_pd(x + j));
        r |= (uint64_t)_mm_movemask_pd(_mm_cmpgt_pd(dd, zero)) << j;
        f |= (uint64_t)_mm_movemask_pd(_mm_cmpeq_pd(dd, zero)) << j;
    }
#endif
    for (; j < m; j++) {
        d = x[j + 1] - x[j];
        r |= (uint64_t)(d > 0.0) << j;
        f |= (uint64_t)(d == 0.0) << j;
    }
    *rise = r;
    *flat = f;
}

/* Strict local extrema of x[0..n-1].  A run of equal samples counts once, at
 * the floor-midpoint of the run; the endpoints never qualify.  Maxima go to
 * pos[0..] and val[0..], minima to pos[cap..] and val[cap..], positions
 * ascending, where cap >= n / 2 + 1; the counts go to cnt[0] (maxima) and
 * cnt[1] (minima).
 *
 * Flat steps are skipped, and a step that is not a rise (NaN included)
 * counts as a fall.  Where the slope turns, the middle of the run since the
 * last move is stored: a rise then a fall is a maximum, a fall then a rise
 * a minimum.
 *
 * The steps go in blocks of SCAN_BLOCK, whose rise and flat bits step_bits
 * takes first.  In a block with no flat step, entered just after a moving
 * step, every run since the last move is one step long, so the middle of
 * the run before step j is sample b + j itself: the maxima are the steps
 * that fall after a rise (prev & ~rise, prev holding each step's previous
 * rise bit) and the minima the rises after a fall, read off lowest bit
 * first (__builtin_ctzll, a GCC and Clang builtin), so the scan branches
 * once per extremum, not once per step.  Any other block walks its moving
 * steps one at a time by the rule above.  Both read the bits of the same
 * subtraction and compares, and the rest is integer bookkeeping, so the
 * positions and values are the rule's either way. */
void hht_find_extrema(const double *x, ptrdiff_t n, ptrdiff_t cap,
                      ptrdiff_t *pos, double *val, ptrdiff_t *cnt)
{
    ptrdiff_t b, i, p, last = -1, cmax = 0, cmin = 0;
    int last_sign = 0, s, m, j;
    uint64_t rise, flat, valid, prev, maxima, minima, moved;

    for (b = 0; b < n - 1; b += SCAN_BLOCK) {
        m = n - 1 - b < SCAN_BLOCK ? (int)(n - 1 - b) : SCAN_BLOCK;
        valid = m == SCAN_BLOCK ? ~(uint64_t)0 : ((uint64_t)1 << m) - 1;
        step_bits(x + b, m, &rise, &flat);
        if (flat == 0 && last == b - 1 && last_sign != 0) {
            prev = rise << 1 | (uint64_t)(last_sign == 1);
            maxima = prev & ~rise & valid;
            minima = ~prev & rise;
            for (; maxima != 0; maxima &= maxima - 1) {
                p = b + __builtin_ctzll(maxima);
                pos[cmax] = p;
                val[cmax++] = x[p];
            }
            for (; minima != 0; minima &= minima - 1) {
                p = b + __builtin_ctzll(minima);
                pos[cap + cmin] = p;
                val[cap + cmin++] = x[p];
            }
            last_sign = rise >> (m - 1) & 1 ? 1 : -1;
            last = b + m - 1;
            continue;
        }
        for (moved = ~flat & valid; moved != 0; moved &= moved - 1) {
            j = __builtin_ctzll(moved);
            i = b + j;
            s = rise >> j & 1 ? 1 : -1;
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

/* Points sp at its knots and at the scratch w; returns the scratch past
 * sp's own. */
static double *spline_begin(spline *sp, const double *t, const double *v, ptrdiff_t k,
                            double *w)
{
    sp->t = t;
    sp->v = v;
    sp->k = k;
    sp->h = w;
    sp->sl = w + (k - 1);
    sp->m = sp->sl + (k - 1);
    sp->cp = sp->m + k;
    sp->dp = sp->cp + (k - 2);
    sp->c1 = sp->sl;
    sp->c2 = sp->cp;
    sp->c3 = sp->h;
    return sp->dp + (k - 1);
}

/* The spacing h[i] and slope sl[i] of sp's knots i and i + 1. */
static void knot_gap(spline *sp, ptrdiff_t i)
{
    sp->h[i] = sp->t[i + 1] - sp->t[i];
    sp->sl[i] = (sp->v[i + 1] - sp->v[i]) / sp->h[i];
}

/* Row 0 of sp's Thomas forward sweep for the second derivatives m[1..k-2]
 * (m[0] = m[k-1] = 0), k > 2, from h and sl up to index 1. */
static void forward_first(spline *sp)
{
    double bb = 2.0 * (sp->h[0] + sp->h[1]);

    sp->cp[0] = sp->h[1] / bb;
    sp->dp[0] = 6.0 * (sp->sl[1] - sp->sl[0]) / bb;
}

/* Row idx (1 <= idx < k - 2) of sp's forward sweep, from h and sl up to
 * index idx + 1. */
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

/* Segment s's c1 and c3, from m[s] = m0 and m[s + 1] = m1, over its sl[s]
 * and h[s]; returns its c2, which the caller stores. */
static double segment_coefs(spline *sp, ptrdiff_t s, double m0, double m1)
{
    sp->c1[s] = sp->sl[s] - sp->h[s] * (2.0 * m0 + m1) / 6.0;
    sp->c3[s] = (m1 - m0) / (6.0 * sp->h[s]);
    return m0 / 2.0;
}

/* Solves sp pass by pass: the knot spacings and slopes, the forward sweep,
 * the back substitution into m, then the segment coefficients.  This is
 * hht_spline_eval's solve, and the reference that solve_envelopes' fused
 * sweeps are tested against. */
static void spline_solve(spline *sp)
{
    ptrdiff_t i, k = sp->k;
    double *m = sp->m;

    for (i = 0; i < k - 1; i++)
        knot_gap(sp, i);
    if (k > 2)
        forward_first(sp);
    for (i = 1; i < k - 2; i++)
        forward_step(sp, i);
    m[0] = 0.0;
    m[k - 1] = 0.0;
    for (i = k - 3; i >= 0; i--)
        m[i + 1] = sp->dp[i] - sp->cp[i] * m[i + 2];
    for (i = 0; i < k - 1; i++)
        sp->c2[i] = segment_coefs(sp, i, m[i], m[i + 1]);
}

/* The grid point where the segment after the interior knot tt begins, on
 * the grid 0 .. n_out - 1 (lim = n_out): the first point past tt, or 0 or
 * n_out when tt lies below or at or past the grid's end.  tt is compared in
 * double before any cast, so no out-of-range or non-finite value is
 * converted to an integer. */
static ptrdiff_t segment_start(double tt, double lim, ptrdiff_t n_out)
{
    return tt < 0.0 ? 0 : tt < lim ? (ptrdiff_t)tt + 1 : n_out;
}

/* The segment map of sp on the grid 0 .. n_out - 1: grid point i lies in
 * segment s when t[s] < i <= t[s + 1], and the end segments extend past
 * the outer knots.  Segment s + 1 begins at segment_start(t[s + 1]), so
 * first[i] counts the segments that begin at i, and a running sum of first
 * is each point's segment. */
static void segment_map(const spline *sp, ptrdiff_t *first, ptrdiff_t n_out)
{
    ptrdiff_t i;

    memset(first, 0, (size_t)(n_out + 1) * sizeof(ptrdiff_t));
    for (i = 1; i < sp->k - 1; i++)
        first[segment_start(sp->t[i], (double)n_out, n_out)]++;
}

/* sp at grid point x, which lies in segment s. */
static double spline_at(const spline *sp, ptrdiff_t s, double x)
{
    double d = x - sp->t[s];

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
    spline_solve(&sp);
    segment_map(&sp, first, n_out);
    s = 0;
    for (i = 0; i < n_out; i++) {
        s += first[i];
        out[i] = spline_at(&sp, s, (double)i);
    }
    free(w);
    return 0;
}

/* Row idx (1 <= idx < k - 2) of one envelope's forward sweep, which first
 * takes the spacing and slope of knots idx + 1 and idx + 2, and enters
 * interior knot idx + 1 into the byte segment map first of the grid
 * 0 .. n - 1 (lim = n). */
static void forward_row(spline *sp, ptrdiff_t idx, unsigned char *first, double lim,
                        ptrdiff_t n)
{
    knot_gap(sp, idx + 1);
    forward_step(sp, idx);
    first[segment_start(sp->t[idx + 1], lim, n)]++;
}

/* Row idx (0 <= idx < k - 3) of one envelope's back substitution, from
 * m[idx + 2] = m_hi: returns m[idx + 1] and writes segment idx + 1's
 * coefficients, both of whose second derivatives are then known. */
static double back_row(spline *sp, ptrdiff_t idx, double m_hi)
{
    double m = sp->dp[idx] - sp->cp[idx] * m_hi;

    sp->c2[idx + 1] = segment_coefs(sp, idx + 1, m, m_hi);
    return m;
}

/* Solves the upper (sp[0]) and lower (sp[1]) envelopes, each of k >= 4
 * knots, and fills their segment maps on the grid 0 .. n - 1 into first[0]
 * and first[1], n + 1 bytes each, in two sweeps over the knots instead of
 * spline_solve's four and segment_map's one:
 *   - the forward sweep takes each knot's spacing and slope just before the
 *     Thomas row that first reads them, and enters the row's interior knot
 *     into the map;
 *   - the back substitution writes segment s's coefficients as soon as m[s]
 *     and m[s + 1] are known, keeping m in a register.  The top segment's
 *     c2 lands on dp[0], which the last row still reads, so it is stored
 *     after the loop, with segment 0's coefficients (m[0] = 0).
 * Each value is the same IEEE operations on the same operands, in the same
 * order, as spline_solve and segment_map, so the bits are theirs.  The two
 * envelopes go through their common rows in lockstep, one row of each in
 * turn, so that the serial division chain of one overlaps the other's; the
 * longer one then runs its last rows alone.
 *
 * A map entry is one byte: the knots are distinct integer positions
 * (mirror_extrema rejects knots that do not strictly ascend), so an
 * interior grid point starts at most one segment, and each end bucket,
 * first[0] and first[n], collects at most MIRRORED_EXTREMA knots. */
static void solve_envelopes(spline sp[2], unsigned char *const first[2], ptrdiff_t n)
{
    /* rows 0 .. both - 1 of each sweep are common to the two envelopes */
    ptrdiff_t q, j, both = (sp[0].k < sp[1].k ? sp[0].k : sp[1].k) - 2;
    double lim = (double)n, m[2], top_c2[2];

    for (q = 0; q < 2; q++) {
        memset(first[q], 0, (size_t)(n + 1));
        knot_gap(&sp[q], 0);
        knot_gap(&sp[q], 1);
        forward_first(&sp[q]);
        first[q][segment_start(sp[q].t[1], lim, n)]++;
    }
    for (j = 1; j < both; j++)
        for (q = 0; q < 2; q++)
            forward_row(&sp[q], j, first[q], lim, n);
    for (q = 0; q < 2; q++)
        for (j = both; j < sp[q].k - 2; j++)
            forward_row(&sp[q], j, first[q], lim, n);

    /* back substitution, row j from the top: row k - 3 - j */
    for (q = 0; q < 2; q++) {
        m[q] = sp[q].dp[sp[q].k - 3] - sp[q].cp[sp[q].k - 3] * 0.0;
        top_c2[q] = segment_coefs(&sp[q], sp[q].k - 2, m[q], 0.0);
    }
    for (j = 1; j < both; j++)
        for (q = 0; q < 2; q++)
            m[q] = back_row(&sp[q], sp[q].k - 3 - j, m[q]);
    for (q = 0; q < 2; q++) {
        for (j = both; j < sp[q].k - 2; j++)
            m[q] = back_row(&sp[q], sp[q].k - 3 - j, m[q]);
        sp[q].c2[0] = segment_coefs(&sp[q], 0, 0.0, m[q]);
        sp[q].c2[sp[q].k - 2] = top_c2[q];
    }
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
 * scratch, the second h buffer, and both envelopes' byte segment maps. */
typedef struct {
    ptrdiff_t cap, cnt[2], *pos;
    double *val, *tpos, *knots, *alt;
    unsigned char *first[2];
} workspace;

/* Points ws into one block for series of n samples; returns the block, to
 * be freed, or NULL when it cannot be allocated.  The knots and scratch of
 * one step take at most 14 (cap + 2 MIRRORED_EXTREMA) doubles: each kind's
 * knot positions and values, and its spline's 5k - 5 for k knots. */
static void *workspace_begin(workspace *ws, ptrdiff_t n)
{
    ptrdiff_t cap = n / 2 + 1, knots = 14 * (cap + 2 * MIRRORED_EXTREMA);
    double *w = malloc((size_t)(4 * cap + knots + n) * sizeof(double)
                       + (size_t)(2 * cap) * sizeof(ptrdiff_t) + (size_t)(2 * (n + 1)));

    if (w == NULL)
        return NULL;
    ws->cap = cap;
    ws->val = w;
    ws->tpos = w + 2 * cap;
    ws->knots = ws->tpos + 2 * cap;
    ws->alt = ws->knots + knots;
    ws->pos = (ptrdiff_t *)(ws->alt + n);
    ws->first[0] = (unsigned char *)(ws->pos + 2 * cap);
    ws->first[1] = ws->first[0] + (n + 1);
    return w;
}

/* The envelopes of h[0..n-1], whose extrema ws holds: Rilling's mirror
 * padding of MIRRORED_EXTREMA extrema past each end, then the upper (sp[0])
 * and lower (sp[1]) natural splines, solved, with their segment maps in
 * ws->first, as mirror_extrema and hht_spline_eval compose them (see
 * solve_envelopes).  Writes to *oscillatory whether every maximum of h is
 * positive and every minimum negative.  Returns 0, or mirror_extrema's -1
 * or -2. */
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
    solve_envelopes(sp, ws->first, n);
    return 0;
}

/* The mean of the envelopes sp on the grid 0 .. n - 1, out[i] =
 * (upper[i] + lower[i]) * 0.5.  The grid position is carried as a double
 * counter x, which equals (double)i exactly below 2^53. */
static void envelope_mean(const workspace *ws, const spline sp[2], ptrdiff_t n, double *out)
{
    const unsigned char *first0 = ws->first[0], *first1 = ws->first[1];
    ptrdiff_t i, s0 = 0, s1 = 0;
    double x = 0.0;

    for (i = 0; i < n; i++, x += 1.0) {
        s0 += first0[i];
        s1 += first1[i];
        out[i] = (spline_at(&sp[0], s0, x) + spline_at(&sp[1], s1, x)) * 0.5;
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
