/* Runs the entries of src/hhtscale/_kernels/sift.c on edge inputs.
 *
 * It includes sift.c, so it shares its declarations and can call its static
 * mirror_extrema.  tests/test_kernels.py (TestLoader) builds it alone under
 * AddressSanitizer and UndefinedBehaviorSanitizer, so an access outside a
 * buffer, a leak or an undefined operation aborts the run.  Each case holds
 * one step of hht_sift_component (a budget of 1) to the composition it
 * replaces (hht_find_extrema, mirror_extrema and two hht_spline_eval
 * calls), bit for bit.  On the walks, peeled into components, each sift,
 * whether it stops at the gate, at its budget or short of extrema, equals
 * the chain of one-step calls, each of which scans its input afresh, so
 * the extrema the loop carries from one step to the next are a fresh
 * scan's, plateaus included.  And mirror_extrema commutes with the reflection
 * t -> end - t, as common.mirror_extrema does.  Prints "ok" and exits 0
 * when every case passes.
 */

#include <stdio.h>
#include <stdlib.h>

/* sift.c's allocations, counted: a component's sift makes one */
static long mallocs;

static void *counted_malloc(size_t size)
{
    mallocs++;
    return malloc(size);
}

#define malloc counted_malloc
#include "../src/hhtscale/_kernels/sift.c"
#undef malloc

static int failures;

static void fail(const char *name, const char *what)
{
    printf("%s: %s\n", name, what);
    failures++;
}

/* One step of hht_sift_component (a budget of 1) on x[0..n-1] against its
 * composition.  Buffers are sized exactly, so that an access past one is
 * caught. */
static void check_step(const char *name, const double *x, ptrdiff_t n)
{
    ptrdiff_t cap = n / 2 + 1, steps, counts[2], cnt[2], i, nmax, nmin;
    ptrdiff_t *pos = malloc((size_t)(2 * cap) * sizeof *pos);
    double *val = malloc((size_t)(2 * cap) * sizeof *val);
    double *h = malloc((size_t)(n + 1) * sizeof *h);
    double *tpos, *knots, *upper, *lower;
    int status, oscillatory = 1;

    status = hht_sift_component(x, n, 1, h, &steps);
    hht_find_extrema(x, n, cap, pos, val, counts);
    nmax = counts[0];
    nmin = counts[1];
    if (nmax < 2 || nmin < 2) {
        if (status != 1 || steps != 0)
            fail(name, "too few extrema not reported");
        free(pos);
        free(val);
        free(h);
        return;
    }
    for (i = 0; i < nmax; i++)
        oscillatory &= val[i] > 0.0;
    for (i = 0; i < nmin; i++)
        oscillatory &= val[cap + i] < 0.0;

    tpos = malloc((size_t)(nmax + nmin) * sizeof *tpos);
    for (i = 0; i < nmax; i++)
        tpos[i] = (double)pos[i];
    for (i = 0; i < nmin; i++)
        tpos[nmax + i] = (double)pos[cap + i];
    /* rows tmax, vmax [nmax + 2 M], tmin, vmin [nmin + 2 M], M = MIRRORED_EXTREMA */
    knots = malloc((size_t)(2 * (nmax + nmin) + 8 * MIRRORED_EXTREMA) * sizeof *knots);
    upper = malloc((size_t)n * sizeof *upper);
    lower = malloc((size_t)n * sizeof *lower);
    {
        double *tmax = knots, *vmax = tmax + nmax + 2 * MIRRORED_EXTREMA;
        double *tmin = vmax + nmax + 2 * MIRRORED_EXTREMA;
        double *vmin = tmin + nmin + 2 * MIRRORED_EXTREMA;
        const double *et[2] = {tpos, tpos + nmax}, *ev[2] = {val, val + cap};
        double *kt[2] = {tmax, tmin}, *kv[2] = {vmax, vmin};
        int mirrored = mirror_extrema(et, ev, counts, x[0], x[n - 1], n, kt, kv, cnt);

        if (mirrored != 0) {
            if (status != mirrored)
                fail(name, "mirror failure not reported");
        } else if (status != (oscillatory ? 0 : 2) || steps != 1) {
            fail(name, "step status differs from the composition's gate");
        } else {
            if (hht_spline_eval(tmax, vmax, cnt[0], upper, n)
                || hht_spline_eval(tmin, vmin, cnt[1], lower, n))
                fail(name, "spline scratch allocation failed");
            /* h is x - mean, whether the gate passed or not */
            for (i = 0; i < n; i++)
                lower[i] = x[i] - (upper[i] + lower[i]) * 0.5;
            if (memcmp(lower, h, (size_t)n * sizeof *h) != 0)
                fail(name, "sifted h differs from the composition");
        }
    }
    free(lower);
    free(upper);
    free(knots);
    free(tpos);
    free(pos);
    free(val);
    free(h);
}

/* hht_sift_component on x[0..n-1] with the whole budget against the chain
 * of one-step calls, each scanning its input afresh: the same status, step
 * count and h, bit for bit, from one allocation. */
static void check_component(const char *name, const double *x, ptrdiff_t n, ptrdiff_t budget)
{
    ptrdiff_t steps, one, chained = 0;
    double *h = malloc((size_t)n * sizeof *h), *chain = malloc((size_t)n * sizeof *chain);
    double *next = malloc((size_t)n * sizeof *next), *swap;
    int status, link;

    mallocs = 0;
    status = hht_sift_component(x, n, budget, h, &steps);
    if (mallocs != 1)
        fail(name, "component sift did not allocate exactly once");

    memcpy(chain, x, (size_t)n * sizeof *chain);
    for (;;) {
        link = hht_sift_component(chain, n, 1, next, &one);
        chained += one;
        swap = chain;
        chain = next;
        next = swap;
        if (link != 2 || chained == budget)
            break;
    }
    if (status != link || steps != chained)
        fail(name, "component sift differs from the one-step chain");
    else if (status >= 0 && memcmp(h, chain, (size_t)n * sizeof *h) != 0)
        fail(name, "component h differs from the one-step chain");
    free(h);
    free(chain);
    free(next);
}

/* Peels components off x[0..n-1] as decompose does, without its centering:
 * each component's sift, checked by check_component with the whole budget
 * and with a budget of 3, is subtracted from the residue, until a sift
 * finds too few extrema.  Late residues run out of extrema partway through
 * a sift. */
static void check_peel(const char *name, const double *x, ptrdiff_t n)
{
    ptrdiff_t steps, i, c;
    double *r = malloc((size_t)n * sizeof *r), *h = malloc((size_t)n * sizeof *h);
    int status;

    memcpy(r, x, (size_t)n * sizeof *r);
    for (c = 0; c < 12; c++) {
        check_component(name, r, n, 100);
        check_component(name, r, n, 3);
        status = hht_sift_component(r, n, 100, h, &steps);
        if (status < 0 || steps == 0)
            break;
        for (i = 0; i < n; i++)
            r[i] -= h[i];
    }
    free(r);
    free(h);
}

/* mirror_extrema on two maxima (max_t, max_v) and two minima (min_t, min_v)
 * of a series of n_x zeros, which no scan returns, against its expected
 * status. */
static void check_mirror(const char *name, const double *max_t, const double *max_v,
                         const double *min_t, const double *min_v, ptrdiff_t n_x,
                         int expected)
{
    double knots[4 * (2 + 2 * MIRRORED_EXTREMA)];
    double *tmax = knots, *vmax = tmax + 2 + 2 * MIRRORED_EXTREMA;
    double *tmin = vmax + 2 + 2 * MIRRORED_EXTREMA, *vmin = tmin + 2 + 2 * MIRRORED_EXTREMA;
    const double *et[2] = {max_t, min_t}, *ev[2] = {max_v, min_v};
    double *kt[2] = {tmax, tmin}, *kv[2] = {vmax, vmin};
    ptrdiff_t two[2] = {2, 2}, cnt[2];

    if (mirror_extrema(et, ev, two, 0.0, 0.0, n_x, kt, kv, cnt) != expected)
        fail(name, "unexpected mirror status");
}

/* mirror_extrema on the extrema of x[0..n-1] (frame 0) and on the same
 * extrema reflected by t -> end - t, with x's ends swapped (frame 1): the
 * same status and, where it succeeds, the knots reflected the same way, bit
 * for bit. */
static void check_reflection(const char *name, const double *x, ptrdiff_t n)
{
    ptrdiff_t cap = n / 2 + 1, count[2], cnt[2][2], f, q, i, j;
    ptrdiff_t *pos = malloc((size_t)(2 * cap) * sizeof *pos);
    double *val = malloc((size_t)(2 * cap) * sizeof *val);
    /* per frame and kind, rows of cap + 2 M: extrema positions and values,
     * then knot positions and values */
    double *rows = malloc((size_t)(16 * (cap + 2 * MIRRORED_EXTREMA)) * sizeof *rows);
    double *et[2][2], *ev[2][2], *kt[2][2], *kv[2][2], end = (double)(n - 1), t;
    int status[2], bad;

    for (f = 0; f < 2; f++)
        for (q = 0; q < 2; q++) {
            et[f][q] = rows + (8 * f + 4 * q) * (cap + 2 * MIRRORED_EXTREMA);
            ev[f][q] = et[f][q] + cap + 2 * MIRRORED_EXTREMA;
            kt[f][q] = ev[f][q] + cap + 2 * MIRRORED_EXTREMA;
            kv[f][q] = kt[f][q] + cap + 2 * MIRRORED_EXTREMA;
        }
    hht_find_extrema(x, n, cap, pos, val, count);
    if (count[0] >= 2 && count[1] >= 2) {
        for (q = 0; q < 2; q++)
            for (i = 0; i < count[q]; i++) {
                j = q * cap + count[q] - 1 - i;
                et[0][q][i] = (double)pos[q * cap + i];
                ev[0][q][i] = val[q * cap + i];
                et[1][q][i] = end - (double)pos[j];
                ev[1][q][i] = val[j];
            }
        for (f = 0; f < 2; f++) {
            const double *t_f[2] = {et[f][0], et[f][1]}, *v_f[2] = {ev[f][0], ev[f][1]};

            status[f] = mirror_extrema(t_f, v_f, count, x[f ? n - 1 : 0], x[f ? 0 : n - 1], n,
                                       kt[f], kv[f], cnt[f]);
        }
        bad = status[0] != status[1];
        for (q = 0; !bad && status[0] == 0 && q < 2; q++) {
            bad = cnt[1][q] != cnt[0][q];
            for (i = 0, j = cnt[0][q] - 1; !bad && i < cnt[0][q]; i++, j--) {
                t = end - kt[0][q][j];
                bad = memcmp(&kt[1][q][i], &t, sizeof t)
                      || memcmp(&kv[1][q][i], &kv[0][q][j], sizeof t);
            }
        }
        if (bad)
            fail(name, "mirror does not commute with reflection");
    }
    free(rows);
    free(val);
    free(pos);
}

/* Natural splines of k = 2, 3 and 4 knots, each solved in scratch malloc'd
 * at exactly the 5k - 5 doubles that spline_begin declares, so that a
 * coefficient written past it is caught; each must pass through its knots. */
static void check_spline_scratch(void)
{
    static const double t[4] = {0.0, 2.0, 3.0, 7.0}, v[4] = {0.5, -1.0, 2.0, 0.25};
    ptrdiff_t k, s;
    double *w, d;
    spline sp;

    for (k = 2; k <= 4; k++) {
        w = malloc((size_t)(5 * k - 5) * sizeof *w);
        if (w == NULL) {
            fail("spline scratch", "allocation failed");
            continue;
        }
        if (spline_begin(&sp, t, v, k, w) != w + (5 * k - 5))
            fail("spline scratch", "scratch is not 5k - 5 doubles");
        spline_solve(&sp, 1);
        for (s = 0; s < k - 1; s++) {
            d = spline_at(&sp, s, (ptrdiff_t)t[s + 1]) - v[s + 1];
            if (spline_at(&sp, s, (ptrdiff_t)t[s]) != v[s] || d > 1e-12 || d < -1e-12)
                fail("spline scratch", "spline misses a knot");
        }
        free(w);
    }
}

/* A seeded walk of n steps in [-1, 1), rounded to multiples of tick when
 * tick > 0, from a 64-bit linear congruential generator. */
static void walk(double *x, ptrdiff_t n, unsigned long long seed, double tick)
{
    ptrdiff_t i;
    double level = 0.0;

    for (i = 0; i < n; i++) {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        level += (double)(seed >> 11) / 4503599627370496.0 - 1.0;
        x[i] = tick > 0.0 ? (double)(long long)(level / tick) * tick : level;
    }
}

int main(void)
{
    /* length 16, exactly two maxima (1, 5) and two minima (3, 7) */
    static const double two_each[16] = {
        0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, -0.5, -0.2, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
    };
    static const double t3[3] = {-2.5, 4.0, 30.0}, v3[3] = {1.0, -2.0, 0.5};
    static const double t3_right[3] = {20.0, 21.0, 25.0};
    /* invalid extrema for a 9-sample series: maxima at -1 and 9 (with
     * minima at 1 and 9) leave the knots short of the series, and a maximum
     * at -1 (with another at 5 and minima at 1 and 5) stalls them */
    static const double out_t[2] = {-1.0, 9.0}, out_min_t[2] = {1.0, 9.0};
    static const double stall_t[2] = {-1.0, 5.0}, stall_min_t[2] = {1.0, 5.0};
    static const double ones[2] = {1.0, 1.0}, minus_ones[2] = {-1.0, -1.0};
    double x[400], out[16], flat[16];
    ptrdiff_t n, i;
    unsigned long long seed;

    check_step("two each", two_each, 16);

    /* too few extrema: monotone, constant and short series */
    for (i = 0; i < 16; i++) {
        x[i] = (double)i;
        flat[i] = 3.0;
    }
    check_step("monotone", x, 16);
    check_step("constant", flat, 16);
    for (n = 0; n < 5; n++)
        check_step("short", two_each, n);

    /* long plateaus: runs of 25 equal samples on alternating levels */
    for (i = 0; i < 400; i++)
        x[i] = (i / 25) % 2 ? 1.0 + (double)(i / 50) : -1.0 - (double)(i / 50);
    check_step("plateaus", x, 400);
    check_component("plateaus", x, 400, 100);

    /* zigzags: every interior sample is an extremum, the most the scan can
     * store; at odd n the segment maps fill the scan's block exactly.  Each
     * input is copied to a buffer of its own length. */
    for (i = 0; i < 4; i++) {
        static const ptrdiff_t lengths[4] = {16, 17, 399, 400};
        double *z = malloc((size_t)lengths[i] * sizeof *z);

        for (n = 0; n < lengths[i]; n++)
            z[n] = (n % 2 ? 1.0 : -1.0) * (1.0 + 0.01 * (double)(n % 7));
        check_step("zigzag", z, lengths[i]);
        check_component("zigzag", z, lengths[i], 100);
        free(z);
    }

    /* walks and tick-quantized walks of many lengths */
    for (seed = 1; seed <= 60; seed++) {
        n = 16 + (ptrdiff_t)(seed * 37 % 385);
        walk(x, n, seed, 0.0);
        check_step("walk", x, n);
        check_peel("walk", x, n);
        check_reflection("walk", x, n);
        walk(x, n, seed, 0.5);
        check_step("ticks", x, n);
        check_peel("ticks", x, n);
        check_reflection("ticks", x, n);
    }

    /* a walk, then a square wave of runs of four samples at +-1: far from
     * the walk the envelope mean is below half an ulp of 1, so each step
     * keeps the wave's plateaus, and the extrema carried from step to step
     * must place them as hht_find_extrema does */
    for (n = 16; n <= 400; n += 64) {
        walk(x, 400, (unsigned long long)n, 0.0);
        for (i = n; i < 400; i++)
            x[i] = (i / 4) % 2 ? 1.0 : -1.0;
        check_step("kept plateaus", x, 400);
        check_component("kept plateaus", x, 400, 100);
    }

    check_mirror("short of the series", out_t, minus_ones, out_min_t, minus_ones, 9, -1);
    check_mirror("stalled knots", stall_t, ones, stall_min_t, minus_ones, 9, -2);

    /* the spline alone: three knots around, past and right of the grid,
     * two knots, and an empty grid */
    if (hht_spline_eval(t3, v3, 3, out, 16) || hht_spline_eval(t3_right, v3, 3, out, 16)
        || hht_spline_eval(t3, v3, 2, out, 16) || hht_spline_eval(t3, v3, 3, out, 0))
        fail("spline", "scratch allocation failed");
    check_spline_scratch();

    if (failures)
        return 1;
    printf("ok\n");
    return 0;
}
