/* Runs the entries of src/hhtscale/_kernels/sift.c on edge inputs.
 *
 * tests/test_kernels.py (TestSanitized) builds it together with sift.c under
 * AddressSanitizer and UndefinedBehaviorSanitizer, so an access outside a
 * buffer, a leak or an undefined operation aborts the run.  Each case also
 * holds hht_sift_step to the composition it replaces (hht_find_extrema,
 * hht_mirror_extrema and two hht_spline_eval calls), bit for bit.  Prints
 * "ok" and exits 0 when every case passes.
 */

#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

void hht_find_extrema(const double *x, ptrdiff_t n, ptrdiff_t cap,
                      ptrdiff_t *pos, double *val, ptrdiff_t *cnt);
int hht_spline_eval(const double *t, const double *v, ptrdiff_t k,
                    double *out, ptrdiff_t n_out);
int hht_mirror_extrema(const double *max_t, const double *max_v, ptrdiff_t nmax,
                       const double *min_t, const double *min_v, ptrdiff_t nmin,
                       double x0, double x1, ptrdiff_t n_x, ptrdiff_t nbsym,
                       double *tmax, double *vmax, double *tmin, double *vmin,
                       ptrdiff_t *cnt);
int hht_sift_step(const double *x, ptrdiff_t n, ptrdiff_t nbsym, double *env,
                  ptrdiff_t *info);

static int failures;

static void fail(const char *name, const char *what)
{
    printf("%s: %s\n", name, what);
    failures++;
}

/* hht_sift_step on x[0..n-1] against its composition.  Buffers are sized
 * exactly, so that an access past one is caught. */
static void check_step(const char *name, const double *x, ptrdiff_t n, ptrdiff_t nbsym)
{
    ptrdiff_t cap = n / 2 + 1, info[3], counts[2], cnt[2], i, nmax, nmin;
    ptrdiff_t *pos = malloc((size_t)(2 * cap) * sizeof *pos);
    double *val = malloc((size_t)(2 * cap) * sizeof *val);
    double *env = malloc((size_t)(n + 1) * sizeof *env);
    double *tpos, *knots, *upper, *lower;
    int status, oscillatory = 1;

    status = hht_sift_step(x, n, nbsym, env, info);
    hht_find_extrema(x, n, cap, pos, val, counts);
    nmax = counts[0];
    nmin = counts[1];
    if (info[0] != nmax || info[1] != nmin)
        fail(name, "extrema counts differ");
    if (nmax < 2 || nmin < 2) {
        if (status != 1)
            fail(name, "too few extrema not reported");
        free(pos);
        free(val);
        free(env);
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
    /* rows tmax, vmax [nmax + 2 nbsym], tmin, vmin [nmin + 2 nbsym] */
    knots = malloc((size_t)(2 * (nmax + nmin) + 8 * nbsym) * sizeof *knots);
    upper = malloc((size_t)n * sizeof *upper);
    lower = malloc((size_t)n * sizeof *lower);
    {
        double *tmax = knots, *vmax = tmax + nmax + 2 * nbsym;
        double *tmin = vmax + nmax + 2 * nbsym, *vmin = tmin + nmin + 2 * nbsym;
        int mirrored = hht_mirror_extrema(tpos, val, nmax, tpos + nmax, val + cap, nmin, x[0],
                                          x[n - 1], n, nbsym, tmax, vmax, tmin, vmin, cnt);

        if (mirrored != 0) {
            if (status != mirrored)
                fail(name, "mirror failure not reported");
        } else if (status != 0) {
            fail(name, "step failed where its composition succeeds");
        } else {
            if (hht_spline_eval(tmax, vmax, cnt[0], upper, n)
                || hht_spline_eval(tmin, vmin, cnt[1], lower, n))
                fail(name, "spline scratch allocation failed");
            for (i = 0; i < n; i++)
                upper[i] = (upper[i] + lower[i]) * 0.5;
            if (memcmp(upper, env, (size_t)n * sizeof *env) != 0)
                fail(name, "envelope mean differs from the composition");
            if (info[2] != oscillatory)
                fail(name, "oscillatory flag differs");
        }
    }
    free(lower);
    free(upper);
    free(knots);
    free(tpos);
    free(pos);
    free(val);
    free(env);
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
    double x[400], out[16], flat[16];
    ptrdiff_t n, i, nbsym;
    unsigned long long seed;

    for (nbsym = 1; nbsym <= 4; nbsym++)
        check_step("two each", two_each, 16, nbsym);
    /* nbsym past the extrema count */
    check_step("two each, nbsym 1000", two_each, 16, 1000);

    /* too few extrema: monotone, constant and short series */
    for (i = 0; i < 16; i++) {
        x[i] = (double)i;
        flat[i] = 3.0;
    }
    check_step("monotone", x, 16, 2);
    check_step("constant", flat, 16, 2);
    for (n = 0; n < 5; n++)
        check_step("short", two_each, n, 2);

    /* long plateaus: runs of 25 equal samples on alternating levels */
    for (i = 0; i < 400; i++)
        x[i] = (i / 25) % 2 ? 1.0 + (double)(i / 50) : -1.0 - (double)(i / 50);
    check_step("plateaus", x, 400, 2);
    check_step("plateaus, nbsym past the count", x, 400, 50);

    /* zigzags: every interior sample is an extremum, the most the scan can
     * store; at odd n the segment maps fill the scan's block exactly.  Each
     * input is copied to a buffer of its own length. */
    for (i = 0; i < 4; i++) {
        static const ptrdiff_t lengths[4] = {16, 17, 399, 400};
        double *z = malloc((size_t)lengths[i] * sizeof *z);

        for (n = 0; n < lengths[i]; n++)
            z[n] = (n % 2 ? 1.0 : -1.0) * (1.0 + 0.01 * (double)(n % 7));
        check_step("zigzag", z, lengths[i], 1 + i % 2);
        free(z);
    }

    /* walks and tick-quantized walks of many lengths */
    for (seed = 1; seed <= 60; seed++) {
        n = 16 + (ptrdiff_t)(seed * 37 % 385);
        walk(x, n, seed, 0.0);
        check_step("walk", x, n, 1 + (ptrdiff_t)(seed % 3));
        walk(x, n, seed, 0.5);
        check_step("ticks", x, n, 2);
    }

    /* the spline alone: three knots around, past and right of the grid,
     * two knots, and an empty grid */
    if (hht_spline_eval(t3, v3, 3, out, 16) || hht_spline_eval(t3_right, v3, 3, out, 16)
        || hht_spline_eval(t3, v3, 2, out, 16) || hht_spline_eval(t3, v3, 3, out, 0))
        fail("spline", "scratch allocation failed");

    if (failures)
        return 1;
    printf("ok\n");
    return 0;
}
