/* The inner loop of NoiseStream._keyed_gaussians (noise.py), bit for bit.
 *
 * One tile of the keyed-Gaussian kernel is three calls: gauss_uniforms
 * here, numpy's natural-logarithm ufunc over the radius lane, and
 * gauss_finish here.  The logarithm stays numpy's because numpy's
 * AVX-512 float64 routine and libm's differ in the last ulp on a few
 * lattice points per thousand; numpy's float64 sin / cos *are* libm's,
 * and everything else is integer arithmetic, exact scalings and
 * correctly rounded sqrt / multiply.  Build without -ffast-math and with
 * -ffp-contract=off: a fused multiply-add would round once where the
 * ufunc chain rounds twice.  The loader (_native.py) compares one tile
 * against the ufunc chain before it trusts a build.
 */
#define _GNU_SOURCE /* sincos */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define PHILOX_M0 0xD2511F53u
#define PHILOX_M1 0xCD9E8D57u
#define PHILOX_W0 0x9E3779B9u
#define PHILOX_W1 0xBB67AE85u
#define TWO_PI 0x1.921fb54442d18p+2 /* float64 2.0 * pi, as boxmuller.py */

static inline void philox_rounds(uint32_t c[4], uint32_t k0, uint32_t k1, int rounds)
{
    for (int r = 0; r < rounds; r++) {
        uint64_t p0 = (uint64_t)PHILOX_M0 * c[0];
        uint64_t p1 = (uint64_t)PHILOX_M1 * c[2];
        uint32_t n0 = (uint32_t)(p1 >> 32) ^ c[1] ^ k0;
        uint32_t n2 = (uint32_t)(p0 >> 32) ^ c[3] ^ k1;
        c[0] = n0;
        c[1] = (uint32_t)p1;
        c[2] = n2;
        c[3] = (uint32_t)p0;
        k0 += PHILOX_W0;
        k1 += PHILOX_W1;
    }
}

/* (word + 0.5) / 2**32: exact in float64, strictly inside (0, 1). */
static inline double uniform(uint32_t word)
{
    return ((double)word + 0.5) * 0x1p-32;
}

static inline void trig(double theta, double *s, double *c)
{
#ifdef __GLIBC__
    /* One range reduction for both; tools/check_sincos_lattice.py shows it
     * returns sin's and cos's bits at every angle a tile can produce. */
    sincos(theta, s, c);
#else
    *s = sin(theta);
    *c = cos(theta);
#endif
}

/* philox4x32 (philox.py): n contiguous (4,) uint32 counters -> words. */
void philox4x32_blocks(const uint32_t *counters, int64_t n, uint32_t k0,
                       uint32_t k1, int32_t rounds, uint32_t *words)
{
    for (int64_t i = 0; i < 4 * n; i += 4) {
        uint32_t c[4] = {counters[i], counters[i + 1], counters[i + 2], counters[i + 3]};
        philox_rounds(c, k0, k1, rounds);
        memcpy(words + i, c, sizeof c);
    }
}

/* First half of a tile: counters (row, iteration, lane block b0 + j) ->
 * ten rounds -> uniforms.  Counter idx = r * n_blocks + j leaves words
 * 0 / 2 (the two radii) at radius[2 * idx ..] and words 1 / 3 (the two
 * angles) at angle[2 * idx ..].  rows / iterations are walked by byte
 * stride (0 = one value for every row).  Returns how many radius
 * uniforms fell outside (0, 1]. */
int64_t gauss_uniforms(const char *rows, int64_t row_stride,
                       const char *iterations, int64_t iteration_stride,
                       int64_t n_rows, int64_t b0, int64_t n_blocks,
                       uint32_t k0, uint32_t k1, double *radius, double *angle)
{
    int64_t outside = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        uint64_t row = *(const uint64_t *)(rows + r * row_stride);
        uint64_t iteration = *(const uint64_t *)(iterations + r * iteration_stride);
        for (int64_t j = 0; j < n_blocks; j++) {
            uint32_t c[4] = {(uint32_t)row, (uint32_t)(row >> 32),
                             (uint32_t)iteration, (uint32_t)(b0 + j)};
            philox_rounds(c, k0, k1, 10);
            radius[0] = uniform(c[0]);
            angle[0] = uniform(c[1]);
            radius[1] = uniform(c[2]);
            angle[1] = uniform(c[3]);
            outside += !(radius[0] > 0.0 && radius[0] <= 1.0);
            outside += !(radius[1] > 0.0 && radius[1] <= 1.0);
            radius += 2;
            angle += 2;
        }
    }
    return outside;
}

/* Second half: ln_radius holds the logarithms of gauss_uniforms' radius
 * lane.  Box-Muller tail, the per-row scale, and the interleaved store:
 * counter (r, j) owns out[r, 4 * (b0 + j) .. + 4), clipped at dim. */
void gauss_finish(const double *ln_radius, const double *angle,
                  const char *scale, int64_t scale_stride, int64_t n_rows,
                  int64_t b0, int64_t n_blocks, char *out, int64_t out_stride,
                  int64_t dim)
{
    for (int64_t r = 0; r < n_rows; r++) {
        double factor = *(const double *)(scale + r * scale_stride);
        double *row = (double *)(out + r * out_stride) + 4 * b0;
        int64_t left = dim - 4 * b0;
        for (int64_t j = 0; j < n_blocks; j++, left -= 4) {
            double z[4], s, c;
            for (int pair = 0; pair < 2; pair++) {
                double rho = sqrt(ln_radius[pair] * -2.0);
                trig(angle[pair] * TWO_PI, &s, &c);
                z[2 * pair] = rho * c;
                z[2 * pair + 1] = rho * s;
            }
            for (int k = 0; k < (left < 4 ? left : 4); k++)
                row[4 * j + k] = z[k] * factor;
            ln_radius += 2;
            angle += 2;
        }
    }
}

/* Of the `count` lattice angles 2 pi (w + 0.5) / 2**32, w = first +
 * i * step, how many does trig() return other bits for than sin and cos
 * called apart (through volatile pointers, or the compiler would merge
 * the pair into one sincos itself)? */
uint64_t sincos_lattice_mismatches(uint64_t first, uint64_t count, uint64_t step)
{
    double (*volatile apart_sin)(double) = sin;
    double (*volatile apart_cos)(double) = cos;
    uint64_t mismatches = 0;
    for (uint64_t i = 0; i < count; i++) {
        double theta = uniform((uint32_t)(first + i * step)) * TWO_PI;
        double s, c, want_s = apart_sin(theta), want_c = apart_cos(theta);
        trig(theta, &s, &c);
        mismatches += memcmp(&s, &want_s, sizeof s) || memcmp(&c, &want_c, sizeof c);
    }
    return mismatches;
}
