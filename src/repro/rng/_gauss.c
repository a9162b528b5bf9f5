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
 *
 * Both halves have an AVX-512 body beside the scalar one, chosen by
 * what the CPU supports (gauss_vector_isa).  The Philox half is integer
 * work, its counters built in registers a row at a time.  The vector
 * sin / cos returns libm's bits without being libm: it evaluates each
 * value to within EVAL_ERROR (2^-11) ulp, keeps the correctly rounded
 * result only where the exact value is farther than WINDOW + EVAL_ERROR
 * ulp from a rounding midpoint (WINDOW = 0x1.2p-6, 0.0176), and hands
 * every other value to libm: about 7.1 % of the angles.  glibc's sin /
 * cos are off by at most 0.01556 ulp past 1/2 on this lattice, less
 * than WINDOW, so wherever a value is kept libm rounds correctly too;
 * tools/check_sincos_lattice.py checks the result against sin and cos
 * at all 2^32 angles a tile can produce.  The scaled values go straight
 * to the output, one interleaving vector store per eight.
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

/* The lattice checker's reference: sin and cos called apart (through
 * volatile pointers, or the compiler would merge the pair into one
 * sincos itself). */
static double (*volatile apart_sin)(double) = sin;
static double (*volatile apart_cos)(double) = cos;

/* 1: gauss_uniforms / gauss_finish run their AVX-512 bodies; 0: the
 * scalar C.  Set once, when the library is loaded, from what the CPU
 * supports; the loader clears it if the vector bodies fail its
 * self-test, and the tests clear it to run the scalar C on any host. */
int gauss_vector_isa = 0;

/* The window was measured against glibc's sin / cos, so the vector
 * sincos exists only where glibc is the libm. */
#if defined(__GLIBC__) && defined(__x86_64__) && defined(__GNUC__)
#define GAUSS_AVX512 1
#include <immintrin.h>

__attribute__((constructor)) static void pick_vector_isa(void)
{
    __builtin_cpu_init();
    gauss_vector_isa = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
}

#define AVX512 __attribute__((target("avx512f,avx512dq")))

/* BEGIN generated by tools/gen_sincos_table.py: do not edit */
/* pi / 2 = PIO2_1 + PIO2_2 + PIO2_3 + PIO2_4: three 33-bit pieces
 * (k * piece is exact for k <= 4) and the tail. */
#define PIO2_1 0x1.921fb54400000p+0
#define PIO2_2 0x1.0b4611a600000p-34
#define PIO2_3 0x1.3198a2e000000p-69
#define PIO2_4 0x1.b839a252049c1p-104
#define TWO_OVER_PI 0x1.45f306dc9c883p-1
#define SINCOS_J_MAX 51
/* {sin hi, sin lo, cos hi, cos lo} of j / 64, j = -SINCOS_J_MAX .. SINCOS_J_MAX. */
static const double SINCOS_J64[103][4] = {
    {-0x1.6e2b77c40bde1p-1, 0x1.0e729857fad53p-56, 0x1.65dc1fdeb8cbap-1, -0x1.97c1b47337c77p-58}, /* -51 */
    {-0x1.6888a4e134b2fp-1, 0x1.6b7d37644d5e6p-55, 0x1.6b898fa9efb5dp-1, 0x1.15ac786ccf4b2p-56}, /* -50 */
    {-0x1.62cf49921ac79p-1, 0x1.edd9855b6241ap-55, 0x1.712046fa77678p-1, 0x1.425b0a5029c81p-55}, /* -49 */
    {-0x1.5cffc16bf8f0dp-1, -0x1.96cb370eb578ap-55, 0x1.769fec655211fp-1, -0x1.827d5cf8c68c5p-57}, /* -48 */
    {-0x1.571a6966d59b3p-1, -0x1.c843b4d0fb197p-58, 0x1.7c0827f09e54fp-1, -0x1.c73d6d72aee68p-57}, /* -47 */
    {-0x1.511f9fd7b351cp-1, 0x1.5c0e861c48831p-55, 0x1.8158a31916d5dp-1, -0x1.de8b90b8228dep-57}, /* -46 */
    {-0x1.4b0fc46aab761p-1, -0x1.0da05738cc59cp-61, 0x1.869108d77a6c6p-1, 0x1.338ffe2bfe9ddp-56}, /* -45 */
    {-0x1.44eb381cf386bp-1, 0x1.3ed6c1e6a5505p-55, 0x1.8bb105a5dc900p-1, 0x1.863e03e9474c1p-55}, /* -44 */
    {-0x1.3eb25d36cd53ap-1, 0x1.be570e1570fc0p-58, 0x1.90b84784ddaf7p-1, -0x1.0feb10ab93b87p-56}, /* -43 */
    {-0x1.386597456282bp-1, 0x1.10fada93b07a8p-56, 0x1.95a67e00cb1fdp-1, -0x1.0befda21f862dp-55}, /* -42 */
    {-0x1.32054b148bc4fp-1, -0x1.f6b42095a135bp-55, 0x1.9a7b5a36a6514p-1, 0x1.722cfcc9fa7a9p-55}, /* -41 */
    {-0x1.2b91dea88421ep-1, 0x1.fa371db216ab0p-55, 0x1.9f368ed912f85p-1, -0x1.1d200c5791606p-55}, /* -40 */
    {-0x1.250bb93788bbbp-1, -0x1.ea3d02457bccep-56, 0x1.a3d7d0352bdcfp-1, -0x1.68dbaeca19669p-55}, /* -39 */
    {-0x1.1e7343236574cp-1, -0x1.22a3fa4f41d5ap-56, 0x1.a85ed4373e02dp-1, 0x1.9be06385ec792p-57}, /* -38 */
    {-0x1.17c8e5f2eedb0p-1, -0x1.35e57102e2488p-57, 0x1.accb526f69de5p-1, 0x1.8fb6a8dd6b6ccp-55}, /* -37 */
    {-0x1.110d0c4b69c3bp-1, -0x1.d918998809981p-55, 0x1.b11d04162a4c6p-1, 0x1.1dd561efbc0c2p-56}, /* -36 */
    {-0x1.0a4021e9e1001p-1, 0x1.6f643a13914f6p-55, 0x1.b553a410c104ep-1, 0x1.8ff7947027a15p-58}, /* -35 */
    {-0x1.0362939c69955p-1, 0x1.2d8cd78397b01p-55, 0x1.b96eeef58840ep-1, 0x1.45a3cc78fade0p-58}, /* -34 */
    {-0x1.f8e99e76abc97p-2, -0x1.9d950af2d00a3p-58, 0x1.bd6ea310294f5p-1, 0x1.31bbcc88c109dp-56}, /* -33 */
    {-0x1.eaee8744b05f0p-2, 0x1.789b43c9b027dp-58, 0x1.c1528065b7d50p-1, -0x1.892111312e828p-55}, /* -32 */
    {-0x1.dcd4c15329c9ap-2, -0x1.0d4c6e171fd9ap-56, 0x1.c51a48b8b175ep-1, -0x1.1bbb43b9aa880p-57}, /* -31 */
    {-0x1.ce9d2e3d4a51fp-2, 0x1.2fc8a12dae298p-57, 0x1.c8c5bf8ce1a84p-1, 0x1.ab3d1a1590123p-56}, /* -30 */
    {-0x1.c048b17b140a3p-2, -0x1.19fe6757e9fa7p-57, 0x1.cc54aa2b2972ep-1, 0x1.4ee162ba83a98p-57}, /* -29 */
    {-0x1.b1d8305321617p-2, 0x1.ae242cb99f519p-56, 0x1.cfc6cfa52ad9fp-1, 0x1.8b5b5508f2a0dp-55}, /* -28 */
    {-0x1.a34c91cc50ccap-2, 0x1.a310e3b50cecdp-58, 0x1.d31bf8d8d7c06p-1, 0x1.e60dd3089cbddp-56}, /* -27 */
    {-0x1.94a6be9f546c5p-2, 0x1.69ce13e683f58p-56, 0x1.d653f073e4040p-1, -0x1.76236434bec37p-55}, /* -26 */
    {-0x1.85e7a12826949p-2, -0x1.8a40e9b5face0p-56, 0x1.d96e82f71a9dcp-1, 0x1.ff61bd5d2039dp-55}, /* -25 */
    {-0x1.7710255764214p-2, 0x1.6ead7314bb6cep-57, 0x1.dc6b7eb995912p-1, 0x1.4b364776dcd35p-58}, /* -24 */
    {-0x1.682138a38d7f7p-2, 0x1.d889202444aadp-56, 0x1.df4ab3ebd875ep-1, -0x1.e2d8a7e6736c4p-55}, /* -23 */
    {-0x1.591bc9fa2f597p-2, -0x1.7c74bac3fe0cbp-57, 0x1.e20bf49acd6c1p-1, -0x1.660aec7ef636bp-58}, /* -22 */
    {-0x1.4a00c9b0f3d20p-2, -0x1.823ba6bb08eadp-56, 0x1.e4af14b2a449cp-1, -0x1.68ca02e8a6833p-55}, /* -21 */
    {-0x1.3ad129769d3d8p-2, -0x1.03d550487839ap-63, 0x1.e733ea0193d40p-1, -0x1.6428b3546ce13p-55}, /* -20 */
    {-0x1.2b8ddc43eb49fp-2, -0x1.1553899f2d807p-57, 0x1.e99a4c3a7cd83p-1, -0x1.2264b1bc53ce8p-55}, /* -19 */
    {-0x1.1c37d64c6b876p-2, -0x1.46076fe0dcff4p-56, 0x1.ebe214f76efa8p-1, -0x1.02f9f12ba543ep-55}, /* -18 */
    {-0x1.0cd00cef36436p-2, 0x1.9fb0a0c93e2b4p-56, 0x1.ee0b1fbc0f11cp-1, -0x1.bfd2380bbc3b1p-59}, /* -17 */
    {-0x1.faaeed4f31577p-3, 0x1.15d88508e32b8p-57, 0x1.f01549f7deea1p-1, 0x1.d3c1e99e5cafdp-55}, /* -16 */
    {-0x1.db9e15fb5a5d0p-3, 0x1.32e20d6cc6fc2p-57, 0x1.f20073086649fp-1, 0x1.b940416c1984bp-56}, /* -15 */
    {-0x1.bc6f84edc6199p-3, -0x1.9c1a56a7b0cabp-57, 0x1.f3cc7c3b3d16ep-1, -0x1.21a3ad28a3494p-57}, /* -14 */
    {-0x1.9d252d0cec312p-3, -0x1.9c43d80b1137dp-58, 0x1.f57948cff6797p-1, 0x1.e3a0d3e03b1d4p-57}, /* -13 */
    {-0x1.7dc102fbaf2b5p-3, -0x1.5ab50e23c97c3p-59, 0x1.f706bdf9ece1cp-1, -0x1.698c80c36dcb4p-55}, /* -12 */
    {-0x1.5e44fcfa126f3p-3, 0x1.6f443063f89b6p-57, 0x1.f874c2e1eecf6p-1, -0x1.c6514e1332b16p-55}, /* -11 */
    {-0x1.3eb312c5d66cbp-3, -0x1.47d666b66cb91p-57, 0x1.f9c340a7cc428p-1, 0x1.c5b6b063b7462p-55}, /* -10 */
    {-0x1.1f0d3d7afceafp-3, 0x1.6ef95099769a5p-57, 0x1.faf22263c4bd3p-1, -0x1.52ace133a2769p-58}, /* -9 */
    {-0x1.feaaeee86ee36p-4, 0x1.afcb2bcc6f03bp-59, 0x1.fc015527d5bd3p-1, 0x1.b68f35094efb8p-55}, /* -8 */
    {-0x1.bf1b78568391dp-4, -0x1.e91841dea4cc8p-58, 0x1.fcf0c800e99b1p-1, 0x1.ea3d786d186acp-57}, /* -7 */
    {-0x1.7f701032550e4p-4, -0x1.afc2d1800501ap-60, 0x1.fdc06bf7e6b9bp-1, 0x1.31902b535f8dbp-55}, /* -6 */
    {-0x1.3facb12d1755bp-4, 0x1.921915299468bp-58, 0x1.fe7034129ef6fp-1, -0x1.cbf4337c96f97p-57}, /* -5 */
    {-0x1.ffaaaeeed4edbp-5, 0x1.2d16d32684b69p-59, 0x1.ff0015549f4d3p-1, 0x1.328387b99426fp-55}, /* -4 */
    {-0x1.7fdc01032fba9p-5, 0x1.599bdf46e997ap-59, 0x1.ff7006bfdf99fp-1, -0x1.8b3b560648d5fp-56}, /* -3 */
    {-0x1.ffeaaaeeee86fp-6, 0x1.cd406fb224ae2p-60, 0x1.ffc00155527d3p-1, -0x1.3b54492d89b5bp-55}, /* -2 */
    {-0x1.fffaaaaeeeed5p-7, 0x1.2ab639a9f0776p-63, 0x1.fff000155549fp-1, 0x1.28a28a03a5ef3p-55}, /* -1 */
    {0x0.0p+0, 0x0.0p+0, 0x1.0000000000000p+0, 0x0.0p+0}, /* 0 */
    {0x1.fffaaaaeeeed5p-7, -0x1.2ab639a9f0776p-63, 0x1.fff000155549fp-1, 0x1.28a28a03a5ef3p-55}, /* 1 */
    {0x1.ffeaaaeeee86fp-6, -0x1.cd406fb224ae2p-60, 0x1.ffc00155527d3p-1, -0x1.3b54492d89b5bp-55}, /* 2 */
    {0x1.7fdc01032fba9p-5, -0x1.599bdf46e997ap-59, 0x1.ff7006bfdf99fp-1, -0x1.8b3b560648d5fp-56}, /* 3 */
    {0x1.ffaaaeeed4edbp-5, -0x1.2d16d32684b69p-59, 0x1.ff0015549f4d3p-1, 0x1.328387b99426fp-55}, /* 4 */
    {0x1.3facb12d1755bp-4, -0x1.921915299468bp-58, 0x1.fe7034129ef6fp-1, -0x1.cbf4337c96f97p-57}, /* 5 */
    {0x1.7f701032550e4p-4, 0x1.afc2d1800501ap-60, 0x1.fdc06bf7e6b9bp-1, 0x1.31902b535f8dbp-55}, /* 6 */
    {0x1.bf1b78568391dp-4, 0x1.e91841dea4cc8p-58, 0x1.fcf0c800e99b1p-1, 0x1.ea3d786d186acp-57}, /* 7 */
    {0x1.feaaeee86ee36p-4, -0x1.afcb2bcc6f03bp-59, 0x1.fc015527d5bd3p-1, 0x1.b68f35094efb8p-55}, /* 8 */
    {0x1.1f0d3d7afceafp-3, -0x1.6ef95099769a5p-57, 0x1.faf22263c4bd3p-1, -0x1.52ace133a2769p-58}, /* 9 */
    {0x1.3eb312c5d66cbp-3, 0x1.47d666b66cb91p-57, 0x1.f9c340a7cc428p-1, 0x1.c5b6b063b7462p-55}, /* 10 */
    {0x1.5e44fcfa126f3p-3, -0x1.6f443063f89b6p-57, 0x1.f874c2e1eecf6p-1, -0x1.c6514e1332b16p-55}, /* 11 */
    {0x1.7dc102fbaf2b5p-3, 0x1.5ab50e23c97c3p-59, 0x1.f706bdf9ece1cp-1, -0x1.698c80c36dcb4p-55}, /* 12 */
    {0x1.9d252d0cec312p-3, 0x1.9c43d80b1137dp-58, 0x1.f57948cff6797p-1, 0x1.e3a0d3e03b1d4p-57}, /* 13 */
    {0x1.bc6f84edc6199p-3, 0x1.9c1a56a7b0cabp-57, 0x1.f3cc7c3b3d16ep-1, -0x1.21a3ad28a3494p-57}, /* 14 */
    {0x1.db9e15fb5a5d0p-3, -0x1.32e20d6cc6fc2p-57, 0x1.f20073086649fp-1, 0x1.b940416c1984bp-56}, /* 15 */
    {0x1.faaeed4f31577p-3, -0x1.15d88508e32b8p-57, 0x1.f01549f7deea1p-1, 0x1.d3c1e99e5cafdp-55}, /* 16 */
    {0x1.0cd00cef36436p-2, -0x1.9fb0a0c93e2b4p-56, 0x1.ee0b1fbc0f11cp-1, -0x1.bfd2380bbc3b1p-59}, /* 17 */
    {0x1.1c37d64c6b876p-2, 0x1.46076fe0dcff4p-56, 0x1.ebe214f76efa8p-1, -0x1.02f9f12ba543ep-55}, /* 18 */
    {0x1.2b8ddc43eb49fp-2, 0x1.1553899f2d807p-57, 0x1.e99a4c3a7cd83p-1, -0x1.2264b1bc53ce8p-55}, /* 19 */
    {0x1.3ad129769d3d8p-2, 0x1.03d550487839ap-63, 0x1.e733ea0193d40p-1, -0x1.6428b3546ce13p-55}, /* 20 */
    {0x1.4a00c9b0f3d20p-2, 0x1.823ba6bb08eadp-56, 0x1.e4af14b2a449cp-1, -0x1.68ca02e8a6833p-55}, /* 21 */
    {0x1.591bc9fa2f597p-2, 0x1.7c74bac3fe0cbp-57, 0x1.e20bf49acd6c1p-1, -0x1.660aec7ef636bp-58}, /* 22 */
    {0x1.682138a38d7f7p-2, -0x1.d889202444aadp-56, 0x1.df4ab3ebd875ep-1, -0x1.e2d8a7e6736c4p-55}, /* 23 */
    {0x1.7710255764214p-2, -0x1.6ead7314bb6cep-57, 0x1.dc6b7eb995912p-1, 0x1.4b364776dcd35p-58}, /* 24 */
    {0x1.85e7a12826949p-2, 0x1.8a40e9b5face0p-56, 0x1.d96e82f71a9dcp-1, 0x1.ff61bd5d2039dp-55}, /* 25 */
    {0x1.94a6be9f546c5p-2, -0x1.69ce13e683f58p-56, 0x1.d653f073e4040p-1, -0x1.76236434bec37p-55}, /* 26 */
    {0x1.a34c91cc50ccap-2, -0x1.a310e3b50cecdp-58, 0x1.d31bf8d8d7c06p-1, 0x1.e60dd3089cbddp-56}, /* 27 */
    {0x1.b1d8305321617p-2, -0x1.ae242cb99f519p-56, 0x1.cfc6cfa52ad9fp-1, 0x1.8b5b5508f2a0dp-55}, /* 28 */
    {0x1.c048b17b140a3p-2, 0x1.19fe6757e9fa7p-57, 0x1.cc54aa2b2972ep-1, 0x1.4ee162ba83a98p-57}, /* 29 */
    {0x1.ce9d2e3d4a51fp-2, -0x1.2fc8a12dae298p-57, 0x1.c8c5bf8ce1a84p-1, 0x1.ab3d1a1590123p-56}, /* 30 */
    {0x1.dcd4c15329c9ap-2, 0x1.0d4c6e171fd9ap-56, 0x1.c51a48b8b175ep-1, -0x1.1bbb43b9aa880p-57}, /* 31 */
    {0x1.eaee8744b05f0p-2, -0x1.789b43c9b027dp-58, 0x1.c1528065b7d50p-1, -0x1.892111312e828p-55}, /* 32 */
    {0x1.f8e99e76abc97p-2, 0x1.9d950af2d00a3p-58, 0x1.bd6ea310294f5p-1, 0x1.31bbcc88c109dp-56}, /* 33 */
    {0x1.0362939c69955p-1, -0x1.2d8cd78397b01p-55, 0x1.b96eeef58840ep-1, 0x1.45a3cc78fade0p-58}, /* 34 */
    {0x1.0a4021e9e1001p-1, -0x1.6f643a13914f6p-55, 0x1.b553a410c104ep-1, 0x1.8ff7947027a15p-58}, /* 35 */
    {0x1.110d0c4b69c3bp-1, 0x1.d918998809981p-55, 0x1.b11d04162a4c6p-1, 0x1.1dd561efbc0c2p-56}, /* 36 */
    {0x1.17c8e5f2eedb0p-1, 0x1.35e57102e2488p-57, 0x1.accb526f69de5p-1, 0x1.8fb6a8dd6b6ccp-55}, /* 37 */
    {0x1.1e7343236574cp-1, 0x1.22a3fa4f41d5ap-56, 0x1.a85ed4373e02dp-1, 0x1.9be06385ec792p-57}, /* 38 */
    {0x1.250bb93788bbbp-1, 0x1.ea3d02457bccep-56, 0x1.a3d7d0352bdcfp-1, -0x1.68dbaeca19669p-55}, /* 39 */
    {0x1.2b91dea88421ep-1, -0x1.fa371db216ab0p-55, 0x1.9f368ed912f85p-1, -0x1.1d200c5791606p-55}, /* 40 */
    {0x1.32054b148bc4fp-1, 0x1.f6b42095a135bp-55, 0x1.9a7b5a36a6514p-1, 0x1.722cfcc9fa7a9p-55}, /* 41 */
    {0x1.386597456282bp-1, -0x1.10fada93b07a8p-56, 0x1.95a67e00cb1fdp-1, -0x1.0befda21f862dp-55}, /* 42 */
    {0x1.3eb25d36cd53ap-1, -0x1.be570e1570fc0p-58, 0x1.90b84784ddaf7p-1, -0x1.0feb10ab93b87p-56}, /* 43 */
    {0x1.44eb381cf386bp-1, -0x1.3ed6c1e6a5505p-55, 0x1.8bb105a5dc900p-1, 0x1.863e03e9474c1p-55}, /* 44 */
    {0x1.4b0fc46aab761p-1, 0x1.0da05738cc59cp-61, 0x1.869108d77a6c6p-1, 0x1.338ffe2bfe9ddp-56}, /* 45 */
    {0x1.511f9fd7b351cp-1, -0x1.5c0e861c48831p-55, 0x1.8158a31916d5dp-1, -0x1.de8b90b8228dep-57}, /* 46 */
    {0x1.571a6966d59b3p-1, 0x1.c843b4d0fb197p-58, 0x1.7c0827f09e54fp-1, -0x1.c73d6d72aee68p-57}, /* 47 */
    {0x1.5cffc16bf8f0dp-1, 0x1.96cb370eb578ap-55, 0x1.769fec655211fp-1, -0x1.827d5cf8c68c5p-57}, /* 48 */
    {0x1.62cf49921ac79p-1, -0x1.edd9855b6241ap-55, 0x1.712046fa77678p-1, 0x1.425b0a5029c81p-55}, /* 49 */
    {0x1.6888a4e134b2fp-1, -0x1.6b7d37644d5e6p-55, 0x1.6b898fa9efb5dp-1, 0x1.15ac786ccf4b2p-56}, /* 50 */
    {0x1.6e2b77c40bde1p-1, -0x1.0e729857fad53p-56, 0x1.65dc1fdeb8cbap-1, -0x1.97c1b47337c77p-58}, /* 51 */
};
/* END generated by tools/gen_sincos_table.py */

/* A value is kept only where its exact value is farther than WINDOW +
 * EVAL_ERROR ulp from a rounding midpoint.  EVAL_ERROR bounds the
 * vector evaluation's error (measured against mpmath: below 2^-13.3 ulp
 * over 2 M lattice angles and every switch point of the reduction);
 * WINDOW must exceed libm's worst error past 1/2 ulp on the lattice
 * (glibc 2.36: 0.01556), and tools/check_sincos_lattice.py measures
 * that and refuses a libm that comes within EVAL_ERROR of WINDOW: it
 * tolerates 0.01709, 10 % over glibc's.  About 4 (WINDOW + EVAL_ERROR)
 * of the angles, 7.1 %, have a value handed to libm. */
#define WINDOW 0x1.2p-6
#define EVAL_ERROR 0x1p-11
/* The largest |z_err| a kept lane may have, in units of 2^exponent(z). */
#define KEEP_ERR ((0.5 - WINDOW - EVAL_ERROR) * 0x1p-52)

/* The window, for the tests and the lattice checker; WINDOW -
 * EVAL_ERROR is the largest excess past 1/2 ulp libm may show on a
 * lane handed back to it (tools/check_sincos_lattice.py). */
const double sincos_window = WINDOW;
const double sincos_eval_error = EVAL_ERROR;
const double sincos_tolerated_excess = WINDOW - EVAL_ERROR;

/* Eight counters' ten rounds: 32-bit words in 64-bit lanes, so
 * _mm512_mul_epu32 is the 32 x 32 -> 64 product.  Only the low half of
 * each lane is a word: the multiplier reads nothing else, the rest
 * carries product bits along, and the words are cut out at the end. */
static AVX512 inline void philox8(__m512i c[4], const __m512i keys[10][2])
{
    const __m512i m0 = _mm512_set1_epi64(PHILOX_M0), m1 = _mm512_set1_epi64(PHILOX_M1);
    const __m512i low = _mm512_set1_epi64(0xFFFFFFFFu);
    for (int r = 0; r < 10; r++) {
        __m512i p0 = _mm512_mul_epu32(c[0], m0);
        __m512i p1 = _mm512_mul_epu32(c[2], m1);
        c[0] = _mm512_xor_si512(_mm512_xor_si512(_mm512_srli_epi64(p1, 32), c[1]), keys[r][0]);
        c[1] = p1;
        c[2] = _mm512_xor_si512(_mm512_xor_si512(_mm512_srli_epi64(p0, 32), c[3]), keys[r][1]);
        c[3] = p0;
    }
    for (int w = 0; w < 4; w++)
        c[w] = _mm512_and_si512(c[w], low);
}

static AVX512 inline __m512d uniform8(__m512i word)
{
    return _mm512_mul_pd(_mm512_add_pd(_mm512_cvtepu64_pd(word), _mm512_set1_pd(0.5)),
                         _mm512_set1_pd(0x1p-32));
}

/* How many of the `valid` lanes of u fall outside (0, 1]. */
static AVX512 inline int outside8(__m512d u, __mmask8 valid)
{
    __mmask8 inside = _mm512_cmp_pd_mask(u, _mm512_setzero_pd(), _CMP_GT_OQ)
                    & _mm512_cmp_pd_mask(u, _mm512_set1_pd(1.0), _CMP_LE_OQ);
    return __builtin_popcount(valid & ~inside);
}

/* permutex2var indices of the interleaved stream a[0], b[0], a[1],
 * b[1], ... of two vectors (b's lanes are 8 .. 15), padded so that any
 * 16 consecutive entries from 0 .. 12 load whole. */
static const int64_t INTERLEAVE[32] = {0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15};

/* Entries from .. from + count - 1 (count <= 16 - from) of the stream
 * interleaving a and b, to out[0 .. count). */
static AVX512 inline void store_interleaved(double *out, __m512d a, __m512d b, int from,
                                            int count)
{
    __mmask16 head = (__mmask16)(((uint32_t)1 << count) - 1);
    _mm512_mask_storeu_pd(out, (__mmask8)head, _mm512_permutex2var_pd(
        a, _mm512_loadu_si512(INTERLEAVE + from), b));
    _mm512_mask_storeu_pd(out + 8, (__mmask8)(head >> 8), _mm512_permutex2var_pd(
        a, _mm512_loadu_si512(INTERLEAVE + from + 8), b));
}

/* gauss_uniforms, eight counters a vector (the last one masked), built
 * in registers: each run of a vector's lanes that falls in one row
 * takes that row's and iteration's words broadcast and block ids
 * iota + b0 + j. */
static AVX512 int64_t uniforms_avx512(const char *rows, int64_t row_stride,
                                      const char *iterations, int64_t iteration_stride,
                                      int64_t n_rows, int64_t b0, int64_t n_blocks,
                                      uint32_t k0, uint32_t k1, double *radius, double *angle)
{
    const __m512i iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    __m512i keys[10][2];
    for (int r = 0; r < 10; r++, k0 += PHILOX_W0, k1 += PHILOX_W1) {
        keys[r][0] = _mm512_set1_epi64(k0);
        keys[r][1] = _mm512_set1_epi64(k1);
    }
    int64_t total = n_rows * n_blocks, outside = 0, r = 0, j = 0;
    for (int64_t i = 0; i < total; i += 8) {
        int count = total - i < 8 ? (int)(total - i) : 8;
        __m512i c[4] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                        _mm512_setzero_si512(), _mm512_setzero_si512()};
        for (int lane = 0; lane < count;) {
            int run = n_blocks - j < count - lane ? (int)(n_blocks - j) : count - lane;
            __mmask8 in_run = (__mmask8)(((1u << run) - 1) << lane);
            uint64_t row = *(const uint64_t *)(rows + r * row_stride);
            uint64_t iteration = *(const uint64_t *)(iterations + r * iteration_stride);
            c[0] = _mm512_mask_mov_epi64(c[0], in_run, _mm512_set1_epi64(row));
            c[1] = _mm512_mask_mov_epi64(c[1], in_run, _mm512_set1_epi64(row >> 32));
            c[2] = _mm512_mask_mov_epi64(c[2], in_run, _mm512_set1_epi64(iteration));
            c[3] = _mm512_mask_mov_epi64(c[3], in_run, _mm512_add_epi64(
                iota, _mm512_set1_epi64(b0 + j - lane)));
            lane += run;
            j += run;
            if (j == n_blocks) {
                j = 0;
                r++;
            }
        }
        philox8(c, keys);
        __mmask8 valid = (__mmask8)((1u << count) - 1);
        __m512d u0 = uniform8(c[0]), u2 = uniform8(c[2]);
        outside += outside8(u0, valid) + outside8(u2, valid);
        store_interleaved(radius + 2 * i, u0, u2, 0, 2 * count);
        store_interleaved(angle + 2 * i, uniform8(c[1]), uniform8(c[3]), 0, 2 * count);
    }
    return outside;
}

/* A value as z + err (err the rounding error of z). */
typedef struct {
    __m512d z, err;
} dd8;

static AVX512 inline dd8 two_sum(__m512d a, __m512d b)
{
    __m512d s = _mm512_add_pd(a, b), bb = _mm512_sub_pd(s, a);
    __m512d err = _mm512_add_pd(_mm512_sub_pd(a, _mm512_sub_pd(s, bb)), _mm512_sub_pd(b, bb));
    return (dd8){s, err};
}

/* |a| >= |b|. */
static AVX512 inline dd8 fast_two_sum(__m512d a, __m512d b)
{
    __m512d s = _mm512_add_pd(a, b);
    return (dd8){s, _mm512_sub_pd(b, _mm512_sub_pd(s, a))};
}

/* a * b = p + e exactly.  The vector sin / cos is its own evaluation,
 * not the ufunc chain's, so it uses fused multiply-adds freely: its
 * error is what EVAL_ERROR bounds. */
static AVX512 inline dd8 two_prod(__m512d a, __m512d b)
{
    __m512d p = _mm512_mul_pd(a, b);
    return (dd8){p, _mm512_fmsub_pd(a, b, p)};
}

/* Lanes where z is the correctly rounded value with room to spare:
 * |err| < KEEP_ERR ulp(z), z not a power of two (whose ulp below is
 * half the ulp above). */
static AVX512 inline __mmask8 safely_rounded(dd8 v)
{
    __m512i bits = _mm512_castpd_si512(v.z);
    __m512d binade = _mm512_castsi512_pd(_mm512_and_si512(bits, _mm512_set1_epi64(0x7FF0000000000000)));
    __m512d limit = _mm512_mul_pd(binade, _mm512_set1_pd(KEEP_ERR));
    return _mm512_test_epi64_mask(bits, _mm512_set1_epi64(0x000FFFFFFFFFFFFF))
         & _mm512_cmp_pd_mask(_mm512_abs_pd(v.err), limit, _CMP_LT_OQ);
}

static AVX512 inline dd8 negate_where(dd8 v, __mmask8 where)
{
    const __m512i sign = _mm512_set1_epi64((long long)0x8000000000000000ull);
    __m512i z = _mm512_castpd_si512(v.z), err = _mm512_castpd_si512(v.err);
    return (dd8){_mm512_castsi512_pd(_mm512_mask_xor_epi64(z, where, z, sign)),
                 _mm512_castsi512_pd(_mm512_mask_xor_epi64(err, where, err, sign))};
}

static AVX512 inline dd8 blend(__mmask8 where, dd8 a, dd8 b)
{
    return (dd8){_mm512_mask_blend_pd(where, a.z, b.z), _mm512_mask_blend_pd(where, a.err, b.err)};
}

/* sin and cos of eight angles in [0, 2 pi], each as z + err, and the
 * lanes where each z is safely rounded.
 *
 * theta = k pi / 2 + r_hi + r_lo, k = nearest(theta 2 / pi) <= 4, and
 * r_hi = j / 64 + t with |t| <= 1 / 128.  With S, C = sin, cos(j / 64)
 * from the table (hi + lo each) and tau = t + r_lo:
 *   sin(j / 64 + tau) = S + C t + [S_lo + C_lo t + C r_lo
 *                        + S (cos tau - 1) + C (sin tau - tau)]
 *   cos(j / 64 + tau) = C - S t + [C_lo - S_lo t - S r_lo
 *                        + C (cos tau - 1) - S (sin tau - tau)]
 * the leading two terms exact (two_prod, fast_two_sum), the bracket
 * small and evaluated with fused multiply-adds.  Always inlined: as a
 * call it returned its results through memory, 5 % of the tile. */
static AVX512 inline __attribute__((always_inline)) void sincos8(
    __m512d theta, dd8 *sin_out, dd8 *cos_out, __mmask8 *sin_safe, __mmask8 *cos_safe)
{
    const int nearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    __m512d k = _mm512_roundscale_pd(_mm512_mul_pd(theta, _mm512_set1_pd(TWO_OVER_PI)), nearest);
    /* theta - k PIO2_1 is exact (Sterbenz), and so are k PIO2_1..3. */
    __m512d t1 = _mm512_sub_pd(theta, _mm512_mul_pd(k, _mm512_set1_pd(PIO2_1)));
    dd8 r = two_sum(t1, _mm512_mul_pd(k, _mm512_set1_pd(-PIO2_2)));
    __m512d r_lo = _mm512_fnmadd_pd(k, _mm512_set1_pd(PIO2_4),
                                    _mm512_fnmadd_pd(k, _mm512_set1_pd(PIO2_3), r.err));
    r = fast_two_sum(r.z, r_lo);
    r_lo = r.err;

    __m512d j = _mm512_roundscale_pd(_mm512_mul_pd(r.z, _mm512_set1_pd(64.0)), nearest);
    __m512d t = _mm512_sub_pd(r.z, _mm512_mul_pd(j, _mm512_set1_pd(0x1p-6))); /* exact */
    __m512i row = _mm512_slli_epi64(
        _mm512_add_epi64(_mm512_cvtpd_epi64(j), _mm512_set1_epi64(SINCOS_J_MAX)), 2);
    __m512d s_hi = _mm512_i64gather_pd(row, &SINCOS_J64[0][0], 8);
    __m512d s_lo = _mm512_i64gather_pd(row, &SINCOS_J64[0][1], 8);
    __m512d c_hi = _mm512_i64gather_pd(row, &SINCOS_J64[0][2], 8);
    __m512d c_lo = _mm512_i64gather_pd(row, &SINCOS_J64[0][3], 8);

    /* sin tau - tau and cos tau - 1 to degree 7 / 6 at tau = t + r_lo
     * (at t alone, S (cos tau - 1) would drop -S t r_lo, up to 2^-8.5
     * ulp); |tau| <= 1/128 leaves truncation below 2^-70 of the result. */
    __m512d tau = _mm512_add_pd(t, r_lo), t2 = _mm512_mul_pd(tau, tau);
    __m512d sin_tail = _mm512_fmadd_pd(t2, _mm512_set1_pd(-1.0 / 5040.0),
                                       _mm512_set1_pd(1.0 / 120.0));
    sin_tail = _mm512_fmadd_pd(t2, sin_tail, _mm512_set1_pd(-1.0 / 6.0));
    sin_tail = _mm512_mul_pd(_mm512_mul_pd(tau, t2), sin_tail);
    __m512d cos_tail = _mm512_fmadd_pd(t2, _mm512_set1_pd(-1.0 / 720.0),
                                       _mm512_set1_pd(1.0 / 24.0));
    cos_tail = _mm512_fmadd_pd(t2, cos_tail, _mm512_set1_pd(-0.5));
    cos_tail = _mm512_mul_pd(t2, cos_tail);
    /* sin(j / 64 + tau) - S - C t and cos(j / 64 + tau) - C + S t, less
     * the leading sums' own errors (below): C and S multiply r_lo and the
     * sin tail together. */
    __m512d shift = _mm512_add_pd(r_lo, sin_tail);
    __m512d sin_rest = _mm512_fmadd_pd(c_lo, t, s_lo);
    sin_rest = _mm512_fmadd_pd(c_hi, shift, sin_rest);
    sin_rest = _mm512_fmadd_pd(s_hi, cos_tail, sin_rest);
    __m512d cos_rest = _mm512_fnmadd_pd(s_lo, t, c_lo);
    cos_rest = _mm512_fnmadd_pd(s_hi, shift, cos_rest);
    cos_rest = _mm512_fmadd_pd(c_hi, cos_tail, cos_rest);

    /* The leading sums: |S| >= sin(1 / 64) and |C| >= cos(51 / 64) are
     * never a binade below |C t| or |S t| (|t| <= 1/128), or S is 0. */
    dd8 p = two_prod(c_hi, t), head = fast_two_sum(s_hi, p.z);
    dd8 sin_r = fast_two_sum(head.z, _mm512_add_pd(_mm512_add_pd(p.err, head.err), sin_rest));
    p = two_prod(s_hi, t);
    head = fast_two_sum(c_hi, _mm512_sub_pd(_mm512_setzero_pd(), p.z));
    dd8 cos_r = fast_two_sum(head.z, _mm512_add_pd(_mm512_sub_pd(head.err, p.err), cos_rest));

    /* Quadrant k & 3: (sin, cos) = (s, c), (c, -s), (-s, -c), (-c, s). */
    __m512i quadrant = _mm512_cvtpd_epi64(k);
    __mmask8 odd = _mm512_test_epi64_mask(quadrant, _mm512_set1_epi64(1));
    __mmask8 upper = _mm512_test_epi64_mask(quadrant, _mm512_set1_epi64(2));
    *sin_out = negate_where(blend(odd, sin_r, cos_r), upper);
    *cos_out = negate_where(blend(odd, cos_r, sin_r), odd ^ upper);
    __mmask8 sin_r_safe = safely_rounded(sin_r), cos_r_safe = safely_rounded(cos_r);
    *sin_safe = (odd & cos_r_safe) | (~odd & sin_r_safe);
    *cos_safe = (odd & sin_r_safe) | (~odd & cos_r_safe);
}

/* A lane polar_avx512 hands to libm, as one word: its row (bits 32 ..
 * 61), its lane within the tile's part of that row (bits 0 .. 31:
 * 2 * block + pair) and the values it needs. */
#define NEED_SIN (1ull << 62)
#define NEED_COS (1ull << 63)
#define LISTED_ROW(word) (((word) >> 32) & 0x3FFFFFFFu)
/* Lanes listed per pass of polar_avx512 before finish_listed runs. */
#define POLAR_CHUNK 512

/* polar_avx512's fix-up: libm's values for the listed lanes, scaled
 * and stored over what the vector pass wrote there.  A lane whose sin
 * and cos both lie near a rounding midpoint calls sincos(); one that
 * needs one of them calls that function alone. */
static void finish_listed(const uint64_t *listed, const double *thetas, const double *rhos,
                          int64_t count, const char *scale, int64_t scale_stride,
                          int64_t b0, char *out, int64_t out_stride)
{
    for (int64_t k = 0; k < count; k++) {
        uint64_t word = listed[k], row = LISTED_ROW(word);
        double factor = *(const double *)(scale + row * scale_stride);
        double *z = (double *)(out + row * out_stride) + 4 * b0 + 2 * (uint32_t)word;
        if ((word & (NEED_SIN | NEED_COS)) == (NEED_SIN | NEED_COS)) {
            double s, c;
            trig(thetas[k], &s, &c);
            z[0] = rhos[k] * c * factor;
            z[1] = rhos[k] * s * factor;
        } else if (word & NEED_COS) {
            z[0] = rhos[k] * cos(thetas[k]) * factor;
        } else {
            z[1] = rhos[k] * sin(thetas[k]) * factor;
        }
    }
}

/* gauss_finish on the vector unit, eight lanes (four counters) a
 * vector: rho = sqrt(-2 ln_radius), theta = 2 pi angle, and for each
 * run of the vector's counters that falls in one row, rho cos / rho sin
 * times that row's scale in one interleaving store per eight values,
 * masked where dim clips the row.  A value sincos8 cannot round safely
 * is stored anyway, and its lane listed and overwritten with libm's
 * after the pass.  Returns how many lanes (angles) went to libm. */
static AVX512 int64_t polar_avx512(const double *ln_radius, const double *angle,
                                   const char *scale, int64_t scale_stride, int64_t n_rows,
                                   int64_t b0, int64_t n_blocks, char *out, int64_t out_stride,
                                   int64_t dim)
{
    const __m512i iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    const __m512i need_sin = _mm512_set1_epi64((long long)NEED_SIN);
    const __m512i need_cos = _mm512_set1_epi64((long long)NEED_COS);
    /* + 8: each compressed vector is stored whole. */
    uint64_t listed[POLAR_CHUNK + 8];
    double thetas[POLAR_CHUNK + 8], rhos[POLAR_CHUNK + 8];
    int64_t n = 2 * n_rows * n_blocks, fallbacks = 0, redo = 0, r = 0, j = 0;
    for (int64_t i = 0; i < n; i += 8) {
        int counters = n - i < 8 ? (int)(n - i) / 2 : 4;
        __mmask8 valid = (__mmask8)((1u << (2 * counters)) - 1);
        __m512d rho = _mm512_sqrt_pd(_mm512_mul_pd(
            _mm512_maskz_loadu_pd(valid, ln_radius + i), _mm512_set1_pd(-2.0)));
        __m512d theta = _mm512_mul_pd(_mm512_maskz_loadu_pd(valid, angle + i),
                                      _mm512_set1_pd(TWO_PI));
        dd8 s, c;
        __mmask8 sin_safe, cos_safe, with_cos = 0, with_sin = 0;
        sincos8(theta, &s, &c, &sin_safe, &cos_safe);
        __m512d rho_cos = _mm512_mul_pd(rho, c.z), rho_sin = _mm512_mul_pd(rho, s.z);
        __m512i word = _mm512_setzero_si512();
        for (int k = 0; k < counters;) {
            int run = n_blocks - j < counters - k ? (int)(n_blocks - j) : counters - k;
            int64_t left = dim - 4 * (b0 + j);
            int count = left < 4 * run ? (int)left : 4 * run;
            __m512d factor = _mm512_set1_pd(*(const double *)(scale + r * scale_stride));
            store_interleaved((double *)(out + r * out_stride) + 4 * (b0 + j),
                              _mm512_mul_pd(rho_cos, factor), _mm512_mul_pd(rho_sin, factor),
                              4 * k, count);
            /* The run's lanes 2 k .. hold its values' pairs; lane 2 k + m's
             * land at 2 m (cos) and 2 m + 1 (sin) of the count stored. */
            __mmask8 in_run = (__mmask8)(((1u << (2 * run)) - 1) << (2 * k));
            word = _mm512_mask_mov_epi64(word, in_run, _mm512_add_epi64(
                iota, _mm512_set1_epi64((r << 32) + 2 * (j - k))));
            with_cos |= (__mmask8)(((1u << ((count + 1) / 2)) - 1) << (2 * k));
            with_sin |= (__mmask8)(((1u << (count / 2)) - 1) << (2 * k));
            k += run;
            j += run;
            if (j == n_blocks) {
                j = 0;
                r++;
            }
        }
        __mmask8 bad_cos = with_cos & ~cos_safe, bad_sin = with_sin & ~sin_safe;
        __mmask8 back = bad_cos | bad_sin;
        word = _mm512_mask_or_epi64(word, bad_cos, word, need_cos);
        word = _mm512_mask_or_epi64(word, bad_sin, word, need_sin);
        _mm512_storeu_si512(listed + redo, _mm512_maskz_compress_epi64(back, word));
        _mm512_storeu_pd(thetas + redo, _mm512_maskz_compress_pd(back, theta));
        _mm512_storeu_pd(rhos + redo, _mm512_maskz_compress_pd(back, rho));
        redo += __builtin_popcount(back);
        if (redo >= POLAR_CHUNK) {
            finish_listed(listed, thetas, rhos, redo, scale, scale_stride, b0, out, out_stride);
            fallbacks += redo;
            redo = 0;
        }
    }
    finish_listed(listed, thetas, rhos, redo, scale, scale_stride, b0, out, out_stride);
    return fallbacks + redo;
}

/* sincos_lattice_mismatches through polar_avx512 (rho = 1, scale 1).
 * Beside the mismatch count: tally[0] += angles handed to libm; over
 * the values where libm's bits differ from sincos8's z + err, tally[1]
 * += their number, *widest = max of libm's excess past 1/2 ulp
 * (|libm - (z + err)| / |the double after z toward libm - z| - 1/2), and
 * their words go to misrounded[] while tally[1] < capacity. */
static AVX512 uint64_t lattice_avx512(uint64_t first, uint64_t count, uint64_t step,
                                      uint64_t *tally, double *widest,
                                      uint32_t *misrounded, uint64_t capacity)
{
    const double one = 1.0;
    uint64_t mismatches = 0;
    for (uint64_t i = 0; i < count; i += 8) {
        int n = count - i < 8 ? (int)(count - i) : 8;
        uint32_t words[8];
        /* ln_radius -0.5: rho = sqrt(-0.5 * -2.0) = 1. */
        double ln_radius[8], angles[8], thetas[8], values[16], z[2][8], err[2][8];
        for (int l = 0; l < 8; l++) {
            words[l] = (uint32_t)(first + (i + (l < n ? l : 0)) * step);
            ln_radius[l] = -0.5;
            angles[l] = uniform(words[l]);
            thetas[l] = angles[l] * TWO_PI;
        }
        /* n lanes are (n + 1) / 2 counters of one row, clipped at 2 n. */
        tally[0] += polar_avx512(ln_radius, angles, (const char *)&one, 0, 1, 0,
                                 (n + 1) / 2, (char *)values, 0, 2 * n);
        dd8 s, c;
        __mmask8 unused[2];
        sincos8(_mm512_loadu_pd(thetas), &s, &c, unused, unused + 1);
        _mm512_storeu_pd(z[0], s.z);
        _mm512_storeu_pd(err[0], s.err);
        _mm512_storeu_pd(z[1], c.z);
        _mm512_storeu_pd(err[1], c.err);
        for (int l = 0; l < n; l++) {
            double want[2] = {apart_sin(thetas[l]), apart_cos(thetas[l])};
            mismatches += memcmp(values + 2 * l + 1, want, sizeof *want)
                       || memcmp(values + 2 * l, want + 1, sizeof *want);
            for (int v = 0; v < 2; v++) {
                if (want[v] == z[v][l])
                    continue;
                double gap = fabs(nextafter(z[v][l], want[v]) - z[v][l]);
                double excess = fabs((want[v] - z[v][l]) - err[v][l]) / gap - 0.5;
                *widest = excess > *widest ? excess : *widest;
                if (tally[1] < capacity)
                    misrounded[tally[1]] = words[l];
                tally[1]++;
            }
        }
    }
    return mismatches;
}
#endif /* GAUSS_AVX512 */

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
#ifdef GAUSS_AVX512
    if (gauss_vector_isa)
        return uniforms_avx512(rows, row_stride, iterations, iteration_stride,
                               n_rows, b0, n_blocks, k0, k1, radius, angle);
#endif
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
 * counter (r, j) owns out[r, 4 * (b0 + j) .. + 4), clipped at dim.
 * Returns how many angles the vector body handed to libm (0 from the
 * scalar C, where every angle goes to sincos()). */
int64_t gauss_finish(double *ln_radius, double *angle,
                     const char *scale, int64_t scale_stride, int64_t n_rows,
                     int64_t b0, int64_t n_blocks, char *out, int64_t out_stride,
                     int64_t dim)
{
#ifdef GAUSS_AVX512
    if (gauss_vector_isa)
        return polar_avx512(ln_radius, angle, scale, scale_stride, n_rows, b0, n_blocks,
                            out, out_stride, dim);
#endif
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
    return 0;
}

/* Of the `count` lattice angles 2 pi (w + 0.5) / 2**32, w = first +
 * i * step (mod 2**32), how many does this build return other bits for
 * than sin and cos called apart?  The angles go through what
 * gauss_finish runs: the vector body where gauss_vector_isa is set
 * (see lattice_avx512 for what it also reports), else trig(). */
uint64_t sincos_lattice_mismatches(uint64_t first, uint64_t count, uint64_t step,
                                   uint64_t *tally, double *widest,
                                   uint32_t *misrounded, uint64_t capacity)
{
#ifdef GAUSS_AVX512
    if (gauss_vector_isa)
        return lattice_avx512(first, count, step, tally, widest, misrounded, capacity);
#endif
    uint64_t mismatches = 0;
    for (uint64_t i = 0; i < count; i++) {
        double theta = uniform((uint32_t)(first + i * step)) * TWO_PI;
        double s, c, want_s = apart_sin(theta), want_c = apart_cos(theta);
        trig(theta, &s, &c);
        mismatches += memcmp(&s, &want_s, sizeof s) || memcmp(&c, &want_c, sizeof c);
    }
    return mismatches;
}
