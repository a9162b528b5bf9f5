/* The three memory-bound passes over embedding rows, bit for bit, the
 * DLRM interaction's two passes in a fixed summation order and the
 * synthetic Zipf tables' guided CDF search.
 *
 * sparse_rows_update is the inner loop of fused_noisy_update and of
 * apply_sparse_update's gather path (fused.py); weighted_scatter_add is
 * the inner loop of PerExamplePairs.weighted_row_grad (nn/parameter.py);
 * gather_pool is EmbeddingBag's forward gather + sum (nn/layers.py).
 * All are sequential adds and correctly rounded products in the order
 * the numpy expressions beside them perform, so they need no tolerance —
 * as long as nothing is contracted or reassociated: build with
 * -ffp-contract=off and without -ffast-math (_native.FLAGS).
 * interaction_dots and interaction_grad are FeatureInteraction's
 * forward and backward (nn/layers.py); their order is the one written
 * above each, which the numpy twins beside them perform too.
 * cdf_search is the Zipf tables' inverse-CDF lookup
 * (data/synthetic.py): np.searchsorted(cdf, keys, side="left"), started
 * from a guide table and finished by comparisons alone, so it returns
 * the same ranks.
 *
 * Every value-dependent precondition is checked here, over all the
 * operands, before the first store; a refusal (a negative return) has
 * written nothing and the caller runs the numpy expression instead.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* How many rows ahead, on each side of the merge, the slab row is asked
 * for: an update of a few thousand random rows of a table far larger
 * than cache is one DRAM miss per row, and this many in flight hide
 * most of one (4 .. 16 measure the same; 0 is a quarter slower).  A
 * constant, not a parameter. */
#define PREFETCH_ROWS 8

#define REFUSED -1

/* One prefetch per 64-byte line of a dim-lane row.  A macro: gcc drops
 * calls to a static function whose body is only prefetches. */
#if defined(__GNUC__)
#define PREFETCH_ROW(row) \
    for (int64_t line = 0; line < dim; line += 8) __builtin_prefetch((row) + line)
#else
#define PREFETCH_ROW(row) ((void)0)
#endif

/* The three row loops, four lanes at a time with every load ahead of
 * the first store: out may be in itself (an in-place update), and
 * written this way the compiler needs no aliasing proof to keep the
 * four lanes in registers (or in two SSE2 vectors — same roundings). */

/* out = in - lr * v */
static inline void row_update(double *out, const double *in, double lr,
                              const double *v, int64_t dim)
{
    int64_t k = 0;
    for (; k + 4 <= dim; k += 4) {
        double a0 = in[k], a1 = in[k + 1], a2 = in[k + 2], a3 = in[k + 3];
        double v0 = v[k], v1 = v[k + 1], v2 = v[k + 2], v3 = v[k + 3];
        out[k] = a0 - lr * v0;
        out[k + 1] = a1 - lr * v1;
        out[k + 2] = a2 - lr * v2;
        out[k + 3] = a3 - lr * v3;
    }
    for (; k < dim; k++)
        out[k] = in[k] - lr * v[k];
}

/* out = in - lr * (g + n) */
static inline void row_update_sum(double *out, const double *in, double lr,
                                  const double *g, const double *n, int64_t dim)
{
    int64_t k = 0;
    for (; k + 4 <= dim; k += 4) {
        double a0 = in[k], a1 = in[k + 1], a2 = in[k + 2], a3 = in[k + 3];
        double s0 = g[k] + n[k], s1 = g[k + 1] + n[k + 1];
        double s2 = g[k + 2] + n[k + 2], s3 = g[k + 3] + n[k + 3];
        out[k] = a0 - lr * s0;
        out[k + 1] = a1 - lr * s1;
        out[k + 2] = a2 - lr * s2;
        out[k + 3] = a3 - lr * s3;
    }
    for (; k < dim; k++)
        out[k] = in[k] - lr * (g[k] + n[k]);
}

/* row += delta * scale */
static inline void row_add_scaled(double *row, const double *delta, double scale,
                                  int64_t dim)
{
    int64_t k = 0;
    for (; k + 4 <= dim; k += 4) {
        double r0 = row[k], r1 = row[k + 1], r2 = row[k + 2], r3 = row[k + 3];
        double d0 = delta[k], d1 = delta[k + 1], d2 = delta[k + 2], d3 = delta[k + 3];
        row[k] = r0 + d0 * scale;
        row[k + 1] = r1 + d1 * scale;
        row[k + 2] = r2 + d2 * scale;
        row[k + 3] = r3 + d3 * scale;
    }
    for (; k < dim; k++)
        row[k] += delta[k] * scale;
}

/* row += t */
static inline void row_add(double *row, const double *t, int64_t dim)
{
    int64_t k = 0;
    for (; k + 4 <= dim; k += 4) {
        double r0 = row[k], r1 = row[k + 1], r2 = row[k + 2], r3 = row[k + 3];
        double t0 = t[k], t1 = t[k + 1], t2 = t[k + 2], t3 = t[k + 3];
        row[k] = r0 + t0;
        row[k + 1] = r1 + t1;
        row[k + 2] = r2 + t2;
        row[k + 3] = r3 + t3;
    }
    for (; k < dim; k++)
        row[k] += t[k];
}

/* Strictly increasing and inside [row_base, row_base + nrows). */
static int rows_ok(const int64_t *rows, int64_t n, int64_t row_base, int64_t nrows)
{
    for (int64_t i = 1; i < n; i++)
        if (rows[i] <= rows[i - 1])
            return 0;
    /* Increasing, so the ends bound the rest (and, with row_base >= 0
     * checked by the caller, the difference cannot overflow). */
    return n == 0 || (rows[0] >= row_base && rows[n - 1] - row_base < nrows);
}

/* dst[r - row_base] = src[r - row_base] - lr * (g | n | g + n) for every
 * row r of the union of the two sorted-unique row sets, walked with two
 * pointers: no union buffer, no merged values.  src and dst are
 * (nrows, dim) slabs, the same one (in place) or disjoint.  Returns the
 * number of union rows written, or a refusal. */
int64_t sparse_rows_update(const double *src, double *dst, int64_t nrows,
                           int64_t dim, int64_t row_base, double lr,
                           const int64_t *g_rows, const double *g_values, int64_t ng,
                           const int64_t *n_rows, const double *n_values, int64_t nn)
{
    if (nrows < 0 || dim < 0 || row_base < 0 || ng < 0 || nn < 0)
        return REFUSED;
    if (!rows_ok(g_rows, ng, row_base, nrows) || !rows_ok(n_rows, nn, row_base, nrows))
        return REFUSED;

    int64_t i = 0, j = 0, written = 0;
    while (i < ng || j < nn) {
        /* The smaller head row; both sides at once where they share it. */
        const int take_g = j == nn || (i < ng && g_rows[i] <= n_rows[j]);
        const int take_n = i == ng || (j < nn && n_rows[j] <= g_rows[i]);
        const int64_t at = ((take_g ? g_rows[i] : n_rows[j]) - row_base) * dim;
        if (take_g && i + PREFETCH_ROWS < ng)
            PREFETCH_ROW(src + (g_rows[i + PREFETCH_ROWS] - row_base) * dim);
        if (take_n && j + PREFETCH_ROWS < nn)
            PREFETCH_ROW(src + (n_rows[j + PREFETCH_ROWS] - row_base) * dim);
        if (take_g && take_n)
            row_update_sum(dst + at, src + at, lr, g_values + i * dim,
                           n_values + j * dim, dim);
        else
            row_update(dst + at, src + at, lr,
                       take_g ? g_values + i * dim : n_values + j * dim, dim);
        i += take_g;
        j += take_n;
        written++;
    }
    return written;
}

/* values[inverse[p]] += deltas[example_ids[p]] * (weights[example_ids[p]]
 * * mults[p]) for p = 0 .. n_pairs - 1, in that order — np.add.at's.
 * values is (n_unique, dim) C-contiguous; deltas is (batch, dim) with
 * contiguous rows delta_stride bytes apart.  Returns n_pairs, or a
 * refusal. */
int64_t weighted_scatter_add(double *values, int64_t n_unique, int64_t dim,
                             const int64_t *inverse, const int64_t *example_ids,
                             const double *mults, int64_t n_pairs,
                             const char *deltas, int64_t delta_stride,
                             const double *weights, int64_t batch)
{
    if (n_unique < 0 || dim < 0 || n_pairs < 0 || batch < 0)
        return REFUSED;
    for (int64_t p = 0; p < n_pairs; p++)
        if (example_ids[p] < 0 || example_ids[p] >= batch ||
            inverse[p] < 0 || inverse[p] >= n_unique)
            return REFUSED;

    for (int64_t p = 0; p < n_pairs; p++) {
        int64_t example = example_ids[p];
        const double *delta = (const double *)(deltas + example * delta_stride);
        double scale = weights[example] * mults[p];
        row_add_scaled(values + inverse[p] * dim, delta, scale, dim);
    }
    return n_pairs;
}

/* out[b] = 0.0 + table[i_b0] + table[i_b1] + ... for b = 0 .. batch - 1,
 * the lookups i_bp = *(indices + b * example_stride + p * lookup_stride)
 * (strides in bytes) added in lookup order: numpy's add.reduce over
 * axis 1 of table[indices] — which starts from the identity, so a bag
 * of -0.0 rows pools to +0.0 — for dim > 1 (at dim 1 numpy sums along
 * the contiguous axis, pairwise; the caller does not come here).  No
 * (batch, pooling, dim) temporary: each row is read once, PREFETCH_ROWS
 * lookups ahead.  table is (nrows, dim) C-contiguous; out's rows are
 * contiguous, out_stride bytes apart.  Returns batch * pooling, or a
 * refusal (an index outside the table). */
int64_t gather_pool(char *out, int64_t out_stride, const double *table,
                    int64_t nrows, int64_t dim, const char *indices,
                    int64_t example_stride, int64_t lookup_stride,
                    int64_t batch, int64_t pooling)
{
#define LOOKUP(b, p) \
    (*(const int64_t *)(indices + (b) * example_stride + (p) * lookup_stride))
    if (nrows < 0 || dim < 0 || batch < 0 || pooling < 0)
        return REFUSED;
    for (int64_t b = 0; b < batch; b++)
        for (int64_t p = 0; p < pooling; p++)
            if (LOOKUP(b, p) < 0 || LOOKUP(b, p) >= nrows)
                return REFUSED;

    /* (ab, ap): the lookup PREFETCH_ROWS behind which (b, p) runs. */
    int64_t ab = 0, ap = 0;
    for (int64_t ahead = 0; ahead < PREFETCH_ROWS && ab < batch && pooling; ahead++) {
        PREFETCH_ROW(table + LOOKUP(ab, ap) * dim);
        if (++ap == pooling) { ap = 0; ab++; }
    }
    for (int64_t b = 0; b < batch; b++) {
        double *row = (double *)(out + b * out_stride);
        for (int64_t k = 0; k < dim; k++)
            row[k] = 0.0;
        for (int64_t p = 0; p < pooling; p++) {
            if (ab < batch) {
                PREFETCH_ROW(table + LOOKUP(ab, ap) * dim);
                if (++ap == pooling) { ap = 0; ab++; }
            }
            row_add(row, table + LOOKUP(b, p) * dim, dim);
        }
    }
    return batch * pooling;
#undef LOOKUP
}

/* The dot of two dim-long rows in four lanes: lane r sums the products
 * of the coordinates d = r, r + 4, r + 8, ... in that order, starting
 * from its first product (from -0.0, the exact additive identity: an
 * empty lane is -0.0), and the dot is (l0 + l1) + (l2 + l3). */
static inline double lane_dot(const double *x, const double *y, int64_t dim)
{
    double l0 = -0.0, l1 = -0.0, l2 = -0.0, l3 = -0.0;
    int64_t k = 0;
    for (; k + 4 <= dim; k += 4) {
        l0 += x[k] * y[k];
        l1 += x[k + 1] * y[k + 1];
        l2 += x[k + 2] * y[k + 2];
        l3 += x[k + 3] * y[k + 3];
    }
    if (k < dim)
        l0 += x[k] * y[k];
    if (k + 1 < dim)
        l1 += x[k + 1] * y[k + 1];
    if (k + 2 < dim)
        l2 += x[k + 2] * y[k + 2];
    return (l0 + l1) + (l2 + l3);
}

/* The interaction's forward: out[b] = stack[b, 0, :] followed by the
 * features * (features - 1) / 2 upper-triangle dots lane_dot(stack[b,
 * i], stack[b, j]) for i < j, row-major (np.triu_indices(features, 1)'s
 * order) — the top MLP's (batch, dim + pairs) input, written whole.
 * stack is (batch, features, dim) and out (batch, dim + pairs), both
 * C-contiguous.  Returns batch * pairs, or a refusal. */
int64_t interaction_dots(double *out, const double *stack, int64_t batch,
                         int64_t features, int64_t dim)
{
    if (batch < 0 || features < 1 || dim < 0)
        return REFUSED;
    const int64_t pairs = features * (features - 1) / 2;
    for (int64_t b = 0; b < batch; b++) {
        const double *s = stack + b * features * dim;
        double *row = out + b * (dim + pairs);
        memcpy(row, s, (size_t)dim * sizeof(double));
        double *dot = row + dim;
        for (int64_t i = 0; i + 1 < features; i++)
            for (int64_t j = i + 1; j < features; j++)
                *dot++ = lane_dot(s + i * dim, s + j * dim, dim);
    }
    return batch * pairs;
}

/* Where the dot of features lo < hi sits among the pairs. */
static inline int64_t pair_index(int64_t lo, int64_t hi, int64_t features)
{
    return lo * (2 * features - lo - 1) / 2 + (hi - lo - 1);
}

/* The interaction's backward:
 *   d_stack[b, f, :] = sum over g != f, g ascending, of
 *                      dp(f, g) * stack[b, g, :],
 * each coordinate sequential from its first term (from -0.0), where
 * dp(f, g) = dp(g, f) is the gradient of their dot: pair_index(min,
 * max) of the row d_pairs + b * pair_stride (bytes) — read in place
 * from the top MLP's input gradient, the delta[:, dim:] view.  Eight
 * coordinates at a time stay in registers across the walk over g.
 * stack and d_stack are (batch, features, dim) C-contiguous.  Returns
 * batch * features, or a refusal. */
int64_t interaction_grad(double *d_stack, const double *stack,
                         const char *d_pairs, int64_t pair_stride,
                         int64_t batch, int64_t features, int64_t dim)
{
    if (batch < 0 || features < 1 || dim < 0)
        return REFUSED;
    /* f's partners' coefficients, g ascending. */
    double *coef = malloc((size_t)features * sizeof(double));
    if (coef == NULL)
        return REFUSED;
    for (int64_t b = 0; b < batch; b++) {
        const double *s = stack + b * features * dim;
        const double *dp = (const double *)(d_pairs + b * pair_stride);
        for (int64_t f = 0; f < features; f++) {
            const int64_t partners = features - 1;
            for (int64_t g = 0; g < f; g++)
                coef[g] = dp[pair_index(g, f, features)];
            for (int64_t g = f + 1; g < features; g++)
                coef[g - 1] = dp[pair_index(f, g, features)];
            double *out = d_stack + (b * features + f) * dim;
            int64_t k = 0;
            for (; k + 8 <= dim; k += 8) {
                double a0 = -0.0, a1 = -0.0, a2 = -0.0, a3 = -0.0;
                double a4 = -0.0, a5 = -0.0, a6 = -0.0, a7 = -0.0;
                for (int64_t q = 0; q < partners; q++) {
                    const double c = coef[q];
                    const double *x = s + (q + (q >= f)) * dim + k;
                    a0 += c * x[0];
                    a1 += c * x[1];
                    a2 += c * x[2];
                    a3 += c * x[3];
                    a4 += c * x[4];
                    a5 += c * x[5];
                    a6 += c * x[6];
                    a7 += c * x[7];
                }
                out[k] = a0;
                out[k + 1] = a1;
                out[k + 2] = a2;
                out[k + 3] = a3;
                out[k + 4] = a4;
                out[k + 5] = a5;
                out[k + 6] = a6;
                out[k + 7] = a7;
            }
            for (; k < dim; k++) {
                double a = -0.0;
                for (int64_t q = 0; q < partners; q++)
                    a += coef[q] * s[(q + (q >= f)) * dim + k];
                out[k] = a;
            }
        }
    }
    free(coef);
    return batch * features;
}

/* out[j] = the leftmost i with cdf[i] >= keys[j] (n_cdf where there is
 * none): np.searchsorted(cdf, keys, side="left") of a non-decreasing
 * cdf.  guide has n_guide = K buckets, K a power of two, guide[k] the
 * leftmost i with cdf[i] >= k / K (synthetic.cdf_guide).  A key u in
 * [0, 1) has k = floor(u * K) with u * K exact (K is a power of two),
 * so k / K <= u: the answer is at or after guide[k], and every entry in
 * between is < u — the walk from guide[k] while cdf[i] < u ends on it.
 * Every key must be in [0, 1) (a NaN is not) and the guide
 * non-decreasing inside [0, n_cdf].  Returns n_keys, or a refusal. */
int64_t cdf_search(int64_t *out, const double *keys, int64_t n_keys,
                   const double *cdf, int64_t n_cdf,
                   const int64_t *guide, int64_t n_guide)
{
    if (n_keys < 0 || n_cdf < 0 || n_guide < 1 || (n_guide & (n_guide - 1)))
        return REFUSED;
    for (int64_t k = 0; k < n_guide; k++)
        if (guide[k] < (k ? guide[k - 1] : 0) || guide[k] > n_cdf)
            return REFUSED;
    for (int64_t j = 0; j < n_keys; j++)
        if (!(keys[j] >= 0.0 && keys[j] < 1.0))
            return REFUSED;

    const double buckets = (double)n_guide;
    for (int64_t j = 0; j < n_keys; j++) {
        const double u = keys[j];
        int64_t i = guide[(int64_t)(u * buckets)];
        while (i < n_cdf && cdf[i] < u)
            i++;
        out[j] = i;
    }
    return n_keys;
}
