/* Executor of compiled V-cycle tapes, multigrid solves, sums of products,
 * quadrature weights and the history convolution (mgfk.executor:
 * tape_runner, Solve, dot, fill_weights, convolve).
 *
 * A tape is an array of records, each one level kernel of a V-cycle on
 * float64 buffers (a mgfk.executor.Kernel, packed by
 * mgfk.executor._record) in the run layout of mgfk.multigrid: along the
 * last axis each row holds, per part, n points and one zero pad cell, a 1D
 * grid one row, complex data the real and then the imaginary part, so one
 * record runs both parts.  Each loop does, per element, the IEEE
 * operations of the numpy reference in their order (run_numpy in the
 * tests' helpers.py).  Built with
 * -ffp-contract=off and without -ffast-math: no fused multiply-add but
 * mgfk_weights' fma calls, no reassociation; vector code only runs the
 * same operations on several elements at once.  The residual has a loop
 * for each tap count, 0 to 8, that keeps each element's sum in a register.
 * A transfer of single-element rows (len 1, a 1D grid) is one flat
 * stride-2 loop; a 2D transfer (len > 1) runs output row by output row: it
 * forms the row's values of the pass across rows in b, a row buffer, then
 * runs the flat loop along the row from b, so no grid between the two
 * passes is ever stored.  Every run and row is of even length.  On x86-64
 * glibc the kernel and mgfk_dot are also cloned for AVX2, and the loader
 * picks the clone the CPU runs, so one build serves every CPU of the
 * platform.
 *
 * o is the output, a the input array (b the residual's right-hand side or
 * a transfer's row buffer), s the scalar, k an element:
 *   RESIDUAL  o = b - (a s + sum over taps p of a[k + off_p] c_p)
 *   UPDATE    o = o + a s
 *   SCALE     o = a s;  DIVIDE  o = a / s;  ZERO  o = 0
 *   RESTRICT  o_q = ((a_2q + a_2q+1 2) + a_2q+2) 0.25 but for the last
 *             cell, a pad cell.  In 2D (rows of len cells in o, of 2 len in
 *             a) that is taken along row i of o from b, which first holds
 *             the same sum of rows 2i, 2i + 1 and 2i + 2 of a
 *   PROLONG   o_2q = o_2q + (a_q + a_q+1) 0.5, o_2q+1 = o_2q+1 + a_q+1.  In
 *             2D (rows of len cells in o, of len / 2 in a) row i of o is
 *             that taken over b: b_0 is the last cell of the b of row
 *             i - 1 (0 for row 0), and b_1 on row i of the pass across
 *             rows, (row q + row q + 1 of a) 0.5 for i = 2q and row q + 1
 *             of a for i = 2q + 1
 * then every pad-th element of o, from the pad - 1st on, is zeroed.
 *
 * mgfk_run_tape runs one tape.  mgfk_solve runs a whole multigrid solve
 * (mgfk.executor.Solve) as one call: up to the cap it is given, the fine
 * residual record, the residual's Euclidean norm (the mgfk_dot of the run
 * it writes, pad cells included, with itself), the stopping test and a
 * cycle.  mgfk_dot sums in an order of its own, whatever the CPU or BLAS.
 *
 * mgfk_weights fills the quadrature weights of mgfk.fsd, l_1 to l_count,
 * from l_0 by the Miller recurrence of mgfk.executor.fill_weights, each
 * l_n a chain of C99 fma calls; libm's (hence -lm) rounds once, exactly.
 *
 * mgfk_convolve is the history convolution of mgfk.feynman_kac: onto row r
 * of acc, for the step j = first + r, it adds the sum over the stored
 * levels k = lo..hi of w_{j-k} H_k, each element summed in ascending k:
 * acc + w h on real data, and on complex data, read as (re, im) pairs,
 * acc_re + (w_re h_re - w_im h_im) and acc_im + (w_re h_im + w_im h_re).
 * So rows summed a block of levels at a time, in one call for a block of
 * steps, get the bits of the plain sum of each step from 0.  It reads each
 * level once per call, TILE values at a time, and adds them onto every row
 * while that tile of the rows sits in L1, so its working set does not grow
 * with the row, and each value of a row's tile takes KB levels' terms in a
 * register between one load and one store.  It is cloned for AVX-512 as
 * well: with no fused multiply-add, the complex product is compute-bound,
 * and the wide registers carry most of the gain of the blocking.
 */
#include <math.h>
#include <stdint.h>

/* 5 was a kind of its own (o = o + a); the numbers after it stay as they
 * were, so a kind's number keeps one meaning */
enum { RESIDUAL, UPDATE, SCALE, DIVIDE, ZERO, RESTRICT = 6, PROLONG };

#define TAPS 8 /* off-centre points of a 9-point stencil, the most a residual has */

/* As mgfk.executor._RECORD describes it, addresses as int64: o holds n rows
 * of len elements (len is 1 but in a 2D transfer), s is the scalar and c
 * the taps' coefficients. */
typedef struct {
    int64_t kind, n, len, pad, out, a, b, taps, off[TAPS];
    double s, c[TAPS];
} record;

#define P(x) ((double *)(intptr_t)(x))
#define EACH(m) for (int64_t k = 0; k < (m); k++)

/* The residual of a record with NT taps: with NT a constant the tap loop
 * unrolls, and the element loop vectorises with acc in registers. */
#define RESIDUAL_CASE(NT)                                                           \
    case NT:                                                                        \
        EACH(n) {                                                                   \
            double acc = a[k] * s;                                                  \
            for (int p = 0; p < NT; p++)                                            \
                acc = acc + y[p][k] * c[p];                                         \
            o[k] = b[k] - acc;                                                      \
        }                                                                           \
        break;

#if defined(__x86_64__) && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#define WIDE_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONES
#define WIDE_CLONES
#endif

/* The transfers' flat stride-2 passes over the n elements of o, n even
 * for the prolongation.  The prolongation's adds onto o CHUNK elements at a
 * time: their interleaved values go to t, on the stack, then onto o, two
 * loops that vectorise where one that interleaves its adds does not. */
#define RESTRICT_FLAT(o, a, n) \
    for (int64_t q = 0; q < (n); q++) (o)[q] = (((a)[2 * q] + (a)[2 * q + 1] * 2.0) + (a)[2 * q + 2]) * 0.25
#define CHUNK 64
#define PROLONG_FLAT(o, a, n)                                                         \
    do {                                                                              \
        for (int64_t k0 = 0; k0 < (n); k0 += CHUNK) {                                 \
            const int64_t m = (n) - k0 < CHUNK ? (n) - k0 : CHUNK;                     \
            const double *x = (a) + k0 / 2;                                           \
            double t[CHUNK];                                                          \
            for (int64_t q = 0; q < m / 2; q++) {                                     \
                t[2 * q] = (x[q] + x[q + 1]) * 0.5;                                   \
                t[2 * q + 1] = x[q + 1];                                              \
            }                                                                         \
            for (int64_t q = 0; q < m; q++)                                           \
                (o)[k0 + q] = (o)[k0 + q] + t[q];                                     \
        }                                                                             \
    } while (0)

CLONES static void kernel(const record *r)
{
    double *restrict o = P(r->out), *restrict b = P(r->b);
    const double *restrict a = P(r->a);
    const double s = r->s;
    double c[TAPS];
    const double *y[TAPS];
    const int64_t n = r->n, len = r->len, half = len / 2;
    switch (r->kind) {
    case RESIDUAL:
        for (int64_t p = 0; p < r->taps; p++) {
            c[p] = r->c[p];
            y[p] = a + r->off[p];
        }
        switch (r->taps) {
            RESIDUAL_CASE(0)
            RESIDUAL_CASE(1)
            RESIDUAL_CASE(2)
            RESIDUAL_CASE(3)
            RESIDUAL_CASE(4)
            RESIDUAL_CASE(5)
            RESIDUAL_CASE(6)
            RESIDUAL_CASE(7)
            RESIDUAL_CASE(8)
        }
        break;
    case UPDATE: EACH(n) o[k] = o[k] + a[k] * s; break;
    case SCALE: EACH(n) o[k] = a[k] * s; break;
    case DIVIDE: EACH(n) o[k] = a[k] / s; break;
    case ZERO: EACH(n) o[k] = 0.0; break;
    case RESTRICT:
        if (len == 1) {
            RESTRICT_FLAT(o, a, n - 1);
            break;
        }
        for (int64_t i = 0; i < n; i++) {
            const double *lo = a + 4 * i * len, *odd = lo + 2 * len, *hi = odd + 2 * len;
            for (int64_t j = 0; j < 2 * len - 1; j++)
                b[j] = ((lo[j] + odd[j] * 2.0) + hi[j]) * 0.25;
            RESTRICT_FLAT(o + i * len, b, len - 1);
        }
        break;
    case PROLONG:
        if (len == 1) {
            PROLONG_FLAT(o, a, n);
            break;
        }
        b[0] = 0.0;
        for (int64_t i = 0; i < n; i++) {
            const double *lo = a + i / 2 * half, *hi = lo + half;
            if (i % 2)
                for (int64_t j = 0; j < half; j++)
                    b[j + 1] = hi[j];
            else
                for (int64_t j = 0; j < half; j++)
                    b[j + 1] = (lo[j] + hi[j]) * 0.5;
            PROLONG_FLAT(o + i * len, b, len);
            b[0] = b[half];
        }
        break;
    }
    for (int64_t k = r->pad - 1; r->pad && k < n * len; k += r->pad)
        o[k] = 0.0;
}

void mgfk_run_tape(const record *r, int64_t count)
{
    for (const record *end = r + count; r < end; r++)
        kernel(r);
}

/* A solve, as mgfk.executor.Solve packs it, all fields int64: the
 * cycle's records and the fine residual's one record. */
typedef struct {
    int64_t cycle, cycles, residual;
} solve;

/* How a solve ends, as mgfk.executor names them. */
enum { RAN_OUT, CONVERGED, NOT_FINITE };

/* The sum of the products of the n values of x and y: lane j of 8 adds
 * x_k y_k, k = j (mod 8), in index order in a register of its own (vector
 * code adds 2 or 4 at once), then ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)). */
CLONES double mgfk_dot(const double *x, const double *y, int64_t n)
{
    double l[8] = {0.0};
    int64_t k = 0;
    for (; k + 8 <= n; k += 8)
        for (int j = 0; j < 8; j++)
            l[j] = l[j] + x[k + j] * y[k + j];
    for (int j = 0; k + j < n; j++)
        l[j] = l[j] + x[k + j] * y[k + j];
    return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/* The norm of the residual, formed at the loaded iterate: the sum of
 * squares over the run its record f writes. */
static double residual_norm(const solve *s)
{
    const record *f = (const record *)(intptr_t)s->residual;
    kernel(f);
    return sqrt(mgfk_dot(P(f->out), P(f->out), f->n));
}

/* Runs the cycles after the *cycles already run, up to cycle stop: out[0]
 * holds r0, formed first where no cycle has run, and out[i] the relative
 * residual after cycle i, so out must hold stop + 1 values.  Sets *cycles
 * to the cycles run and returns how the solve ended: CONVERGED where r0 is
 * 0 or a relative residual is below tol, NOT_FINITE where r0 or one is not
 * finite, else RAN_OUT, with stop cycles run. */
int64_t mgfk_solve(const solve *s, double tol, double *out, int64_t stop, int64_t *cycles)
{
    int64_t it = *cycles, end = RAN_OUT;
    if (it == 0) {
        out[0] = residual_norm(s);
        end = out[0] == 0.0 ? CONVERGED : isfinite(out[0]) ? RAN_OUT : NOT_FINITE;
    }
    const double r0 = out[0];
    while (end == RAN_OUT && it < stop) {
        mgfk_run_tape((const record *)(intptr_t)s->cycle, s->cycles);
        const double rel = out[++it] = residual_norm(s) / r0;
        end = rel < tol ? CONVERGED : isfinite(rel) ? RAN_OUT : NOT_FINITE;
    }
    *cycles = it;
    return end;
}

/* l[n] for n = 1..count, l[0] given, w the nu + 1 (1..4) coefficients of
 * mgfk.fsd.generating_poly: l_n = acc / (n w_0), acc = fma(x_j, l_{n-j}, acc)
 * from 0 for j = 1..min(n, nu), x_j = ((alpha + 1) j - n) w_j. */
void mgfk_weights(double alpha, const double *w, int64_t nu, int64_t count, double *l)
{
    const double a1 = alpha + 1.0;
    for (int64_t n = 1; n <= count; n++) {
        double acc = 0.0;
        for (int64_t j = 1; j <= (n < nu ? n : nu); j++)
            acc = fma((a1 * (double)j - (double)n) * w[j], l[n - j], acc);
        l[n] = acc / ((double)n * w[0]);
    }
}

#define TILE 128 /* values of a row at a time: 16 rows of them and KB levels' stay in L1 */
#define KB 8     /* levels summed in a register between a value's load and store */

/* Adds the nk (KB or fewer, a constant once inlined) levels from k onto the
 * m values from e0 of every row: each value is loaded once, takes the nk
 * terms in ascending k in a register, and is stored once.  A complex
 * level's values go first to t[p] as (-h_im, h_re) pairs, so that every
 * row adds c h + s t, (c, s) = (w_re, w_im), on one value at a time:
 * w_re h_re + (-(w_im h_im)) is w_re h_re - w_im h_im. */
static inline __attribute__((always_inline)) void add_levels(int nk, const double *w, const double *levels, int64_t len,
                                                             int64_t parts, int64_t k, int64_t e0, int64_t m,
                                                             int64_t first, int64_t rows, double *acc,
                                                             double t[KB][TILE])
{
    const double *h[KB];
    double c[KB], s[KB];
    for (int p = 0; p < nk; p++)
        h[p] = levels + (k + p) * len + e0;
    if (parts == 2)
        for (int p = 0; p < nk; p++)
            for (int64_t e = 0; e < m; e += 2) {
                t[p][e] = -h[p][e + 1];
                t[p][e + 1] = h[p][e];
            }
    for (int64_t r = 0; r < rows; r++) {
        double *restrict a = acc + r * len + e0;
        if (parts == 1) {
            for (int p = 0; p < nk; p++)
                c[p] = w[first + r - k - p];
            for (int64_t e = 0; e < m; e++) {
                double x = a[e];
                for (int p = 0; p < nk; p++)
                    x = x + c[p] * h[p][e];
                a[e] = x;
            }
            continue;
        }
        for (int p = 0; p < nk; p++) {
            c[p] = w[2 * (first + r - k - p)];
            s[p] = w[2 * (first + r - k - p) + 1];
        }
        for (int64_t e = 0; e < m; e++) {
            double x = a[e];
            for (int p = 0; p < nk; p++)
                x = x + (c[p] * h[p][e] + s[p] * t[p][e]);
            a[e] = x;
        }
    }
}

/* acc holds rows rows and levels the stored levels, each row of len float64
 * values, parts (1 or 2) to an element; w holds w_q, q = 0, 1, ..., as
 * elements.  acc may be rows of the levels' own array that the call does
 * not read, as a block's sums are (mgfk.feynman_kac.History).  The levels
 * go KB at a time, the last ones, fewer than KB, one at a time, so each
 * value gets the operations of a level at a time, in the same order. */
WIDE_CLONES void mgfk_convolve(const double *w, const double *levels, int64_t len, int64_t parts, int64_t lo,
                               int64_t hi, int64_t first, int64_t rows, double *acc)
{
    double t[KB][TILE];
    for (int64_t e0 = 0; e0 < len; e0 += TILE) {
        const int64_t m = len - e0 < TILE ? len - e0 : TILE;
        int64_t k = lo;
        for (; k + KB - 1 <= hi; k += KB)
            add_levels(KB, w, levels, len, parts, k, e0, m, first, rows, acc, t);
        for (; k <= hi; k++)
            add_levels(1, w, levels, len, parts, k, e0, m, first, rows, acc, t);
    }
}
