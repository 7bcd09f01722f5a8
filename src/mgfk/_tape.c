/* Executor of compiled V-cycle tapes (see mgfk.stencil.tape_runner).
 *
 * A tape is an array of records, each one level kernel of a V-cycle on
 * float64 buffers (a mgfk.stencil.Kernel, packed by mgfk.stencil._record);
 * complex data run as two float64 planes, the real and the imaginary part,
 * each with records of its own.  Each loop does, per element, the IEEE
 * operations of mgfk.stencil.run_numpy in their order.  Built with
 * -ffp-contract=off and without -ffast-math: no fused multiply-add, no
 * reassociation.  Vector code only runs the same operations on several
 * elements at once.  The residual has a loop for each tap count, 0 to 8,
 * that keeps each element's sum in a register.  The transfers have a flat
 * loop over elements for records of single-element rows (len 1: every 1D
 * pass and the last-axis, stride-2 pass of a 2D transfer), and a loop over
 * rows only for the row passes of 2D transfers.  On x86-64 glibc the
 * kernel is also cloned for AVX2, and the loader picks the clone the CPU
 * runs, so one build serves every CPU of the platform.
 *
 * o is the output, a the input array (b the residual's right-hand side),
 * s and t scalars, k an element:
 *   RESIDUAL  o = b - (a s + sum over taps p of a[k + off_p] c_p)
 *   UPDATE    a = a s, then o = o + a
 *   SCALE     o = a s;  DIVIDE  o = a / s;  ZERO  o = 0;  ADD  o = o + a
 *   RESTRICT  row i of o from rows 2i, 2i + 1, 2i + 2 of a: ((lo + odd s) + hi) t
 *   PROLONG   row 2i of o from rows i, i + 1 of a: (lo + hi) s; row 2i + 1 is row i + 1
 * then every pad-th element of o, from the pad - 1st on, is zeroed.
 */
#include <stdint.h>

enum { RESIDUAL, UPDATE, SCALE, DIVIDE, ZERO, ADD, RESTRICT, PROLONG };

#define TAPS 8 /* off-centre points of a 9-point stencil, the most a residual has */

/* All fields int64, addresses too, as mgfk.stencil._record packs them: o
 * holds n rows of len elements (len is 1 but in a 2D row pass). */
typedef struct {
    int64_t kind, n, len, pad, out, a, b, s, t, taps, off[TAPS], c[TAPS];
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
#else
#define CLONES
#endif

CLONES static void kernel(const record *r)
{
    double *restrict o = P(r->out), *restrict a = P(r->a);
    const double *restrict b = P(r->b);
    const double s = r->s ? *P(r->s) : 0.0, t = r->t ? *P(r->t) : 0.0;
    double c[TAPS];
    const double *y[TAPS];
    const int64_t n = r->n, len = r->len;
    switch (r->kind) {
    case RESIDUAL:
        for (int64_t p = 0; p < r->taps; p++) {
            c[p] = *P(r->c[p]);
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
    case UPDATE: EACH(n) { a[k] = a[k] * s; o[k] = o[k] + a[k]; } break;
    case SCALE: EACH(n) o[k] = a[k] * s; break;
    case DIVIDE: EACH(n) o[k] = a[k] / s; break;
    case ZERO: EACH(n) o[k] = 0.0; break;
    case ADD: EACH(n) o[k] = o[k] + a[k]; break;
    case RESTRICT:
        if (len == 1) {
            EACH(n) o[k] = ((a[2 * k] + a[2 * k + 1] * s) + a[2 * k + 2]) * t;
            break;
        }
        for (int64_t i = 0; i < n; i++) {
            const double *lo = a + 2 * i * len, *odd = lo + len, *hi = odd + len;
            double *row = o + i * len;
            for (int64_t j = 0; j < len; j++)
                row[j] = ((lo[j] + odd[j] * s) + hi[j]) * t;
        }
        break;
    case PROLONG:
        if (len == 1) {
            EACH(n / 2) {
                o[2 * k] = (a[k] + a[k + 1]) * s;
                o[2 * k + 1] = a[k + 1];
            }
            if (n % 2)
                o[n - 1] = (a[n / 2] + a[n / 2 + 1]) * s;
            break;
        }
        for (int64_t i = 0; i < n; i += 2) {
            const double *lo = a + i / 2 * len, *hi = lo + len;
            double *even = o + i * len, *odd = even + len;
            for (int64_t j = 0; j < len; j++)
                even[j] = (lo[j] + hi[j]) * s;
            for (int64_t j = 0; i + 1 < n && j < len; j++)
                odd[j] = hi[j];
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
