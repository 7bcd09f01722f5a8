/* Executor of compiled V-cycle tapes (see mgfk.stencil.tape_runner).
 *
 * A tape is an array of records, each one level kernel of a V-cycle on
 * float64 or complex128 buffers (a mgfk.stencil.Kernel, packed by
 * mgfk.stencil._record).  Each loop does, per element, the IEEE operations
 * of mgfk.stencil.run_numpy in their order, with numpy's formulas for a
 * complex array times or over a complex scalar.  Built with
 * -ffp-contract=off and without -ffast-math: no fused multiply-add, no
 * reassociation.  Vector code only runs the same operations on several
 * elements at once.  The residual has a loop for each tap count, 0 to 8,
 * that keeps each element's sum in a register.  The transfers have a flat
 * loop over elements for records of single-element rows (len 1: every 1D
 * pass and the last-axis, stride-2 pass of a 2D transfer), and a loop over
 * rows only for the row passes of 2D transfers.  On x86-64 glibc every
 * kernel is also cloned for AVX2, and the loader picks the clone the CPU
 * runs, so one build serves every CPU of the platform.
 *
 * o is the output, a the input array (b the residual's right-hand side),
 * s and t 0-d scalars, k an element:
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
    int64_t kind, is_complex, n, len, pad, out, a, b, s, t, taps, off[TAPS], c[TAPS];
} record;

#define P(T, x) ((T *)(intptr_t)(x))

typedef struct {
    double re, im;
} cdouble;

static inline double add_r(double x, double y) { return x + y; }
static inline double sub_r(double x, double y) { return x - y; }
static inline double mul_r(double x, double s) { return x * s; }
static inline double div_r(double x, double s) { return x / s; }

static inline cdouble add_c(cdouble x, cdouble y) { return (cdouble){x.re + y.re, x.im + y.im}; }
static inline cdouble sub_c(cdouble x, cdouble y) { return (cdouble){x.re - y.re, x.im - y.im}; }

/* im s_re + re s_im, added in this order, picks the NaN numpy's loop
 * returns where both terms are NaN */
static inline cdouble mul_c(cdouble x, cdouble s)
{
    return (cdouble){x.re * s.re - x.im * s.im, x.im * s.re + x.re * s.im};
}

/* numpy's branch for |s_re| >= |s_im| with s nonzero, the one a level's
 * diagonal, real and positive, takes */
static inline cdouble div_c(cdouble x, cdouble s)
{
    const double rat = s.im / s.re, scl = 1.0 / (s.re + s.im * rat);
    return (cdouble){(x.re + x.im * rat) * scl, (x.im - x.re * rat) * scl};
}

#define EACH(m) for (int64_t k = 0; k < (m); k++)

/* The residual of a record with NT taps: with NT a constant the tap loop
 * unrolls, and the element loop vectorises with acc in registers. */
#define RESIDUAL_CASE(NT, T, PLUS, MINUS, TIMES)                                   \
    case NT:                                                                        \
        EACH(n) {                                                                   \
            T acc = TIMES(a[k], s);                                                 \
            for (int p = 0; p < NT; p++)                                            \
                acc = PLUS(acc, TIMES(y[p][k], c[p]));                              \
            o[k] = MINUS(b[k], acc);                                                \
        }                                                                           \
        break;

#if defined(__x86_64__) && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif

/* One record on elements of type T. */
#define KERNEL(NAME, T, PLUS, MINUS, TIMES, OVER)                                   \
    CLONES static void NAME(const record *r)                                        \
    {                                                                               \
        T *restrict o = P(T, r->out), *restrict a = P(T, r->a);                     \
        const T *restrict b = P(const T, r->b);                                     \
        const T s = r->s ? *P(const T, r->s) : (T){0};                              \
        const T t = r->t ? *P(const T, r->t) : (T){0};                              \
        T c[TAPS];                                                                  \
        const T *y[TAPS];                                                           \
        const int64_t n = r->n, len = r->len;                                       \
        switch (r->kind) {                                                          \
        case RESIDUAL:                                                              \
            for (int64_t p = 0; p < r->taps; p++) {                                 \
                c[p] = *P(const T, r->c[p]);                                        \
                y[p] = a + r->off[p];                                               \
            }                                                                       \
            switch (r->taps) {                                                      \
                RESIDUAL_CASE(0, T, PLUS, MINUS, TIMES)                             \
                RESIDUAL_CASE(1, T, PLUS, MINUS, TIMES)                             \
                RESIDUAL_CASE(2, T, PLUS, MINUS, TIMES)                             \
                RESIDUAL_CASE(3, T, PLUS, MINUS, TIMES)                             \
                RESIDUAL_CASE(4, T, PLUS, MINUS, TIMES)                             \
                RESIDUAL_CASE(5, T, PLUS, MINUS, TIMES)                             \
                RESIDUAL_CASE(6, T, PLUS, MINUS, TIMES)                             \
                RESIDUAL_CASE(7, T, PLUS, MINUS, TIMES)                             \
                RESIDUAL_CASE(8, T, PLUS, MINUS, TIMES)                             \
            }                                                                       \
            break;                                                                  \
        case UPDATE: EACH(n) { a[k] = TIMES(a[k], s); o[k] = PLUS(o[k], a[k]); } break; \
        case SCALE: EACH(n) o[k] = TIMES(a[k], s); break;                           \
        case DIVIDE: EACH(n) o[k] = OVER(a[k], s); break;                           \
        case ZERO: EACH(n) o[k] = (T){0}; break;                                    \
        case ADD: EACH(n) o[k] = PLUS(o[k], a[k]); break;                           \
        case RESTRICT:                                                              \
            if (len == 1) {                                                         \
                EACH(n) o[k] = TIMES(PLUS(PLUS(a[2 * k], TIMES(a[2 * k + 1], s)), a[2 * k + 2]), t); \
                break;                                                              \
            }                                                                       \
            for (int64_t i = 0; i < n; i++) {                                       \
                const T *lo = a + 2 * i * len, *odd = lo + len, *hi = odd + len;    \
                T *row = o + i * len;                                               \
                for (int64_t j = 0; j < len; j++)                                   \
                    row[j] = TIMES(PLUS(PLUS(lo[j], TIMES(odd[j], s)), hi[j]), t);  \
            }                                                                       \
            break;                                                                  \
        case PROLONG:                                                               \
            if (len == 1) {                                                         \
                EACH(n / 2) {                                                       \
                    o[2 * k] = TIMES(PLUS(a[k], a[k + 1]), s);                      \
                    o[2 * k + 1] = a[k + 1];                                        \
                }                                                                   \
                if (n % 2)                                                          \
                    o[n - 1] = TIMES(PLUS(a[n / 2], a[n / 2 + 1]), s);              \
                break;                                                              \
            }                                                                       \
            for (int64_t i = 0; i < n; i += 2) {                                    \
                const T *lo = a + i / 2 * len, *hi = lo + len;                      \
                T *even = o + i * len, *odd = even + len;                           \
                for (int64_t j = 0; j < len; j++)                                   \
                    even[j] = TIMES(PLUS(lo[j], hi[j]), s);                         \
                for (int64_t j = 0; i + 1 < n && j < len; j++)                      \
                    odd[j] = hi[j];                                                 \
            }                                                                       \
            break;                                                                  \
        }                                                                           \
        for (int64_t k = r->pad - 1; r->pad && k < n * len; k += r->pad)            \
            o[k] = (T){0};                                                          \
    }

KERNEL(kernel_real, double, add_r, sub_r, mul_r, div_r)
KERNEL(kernel_complex, cdouble, add_c, sub_c, mul_c, div_c)

void mgfk_run_tape(const record *r, int64_t count)
{
    for (const record *end = r + count; r < end; r++)
        (r->is_complex ? kernel_complex : kernel_real)(r);
}
