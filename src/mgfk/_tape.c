/* Executor of compiled V-cycle tapes (see mgfk.stencil.tape_runner).
 *
 * A tape is an array of records, each one numpy call on float64 memory:
 * out = a op b elementwise over up to three dimensions, with an element
 * stride per operand and dimension (0 for a broadcast scalar).  complex128
 * data arrive as (re, im) pairs; a complex multiply or divide by a 0-d
 * scalar keeps numpy's complex formulas.  Built with -ffp-contract=off and
 * without -ffast-math, so every element gets exactly numpy's IEEE
 * operations: no fused multiply-add, no reassociation.  Vector code only
 * runs the same operations on several elements at once.
 */
#include <stdint.h>

enum { ADD, SUBTRACT, MULTIPLY, DIVIDE, COPY, ZERO, CMULTIPLY, CDIVIDE };

typedef struct {
    int64_t addr, stride[3];
} operand;

typedef struct {
    int64_t op, extent[3];
    operand out, a, b;
} record;

#define AT(x, i, j) ((double *)(intptr_t)(x).addr + (i) * (x).stride[0] + (j) * (x).stride[1])

/* An output overlaps an input only exactly (the tape's translator refuses
 * anything else), so no iteration of a loop feeds a later one. */
#define EACH _Pragma("GCC ivdep") for (k = 0; k < n; k++)

/* out = a OP b over n elements; unit strides and a scalar b are spelled
 * out so that the compiler vectorises them. */
#define ELEMENTWISE(OP)                                                        \
    if (so == 1 && sa == 1 && sb == 1) {                                       \
        EACH o[k] = a[k] OP b[k];                                              \
    } else if (so == 1 && sa == 1 && sb == 0) {                                \
        EACH o[k] = a[k] OP b[0];                                              \
    } else {                                                                   \
        EACH o[k * so] = a[k * sa] OP b[k * sb];                               \
    }

/* For CMULTIPLY, b is the scalar (re, im) and extents and strides count
 * complex elements; for CDIVIDE, b is numpy's (ratio, scale) of the
 * divisor, so out = ((re + im ratio) scale, (im - re ratio) scale). */
#define COMPLEX(RE, IM)                                                        \
    if (so == 2 && sa == 2) {                                                  \
        EACH {                                                                 \
            const double re = a[2 * k], im = a[2 * k + 1];                     \
            o[2 * k] = RE;                                                     \
            o[2 * k + 1] = IM;                                                 \
        }                                                                      \
    } else {                                                                   \
        EACH {                                                                 \
            const double re = a[k * sa], im = a[k * sa + 1];                   \
            o[k * so] = RE;                                                    \
            o[k * so + 1] = IM;                                                \
        }                                                                      \
    }

void mgfk_run_tape(const record *r, int64_t count)
{
    for (const record *end = r + count; r < end; r++) {
        const int64_t n = r->extent[2];
        const int64_t so = r->out.stride[2], sa = r->a.stride[2], sb = r->b.stride[2];
        for (int64_t i = 0; i < r->extent[0]; i++)
            for (int64_t j = 0; j < r->extent[1]; j++) {
                double *o = AT(r->out, i, j);
                const double *a = AT(r->a, i, j), *b = AT(r->b, i, j);
                int64_t k;
                switch (r->op) {
                case ADD: ELEMENTWISE(+) break;
                case SUBTRACT: ELEMENTWISE(-) break;
                case MULTIPLY: ELEMENTWISE(*) break;
                case DIVIDE: ELEMENTWISE(/) break;
                case COPY:
                    if (so == 1 && sa == 1) {
                        EACH o[k] = a[k];
                    } else {
                        EACH o[k * so] = a[k * sa];
                    }
                    break;
                case ZERO:
                    EACH o[k * so] = 0.0;
                    break;
                /* im b_re + re b_im, added in this order, picks the NaN
                 * numpy's loop returns where both terms are NaN */
                case CMULTIPLY: COMPLEX(re * b[0] - im * b[1], im * b[0] + re * b[1]) break;
                case CDIVIDE: COMPLEX((re + im * b[0]) * b[1], (im - re * b[0]) * b[1]) break;
                }
            }
    }
}
