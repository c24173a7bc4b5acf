/* Euler-Maruyama steps of a polynomial drift, one time chunk in place.
 *
 * The C twin of the NumPy loop in sde._em_steps, with the same operations
 * in the same operand order, so that both give the same bits.  Built by
 * slowsde._compiled with -ffp-contract=off and without -ffast-math.
 *
 * out is the (n + 1, width) time-major array of sde._time_major: row 0 holds
 * the states at the chunk's first node, row j + 1 the scaled increments of
 * step j, which the step's new state replaces.  coef (n, n_coef) holds the
 * plan's time-dependent coefficients of each step and consts its constants.
 * ops (n_ops, 3) is HornerPlan.ops as (opcode, left, right), each writing f,
 * with operands indexed into (x, f, *coef row, *consts); result indexes the
 * operand holding the drift once they have run.  The plan runs on LANES
 * paths at a time, each operand a row of LANES values, so the compiler can
 * keep the lanes in vector registers; lanes past the last path compute
 * values that are never stored.
 */
#include <stddef.h>

enum { MULTIPLY, ADD, SUBTRACT };
enum { LANES = 8 };

void em_poly(double *out, ptrdiff_t n, ptrdiff_t width,
             const double *coef, ptrdiff_t n_coef,
             const double *consts, ptrdiff_t n_consts,
             const int *ops, ptrdiff_t n_ops, ptrdiff_t result, double cdt)
{
    ptrdiff_t n_operands = 2 + n_coef + n_consts;
    double v[n_operands][LANES];

    for (ptrdiff_t k = 0; k < n_operands; k++)
        for (int l = 0; l < LANES; l++)
            v[k][l] = k < 2 + n_coef ? 0.0 : consts[k - 2 - n_coef];
    for (ptrdiff_t j = 0; j < n; j++) {
        const double *x = out + j * width;
        double *y = out + (j + 1) * width;

        for (ptrdiff_t k = 0; k < n_coef; k++)
            for (int l = 0; l < LANES; l++)
                v[2 + k][l] = coef[j * n_coef + k];
        for (ptrdiff_t i = 0; i < width; i += LANES) {
            int m = width - i < LANES ? (int)(width - i) : LANES;

            for (int l = 0; l < m; l++)
                v[0][l] = x[i + l];
            for (const int *op = ops; op < ops + 3 * n_ops; op += 3) {
                const double *a = v[op[1]], *b = v[op[2]];
                double *f = v[1];

                if (op[0] == MULTIPLY)
                    for (int l = 0; l < LANES; l++) f[l] = a[l] * b[l];
                else if (op[0] == ADD)
                    for (int l = 0; l < LANES; l++) f[l] = a[l] + b[l];
                else
                    for (int l = 0; l < LANES; l++) f[l] = a[l] - b[l];
            }
            for (int l = 0; l < m; l++) {
                double f = v[result][l] * cdt;
                f = x[i + l] + f;
                y[i + l] = f + y[i + l];
            }
        }
    }
}
