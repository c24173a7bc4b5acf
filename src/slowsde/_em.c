/* Euler-Maruyama steps of a polynomial drift, one time chunk in place.
 *
 * The C twin of the NumPy loop in sde._em_steps.  The drift is full Horner
 * in x over the step's coefficients, x*c_n + c_(n-1), then f*x + c_i down
 * to c_0, which the NumPy loop's Horner plan equals bit for bit; then
 * f*(dt/eps), x + f and f + dW, with the NumPy loop's operands in its
 * order, so that both give the same bits.  Built by slowsde._compiled with
 * -ffp-contract=off and without -ffast-math.
 *
 * out is the (n + 1, width) time-major array of sde._time_major: row 0 holds
 * the states at the chunk's first node, row j + 1 the scaled increments of
 * step j, which the step's new state replaces.  coef (n, n_coef) holds in
 * row j the coefficients c_0 .. c_(n_coef - 1) of x^i at the time of step
 * j.  The paths go LANES at a time, each value a row of LANES doubles, so
 * the compiler can keep the lanes in vector registers; lanes past the last
 * path compute values that are never stored.
 */
#include <stddef.h>

enum { LANES = 8 };

void em_poly(double *out, ptrdiff_t n, ptrdiff_t width,
             const double *coef, ptrdiff_t n_coef, double cdt)
{
    double x[LANES] = {0.0}, f[LANES];

    for (ptrdiff_t j = 0; j < n; j++) {
        const double *c = coef + j * n_coef, *xj = out + j * width;
        double *y = out + (j + 1) * width;

        for (ptrdiff_t i = 0; i < width; i += LANES) {
            int m = width - i < LANES ? (int)(width - i) : LANES;

            for (int l = 0; l < m; l++)
                x[l] = xj[i + l];
            if (n_coef == 1) {
                for (int l = 0; l < LANES; l++) f[l] = c[0];
            } else {
                for (int l = 0; l < LANES; l++)
                    f[l] = x[l] * c[n_coef - 1] + c[n_coef - 2];
                for (ptrdiff_t k = n_coef - 3; k >= 0; k--)
                    for (int l = 0; l < LANES; l++) f[l] = f[l] * x[l] + c[k];
            }
            for (int l = 0; l < m; l++) {
                double g = f[l] * cdt;
                g = x[l] + g;
                y[i + l] = g + y[i + l];
            }
        }
    }
}
