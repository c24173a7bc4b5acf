/* The compiled kernels of slowsde: Euler-Maruyama steps, the zeta
 * recurrence, RK4 rows and %.17g tables.
 *
 * Each kernel is the C twin of a NumPy or Python loop that stays as its
 * fallback and reference, and gives the same bits and bytes.  The numeric
 * kernels run only +, * and / on doubles, with the NumPy code's operands in
 * its order, and no transcendental function (C's exp is not NumPy's), so
 * whatever needs one is tabulated in NumPy first.  Built by
 * slowsde._compiled with -ffp-contract=off (no FMA) and without
 * -ffast-math.  Arrays are C-contiguous unless a stride is passed;
 * slowsde._compiled checks every argument before the call.
 *
 * A drift is full Horner in x over one time's coefficients c_0 .. c_n,
 * x*c_n + c_(n-1), then f*x + c_i down to c_0, as PolyDrift.horner runs it.
 */
#include <math.h>
#include <stddef.h>
#include <stdio.h>

enum { LANES = 8 };

/* Euler-Maruyama steps of a polynomial drift, one time chunk in place; the
 * twin of the NumPy loop in sde._em_steps.
 *
 * out is the (n + 1, width) time-major array of sde._time_major: row 0 holds
 * the states at the chunk's first node, row j + 1 the scaled increments of
 * step j, which the step's new state replaces.  coef (n, n_coef) holds in
 * row j the coefficients at the time of step j.  A step is the drift f,
 * then f*(dt/eps), x + f and f + dW.  The paths go LANES at a time, each
 * value a row of LANES doubles, so the compiler can keep the lanes in vector
 * registers; lanes past the last path compute values that are never stored.
 */
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

/* The exponential-step zeta recurrence of envelope._integrate_zeta.
 *
 * zeta (nodes, rows) holds the start values in row 0; e and w
 * ((nodes - 1) * substeps, rows) hold each substep's exp(m) and
 * (h/eps) phi1(m).  Node k + 1 is node k after its substeps z = z*e + w.
 */
void zeta_scan(double *zeta, ptrdiff_t nodes, ptrdiff_t rows,
               const double *e, const double *w, ptrdiff_t substeps)
{
    for (ptrdiff_t k = 0; k + 1 < nodes; k++) {
        const double *z = zeta + k * rows;
        double *next = zeta + (k + 1) * rows;

        for (ptrdiff_t i = 0; i < rows; i++)
            next[i] = z[i];
        for (ptrdiff_t s = 0; s < substeps; s++) {
            const double *es = e + (k * substeps + s) * rows;
            const double *ws = w + (k * substeps + s) * rows;

            for (ptrdiff_t i = 0; i < rows; i++)
                next[i] = next[i] * es[i] + ws[i];
        }
    }
}

static double horner(const double *c, ptrdiff_t n_coef, double x)
{
    double f;

    if (n_coef == 1)
        return c[0];
    f = x * c[n_coef - 1] + c[n_coef - 2];
    for (ptrdiff_t k = n_coef - 3; k >= 0; k--)
        f = f * x + c[k];
    return f;
}

/* Classical RK4 for eps x' = f(x, t), rows in lockstep; the twin of the
 * NumPy loop in deterministic._rk4_rows.
 *
 * Row i of out starts at out[i * ld] and has n + 1 columns; step j fills
 * column j + 1 from column j with step length h[j].  c0, c1 and c2 (n,
 * n_coef) hold each step's coefficients at t, t + h/2 and t + h, and a
 * stage is f * inv with inv = 1/eps.  Row i holds its value until step
 * start[i].  A new value with |x| > d sets left[i] to the step and holds
 * the row from then on; once every row is held, the rest of the columns
 * repeat the last one.  left[i] is n for a row that never left.
 */
void rk4_poly(double *out, ptrdiff_t rows, ptrdiff_t n, ptrdiff_t ld,
              const double *h, const double *c0, const double *c1,
              const double *c2, ptrdiff_t n_coef, double inv,
              const ptrdiff_t *start, double d, ptrdiff_t *left)
{
    ptrdiff_t live = rows;

    for (ptrdiff_t i = 0; i < rows; i++)
        left[i] = n;
    for (ptrdiff_t j = 0; j < n; j++) {
        const double *a = c0 + j * n_coef, *b = c1 + j * n_coef;
        const double *e = c2 + j * n_coef;
        double hj = h[j], half = 0.5 * hj, sixth = hj / 6.0;

        for (ptrdiff_t i = 0; i < rows; i++) {
            double *row = out + i * ld;
            double x = row[j], y = x;

            if (start[i] <= j && left[i] == n) {
                double k1 = horner(a, n_coef, x) * inv;
                double k2 = horner(b, n_coef, x + half * k1) * inv;
                double k3 = horner(b, n_coef, x + half * k2) * inv;
                double k4 = horner(e, n_coef, x + hj * k3) * inv;
                y = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
            }
            if (fabs(y) > d) {
                live -= left[i] == n;
                left[i] = j;
                y = x;
            }
            row[j + 1] = y;
        }
        if (live == 0) {
            for (ptrdiff_t i = 0; i < rows; i++)
                for (ptrdiff_t k = j + 2; k <= n; k++)
                    out[i * ld + k] = out[i * ld + j];
            break;
        }
    }
}

/* rows (rows, cols) as %.17g text, comma-separated and newline-terminated,
 * into buf; returns the bytes written, or -1 if they do not fit in cap.
 * snprintf writes LC_NUMERIC's decimal point, which the caller checks is
 * ".".  Each value's terminating NUL is where its separator goes.
 */
ptrdiff_t fmt_g17(char *buf, ptrdiff_t cap, const double *a, ptrdiff_t rows,
                  ptrdiff_t cols)
{
    char *p = buf, *end = buf + cap;

    for (ptrdiff_t i = 0; i < rows * cols; i++) {
        int m = snprintf(p, (size_t)(end - p), "%.17g", a[i]);

        if (m < 0 || m >= end - p)
            return -1;
        p += m;
        *p++ = (i + 1) % cols ? ',' : '\n';
    }
    return p - buf;
}
