/* The compiled kernels of slowsde: Euler-Maruyama steps with their
 * freezing, the zeta recurrence and its rates along a path, RK4 rows,
 * %.17g tables, Philox standard normals and the first node of a path
 * outside two bounds.
 *
 * Each kernel is the C twin of a NumPy or Python loop that stays as its
 * fallback and reference, and gives the same bits and bytes.  The numeric
 * kernels run only +, * and / on doubles, with the NumPy code's operands in
 * its order, and call no NumPy ufunc's transcendental function (C's exp is
 * not np.exp), so whatever needs one is tabulated in NumPy first.  The one
 * exception is NumPy's own C: the ziggurat of philox_normal calls libm's
 * exp and log1p exactly where NumPy's distributions.c calls them.  Built by
 * slowsde._compiled with -ffp-contract=off (no FMA) and without
 * -ffast-math.  Arrays are C-contiguous unless a stride is passed;
 * slowsde._compiled checks every argument before the call.  A batch of
 * paths is path-major, one row per path of one workspace: philox_normal
 * writes a chunk's increments there, em_poly replaces each increment by the
 * node it leads to, and first_outside scans the rows where they are.
 *
 * A drift is full Horner in x over one time's coefficients c_0 .. c_n,
 * x*c_n + c_(n-1), then f*x + c_i down to c_0, as PolyDrift.horner runs it.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

enum { LANES = 8 };

/* Two doubles, or two int64 masks of all ones or zeros, as one value:
 * GCC's and Clang's vector extensions, which map them onto one 128-bit
 * vector register (SSE2, NEON), with the same IEEE operations on each
 * element.  A comparison gives a mask.  LANES values are PAIRS of them. */
typedef double pair_d __attribute__((vector_size(16)));
typedef int64_t pair_i __attribute__((vector_size(16)));
enum { PAIRS = LANES / 2 };

/* Whether any element of the PAIRS masks m is set. */
static inline int any_set(const pair_i *m)
{
    pair_i any = m[0];

#pragma GCC unroll 4
    for (int v = 1; v < PAIRS; v++)
        any |= m[v];
    return (any[0] | any[1]) != 0;
}

/* Euler-Maruyama steps of a polynomial drift over one time chunk, in
 * place, with the freezing of paths that leave |x| <= d; the twin of the
 * NumPy loop in sde._em_steps followed by sde._freeze.
 *
 * Row i of out (rows, n + 1), at out[i * ld], holds in column 0 the state
 * of path i at the chunk's first node, and in columns 1 .. n its n
 * increments dW; on return column j + 1 holds the state after step j.
 * coef (n, n_coef) holds in row j the coefficients at the time of step j.
 * A step is the drift f, then f*cdt, x + that and that + dW*cns, with
 * cdt = dt/eps and cns = sigma/sqrt(eps), dW*cns rounded first.
 *
 * A row whose trunc is not NaN is frozen on entry and holds column 0.  A
 * live row freezes at its first node with |x| > d, which holds the node
 * before from then on, and trunc records t0 + (k0 + j + 1) * dt for the
 * step j that left; a NaN never freezes, an infinity does.  The rows go
 * LANES at a time, row l of the tile in element l % 2 of pair l / 2; in
 * the last tile the lanes past the last row repeat it, computing and
 * storing the same values.  Stepping in place is safe because in each step
 * every lane reads its dW[j] from column j + 1 before any lane stores node
 * j + 1 there.
 */
void em_poly(double *out, ptrdiff_t rows, ptrdiff_t n, ptrdiff_t ld,
             const double *coef, ptrdiff_t n_coef, double cdt, double cns,
             double d, double *trunc, double t0, double dt, ptrdiff_t k0)
{
    const pair_i magnitude = {INT64_MAX, INT64_MAX}; /* all but the sign */

    for (ptrdiff_t i = 0; i < rows; i += LANES) {
        double *y[LANES];
        ptrdiff_t r[LANES];
        /* a lane leaves when |x| > lim: d while it is live, then NaN, which
         * no comparison passes */
        pair_d x[PAIRS], lim[PAIRS];
        pair_i held[PAIRS];
        int frozen = 0;

        for (int l = 0; l < LANES; l++) {
            r[l] = i + l < rows ? i + l : rows - 1;
            y[l] = out + r[l] * ld;
            x[l / 2][l % 2] = y[l][0];
            held[l / 2][l % 2] = isnan(trunc[r[l]]) ? 0 : -1;
            lim[l / 2][l % 2] = isnan(trunc[r[l]]) ? d : NAN;
            frozen |= !isnan(trunc[r[l]]);
        }
        for (ptrdiff_t j = 0; j < n; j++) {
            const double *c = coef + j * n_coef;
            pair_d f[PAIRS], z[PAIRS];
            pair_i leave[PAIRS];

#pragma GCC unroll 4
            for (int v = 0; v < PAIRS; v++) {
                z[v] = (pair_d){y[2 * v][j + 1], y[2 * v + 1][j + 1]} * cns;
                if (n_coef == 1) {
                    f[v] = (pair_d){c[0], c[0]};
                } else {
                    f[v] = x[v] * c[n_coef - 1] + c[n_coef - 2];
                    for (ptrdiff_t k = n_coef - 3; k >= 0; k--)
                        f[v] = f[v] * x[v] + c[k];
                }
                f[v] = x[v] + f[v] * cdt;
                z[v] = f[v] + z[v];
                leave[v] = (pair_d)((pair_i)z[v] & magnitude) > lim[v];
            }
            if (any_set(leave)) {
                for (int l = 0; l < LANES; l++) {
                    if (leave[l / 2][l % 2]) {
                        trunc[r[l]] = t0 + (double)(k0 + j + 1) * dt;
                        held[l / 2][l % 2] = -1;
                        lim[l / 2][l % 2] = NAN;
                    }
                }
                frozen = 1;
            }
#pragma GCC unroll 4
            for (int v = 0; v < PAIRS; v++) {
                if (frozen)
                    z[v] = (pair_d)(((pair_i)x[v] & held[v])
                                    | ((pair_i)z[v] & ~held[v]));
                x[v] = z[v];
                y[2 * v][j + 1] = z[v][0];
                y[2 * v + 1][j + 1] = z[v][1];
            }
        }
    }
}

/* The first column of each row of x (rows, cols), row i at x[i * ld], with
 * x <= g1[k] (side -1) or else x >= g2[k] (side 1): first[i] is that column
 * and side[i] its side, or -1 and 0 when the row stays inside; a NaN never
 * leaves.  A row whose skip is set (skip may be NULL: none is) is not read
 * and gets -1 and 0.  The twin of the NumPy bodies of
 * exits.first_exit_batch and exits.delay_times_batch.  Whole blocks of
 * LANES columns are tested at once; the block that leaves is then read
 * column by column.
 */
void first_outside(const double *x, ptrdiff_t rows, ptrdiff_t cols,
                   ptrdiff_t ld, const double *g1, const double *g2,
                   const uint8_t *skip, ptrdiff_t *first, int8_t *side)
{
    for (ptrdiff_t i = 0; i < rows; i++) {
        const double *row = x + i * ld;
        ptrdiff_t k = 0;

        if (skip && skip[i])
            k = cols;
        for (; k + LANES <= cols; k += LANES) {
            pair_i outside[PAIRS];

#pragma GCC unroll 4
            for (int v = 0; v < PAIRS; v++) {
                pair_d a, lo, hi;

                memcpy(&a, row + k + 2 * v, sizeof a);
                memcpy(&lo, g1 + k + 2 * v, sizeof lo);
                memcpy(&hi, g2 + k + 2 * v, sizeof hi);
                outside[v] = (a <= lo) | (a >= hi);
            }
            if (any_set(outside))
                break;
        }
        first[i] = -1, side[i] = 0;
        for (; k < cols; k++) {
            if (row[k] <= g1[k] || row[k] >= g2[k]) {
                first[i] = k;
                side[i] = row[k] <= g1[k] ? -1 : 1;
                break;
            }
        }
    }
}

/* The exponential-step zeta recurrence of envelope._scan_rates.
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

/* The rates of the zeta recurrence along rows of x; the twin of the NumPy
 * refinement in envelope._rates.
 *
 * Row i of x, at x[i * ld], holds a path on n + 1 nodes, and cell k, from
 * node k to k + 1, is h[k] long.  The slope at node k is f(x_k) / eps, by
 * full Horner on cf (n + 1, n_cf), the drift's coefficients at the nodes.
 * The cell's substep q starts at the cubic Hermite value
 * (w00 x_k + w01 x_(k+1)) + h[k] (w10 s_k + w11 s_(k+1)), with the weights
 * w00, w01, w10 and w11 of theta = q / substeps in rows 0 to 3 of herm
 * (4, substeps), and the refined nodes end at x_n itself.  The rate a at
 * refined node p is drift_dx there, by full Horner on row p of cd
 * (n * substeps + 1, n_cd), and substep p gets
 * m = ((a_p + a_(p+1)) * (h[k] / substeps)) / eps, written step-major into
 * m[p * rows + i].  The first skip[i] cells of row i are not read: their
 * substeps get NaN, the rate of a row that has not started.
 */
void zeta_rate(double *m, const double *x, ptrdiff_t rows, ptrdiff_t n,
               ptrdiff_t ld, const double *h, const double *cf,
               ptrdiff_t n_cf, const double *cd, ptrdiff_t n_cd,
               const double *herm, ptrdiff_t substeps, double eps,
               const ptrdiff_t *skip)
{
    const double *w00 = herm, *w01 = herm + substeps;
    const double *w10 = herm + 2 * substeps, *w11 = herm + 3 * substeps;

    for (ptrdiff_t i = 0; i < rows; i++) {
        const double *row = x + i * ld;
        ptrdiff_t k = skip[i], p = 0;
        double s0, a = 0.0, hs = 0.0;

        for (; p < k * substeps; p++)
            m[p * rows + i] = NAN;
        if (k >= n)
            continue;
        s0 = horner(cf + k * n_cf, n_cf, row[k]) / eps;
        for (; k < n; k++) {
            double x0 = row[k], x1 = row[k + 1], hk = h[k];
            double s1 = horner(cf + (k + 1) * n_cf, n_cf, x1) / eps;

            for (ptrdiff_t q = 0; q < substeps; q++, p++) {
                double v = (w00[q] * x0 + w01[q] * x1)
                           + hk * (w10[q] * s0 + w11[q] * s1);
                double next = horner(cd + p * n_cd, n_cd, v);

                if (p > skip[i] * substeps)
                    m[(p - 1) * rows + i] = ((a + next) * hs) / eps;
                a = next;
                hs = hk / (double)substeps;
            }
            s0 = s1;
        }
        m[(p - 1) * rows + i] =
            ((a + horner(cd + p * n_cd, n_cd, row[n])) * hs) / eps;
    }
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

/* %.17g without printf: each finite double v = ±m 2^e as Python's
 * format(v, ".17g") prints it, with "." as the decimal point whatever the
 * locale.  Its 17 significant digits are the integer
 * D = round(|v| 10^p), p = 16 - k, in [10^16, 10^17), where
 * k = floor(log10 |v|) is the decimal exponent and the rounding is half to
 * even on the exact binary value (the digits of glibc's and of Python's
 * correctly rounded conversions).  k is first taken as floor(b log10 2)
 * for b = floor(log2 |v|), which is k or k - 1: a D of 10^17 or more means
 * that it was k - 1, or that D rounded up to the next power of ten, and D
 * is taken again with p - 1.  The text follows C's %g: fixed notation for
 * -4 <= k < 17, else d.ddde±XX with at least two exponent digits; trailing
 * zeros and a bare decimal point go, and -0 keeps its sign.
 *
 * D is |v| 10^p = m 5^p 2^(e + p).  For 0 <= p <= 32 (|v| in about
 * [1e-16, 1e17), every such v normal) m 5^p < 2^53 5^32 < 2^128, so D and
 * its rounding remainder come exactly from one unsigned __int128 product
 * and one shift by e + p, which is in [-76, 4] there.  Every other v (subnormals, tiny and huge values) is the
 * exact quotient of two integers of at most 815 bits, found by
 * shift-and-subtract long division on LIMBS 32-bit limbs.  Adams, "Ryu
 * revisited: printf floating point conversion" (OOPSLA 2019), makes the
 * same fixed-precision conversion fast with precomputed tables; this path
 * stays plain, since it serves few values (bounds and probabilities far
 * below 1e-16).
 */
typedef unsigned __int128 u128;

/* G17_LEN: the longest text, -2.2250738585072014e-308; LIMBS: 896 bits */
enum { G17_LEN = 24, LIMBS = 28 };

/* 5^0 .. 5^27, every power of 5 below 2^64 */
static const uint64_t POW5[28] = {
    1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625,
    48828125, 244140625, 1220703125, 6103515625, 30517578125,
    152587890625, 762939453125, 3814697265625, 19073486328125,
    95367431640625, 476837158203125, 2384185791015625, 11920928955078125,
    59604644775390625, 298023223876953125, 1490116119384765625,
    7450580596923828125u};

/* An unsigned integer of LIMBS 32-bit limbs, least significant first. */
typedef struct {
    uint32_t w[LIMBS];
} big;

static void big_set(big *a, uint64_t x)
{
    memset(a, 0, sizeof *a);
    a->w[0] = (uint32_t)x;
    a->w[1] = (uint32_t)(x >> 32);
}

/* a *= 5^n */
static void big_mul_pow5(big *a, int n)
{
    while (n > 0) {
        uint64_t f = POW5[n < 13 ? n : 13], carry = 0;

        for (int i = 0; i < LIMBS; i++) {
            carry += a->w[i] * f;
            a->w[i] = (uint32_t)carry;
            carry >>= 32;
        }
        n -= 13;
    }
}

/* a <<= s, s >= 0 */
static void big_shl(big *a, int s)
{
    int words = s / 32, bits = s % 32;

    for (int i = LIMBS - 1; i >= 0; i--) {
        uint64_t hi = i >= words ? a->w[i - words] : 0;
        uint64_t lo = i > words ? a->w[i - words - 1] : 0;

        a->w[i] = (uint32_t)(((hi << 32 | lo) << bits) >> 32);
    }
}

/* a >>= 1 */
static void big_halve(big *a)
{
    for (int i = 0; i < LIMBS - 1; i++)
        a->w[i] = a->w[i] >> 1 | a->w[i + 1] << 31;
    a->w[LIMBS - 1] >>= 1;
}

static int big_cmp(const big *a, const big *b)
{
    for (int i = LIMBS - 1; i >= 0; i--)
        if (a->w[i] != b->w[i])
            return a->w[i] < b->w[i] ? -1 : 1;
    return 0;
}

/* a -= b, b <= a */
static void big_sub(big *a, const big *b)
{
    uint64_t borrow = 0;

    for (int i = 0; i < LIMBS; i++) {
        uint64_t d = (uint64_t)a->w[i] - b->w[i] - borrow;

        a->w[i] = (uint32_t)d;
        borrow = d >> 63;
    }
}

/* round(m 2^e 10^p), half to even, below 2^64 */
static uint64_t g17_digits(uint64_t m, int e, int p)
{
    int s = e + p;
    uint64_t q = 0;
    big num, den, d;

    if (0 <= p && p <= 32) {
        u128 x = (u128)m * POW5[p < 27 ? p : 27], rem, half;

        if (p > 27)
            x *= POW5[p - 27];
        if (s >= 0)
            return (uint64_t)(x << s);
        rem = x & (((u128)1 << -s) - 1);
        half = (u128)1 << (-s - 1);
        q = (uint64_t)(x >> -s);
        return q + (rem > half || (rem == half && (q & 1)));
    }
    /* num / den = m 5^p 2^s */
    big_set(&num, m);
    big_set(&den, 1);
    big_mul_pow5(p >= 0 ? &num : &den, p >= 0 ? p : -p);
    big_shl(s >= 0 ? &num : &den, s >= 0 ? s : -s);
    d = den;
    big_shl(&d, 63);
    for (int i = 63; i >= 0; i--) {
        if (big_cmp(&num, &d) >= 0) {
            big_sub(&num, &d);
            q |= (uint64_t)1 << i;
        }
        big_halve(&d);
    }
    big_shl(&num, 1);  /* twice the remainder, against den */
    s = big_cmp(&num, &den);
    return q + (s > 0 || (s == 0 && (q & 1)));
}

/* v as %.17g into out (G17_LEN bytes, no NUL); returns the bytes written */
static int g17(char *out, double v)
{
    uint64_t bits, m, d;
    uint32_t hi, lo;
    int e, k, n = 17, len = 0;
    char dig[17];

    memcpy(&bits, &v, sizeof bits);
    if (bits >> 63)
        out[len++] = '-';
    m = bits & (((uint64_t)1 << 52) - 1);
    e = (int)(bits >> 52 & 0x7ff);
    if (e == 0 && m == 0) {
        out[len++] = '0';
        return len;
    }
    if (e == 0)
        e = 1;  /* subnormal */
    else
        m |= (uint64_t)1 << 52;
    e -= 1075;
    /* floor(b log10 2) for b = floor(log2 |v|) in [-1074, 1023], exactly
     * (with an arithmetic shift) */
    k = ((63 - __builtin_clzll(m) + e) * 78913) >> 18;
    d = g17_digits(m, e, 16 - k);
    if (d >= 100000000000000000u) {
        k++;
        d = g17_digits(m, e, 16 - k);
    }
    /* two independent 32-bit chains of divisions by 10 */
    hi = (uint32_t)(d / 100000000);
    lo = (uint32_t)(d % 100000000);
    for (int i = 16; i >= 9; i--) {
        dig[i] = (char)('0' + lo % 10);
        dig[i - 8] = (char)('0' + hi % 10);
        lo /= 10;
        hi /= 10;
    }
    dig[0] = (char)('0' + hi);
    while (dig[n - 1] == '0')
        n--;
    if (k < -4 || k >= 17) {
        int x = k < 0 ? -k : k;

        out[len++] = dig[0];
        if (n > 1) {
            out[len++] = '.';
            memcpy(out + len, dig + 1, n - 1);
            len += n - 1;
        }
        out[len++] = 'e';
        out[len++] = k < 0 ? '-' : '+';
        if (x >= 100)
            out[len++] = (char)('0' + x / 100);
        out[len++] = (char)('0' + x / 10 % 10);
        out[len++] = (char)('0' + x % 10);
    } else if (k >= 0) {
        memcpy(out + len, dig, k + 1);
        len += k + 1;
        if (n > k + 1) {
            out[len++] = '.';
            memcpy(out + len, dig + k + 1, n - k - 1);
            len += n - k - 1;
        }
    } else {
        memcpy(out + len, "0.0000", 1 - k);
        len += 1 - k;
        memcpy(out + len, dig, n);
        len += n;
    }
    return len;
}

/* rows (rows, cols) as %.17g text (g17), comma-separated and
 * newline-terminated, into buf; returns the bytes written, or -1 if they
 * do not fit in cap.
 */
ptrdiff_t fmt_g17(char *buf, ptrdiff_t cap, const double *a, ptrdiff_t rows,
                  ptrdiff_t cols)
{
    char *p = buf, *end = buf + cap;

    for (ptrdiff_t i = 0; i < rows * cols; i++) {
        char text[G17_LEN];
        int m = g17(text, a[i]);

        if (m >= end - p)
            return -1;
        memcpy(p, text, m);
        p += m;
        *p++ = (i + 1) % cols ? ',' : '\n';
    }
    return p - buf;
}

/* Standard normals from Philox4x64-10 streams, bit for bit those of
 * Generator(Philox(...)).standard_normal; the twin of the NumPy loop in
 * noise.fill_increments.
 *
 * Philox4x64-10 is the counter-based generator of Salmon, Moraes, Dror and
 * Shaw, "Parallel random numbers: as easy as 1, 2, 3" (SC'11), as NumPy's
 * philox.h runs it: the counter is bumped before each block of 4 words.  A
 * stream's state is NumPy's philox_state in PHILOX_WORDS uint64: counter[4],
 * key[2], buffer[4] and buffer_pos; Philox(key=k) starts at counter 0 with
 * buffer_pos 4, an empty buffer.
 *
 * The normals are NumPy's ziggurat (Marsaglia and Tsang, "The Ziggurat
 * Method for Generating Random Variables", JSS 5(8), 2000), as
 * random_standard_normal in NumPy's distributions.c draws them, with the
 * tables ki, wi and fi of its ziggurat_constants.h: one word gives a layer
 * idx (8 bits), a sign (1 bit) and rabs (52 bits); x = rabs * wi[idx] is
 * taken when rabs < ki[idx], else the wedge (exp) or, for layer 0, the tail
 * (log1p) decides, drawing more words.
 */
enum { CTR = 0, KEY = 4, BUF = 6, POS = 10, PHILOX_WORDS = 11 };

/* The ziggurat's constants, exactly those of NumPy's
 * numpy/random/src/distributions/ziggurat_constants.h (ziggurat_nor_r,
 * ziggurat_nor_inv_r, ki_double, wi_double and fi_double), written in hex so
 * that no decimal conversion can move a bit; they were read from the
 * rodata of NumPy 2.4's libnpyrandom.a.  That file is distributed under
 * NumPy's licence:
 *
 * Copyright (c) 2005-2025, NumPy Developers.
 * All rights reserved.
 *
 * Redistribution and use in source and binary forms, with or without
 * modification, are permitted provided that the following conditions are
 * met:
 *
 *     * Redistributions of source code must retain the above copyright
 *        notice, this list of conditions and the following disclaimer.
 *
 *     * Redistributions in binary form must reproduce the above
 *        copyright notice, this list of conditions and the following
 *        disclaimer in the documentation and/or other materials provided
 *        with the distribution.
 *
 *     * Neither the name of the NumPy Developers nor the names of any
 *        contributors may be used to endorse or promote products derived
 *        from this software without specific prior written permission.
 *
 * THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
 * "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
 * LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
 * A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
 * OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
 * SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
 * LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
 * DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
 * THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
 * (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
 * OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
 */
static const double ZIG_R = 0x1.d3bb48209ad33p+1;      /* 3.6541528853610088 */
static const double ZIG_INV_R = 0x1.183aa6c20e8c1p-2;  /* 1 / ZIG_R */
static const uint64_t ki[256] = {
    0x000ef33d8025ef6a, 0x0000000000000000, 0x000c08be98fbc6a8,
    0x000da354fabd8142, 0x000e51f67ec1eeea, 0x000eb255e9d3f77e,
    0x000eef4b817ecab9, 0x000f19470afa44aa, 0x000f37ed61ffcb18,
    0x000f4f469561255c, 0x000f61a5e41ba396, 0x000f707a755396a4,
    0x000f7cb2ec28449a, 0x000f86f10c6357d3, 0x000f8fa6578325de,
    0x000f9724c74dd0da, 0x000f9da907dbf509, 0x000fa360f581fa74,
    0x000fa86fde5b4bf8, 0x000facf160d354dc, 0x000fb0fb6718b90f,
    0x000fb49f8d5374c6, 0x000fb7ec2366fe77, 0x000fbaece9a1e50e,
    0x000fbdab9d040bed, 0x000fc03060ff6c57, 0x000fc2821037a248,
    0x000fc4a67ae25bd1, 0x000fc6a2977aee31, 0x000fc87aa92896a4,
    0x000fca325e4bde85, 0x000fcbcce902231a, 0x000fcd4d12f839c4,
    0x000fceb54d8fec99, 0x000fd007bf1dc930, 0x000fd1464dd6c4e6,
    0x000fd272a8e2f450, 0x000fd38e4ff0c91e, 0x000fd49a9990b478,
    0x000fd598b8920f53, 0x000fd689c08e99ec, 0x000fd76ea9c8e832,
    0x000fd848547b08e8, 0x000fd9178bad2c8c, 0x000fd9dd07a7add2,
    0x000fda9970105e8c, 0x000fdb4d5dc02e20, 0x000fdbf95c5bfcd0,
    0x000fdc9debb99a7d, 0x000fdd3b8118729d, 0x000fddd288342f90,
    0x000fde6364369f64, 0x000fdeee708d514e, 0x000fdf7401a6b42e,
    0x000fdff46599ed40, 0x000fe06fe4bc24f2, 0x000fe0e6c225a258,
    0x000fe1593c28b84c, 0x000fe1c78cbc3f99, 0x000fe231e9db1caa,
    0x000fe29885da1b91, 0x000fe2fb8fb54186, 0x000fe35b33558d4a,
    0x000fe3b799d0002a, 0x000fe410e99ead7f, 0x000fe46746d47734,
    0x000fe4bad34c095c, 0x000fe50baed29524, 0x000fe559f74ebc78,
    0x000fe5a5c8e41212, 0x000fe5ef3e138689, 0x000fe6366fd91078,
    0x000fe67b75c6d578, 0x000fe6be661e11aa, 0x000fe6ff55e5f4f2,
    0x000fe73e5900a702, 0x000fe77b823e9e39, 0x000fe7b6e37070a2,
    0x000fe7f08d774243, 0x000fe8289053f08c, 0x000fe85efb35173a,
    0x000fe893dc840864, 0x000fe8c741f0cebc, 0x000fe8f9387d4ef6,
    0x000fe929cc879b1d, 0x000fe95909d388ea, 0x000fe986fb939aa2,
    0x000fe9b3ac714866, 0x000fe9df2694b6d5, 0x000fea0973abe67c,
    0x000fea329cf166a4, 0x000fea5aab32952c, 0x000fea81a6d5741a,
    0x000feaa797de1cf0, 0x000feacc85f3d920, 0x000feaf07865e63c,
    0x000feb13762fec13, 0x000feb3585fe2a4a, 0x000feb56ae3162b4,
    0x000feb76f4e284fa, 0x000feb965fe62014, 0x000febb4f4cf9d7c,
    0x000febd2b8f449d0, 0x000febefb16e2e3e, 0x000fec0be31ebde8,
    0x000fec2752b15a15, 0x000fec42049dafd3, 0x000fec5bfd29f196,
    0x000fec75406ceef4, 0x000fec8dd2500cb4, 0x000feca5b6911f12,
    0x000fecbcf0c427fe, 0x000fecd38454fb15, 0x000fece97488c8b3,
    0x000fecfec47f91b7, 0x000fed1377358528, 0x000fed278f844903,
    0x000fed3b10242f4c, 0x000fed4dfbad586e, 0x000fed605498c3dd,
    0x000fed721d414fe8, 0x000fed8357e4a982, 0x000fed9406a42cc8,
    0x000feda42b85b704, 0x000fedb3c8746ab4, 0x000fedc2df416652,
    0x000fedd171a46e52, 0x000feddf813c8ad3, 0x000feded0f909980,
    0x000fedfa1e0fd414, 0x000fee06ae124bc4, 0x000fee12c0d95a06,
    0x000fee1e579006e0, 0x000fee29734b6524, 0x000fee34150ae4bc,
    0x000fee3e3db89b3c, 0x000fee47ee2982f4, 0x000fee51271db086,
    0x000fee59e9407f41, 0x000fee623528b42e, 0x000fee6a0b5897f1,
    0x000fee716c3e077a, 0x000fee7858327b82, 0x000fee7ecf7b06ba,
    0x000fee84d2484ab2, 0x000fee8a60b66343, 0x000fee8f7accc851,
    0x000fee94207e25da, 0x000fee9851a829ea, 0x000fee9c0e13485c,
    0x000fee9f557273f4, 0x000feea22762ccae, 0x000feea4836b42ac,
    0x000feea668fc2d71, 0x000feea7d76ed6fa, 0x000feea8ce04fa0a,
    0x000feea94be8333b, 0x000feea950296410, 0x000feea8d9c0075e,
    0x000feea7e7897654, 0x000feea678481d24, 0x000feea48aa29e83,
    0x000feea21d22e4da, 0x000fee9f2e352024, 0x000fee9bbc26af2e,
    0x000fee97c524f2e4, 0x000fee93473c0a3a, 0x000fee8e40557516,
    0x000fee88ae369c7a, 0x000fee828e7f3dfd, 0x000fee7bdea7b888,
    0x000fee749bff37ff, 0x000fee6cc3a9bd5e, 0x000fee64529e007e,
    0x000fee5b45a32888, 0x000fee51994e57b6, 0x000fee474a0006cf,
    0x000fee3c53e12c50, 0x000fee30b2e02ad8, 0x000fee2462ad8205,
    0x000fee175eb83c5a, 0x000fee09a22a1447, 0x000fedfb27e349cc,
    0x000fedebea76216c, 0x000feddbe422047e, 0x000fedcb0ece39d3,
    0x000fedb964042cf4, 0x000feda6dce938c9, 0x000fed937237e98d,
    0x000fed7f1c38a836, 0x000fed69d2b9c02b, 0x000fed538d06ae00,
    0x000fed3c41dea422, 0x000fed23e76a2fd8, 0x000fed0a732fe644,
    0x000fecefda07fe34, 0x000fecd4100eb7b8, 0x000fecb708956eb4,
    0x000fec98b61230c1, 0x000fec790a0da978, 0x000fec57f50f31fe,
    0x000fec356686c962, 0x000fec114cb4b335, 0x000febeb948e6fd0,
    0x000febc429a0b692, 0x000feb9af5ee0cdc, 0x000feb6fe1c98542,
    0x000feb42d3ad1f9e, 0x000feb13b00b2d4b, 0x000feae2591a02e9,
    0x000feaaeae992257, 0x000fea788d8ee326, 0x000fea3fcffd73e5,
    0x000fea044c8dd9f6, 0x000fe9c5d62f563b, 0x000fe9843ba947a4,
    0x000fe93f471d4728, 0x000fe8f6bd76c5d6, 0x000fe8aa5dc4e8e6,
    0x000fe859e07ab1ea, 0x000fe804f690a940, 0x000fe7ab488233c0,
    0x000fe74c751f6aa5, 0x000fe6e8102aa202, 0x000fe67da0b6abd8,
    0x000fe60c9f38307e, 0x000fe5947338f742, 0x000fe51470977280,
    0x000fe48bd436f458, 0x000fe3f9bffd1e37, 0x000fe35d35eeb19c,
    0x000fe2b5122fe4fe, 0x000fe20003995557, 0x000fe13c82788314,
    0x000fe068c4ee67b0, 0x000fdf82b02b71aa, 0x000fde87c57efeaa,
    0x000fdd7509c63bfd, 0x000fdc46e529bf13, 0x000fdaf8f82e0282,
    0x000fd985e1b2ba75, 0x000fd7e6ef48cf04, 0x000fd613adbd650b,
    0x000fd40149e2f012, 0x000fd1a1a7b4c7ac, 0x000fcee204761f9e,
    0x000fcba8d85e11b2, 0x000fc7d26ecd2d22, 0x000fc32b2f1e22ed,
    0x000fbd6581c0b83a, 0x000fb606c4005434, 0x000fac40582a2874,
    0x000f9e971e014598, 0x000f89fa48a41dfc, 0x000f66c5f7f0302c,
    0x000f1a5a4b331c4a};

static const double wi[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54,
    0x1.57cb938443b61p-54, 0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54,
    0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54, 0x1.f32482d4cd5c3p-54,
    0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53,
    0x1.3bd9ec1a2b12fp-53, 0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53,
    0x1.52575621ad374p-53, 0x1.59580a707ce96p-53, 0x1.60231cfd97eeap-53,
    0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53,
    0x1.8b1649e7b769ap-53, 0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53,
    0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53, 0x1.a62676d77cd59p-53,
    0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53,
    0x1.c8a13a5323b61p-53, 0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53,
    0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53, 0x1.df73aa9f17653p-53,
    0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53,
    0x1.fd8537dfa2eacp-53, 0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52,
    0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52, 0x1.08f869071f40bp-52,
    0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52,
    0x1.16b08bfc4201ep-52, 0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52,
    0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52, 0x1.2028a9940a09fp-52,
    0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52,
    0x1.2d0d862e1b853p-52, 0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52,
    0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52, 0x1.360e2baca52d5p-52,
    0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52,
    0x1.426fb2da6745dp-52, 0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52,
    0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52, 0x1.4b287f602415dp-52,
    0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52,
    0x1.574000e555f78p-52, 0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52,
    0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52, 0x1.5fd4fc89f5e38p-52,
    0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52,
    0x1.6bd01e8b343bbp-52, 0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52,
    0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52, 0x1.745f7dc70eedcp-52,
    0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52,
    0x1.80667a486ea1fp-52, 0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52,
    0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52, 0x1.890c35f47f72dp-52,
    0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52,
    0x1.954627903a28ap-52, 0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52,
    0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52, 0x1.9e1ec2b6f7411p-52,
    0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52,
    0x1.aab563e9ff108p-52, 0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52,
    0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52, 0x1.b3e0aa0e00c00p-52,
    0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52,
    0x1.c10486cec16a0p-52, 0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52,
    0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52, 0x1.caa8fbd36a2abp-52,
    0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52,
    0x1.d8973f4d7fba5p-52, 0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52,
    0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52, 0x1.e2e74c4ea46f6p-52,
    0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52,
    0x1.f1f328ac25321p-52, 0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52,
    0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52, 0x1.fd360d22fe785p-52,
    0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51,
    0x1.06ed023a72668p-51, 0x1.082988f632e17p-51, 0x1.0969708e8a254p-51,
    0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51, 0x1.0d3ea34aa3d30p-51,
    0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51,
    0x1.16bf93b9deef3p-51, 0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51,
    0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51, 0x1.1e1ebfbe4ae39p-51,
    0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51,
    0x1.2982ecd770e78p-51, 0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51,
    0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51, 0x1.32a7b5e68a4a3p-51,
    0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51,
    0x1.417a49cb9e5dap-51, 0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51,
    0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51, 0x1.4e3250dcd8902p-51,
    0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51,
    0x1.653ce7b006aeap-51, 0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51,
    0x1.72728f05f7a34p-51, 0x1.7799556090673p-51, 0x1.7d42df4d6ce8cp-51,
    0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51,
    0x1.d3bb48209ad33p-51};

static const double fi[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1,
    0x1.e3f11e027f077p-1, 0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1,
    0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1, 0x1.c6a5ecea9787fp-1,
    0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1,
    0x1.a748bd550c9e1p-1, 0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1,
    0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1, 0x1.94291c21b7a47p-1,
    0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1,
    0x1.7c29a779c6858p-1, 0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1,
    0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1, 0x1.6c7589e635a89p-1,
    0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1,
    0x1.57fe4264c8d8fp-1, 0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1,
    0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1, 0x1.4a42172dc5278p-1,
    0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1,
    0x1.380c32bda00d5p-1, 0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1,
    0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1, 0x1.2baaa14d7954ap-1,
    0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1,
    0x1.1b171573fd111p-1, 0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1,
    0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1, 0x1.0fbb3a2325913p-1,
    0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1,
    0x1.006dc85b8cac4p-1, 0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2,
    0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2, 0x1.ebc6e20bd1f54p-2,
    0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2,
    0x1.cf419b4ae5b6dp-2, 0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2,
    0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2, 0x1.bb8a4d6716d91p-2,
    0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2,
    0x1.a0c923946843ep-2, 0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2,
    0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2, 0x1.8e3e1fcb9f115p-2,
    0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2,
    0x1.7506769c7b1edp-2, 0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2,
    0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2, 0x1.6383d377be515p-2,
    0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2,
    0x1.4baa357109ca2p-2, 0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2,
    0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2, 0x1.3b1507cf143aep-2,
    0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2,
    0x1.2478a1f17de89p-2, 0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2,
    0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2, 0x1.14bc7bb34ee67p-2,
    0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2,
    0x1.fe88b89df93c5p-3, 0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3,
    0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3, 0x1.e0a3816457184p-3,
    0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3,
    0x1.b7d647a8731aap-3, 0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3,
    0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3, 0x1.9b6d2bfd2fe5ap-3,
    0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3,
    0x1.74a7c9c7ab5a6p-3, 0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3,
    0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3, 0x1.59aac88f31d6cp-3,
    0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3,
    0x1.34db805b4ab88p-3, 0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3,
    0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3, 0x1.1b41492757d42p-3,
    0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4,
    0x1.f0bff29520e1cp-4, 0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4,
    0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4, 0x1.c04d0680b1015p-4,
    0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4,
    0x1.7e6ca013eefd6p-4, 0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4,
    0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4, 0x1.50c9b06fa2baep-4,
    0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4,
    0x1.12f14d0f2179dp-4, 0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4,
    0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5, 0x1.d092efeadf162p-5,
    0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5,
    0x1.5dab23cf2add4p-5, 0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5,
    0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5, 0x1.0f1982e968011p-5,
    0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6,
    0x1.4d6eaf2fbb064p-6, 0x1.30d388dab5e13p-6, 0x1.1490334603012p-6,
    0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7, 0x1.841040d8da478p-7,
    0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9,
    0x1.4a605b6b9f70fp-10};

/* Bump s's counter and write the next block of 4 words to w: ten rounds,
 * the key bumped by the Weyl constants before each but the first. */
static inline void philox_block(uint64_t *s, uint64_t w[4])
{
    uint64_t c0, c1, c2, c3, k0 = s[KEY], k1 = s[KEY + 1];

    if (++s[CTR] == 0 && ++s[CTR + 1] == 0 && ++s[CTR + 2] == 0)
        ++s[CTR + 3];
    c0 = s[CTR], c1 = s[CTR + 1], c2 = s[CTR + 2], c3 = s[CTR + 3];
#pragma GCC unroll 10
    for (int r = 0; r < 10; r++) {
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93u * c0;
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157u * c2;

        if (r > 0) {
            k0 += 0x9E3779B97F4A7C15u;
            k1 += 0xBB67AE8584CAA73Bu;
        }
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
    }
    w[0] = c0, w[1] = c1, w[2] = c2, w[3] = c3;
}

/* The next word of the stream s: NumPy's philox_next64, which takes the
 * buffer's words in turn and, once they are used up, draws the next block
 * into it. */
static inline uint64_t next_u64(uint64_t *s)
{
    if (s[POS] < 4)
        return s[BUF + s[POS]++];
    philox_block(s, s + BUF);
    s[POS] = 1;
    return s[BUF];
}

/* A double in [0, 1) from the next word of s: NumPy's next_double. */
static double next_double(uint64_t *s)
{
    return (double)(next_u64(s) >> 11) * (1.0 / 9007199254740992.0);
}

/* x with its sign bit flipped when flip is 1, which is -x when it is. */
static inline double flip_sign(double x, uint64_t flip)
{
    uint64_t u;

    memcpy(&u, &x, sizeof u);
    u ^= flip << 63;
    memcpy(&x, &u, sizeof u);
    return x;
}

/* The next normal of the stream s, every word it needs taken from s in
 * turn: random_standard_normal of NumPy. */
static inline double ziggurat(uint64_t *s)
{
    for (;;) {
        uint64_t r = next_u64(s);
        int idx = r & 0xff;
        uint64_t rabs = (r >> 9) & 0x000fffffffffffff;
        /* the signed conversion, exact as rabs < 2^52 */
        double x = flip_sign((double)(int64_t)rabs * wi[idx], (r >> 8) & 1);

        if (__builtin_expect(rabs < ki[idx], 1))
            return x;
        if (idx == 0) {
            for (;;) {
                double xx = -ZIG_INV_R * log1p(-next_double(s));
                double yy = -log1p(-next_double(s));

                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 1) ? -(ZIG_R + xx) : ZIG_R + xx;
            }
        }
        if ((fi[idx - 1] - fi[idx]) * next_double(s) + fi[idx]
            < exp(-0.5 * x * x))
            return x;
    }
}

/* Fill row i of out (rows, n), which starts at out[i * ld], with the next n
 * normals of the stream state + i * PHILOX_WORDS, each times scale: NumPy's
 * loop of random_standard_normal, one value at a time. */
void philox_normal(double *out, ptrdiff_t rows, ptrdiff_t n, ptrdiff_t ld,
                   uint64_t *state, double scale)
{
    for (ptrdiff_t i = 0; i < rows; i++) {
        uint64_t *s = state + i * PHILOX_WORDS;
        double *y = out + i * ld;

        for (ptrdiff_t j = 0; j < n; j++)
            y[j] = ziggurat(s) * scale;
    }
}
