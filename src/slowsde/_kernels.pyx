# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled stepping kernels (hot inner loops).

Operation order matches slowsde._kernels_py exactly; together with
-ffp-contract=off this keeps the two backends bit-identical.
"""

from libc.math cimport fabs


def em_poly(double[:, ::1] out, double[:, ::1] coefs, double cdt, double d,
            double[::1] trunc, double t0, double dt, Py_ssize_t k0):
    """Euler-Maruyama steps of one time chunk, time-major and in place.

    Same contract as slowsde._kernels_py.em_poly: out (n+1, B) with out[0]
    the state at node k0 and out[1:] the increments already scaled by
    sigma/sqrt(eps), trunc (B,) NaN for live paths and updated in place.
    The cubic case (the pitchfork family) gets an unrolled Horner with the
    same operation order as the general loop.
    """
    cdef Py_ssize_t B = out.shape[1]
    cdef Py_ssize_t n = coefs.shape[0]
    cdef Py_ssize_t nx = coefs.shape[1]
    cdef Py_ssize_t b, k, i
    cdef double x, f, xn
    cdef bint alive
    with nogil:
        for b in range(B):
            x = out[0, b]
            alive = trunc[b] != trunc[b]  # NaN: not frozen yet
            for k in range(n):
                if alive:
                    if nx == 4:
                        f = ((x * coefs[k, 3] + coefs[k, 2]) * x
                             + coefs[k, 1]) * x + coefs[k, 0]
                    else:
                        f = coefs[k, nx - 1]
                        for i in range(nx - 2, -1, -1):
                            f = f * x + coefs[k, i]
                    xn = (x + cdt * f) + out[k + 1, b]
                    if fabs(xn) > d:
                        trunc[b] = t0 + (k0 + k + 1) * dt
                        alive = False
                    else:
                        x = xn
                out[k + 1, b] = x
    return None


def linear_paths(double[:, ::1] out, double[:, ::1] dw, double[::1] mult,
                 double cns, double d, double[::1] trunc,
                 double t0, double dt):
    """Exponential-Euler steps x <- x * mult[k] + cns * dW_k."""
    cdef Py_ssize_t B = out.shape[0]
    cdef Py_ssize_t K = dw.shape[1]
    cdef Py_ssize_t b, k
    cdef double x, xn
    cdef bint alive
    with nogil:
        for b in range(B):
            x = out[b, 0]
            alive = True
            for k in range(K):
                if alive:
                    xn = x * mult[k] + cns * dw[b, k]
                    if fabs(xn) > d:
                        trunc[b] = t0 + (k + 1) * dt
                        alive = False
                    else:
                        x = xn
                out[b, k + 1] = x
    return None
