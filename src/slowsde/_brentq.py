"""Brent's bracketed root finder, step for step as SciPy's C ``brentq``.

Brent (1973), *Algorithms for Minimization without Derivatives*, ch. 4:
inverse quadratic or secant steps inside a bracket that always keeps a sign
change, with bisection whenever a step would not shrink it fast enough.
The arithmetic follows ``scipy/optimize/Zeros/brentq.c`` operation for
operation, so the roots equal ``scipy.optimize.brentq``'s bit for bit
without importing SciPy.
"""

from __future__ import annotations

import math
import sys

from .errors import NonFiniteResult, RootNotBracketed, RootNotConverged


def brentq(f, a: float, b: float, xtol: float = 2e-12,
           rtol: float = 4 * sys.float_info.epsilon,
           maxiter: int = 100) -> float:
    """Root of f in [a, b], where f(a) and f(b) have opposite signs.

    Stops when half the bracket is below (xtol + rtol |x|) / 2.  Raises
    RootNotBracketed (a ValueError) when the signs agree, NonFiniteResult
    (a ValueError) when f is NaN, and RootNotConverged (a RuntimeError)
    after maxiter steps.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NonFiniteResult(f"f({x!r}) is NaN; the root search "
                                  "cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise RootNotBracketed("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a short enough step: take it
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RootNotConverged(f"no convergence after {maxiter} iterations, "
                           f"value is {xcur!r}")
