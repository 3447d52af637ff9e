"""Brent's bracketed root finder, ported from scipy's ``brentq.c``.

A line-for-line Python port of ``scipy/optimize/Zeros/brentq.c`` (the
``xpre``/``xcur``/``xblk`` loop: inverse quadratic interpolation or
secant steps, falling back to bisection).  Every arithmetic operation
runs in the same order on IEEE doubles, so it returns the same bits as
``scipy.optimize.brentq`` for the same callback, bracket and tolerances,
without importing ``scipy.optimize``.  Errors follow scipy too:
``ValueError`` when the ends have the same sign or the callback returns
NaN, ``RuntimeError`` when ``maxiter`` iterations do not converge.
``brentq_rows``, the package's one entry point, raises them as
``NumericsError``s of the same type, one bracket after another; the
stationary points of ``analyze`` and the oracle's outer turning points
go through it.
"""

import math

import numpy as np

from .errors import NumericsError

__all__ = ["brentq", "brentq_rows"]


class _Unsolvable(NumericsError, ValueError):
    """The ends of a bracket have one sign, or the function is NaN."""


class _NoConvergence(NumericsError, RuntimeError):
    """``maxiter`` iterations did not converge."""


def brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Stops when the bracket half-width falls below (xtol + rtol |x|) / 2.
    """

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # C divides an underflowed denominator into +-inf or NaN,
                # which fails the short-step test below: inf bisects alike
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
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
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def brentq_rows(f, a, b, xtol: float, rtol: float, maxiter: int = 100):
    """``brentq`` on each bracket in turn: for each row i, a root of
    ``f(x, i)`` in [a[i], b[i]], with f called on a float and an int.

    Errors are ``brentq``'s as ``NumericsError``s of the same type, for
    the first row that meets one.  Returns an array of the roots.
    """
    try:
        return np.array([
            brentq(lambda x, row=row: f(x, row), lo, hi, xtol=xtol, rtol=rtol, maxiter=maxiter)
            for row, (lo, hi) in enumerate(zip(a, b))
        ])
    except (ValueError, RuntimeError) as exc:
        error = _Unsolvable if isinstance(exc, ValueError) else _NoConvergence
        raise error(*exc.args) from None
