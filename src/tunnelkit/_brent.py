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
``NumericsError``s of the same type; ``brentq`` is its scalar loop.
"""

import math

import numpy as np

from .errors import NumericsError

__all__ = ["brentq", "brentq_rows"]


class _Unsolvable(NumericsError, ValueError):
    """The ends of a bracket have one sign, or the function is NaN."""


class _NoConvergence(NumericsError, RuntimeError):
    """``maxiter`` iterations did not converge."""


# Fewest roots that ``brentq_rows`` solves in lockstep on arrays.  On the
# quartic, sextic and double-oscillator turning points, a lockstep solve
# took 10 or 11 iterates (one array call of f and some 40 other array
# operations each) and 1.0 to 1.3 ms at any row count from 2 to 72, the
# scalar loop 20 to 27 us per root; the two broke even at 48 to 60 roots
# (x86-64, one core, Python 3.11, numpy 2.4).
_LOCKSTEP_ROOTS = 52


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
    """``brentq`` on many brackets at once: for each row i, a root of
    ``f(x, i)`` in [a[i], b[i]].

    From _LOCKSTEP_ROOTS rows on, the rows step in lockstep on arrays and
    stay in place: a settled row's lane runs on, but is not read.  Each
    iterate is one call ``f(x, rows)`` on the float array of the open
    rows' abscissae and the int array of their row indices, returning the
    array of values.  Fewer rows run the scalar loop, which calls
    ``f(x, row)`` with a float and an int, so a caller with one bracket
    gets exactly ``brentq``'s steps.  Each row takes the scalar port's
    steps, operation for operation, so every root is bit for bit the one
    ``brentq`` finds for that row alone as long as ``f`` gives each
    element of an array the bits it gives that float.  Errors are
    ``brentq``'s as ``NumericsError``s, for the first row that meets one;
    a NaN value is an error on either path, while an overflow or invalid
    operation inside the array call is not.  Returns an array of the roots.
    """
    if len(a) < _LOCKSTEP_ROOTS:
        try:
            return np.array([
                brentq(lambda x, row=row: f(x, row), lo, hi, xtol=xtol, rtol=rtol, maxiter=maxiter)
                for row, (lo, hi) in enumerate(zip(a, b))
            ])
        except (ValueError, RuntimeError) as exc:
            error = _Unsolvable if isinstance(exc, ValueError) else _NoConvergence
            raise error(*exc.args) from None

    def call(x, rows):
        # f on floats warns of no overflow or invalid operation: the NaN
        # check below is the one signal, as in brentq
        with np.errstate(all="ignore"):
            fx = np.asarray(f(x, rows), dtype=float)
        if np.isnan(fx).any():
            bad = float(x[np.isnan(fx)][0])
            raise _Unsolvable(f"The function value at x={bad} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.empty(xpre.size)
    rows = np.arange(xpre.size)
    fpre, fcur = call(xpre, rows), call(xcur, rows)
    out[fcur == 0.0] = xcur[fcur == 0.0]
    out[fpre == 0.0] = xpre[fpre == 0.0]
    live = (fpre != 0.0) & (fcur != 0.0)
    if ((fpre[live] < 0.0) == (fcur[live] < 0.0)).any():
        raise _Unsolvable("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = np.zeros(rows.size)
    with np.errstate(all="ignore"):
        for _ in range(maxiter):
            flip = (fpre != 0.0) & (fcur != 0.0) & ((fpre < 0.0) != (fcur < 0.0))
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            step = xcur - xpre
            spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
            fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
            delta = (xtol + rtol * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = live & ((fcur == 0.0) | (np.abs(sbis) < delta))
            out[done] = xcur[done]
            live &= ~done
            if not live.any():
                return out
            # interpolate (secant) or extrapolate (inverse quadratic)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)),
            )
            short = (
                (np.abs(spre) > delta)
                & (np.abs(fcur) < np.abs(fpre))
                & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta))
            )
            spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = np.where(np.abs(scur) > delta, xcur + scur, xcur + np.where(sbis > 0, delta, -delta))
            # fpre holds fcur's array: the open rows' values go into a copy
            fcur = fcur.copy()
            fcur[live] = call(xcur[live], rows[live])
    raise _NoConvergence(f"Failed to converge after {maxiter} iterations.")


