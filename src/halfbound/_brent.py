"""Brent's one-dimensional searches: a bracketed root and a bounded minimum.

Both are from R. P. Brent, *Algorithms for Minimization without Derivatives*
(Prentice-Hall, 1973): ``brentq`` is zeroin (chapter 4), which polishes the
zero-energy mismatch of :mod:`halfbound.critical` and the Bessel zeros, and
``minimize_scalar`` is fmin (chapter 5), which refines the R(q) minima of the
command-line strength scans.  Each takes its iterates in the order of scipy's
BSD-licensed code (``brentq.c`` and ``_minimize_scalar_bounded``), so the
package computes the same floats it did when it called scipy; the tests check
that parity against scipy itself.

Errors: a bracket whose ends share a sign is a ``ValueError`` (bad input); a
NaN function value and an exhausted evaluation budget are ``ArithmeticError``
(numerical failure).
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

__all__ = ["Minimum", "brentq", "minimize_scalar"]

_RTOL_MIN = 4 * sys.float_info.epsilon  # below this zeroin cannot meet rtol
_SQRT_EPS = math.sqrt(2.2e-16)  # scipy's literal, kept for parity
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


class Minimum(NamedTuple):
    """A bounded minimum: where it lies, its value, and the evaluations it took."""

    x: float
    fun: float
    nfev: int


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ArithmeticError(f"function value is NaN at x = {x!r}")
    return fx


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign, to |dx| <= xtol + rtol*|x|."""
    if xtol <= 0.0 or rtol < _RTOL_MIN:
        raise ValueError(f"need xtol > 0 and rtol >= {_RTOL_MIN:g}, got xtol={xtol:g}, rtol={rtol:g}")
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        # xcur is the best iterate, xblk the contrapoint across the sign change
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
        interpolate = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                interpolate = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            except ZeroDivisionError:  # an infinite or NaN step: bisect
                pass
        if interpolate:
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(f, xcur)
    raise ArithmeticError(f"Brent root not converged in {maxiter} iterations (last x = {xcur!r})")


def _sign(d: float) -> float:
    return -1.0 if d < 0.0 else 1.0


def minimize_scalar(f: Callable[[float], float], lo: float, hi: float, xatol: float, maxfun: int = 500) -> Minimum:
    """Minimum of f on [lo, hi] to an absolute tolerance xatol in x, by golden sections and parabolas."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"bounds must be finite with lo <= hi, got ({lo}, {hi})")
    a, b = lo, hi
    # xf: best point; nfc: second best; fulc: the point before it (Brent's x, w, v)
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = _value(f, xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = _value(f, x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            raise ArithmeticError(f"bounded minimum not converged in {maxfun} evaluations on [{lo}, {hi}]")
    return Minimum(xf, fx, num)
