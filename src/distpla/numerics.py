"""Scalar special functions and one-dimensional solvers.

Everything statistical in this package reduces to a handful of primitives:
chi-square tails and quantiles (scipy.special), bracketed root finding and
bounded minimization.  The last two are Brent's methods, written out to
return the bits of scipy's brentq and bounded minimize_scalar without
loading scipy.optimize.  Collecting them here pins the tolerances in one
place.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special


class NumericsError(ValueError):
    """Domain violation or numerical failure in a low-level routine."""


def chi2_cdf(x: float, dof: int) -> float:
    """P(X <= x) for X chi-square with ``dof`` degrees of freedom."""
    if dof <= 0:
        raise NumericsError(f"dof must be positive, got {dof}")
    if x < 0:
        return 0.0
    return float(special.gammainc(dof / 2.0, x / 2.0))


def chi2_tail(x: float, dof: int) -> float:
    """P(X > x), computed directly so small tails keep relative accuracy."""
    if dof <= 0:
        raise NumericsError(f"dof must be positive, got {dof}")
    if x < 0:
        return 1.0
    return float(special.gammaincc(dof / 2.0, x / 2.0))


def chi2_quantile(p: float, dof: int) -> float:
    """Inverse of :func:`chi2_cdf` in its first argument."""
    if dof <= 0:
        raise NumericsError(f"dof must be positive, got {dof}")
    if not 0.0 < p < 1.0:
        raise NumericsError(f"quantile level must lie in (0, 1), got {p}")
    return float(2.0 * special.gammaincinv(dof / 2.0, p))


def bracketed_root_find(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of a continuous scalar f on [lo, hi] with a sign change, clamped to it.

    Brent's method step for step as scipy's brentq (its C loop, xtol ``tol``,
    rtol max(``tol``, 4 eps)), so the root has the same bits.  Raises if f(lo)
    and f(hi) do not straddle zero, if f is NaN anywhere or after ``max_iter`` steps.
    """
    if not lo < hi:
        raise NumericsError(f"invalid bracket [{lo}, {hi}]")
    xpre, xcur, fpre, fcur = lo, hi, f(lo), f(hi)
    if math.isnan(fpre) or math.isnan(fcur) or (
            fpre and fcur and math.copysign(1.0, fpre) == math.copysign(1.0, fcur)):
        raise NumericsError(f"no sign change or a NaN on bracket: f({lo})={fpre}, f({hi})={fcur}")
    if fpre == 0.0 or fcur == 0.0:
        return lo if fpre == 0.0 else hi
    rtol = max(tol, 4 * np.finfo(float).eps)
    for _ in range(max_iter):       # the first pass sets xblk, fblk, spre and scur
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (tol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return float(min(max(xcur, lo), hi))
        stry = math.nan             # bisect unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:                    # C's x/0 is inf or NaN, which bisects as well
                if xpre == xblk:    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:               # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        spre, scur = ((scur, stry) if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
                      else (sbis, sbis))
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise NumericsError(f"root finder met NaN at x={xcur}")
    raise NumericsError(f"root finder did not converge in {max_iter} steps on [{lo}, {hi}]")


def bounded_minimum(f, a: float, b: float, xatol: float) -> tuple[float, float]:
    """(x, f(x)) at a local minimum of scalar f on [a, b]: Brent's
    golden-section and parabolic search step for step as scipy's
    minimize_scalar(method="bounded"), so both have the same bits; like it
    with its default maxiter, stops without raising after 500 evaluations."""
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fnfc = ffulc = float(f(xf))
    rat = e = 0.0
    for _ in range(499):
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        if not abs(xf - xm) > (2.0 * tol1 - 0.5 * (b - a)):
            break
        golden = True
        if abs(e) > tol1:           # try a parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                if (xf + rat - a) < 2.0 * tol1 or (b - (xf + rat)) < 2.0 * tol1:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = float(f(x))
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    return float(xf), float(fx)
