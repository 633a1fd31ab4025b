"""Scalar special functions and one-dimensional solvers.

Chi-square tails and quantiles, which with the model's 2N degrees of freedom
(N antennas) are finite Poisson sums, bracketed root finding and bounded
minimization.  The last two are Brent's methods, written out to return the
bits of scipy's brentq and bounded minimize_scalar; scipy is not a
dependency.  Collecting them here pins the tolerances in one place.
"""
from __future__ import annotations

import math

import numpy as np


class NumericsError(ValueError):
    """Domain violation or numerical failure in a low-level routine."""


def _half_dof(dof) -> int:
    """dof / 2; odd or non-integer dof raise, as every chi-square here has 2N."""
    if not (dof > 0 and dof % 2 == 0):
        raise NumericsError(f"dof must be a positive even integer, got {dof}")
    return int(dof) // 2


def _poisson_pmf(n: int, y: float) -> float:
    """e^{-y} y^n / n!, with y^n and n! scaled by powers of two so neither
    overflows; in logarithms (about n log y ulp) where e^{-y} is not normal."""
    if y < 700.0 and n < 1000:
        mant, exp2 = math.frexp(y)
        fact = math.factorial(n)
        scaled = math.exp(-y) * mant ** n / (fact / (1 << fact.bit_length()))
        if scaled > 1e-300 or y == 0.0:
            return math.ldexp(scaled, exp2 * n - fact.bit_length())
    return math.exp(n * math.log(y) - y - math.lgamma(n + 1.0))


def _gamma_side(k: int, y: float, lower: bool) -> tuple[float, float]:
    """(S, S / (y f)) at y > 0 for Y ~ Gamma(k, 1) with density f and S = P(Y <= y)
    if ``lower`` else P(Y > y), which are f (y/k + y^2/(k(k+1)) + ...) and f (1 +
    (k-1)/y + ...): each summed by Horner on its side of the median (above k - 1/3),
    where its terms fall, the other one minus it."""
    f, total = _poisson_pmf(k - 1, y), 1.0
    below = y < k - 1.0 / 3.0
    if below:           # by the top i the product of the ratios y/i is below 1e-17
        for i in range(k + int(9.0 * math.sqrt(k)) + 40, k, -1):
            total = 1.0 + total * y / i
        total *= y / k
    else:
        for i in range(1, k):
            total = 1.0 + total * i / y
    if below == lower:
        return f * total, total / y
    s = 1.0 - f * total
    return s, s / (y * f) if f else math.inf


def chi2_cdf(x: float, dof: int) -> float:
    """P(X <= x) for X chi-square with even ``dof``; odd dof raise NumericsError."""
    return _gamma_side(_half_dof(dof), x / 2.0, True)[0] if x > 0 else 0.0


def chi2_tail(x: float, dof: int) -> float:
    """P(X > x), computed directly so small tails keep relative accuracy."""
    return _gamma_side(_half_dof(dof), x / 2.0, False)[0] if x > 0 else 1.0


def chi2_quantile(level: float, dof: int, tail: bool = False) -> float:
    """Inverse of :func:`chi2_cdf`, or of :func:`chi2_tail` if ``tail``, in its first argument.

    Newton's method in log y (y = x/2) on the log of the side at most 1/2, which
    is concave there (log Y has a log-concave density), so every step after the
    first moves toward the root and the solve stops at the first that does not.
    The start bounds the root: P(Y <= y) <= y^k/k!, P(Y > k + sqrt(2kL) + L) <= e^{-L}.
    """
    k, lower = _half_dof(dof), not tail
    if not 0.0 < level < 1.0:
        raise NumericsError(f"quantile level must lie in (0, 1), got {level}")
    if level > 0.5:
        level, lower = 1.0 - level, tail
    big_l = -math.log(level)
    y = (math.exp((math.lgamma(k + 1.0) - big_l) / k) if lower
         else k + math.sqrt(2.0 * k * big_l) + big_l)
    for i in range(100):
        s, ratio = _gamma_side(k, y, lower)
        # log(S / level) keeps every bit of the residual; a tiny S is f y ratio in logarithms
        g = (math.log(s / level) if s > 1e-300 else
             (k - 1) * math.log(y) - y - math.lgamma(k) + math.log(y * ratio) + big_l)
        step = y * math.expm1(-g * ratio if lower else g * ratio)
        if i and (not (step > 0.0 if lower else step < 0.0) or y + step == y):
            return 2.0 * y
        y += step
    raise NumericsError(f"chi-square quantile did not converge at level {level}, dof {dof}")


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
