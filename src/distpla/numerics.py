"""Scalar special functions and small linear-algebra helpers.

Everything statistical in this package reduces to a handful of primitives:
chi-square tails and quantiles, Cholesky factors, and bracketed scalar
root finding.  They are collected here (backed by scipy/numpy) so the
physics modules read in terms of the quantities they actually use and so
the tolerances are pinned in one place.
"""
from __future__ import annotations

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


def cholesky_lower(m: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^H = m; raises on non-PD input."""
    try:
        return np.linalg.cholesky(np.asarray(m))
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"matrix is not positive definite: {exc}") from exc


def bracketed_root_find(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of a continuous scalar f on [lo, hi] with a sign change.

    The returned point never leaves the bracket.  Raises if f(lo) and
    f(hi) do not straddle zero.
    """
    if not lo < hi:
        raise NumericsError(f"invalid bracket [{lo}, {hi}]")
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise NumericsError(f"no sign change on bracket: f({lo})={f_lo}, f({hi})={f_hi}")
    from scipy.optimize import brentq
    root = brentq(f, lo, hi, xtol=tol, rtol=max(tol, 4 * np.finfo(float).eps),
                  maxiter=max_iter)
    return float(min(max(root, lo), hi))
