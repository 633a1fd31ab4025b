import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from distpla.numerics import (NumericsError, bounded_minimum, bracketed_root_find,
                              chi2_cdf, chi2_quantile, chi2_tail)

from conftest import ncx2_cdf


def test_chi2_quantile_frozen():
    # scipy.stats.chi2.ppf(0.99, 12), via an unrelated code path
    assert chi2_quantile(0.99, 12) == pytest.approx(26.216967305535853, rel=1e-12)


@pytest.mark.parametrize("dof", [2, 4, 12, 16, 32])
@pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6])
def test_chi2_roundtrip(dof, p):
    x = chi2_quantile(p, dof)
    assert chi2_cdf(x, dof) == pytest.approx(p, rel=1e-10)
    assert chi2_tail(x, dof) == pytest.approx(1.0 - p, rel=1e-8)


def test_chi2_tail_small_values_keep_relative_accuracy():
    # far tail: cdf would round to 1, tail must not round to 0
    t = chi2_tail(300.0, 4)
    assert 0.0 < t < 1e-60


def test_chi2_domain_errors():
    with pytest.raises(NumericsError):
        chi2_quantile(0.0, 4)
    with pytest.raises(NumericsError):
        chi2_quantile(0.5, 0)
    with pytest.raises(NumericsError):
        chi2_cdf(1.0, -2)
    # every dof the package forms is 2N, so odd and non-integer dof are refused
    for call in (lambda: chi2_cdf(1.0, 3), lambda: chi2_tail(1.0, 2.5),
                 lambda: chi2_quantile(0.5, 5), lambda: chi2_quantile(0.5, 7, tail=True)):
        with pytest.raises(NumericsError):
            call()
    assert chi2_cdf(-1.0, 4) == 0.0
    assert chi2_tail(-1.0, 4) == 1.0


def test_chi2_family_against_mpmath():
    """Seeded sweep over even dof 2..96 and levels 1e-15 .. 1 - 1e-15 (each
    side of 1/2, log-uniform in the distance to it) against 40-digit mpmath.
    The bounds are the largest errors measured on x86-64: 0.79 and 1.09 ulp
    for chi2_quantile without and with ``tail`` (scipy's gammaincinv and
    gammainccinv reach 21.1 and 11.4 ulp on the same cases), 4.3e-16 and
    3.3e-16 relative for chi2_cdf and chi2_tail at those roots."""
    rng = np.random.default_rng(20)
    worst = {"quantile": 0.0, "tail_quantile": 0.0, "cdf": 0.0, "tail": 0.0}
    with mpmath.workdps(40):
        for _ in range(330):
            dof = 2 * int(rng.integers(1, 49))
            near = float(10.0 ** rng.uniform(-15.0, math.log10(0.5)))
            level = near if rng.random() < 0.5 else 1.0 - near
            lower = lambda x: mpmath.gammainc(dof // 2, 0, x / 2, regularized=True)
            upper = lambda x: mpmath.gammainc(dof // 2, x / 2, mpmath.inf, regularized=True)
            for key, got, side in (("quantile", chi2_quantile(level, dof), lower),
                                   ("tail_quantile", chi2_quantile(level, dof, tail=True), upper)):
                root = mpmath.findroot(lambda x: side(x) - level, mpmath.mpf(got))
                worst[key] = max(worst[key], float(abs(got - root)) / math.ulp(float(root)))
                exact = side(mpmath.mpf(got))
                value = (chi2_cdf if side is lower else chi2_tail)(got, dof)
                cdf_key = "cdf" if side is lower else "tail"
                worst[cdf_key] = max(worst[cdf_key], float(abs(value - exact) / exact))
    assert worst["quantile"] <= 0.79 and worst["tail_quantile"] <= 1.09, worst
    assert worst["cdf"] <= 4.3e-16 and worst["tail"] <= 3.3e-16, worst



def test_ncx2_cdf_against_mpmath():
    """The Poisson mixture of central CDFs against the same mixture at 40
    digits, over a seeded sweep of even dof 2..48, noncentrality 1e-2..300
    and x from far below to above the mean (CDFs down to 1e-33).  The bound
    is the largest error measured on x86-64, 3.4e-16; scipy's chndtr, which
    the delay bounds used before, reaches 9.2e-15 on the same cases."""
    rng = np.random.default_rng(3)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(60):
            dof, nc = 2 * int(rng.integers(1, 25)), float(10.0 ** rng.uniform(-2.0, 2.5))
            x = float((dof + nc) * 10.0 ** rng.uniform(-1.5, 0.4))
            y, m = mpmath.mpf(x) / 2, mpmath.mpf(nc) / 2
            exact = mpmath.mpf(0)
            for j in range(int(m + 40.0 * math.sqrt(m) + 100.0)):
                exact += (mpmath.exp(-m) * m ** j / mpmath.factorial(j)
                          * mpmath.gammainc(dof // 2 + j, 0, y, regularized=True))
            worst = max(worst, float(abs(ncx2_cdf(x, dof, nc) - exact) / exact))
    assert worst <= 3.4e-16, worst
    assert ncx2_cdf(0.0, 4, 2.0) == 0.0 and ncx2_cdf(3.0, 4, 0.0) == chi2_cdf(3.0, 4)
    with pytest.raises(NumericsError):
        ncx2_cdf(1.0, 5, 2.0)


# The regularized incomplete beta I_q(a, b) = betainc(a, b, q) behind the
# beta-sum oracle of dncf_sf in test_power_attack, which sums the reflected
# terms I_{1-q}(a', b') of the upper tail.
# q is kept away from the endpoints: rounding 1-q costs ~1e-16 of absolute
# error that the beta density (unbounded at the edges for shapes < 1)
# amplifies, which is a float fact rather than a library defect
@given(q=st.floats(1e-6, 1.0 - 1e-6), a=st.floats(0.1, 20.0), b=st.floats(0.1, 20.0))
@settings(max_examples=200, deadline=None)
def test_beta_reflection_identity(q, a, b):
    lhs = betainc(a, b, q)
    rhs = 1.0 - betainc(b, a, 1.0 - q)
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert 0.0 <= lhs <= 1.0


def test_beta_endpoints_and_domain():
    assert betainc(2.0, 3.0, 0.0) == 0.0
    assert betainc(2.0, 3.0, 1.0) == 1.0
    assert np.isnan(betainc(2.0, 3.0, 1.5))
    assert np.isnan(betainc(-1.0, 3.0, 0.5))


@given(root=st.floats(-5.0, 5.0), scale=st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_root_find_recovers_known_root(root, scale):
    f = lambda x: scale * (x - root)
    found = bracketed_root_find(f, root - 1.0, root + 1.0)
    assert found == pytest.approx(root, abs=1e-10)
    assert root - 1.0 <= found <= root + 1.0


def test_root_find_requires_sign_change():
    with pytest.raises(NumericsError):
        bracketed_root_find(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(NumericsError):
        bracketed_root_find(lambda x: x, 2.0, 1.0)


# bracketed_root_find and bounded_minimum are Brent's methods written out to
# return the bits of scipy's brentq and bounded minimize_scalar: the lobe
# bands, and through them the search's lobe masks, are built from them


def _brentq(f, lo, hi, tol=1e-12, max_iter=200):
    from scipy.optimize import brentq
    return brentq(f, lo, hi, xtol=tol, rtol=max(tol, 4 * np.finfo(float).eps), maxiter=max_iter)


def _root_problems(rng):
    """(f, lo, hi) with a sign change: smooth, steep and flat functions."""
    for k in range(300):
        r, a = rng.uniform(-3.0, 3.0), rng.uniform(0.05, 50.0)
        lo, hi = r - rng.uniform(1e-3, 4.0), r + rng.uniform(1e-3, 4.0)
        yield [lambda x: a * (x - r) + 0.4 * np.sin(3.0 * x),            # smooth
               lambda x: np.tanh(1e3 * a * (x - r)),                      # steep
               lambda x: np.expm1(a * (x - r)),                           # steep on one side
               lambda x: 1e-9 * (x - r) ** 5,                             # flat near the root
               lambda x: float(np.clip(np.floor(4.0 * (x - r)), -2.0, 2.0)),  # plateaus
               ][k % 5], lo, hi


def test_root_find_matches_brentq_bit_for_bit():
    rng = np.random.default_rng(7)
    n = 0
    for f, lo, hi in _root_problems(rng):
        for tol in (1e-12, 1e-15, 1e-6):
            try:
                want = _brentq(f, lo, hi, tol)
            except ValueError:      # no sign change on this bracket
                with pytest.raises(NumericsError):
                    bracketed_root_find(f, lo, hi, tol)
                continue
            assert bracketed_root_find(f, lo, hi, tol) == want, (lo, hi, tol)
            n += 1
    assert n > 600


def test_root_find_exact_zero_endpoints():
    for lo, hi in ((0.5, 2.0), (-2.0, 0.5)):
        f = lambda x: x - 0.5
        assert bracketed_root_find(f, lo, hi) == _brentq(f, lo, hi) == 0.5


def test_root_find_matches_brentq_on_saddle_equations():
    """The saddle-point equation s'(z) = 0 of random indefinite forms at
    tol 1e-15, as solved by the oracle of test_power_attack."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        d = rng.uniform(-3.0, 3.0, k)
        c2, m = rng.uniform(0.0, 5.0, k), rng.integers(1, 4, k).astype(float)
        const = rng.uniform(-5.0, 5.0)
        d[0] = abs(d[0])        # a positive weight: the MGF has a rim
        s1 = lambda z: const + np.sum(c2 * d / (1.0 - z * d) ** 2) - 1.0 / z + np.sum(
            m * d / (1.0 - z * d))
        lo, hi = 1e-12, float(np.min(1.0 / d[d > 0])) * (1.0 - 1e-9)
        if s1(lo) < 0 < s1(hi):
            assert bracketed_root_find(s1, lo, hi, tol=1e-15) == _brentq(s1, lo, hi, 1e-15)


def test_root_find_raises_on_nan_and_non_convergence():
    from scipy.optimize import brentq
    hole = lambda x: np.nan if 0.4 < x < 0.6 else x - 0.5
    for f, lo, hi in ((hole, 0.0, 1.0), (lambda x: np.nan if x > 0.9 else -1.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="NaN"):
            brentq(f, lo, hi)
        with pytest.raises(NumericsError, match="NaN"):
            bracketed_root_find(f, lo, hi)
    slow = lambda x: np.cbrt(x - 0.3)
    with pytest.raises(RuntimeError):
        brentq(slow, 0.0, 1.0, maxiter=3)
    with pytest.raises(NumericsError, match="converge"):
        bracketed_root_find(slow, 0.0, 1.0, max_iter=3)
    assert bracketed_root_find(slow, 0.0, 1.0) == _brentq(slow, 0.0, 1.0)


def _minimize(f, lo, hi, xatol):
    from scipy.optimize import minimize_scalar
    with np.errstate(invalid="ignore"):
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    return float(res.x), float(res.fun)


def test_bounded_minimum_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(5)
    for k in range(300):
        c, w = rng.uniform(-3.0, 3.0), rng.uniform(0.2, 6.0)
        lo, hi = c - rng.uniform(0.01, 3.0), c + rng.uniform(0.01, 3.0)
        f = [lambda x: (x - c) ** 2 + 0.2 * np.sin(7.0 * x),
             lambda x: -abs(np.sin(w * x)),          # a sidelobe peak between nulls
             lambda x: abs(x - c) ** 0.5,            # a cusp
             lambda x: float(round(w * (x - c)) ** 2),   # plateaus
             lambda x: 1.0][k % 5]                   # flat
        for xatol in (1e-12, 1e-5):
            assert bounded_minimum(f, lo, hi, xatol) == _minimize(f, lo, hi, xatol)


def test_bounded_minimum_matches_scipy_on_the_delay_kernel():
    """The delay bound's kernel is inf off its stable set, where scipy's
    parabolic fit meets inf - inf."""
    from distpla.delay_bounds import ArrivalModel, ServiceModel, _kernel
    infinite = 0
    for arrival, outage, w in ((8.0, 0.05, 3), (12.0, 0.2, 10), (15.0, 0.01, 1)):
        def f(s, arr=ArrivalModel(arrival), srv=ServiceModel(2.0, 8.0, outage)):
            nonlocal infinite
            v = _kernel(arr, srv, w, s)
            infinite += v == np.inf
            return v
        for lo, hi in ((1e-3, 5.0), (0.05, 0.5), (0.2, 100.0)):
            assert bounded_minimum(f, lo, hi, 1e-12) == _minimize(f, lo, hi, 1e-12)
    assert infinite > 0
