import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from distpla.numerics import (NumericsError, bracketed_root_find, chi2_cdf,
                              chi2_quantile, chi2_tail, cholesky_lower)


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
    assert chi2_cdf(-1.0, 4) == 0.0
    assert chi2_tail(-1.0, 4) == 1.0


# The regularized incomplete beta I_q(a, b) = betainc(a, b, q) behind
# power_attack.dncf_sf, which sums the reflected terms I_{1-q}(b, a).
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


def test_cholesky_lower(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = a @ a.conj().T + 5 * np.eye(5)
    low = cholesky_lower(m)
    assert np.allclose(np.triu(low, 1), 0.0)
    assert np.allclose(low @ low.conj().T, m, atol=1e-10)
    with pytest.raises(NumericsError):
        cholesky_lower(-np.eye(3))


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
