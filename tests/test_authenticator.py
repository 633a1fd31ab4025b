from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from distpla import (alice_statistics, discriminant, make_authenticator,
                     pfa_of_threshold, threshold_for_pfa)

from conftest import dense_cov, random_geometry, sample_channel


def test_threshold_frozen_value():
    # independently: scipy.stats.chi2.ppf(1 - 1e-2, 12)
    assert threshold_for_pfa(1e-2, 12) == pytest.approx(26.216967305535853, rel=1e-12)
    assert threshold_for_pfa(1e-3, 16) == pytest.approx(39.25235479076848, rel=1e-12)


@pytest.mark.parametrize("dof", [4, 12, 16, 32])
@pytest.mark.parametrize("p_fa", [1e-4, 1e-2, 0.2])
def test_threshold_pfa_roundtrip(dof, p_fa):
    assert pfa_of_threshold(threshold_for_pfa(p_fa, dof), dof) == pytest.approx(p_fa, rel=1e-9)


def test_threshold_monotone_in_pfa():
    ts = [threshold_for_pfa(p, 8) for p in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert ts == sorted(ts, reverse=True)


def test_threshold_domain():
    with pytest.raises(ValueError):
        threshold_for_pfa(0.0, 8)
    with pytest.raises(ValueError):
        threshold_for_pfa(1.0, 8)


def test_make_authenticator_shape(dual_scenario):
    auth = make_authenticator(dual_scenario)
    assert auth.total_dof == 2 * 5
    assert auth.false_alarm_target == dual_scenario.false_alarm_target
    cov = dense_cov(auth.stats)
    assert np.allclose(auth.chol @ auth.chol.conj().T, cov)
    # M = mu^H Sigma^{-1} mu by direct solve
    direct = np.vdot(auth.stats.mean, np.linalg.solve(cov, auth.stats.mean)).real
    assert auth.mahalanobis_energy == pytest.approx(direct, rel=1e-10)


def test_pfa_override(dual_scenario):
    auth = make_authenticator(replace(dual_scenario, false_alarm_target=1e-3))
    assert auth.false_alarm_target == 1e-3
    assert auth.threshold > make_authenticator(dual_scenario).threshold


def test_chol_equals_the_dense_factor_bit_for_bit():
    """The stacked factor assembled from each array's Cholesky factor has the
    bits of one Cholesky factorization of the stacked covariance, with identity
    and exponential correlation."""
    rng = np.random.default_rng(31)
    for g in range(12):
        auth = make_authenticator(random_geometry(rng, rho=0.0 if g % 2 else None))
        assert np.array_equal(auth.chol, np.linalg.cholesky(dense_cov(auth.stats))), g


class TestDiscriminant:
    def test_zero_at_mean_and_positive(self, dual_scenario, rng):
        auth = make_authenticator(dual_scenario)
        assert discriminant(auth, auth.stats.mean) == pytest.approx(0.0, abs=1e-18)
        h = sample_channel(auth.stats, rng, 64)
        d = discriminant(auth, h)
        assert d.shape == (64,)
        assert np.all(d > 0)

    def test_matches_direct_quadratic_form(self, dual_scenario, rng):
        auth = make_authenticator(dual_scenario)
        h = sample_channel(auth.stats, rng)
        diff = h - auth.stats.mean
        direct = 2.0 * np.vdot(diff, np.linalg.solve(dense_cov(auth.stats), diff)).real
        assert discriminant(auth, h) == pytest.approx(direct, rel=1e-10)


def test_null_distribution_is_chi_square(rng):
    """Under the legitimate hypothesis, d(h) ~ chi2 with 2*dim dof."""
    sc = random_geometry(rng, n_rrh=2)
    auth = make_authenticator(sc)
    h = sample_channel(auth.stats, rng, 20_000)
    d = discriminant(auth, h)
    ks = sps.kstest(d, sps.chi2(auth.total_dof).cdf)
    assert ks.pvalue > 1e-3

    # empirical false-alarm rate within 3 sigma of the target
    p_fa = auth.false_alarm_target
    emp = float(np.mean(d >= auth.threshold))
    sigma = np.sqrt(p_fa * (1 - p_fa) / d.size)
    assert abs(emp - p_fa) < 3 * sigma + 1e-12


def test_discriminant_invariant_to_representation(rng):
    """Same deployment built with different RRH orderings gives the same d."""
    sc = random_geometry(rng, n_rrh=3)
    stats = alice_statistics(sc)
    auth = make_authenticator(sc)
    h = sample_channel(stats, rng)
    # permute the arrays; discriminant of the permuted vector must match
    perm = [2, 0, 1]
    sc2 = type(sc)(**{**sc.__dict__, "rrhs": tuple(sc.rrhs[i] for i in perm)})
    auth2 = make_authenticator(sc2)
    starts = np.concatenate([[0], np.cumsum(stats.block_sizes)])
    idx = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in perm])
    assert discriminant(auth2, h[idx]) == pytest.approx(discriminant(auth, h), rel=1e-10)
