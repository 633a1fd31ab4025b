from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from distpla import (NumericsError, alice_statistics, discriminant,
                     eve_statistics, load_scenario, make_authenticator, pfa_of_threshold,
                     threshold_for_pfa, whiten)

from conftest import dense_cov, dense_whiten, random_geometry, sample_channel

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_threshold_frozen_value():
    # independently: scipy.stats.chi2.ppf(1 - 1e-2, 12)
    assert threshold_for_pfa(1e-2, 12) == pytest.approx(26.216967305535853, rel=1e-12)
    assert threshold_for_pfa(1e-3, 16) == pytest.approx(39.25235479076848, rel=1e-12)


@pytest.mark.parametrize("dof", [4, 12, 16, 32])
@pytest.mark.parametrize("p_fa", [1e-4, 1e-2, 0.2])
def test_threshold_pfa_roundtrip(dof, p_fa):
    assert pfa_of_threshold(threshold_for_pfa(p_fa, dof), dof) == pytest.approx(p_fa, rel=1e-9)


@pytest.mark.parametrize("dof", [2, 32, 96])
@pytest.mark.parametrize("p_fa", [1e-6, 1e-12, 1e-17, 1e-30])
def test_threshold_meets_small_targets(dof, p_fa):
    """Solved on the tail, not as the quantile of 1 - p_fa, which rounds
    p_fa to the float spacing near one (1e-17 was lost outright)."""
    assert abs(pfa_of_threshold(threshold_for_pfa(p_fa, dof), dof) / p_fa - 1.0) <= 1e-12


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
    inv_factor = whiten(auth, np.eye(auth.stats.dim))      # L^{-1}, column by column
    assert np.allclose(inv_factor @ cov @ inv_factor.conj().T, np.eye(auth.stats.dim))
    # M = mu^H Sigma^{-1} mu by direct solve
    direct = np.vdot(auth.stats.mean, np.linalg.solve(cov, auth.stats.mean)).real
    assert auth.mahalanobis_energy == pytest.approx(direct, rel=1e-10)


def test_pfa_override(dual_scenario):
    auth = make_authenticator(replace(dual_scenario, false_alarm_target=1e-3))
    assert auth.false_alarm_target == 1e-3
    assert auth.threshold > make_authenticator(dual_scenario).threshold


def _whitening_cases():
    """12 seeded random deployments, identity and exponential (rho < 0.7)
    alternating, the four committed scenarios (identity), and with each of
    (N, 7) columns to whiten: mu_A, mu_E and five random vectors."""
    rng = np.random.default_rng(31)
    scenarios = [random_geometry(rng, rho=0.0 if g % 2 else None) for g in range(12)]
    scenarios += [load_scenario(f) for f in sorted(SCENARIOS.glob("*.json"))]
    for sc in scenarios:
        mean = alice_statistics(sc).mean
        noise = rng.standard_normal((mean.size, 5)) + 1j * rng.standard_normal((mean.size, 5))
        yield sc, np.column_stack((mean, eve_statistics(sc).mean, noise * np.abs(mean).max()))


def _normwise_error(x, ref):
    return np.max(np.linalg.norm(x - ref, axis=0) / np.linalg.norm(ref, axis=0))


def test_whiten_equals_the_dense_triangular_solve():
    """Uncorrelated antennas (rho = 0) whiten with the bits of a triangular
    solve with the Cholesky factor of the stacked covariance; exponential
    correlation (rho < 0.7) within 1e-15 normwise, against 3.4e-16 measured."""
    for k, (sc, y) in enumerate(_whitening_cases()):
        auth = make_authenticator(sc)
        x, ref = whiten(auth, y), dense_whiten(auth.stats, y)
        if sc.rho == 0.0:
            assert np.array_equal(x, ref), k
        else:
            assert _normwise_error(x, ref) < 1e-15, k


def _three_step_whiten(auth, y):
    """The copy, subtract and scale of whiten written with three temporaries."""
    y = np.asarray(y, complex)
    x = y.copy()
    x[1:] -= auth.stats.rho * y[:-1]
    x[auth.stats.starts] = y[auth.stats.starts]
    return x * auth.inv_diag.reshape((-1,) + (1,) * (y.ndim - 1))


def test_whiten_has_the_bits_of_the_three_step_formula():
    """Written into one block, whiten gives the bits (signs of zeros and NaN
    payloads included) of the copy, subtract and scale formula, at rho = 0
    and at rho != 0, on vectors and (N, n) blocks with exact zeros, negative
    zeros and infinities among their entries."""
    rng = np.random.default_rng(38)
    for k, (sc, y) in enumerate(_whitening_cases()):
        y = y.copy()
        y.imag[rng.random(y.shape) < 0.2] = -0.0
        y.real[rng.random(y.shape) < 0.1] = 0.0
        y[rng.random(y.shape) < 0.05] = np.inf
        for rho in (0.0, sc.rho or 0.5, -0.3):
            auth = make_authenticator(replace(sc, rho=rho))
            with np.errstate(invalid="ignore"):
                pairs = [(whiten(auth, v), _three_step_whiten(auth, v)) for v in (y, y[:, 0])]
            for got, want in pairs:
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (k, rho)


@pytest.mark.parametrize("rho, bound", [(0.95, 2e-14), (-0.95, 2e-14), (0.999, 1e-12)])
def test_whiten_near_the_unit_circle(rho, bound):
    """Strong exponential correlation: within the stated normwise bound of the
    dense solve, whose own Cholesky factor loses accuracy as cond(Lambda) grows
    like (1 + |rho|) / (1 - |rho|); 7.4e-15 at |rho| = 0.95, 4.6e-13 at 0.999 measured."""
    for k, (sc, y) in enumerate(_whitening_cases()):
        auth = make_authenticator(replace(sc, rho=rho))
        assert _normwise_error(whiten(auth, y), dense_whiten(auth.stats, y)) < bound, k


def test_whiten_at_zero_correlation_is_the_reciprocal_scaling():
    """At rho = 0 the general step subtracts 0 y_{k-1}, so x equals y times
    inv_diag on seeded complex vectors and (N, n) blocks with exact zeros (and
    zero real or imaginary parts) among their entries.  Compared with ==, which
    does not see the sign of a zero, and that sign may differ."""
    rng = np.random.default_rng(37)
    for k, (sc, _) in enumerate(_whitening_cases()):
        auth = make_authenticator(replace(sc, rho=0.0))
        y = rng.standard_normal((auth.stats.dim, 6)) + 1j * rng.standard_normal((auth.stats.dim, 6))
        y[rng.random(y.shape) < 0.2] = 0.0
        y.real[rng.random(y.shape) < 0.2] = 0.0
        y.imag[rng.random(y.shape) < 0.2] = -0.0
        diag = auth.inv_diag[:, None]
        assert np.all(whiten(auth, y) == y * diag), k
        assert np.all(whiten(auth, y[:, 0]) == y[:, 0] * auth.inv_diag), k


def test_whiten_treats_every_column_on_its_own():
    """A block is whitened with the bits of its columns whitened one at a time."""
    for k, (sc, y) in enumerate(_whitening_cases()):
        for rho in (sc.rho, 0.6):
            auth = make_authenticator(replace(sc, rho=rho))
            block = whiten(auth, y)
            assert all(np.array_equal(block[:, i], whiten(auth, y[:, i]))
                       for i in range(y.shape[1])), (k, rho)


@pytest.mark.parametrize("rho", [1.0, -1.0, 1.5, -2.0])
def test_correlation_off_the_open_unit_interval_is_refused(dual_scenario, rho):
    with pytest.raises(NumericsError):
        make_authenticator(replace(dual_scenario, rho=rho))


@pytest.mark.parametrize("rho", [-0.5, -0.95])
def test_negative_correlation_is_accepted(dual_scenario, rho):
    auth = make_authenticator(replace(dual_scenario, rho=rho))
    cov = dense_cov(auth.stats)
    direct = np.vdot(auth.stats.mean, np.linalg.solve(cov, auth.stats.mean)).real
    assert auth.mahalanobis_energy == pytest.approx(direct, rel=1e-12)


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
