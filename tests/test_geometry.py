import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpla import (alice_statistics, channel_statistics,
                     eve_statistics, received_power, rice_means,
                     steering_vector, wavelength)
from distpla.delay_bounds import _spectrum
from distpla.geometry import SPEED_OF_LIGHT, TransmitterConfig

from conftest import build_scenario, correlation_matrix, dense_cov, random_geometry


def test_wavelength_frozen():
    assert wavelength(2.4e9) == pytest.approx(0.12491352416666666, rel=1e-15)
    assert wavelength(SPEED_OF_LIGHT) == 1.0
    with pytest.raises(ValueError):
        wavelength(0.0)


def test_received_power_frozen():
    # (lambda / 4 pi d)^beta * P, recomputed by hand for two parameter sets
    assert received_power(25.0, 2.0, 2.4e9) == pytest.approx(1.5809537936509583e-07, rel=1e-12)
    assert received_power(10.0, 3.1, 2.4e9, tx_power=2.0) == pytest.approx(
        9.839402961440948e-10, rel=1e-12)
    with pytest.raises(ValueError):
        received_power(0.0, 2.0, 2.4e9)


def test_received_power_scaling_laws():
    p1 = received_power(10.0, 2.0, 2.4e9)
    assert received_power(20.0, 2.0, 2.4e9) == pytest.approx(p1 / 4.0, rel=1e-12)
    assert received_power(10.0, 2.0, 2.4e9, tx_power=3.0) == pytest.approx(3 * p1, rel=1e-12)
    # doubling the carrier frequency halves the wavelength
    assert received_power(10.0, 2.0, 4.8e9) == pytest.approx(p1 / 4.0, rel=1e-12)


class TestAngularSine:
    """Omega, the sine of the arrival angle, as rice_means reports it."""
    sc = build_scenario([("r", (0.0, 0.0), 4, (1.0, 0.0))])

    def omega(self, point):
        return float(rice_means(self.sc, point)[3][0, 0])

    def test_broadside_and_endfire(self):
        assert self.omega((0.0, 10.0)) == pytest.approx(0.0, abs=1e-15)
        assert self.omega((10.0, 0.0)) == pytest.approx(1.0)
        assert self.omega((-10.0, 0.0)) == pytest.approx(-1.0)

    def test_mirror_symmetry(self):
        # points mirrored across the array axis share omega
        a = self.omega((3.0, 4.0))
        b = self.omega((3.0, -4.0))
        assert a == pytest.approx(b, rel=1e-12)

    def test_degenerate_point(self):
        with pytest.raises(ValueError):
            self.omega((0.0, 0.0))


@given(omega=st.floats(-1.0, 1.0), n=st.integers(1, 16))
@settings(max_examples=100, deadline=None)
def test_steering_vector_unit_modulus(omega, n):
    e = steering_vector(omega, n, 0.5)
    assert e.shape == (n,)
    assert np.allclose(np.abs(e), 1.0)
    assert e[0] == 1.0 + 0.0j


def test_steering_vector_vectorized():
    omegas = np.linspace(-1, 1, 7)
    e = steering_vector(omegas, 5, 0.5)
    assert e.shape == (7, 5)
    for i, om in enumerate(omegas):
        assert np.allclose(e[i], steering_vector(om, 5, 0.5))


def test_correlation_matrix():
    """The one correlation spectrum the package forms, for the outage: the
    eigenpairs (lambda, U) of the real rho^|k-l|, exactly ones and the
    identity at rho = 0 (the outage's bits there rest on it)."""
    assert np.array_equal(correlation_matrix(0.0, 3), np.eye(3))
    rrhs = [("west", (10.0, 55.0), 3), ("east", (75.0, 30.0), 4, (0.0, 1.0))]
    for rho in (0.0, 0.6):
        stats = alice_statistics(build_scenario(rrhs, rho=rho))
        assert stats.rho == rho
        for n in stats.block_sizes + (1, 16):
            m = correlation_matrix(rho, n)
            for k in range(n):
                for l in range(n):
                    assert m[k, l] == pytest.approx(rho ** abs(k - l))
            values, vectors = _spectrum(rho, n)
            if rho == 0.0:
                assert np.array_equal(values, np.ones(n))
                assert np.array_equal(vectors, np.eye(n))
            assert np.all(values > 0)
            assert np.abs(vectors @ np.diag(values) @ vectors.T - m).max() <= 1e-14


class TestChannelStatistics:
    def test_moment_identities(self, rng):
        # ||mu_j||^2 = P N K/(K+1) and tr(Sigma_j) = P N/(K+1), per array
        for _ in range(10):
            sc = random_geometry(rng)
            stats = alice_statistics(sc)
            k = sc.rice_factor
            cov = dense_cov(stats)
            for j, (i, n) in enumerate(zip(stats.starts, stats.block_sizes)):
                sl = slice(i, i + n)
                mu = stats.mean[sl]
                p = stats.powers[j]
                assert np.linalg.norm(mu) ** 2 == pytest.approx(
                    p * n * k / (k + 1.0), rel=1e-12)
                assert np.trace(cov[sl, sl]).real == pytest.approx(p * n / (k + 1.0), rel=1e-12)

    def test_first_entry_carries_carrier_phase(self, single_scenario):
        stats = alice_statistics(single_scenario)
        d = rice_means(single_scenario, single_scenario.alice.position)[2][0, 0]
        lam = wavelength(single_scenario.carrier_frequency)
        expected = -2 * np.pi * d / lam
        assert np.angle(stats.mean[0]) == pytest.approx(
            np.angle(np.exp(1j * expected)), abs=1e-9)

    def test_block_diagonal_stacking(self, dual_scenario):
        stats = alice_statistics(dual_scenario)
        assert stats.dim == 5
        assert stats.block_sizes == (2, 3)
        assert stats.starts.tolist() == [0, 2]
        assert stats.variances.shape == stats.powers.shape == (2,)
        for i, n in zip(stats.starts, stats.block_sizes):
            assert stats.mean[i:i + n].shape == (n,)

    def test_translation_invariance(self, rng):
        # shifting the whole floor plan leaves the statistics unchanged
        sc = random_geometry(rng)
        shift = np.array([13.7, -4.2])

        def moved(point):
            return (point[0] + shift[0], point[1] + shift[1])

        sc2 = build_scenario(
            [(r.id, moved(r.position), r.num_antennas, r.array_axis) for r in sc.rrhs],
            alice=moved(sc.alice.position), eve=moved(sc.eve.position),
            rice_db=10 * np.log10(sc.rice_factor),
            rho=sc.rho, region=(-100, 100, -100, 100))
        a1, a2 = alice_statistics(sc), alice_statistics(sc2)
        assert np.allclose(a1.mean, a2.mean, rtol=1e-9, atol=0)
        assert np.allclose(dense_cov(a1), dense_cov(a2), rtol=1e-9, atol=0)

    def test_eve_uses_her_own_position_and_power(self, single_scenario):
        sc = single_scenario.with_eve((10.0, 10.0), tx_power=2.5)
        ev = eve_statistics(sc)
        direct = channel_statistics(sc, TransmitterConfig((10.0, 10.0), 2.5))
        assert np.array_equal(ev.mean, direct.mean)
        assert np.array_equal(ev.variances, direct.variances) and ev.rho == direct.rho

    def test_transmitter_on_rrh_rejected(self, single_scenario):
        sc = single_scenario.with_eve(single_scenario.rrhs[0].position)
        with pytest.raises(ValueError):
            eve_statistics(sc)
        with pytest.raises(ValueError, match="sits on RRH"):
            rice_means(sc, [[1.0, 2.0], list(sc.rrhs[0].position)])


def test_rice_means_rows_are_channel_statistics(rng):
    """One formula: each batched row carries the bits of the per-position moments."""
    for _ in range(10):
        sc = random_geometry(rng)
        pts = np.column_stack([rng.uniform(0, 80, 9), rng.uniform(0, 60, 9)])
        mean, powers, dists, omegas = rice_means(sc, pts, 1.7)
        assert mean.shape == (9, sum(r.num_antennas for r in sc.rrhs))
        assert powers.shape == dists.shape == omegas.shape == (9, len(sc.rrhs))
        for k, pt in enumerate(pts):
            stats = channel_statistics(sc, TransmitterConfig(tuple(pt), 1.7))
            assert np.array_equal(stats.mean, mean[k])
            assert np.array_equal(stats.powers, powers[k])
