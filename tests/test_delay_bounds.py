import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpla import (ArrivalModel, ChannelStatistics, ServiceModel, UnstableQueueError,
                     alice_statistics, delay_violation_bound, make_authenticator,
                     service_outage, simulate_queue_delays, snr_outage, stability_margin)
from distpla.power_attack import _MAX_STEPS, _series_tail

from conftest import (build_scenario, dense_cov, dense_hits, inversion_tail, mixture_tail,
                      ncx2_cdf, random_geometry, sample_channel)


def test_mellin_frozen_values():
    a = ArrivalModel(10.0)
    assert a.mellin(1.3) == pytest.approx(math.exp(3.0), rel=1e-12)
    s = ServiceModel(rate=2.0, resources=3.0, outage=0.2)
    assert s.mellin(0.7) == pytest.approx(math.exp(-1.8) * 0.8 + 0.2, rel=1e-12)


@given(gamma=st.floats(0.1, 50.0), rate=st.floats(0.1, 10.0),
       res=st.floats(0.5, 20.0), outage=st.floats(0.0, 0.99))
@settings(max_examples=100, deadline=None)
def test_mellin_is_one_at_one(gamma, rate, res, outage):
    assert ArrivalModel(gamma).mellin(1.0) == 1.0
    assert ServiceModel(rate, res, outage).mellin(1.0) == pytest.approx(1.0, rel=1e-12)


class TestDelayBound:
    arrival = ArrivalModel(8.0)
    service = ServiceModel(rate=2.0, resources=8.0, outage=0.1)

    def test_monotone_in_target_delay(self):
        bounds = [delay_violation_bound(self.arrival, self.service, w).probability
                  for w in range(1, 12)]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(0.0 <= b <= 1.0 for b in bounds)
        assert bounds[-1] < bounds[0]  # actually decays in a stable queue

    def test_refinement_beats_plain_grid(self, monkeypatch):
        """The 400-point scan plus refinement against a 12-point scan plus refinement."""
        coarse_grid = np.logspace(-3, 2, 12)
        with monkeypatch.context() as m:
            m.setattr(np, "logspace", lambda *args: coarse_grid)
            coarse = delay_violation_bound(self.arrival, self.service, 5)
        fine = delay_violation_bound(self.arrival, self.service, 5)
        assert fine.raw <= coarse.raw * (1 + 1e-9)
        assert fine.stable and coarse.stable
        assert fine.s_opt > 0

    def test_unstable_when_arrivals_exceed_peak_service(self):
        b = delay_violation_bound(ArrivalModel(20.0),
                                  ServiceModel(2.0, 8.0, 0.1), 5)
        assert not b.stable
        assert b.probability == 1.0
        assert math.isinf(b.raw)

    def test_unstable_when_arrivals_exceed_mean_service(self):
        svc = ServiceModel(2.0, 8.0, 0.3)   # mean service 11.2
        assert stability_margin(ArrivalModel(12.0), svc) < 0
        assert not delay_violation_bound(ArrivalModel(12.0), svc, 3).stable
        assert stability_margin(ArrivalModel(10.0), svc) > 0
        assert delay_violation_bound(ArrivalModel(10.0), svc, 3).stable

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            delay_violation_bound(self.arrival, self.service, -1)

    def test_huge_arrival_is_flagged_not_crashed(self):
        # the Mellin product overflows float range; that must read as unstable
        b = delay_violation_bound(ArrivalModel(1e6), ServiceModel(2.0, 8.0, 0.1), 2)
        assert not b.stable


class TestQueueSimulation:
    def test_empty_queue_has_zero_delays(self):
        delays = simulate_queue_delays(ArrivalModel(5.0), ServiceModel(2.0, 4.0, 0.0),
                                       5000, seed=3)
        assert delays.dtype == np.int64
        assert np.all(delays == 0)

    def test_matches_naive_event_loop(self):
        arrival = ArrivalModel(6.0)
        service = ServiceModel(2.0, 4.0, 0.25)
        frames, seed, warmup = 4000, 11, 300
        delays = simulate_queue_delays(arrival, service, frames, seed=seed, warmup=warmup)

        rng = np.random.default_rng(seed)
        served = service.rate * service.resources * (rng.random(frames) >= service.outage)
        gamma = arrival.bits_per_frame
        backlog, cum_dep = 0.0, []
        for t in range(frames):
            backlog = max(backlog + gamma - served[t], 0.0)
            cum_dep.append(gamma * (t + 1) - backlog)
        horizon = frames - max(warmup, 200)
        expected = []
        for t in range(warmup, horizon):
            target = gamma * (t + 1) - 1e-9 * gamma
            u = t
            while u < frames and cum_dep[u] < target:
                u += 1
            expected.append(u - t)
        assert np.array_equal(delays, np.asarray(expected, np.int64))

    def test_bound_dominates_simulation(self):
        """The transform bound must sit above the empirical tail."""
        cases = [
            (ArrivalModel(8.0), ServiceModel(2.0, 8.0, 0.10)),
            (ArrivalModel(5.0), ServiceModel(1.5, 6.0, 0.25)),
            (ArrivalModel(12.0), ServiceModel(4.0, 5.0, 0.05)),
        ]
        for arrival, service in cases:
            delays = simulate_queue_delays(arrival, service, 100_000, seed=7)
            for w in (1, 3, 6):
                bound = delay_violation_bound(arrival, service, w).probability
                emp = float(np.mean(delays > w))
                sigma = math.sqrt(max(emp * (1 - emp), 1.0 / delays.size) / delays.size)
                assert emp <= bound + 3 * sigma

    def test_frame_budget_validation(self):
        with pytest.raises(ValueError):
            simulate_queue_delays(ArrivalModel(1.0), ServiceModel(1.0, 2.0, 0.1),
                                  frames=500, warmup=1000)


@pytest.fixture
def corr_scenario():
    return build_scenario([("west", (10.0, 55.0), 2), ("east", (75.0, 30.0), 3)],
                          rho=0.5)


def _norm_terms(stats):
    """(d, |c|^2) with ||h||^2 = -sum_k d_k |w_k + c_k|^2, from the eigenpairs of the
    stacked covariance: the tests' own route to the SNR outage form."""
    lam, vectors = np.linalg.eigh(dense_cov(stats))
    return -lam[None, :], (np.abs(vectors.conj().T @ stats.mean) ** 2 / lam)[None, :]


def _noise_at_one_percent(stats, rng):
    """N0 that puts the rate-1 outage threshold N N0 at the 1 % quantile of
    ||h||^2 over 4000 pilot draws, so the outage is near 1e-2."""
    h = sample_channel(stats, rng, 4000)
    return float(np.quantile(np.sum(np.abs(h) ** 2, axis=1), 0.01)) / stats.dim


def _mc_outage(stats, noise, samples, seed):
    """P(||h||^2 < N N0) at rate 1 over the tests' dense sampler, and its standard error."""
    threshold = (2.0 ** 1.0 - 1.0) * stats.dim * noise
    p = dense_hits(lambda h: np.sum(np.abs(h) ** 2, axis=1) < threshold, stats, samples,
                   seed) / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


class TestSnrOutage:
    def test_closed_form_matches_monte_carlo(self, single_scenario, rng):
        """One array, identity correlation: the noncentral chi-square route."""
        stats = alice_statistics(single_scenario)
        noise = _noise_at_one_percent(stats, rng)
        exact = snr_outage(stats, rate=1.0, noise_density=noise)
        mc, se = _mc_outage(stats, noise, 200_000, seed=2)
        assert exact > 1e-3
        assert abs(exact - mc) < 4 * max(se, 1e-4)

    @pytest.mark.parametrize("rho", [0.0, 0.6], ids=["identity", "exponential"])
    def test_form_matches_monte_carlo(self, rho, rng):
        """Two arrays of unequal power: the quadratic form against 10^6 dense draws."""
        stats = alice_statistics(build_scenario(
            [("west", (10.0, 55.0), 2), ("east", (75.0, 30.0), 3, (0.0, 1.0))], rho=rho))
        assert stats.powers[0] != stats.powers[1]
        noise = _noise_at_one_percent(stats, rng)
        got = snr_outage(stats, rate=1.0, noise_density=noise)
        mc, se = _mc_outage(stats, noise, 1_000_000, seed=4)
        assert got > 1e-3
        assert abs(got - mc) < 4 * se, (got, mc, se)

    def test_form_matches_exact_tail(self):
        """On seeded deployments with identity and exponential correlation the
        evaluated outage (the series on each array's eigenpairs) is within 1.1e-13
        of the series on the dense form's N eigenvalues, and, where the form's
        Poisson mean mu = N N0 / min lambda is at most 500 (the oracle's cost grows
        as mu^2), within 6.1e-14 of the 40-digit mixture oracle.  Both bounds are
        the largest relative gaps measured on x86-64 (1.0e-13 and 6.0e-14); the
        largest mu is about 3000, where the series' relative error grows to 1.3e-13."""
        rng = np.random.default_rng(5)
        checked = 0
        for g in range(16):
            stats = alice_statistics(random_geometry(rng, rho=0.0 if g % 2 else None))
            noise = _noise_at_one_percent(stats, rng)
            d, c2 = _norm_terms(stats)
            got = snr_outage(stats, 1.0, noise)
            const = np.array([stats.dim * noise])
            dense = _series_tail(d, c2, np.ones(d.shape), const)[0]
            assert got == pytest.approx(dense, rel=1.1e-13, abs=0.0), g
            if const[0] / np.min(-d) <= 500.0:
                p, _ = mixture_tail(d[0], c2[0], np.ones(d.shape[1]), const[0])
                assert abs(got - p) <= 6.1e-14 * p, g
                checked += 1
        assert checked == 14

    def test_strong_correlation_takes_the_saddle_point_in_bounded_time(self):
        """Two arrays of 8 antennas at rho = 0.999: the smallest eigenvalue of the
        correlation falls so low that the form's Poisson mean N N0 / min(v lambda) is
        about 7.7e4, which the series would take about 2.5 s; past the cap the
        outage takes the saddle point, here within 3.7e-5 of the inversion oracle
        (measured on x86-64; 1.2e-4 at rho = 0.99)."""
        stats = alice_statistics(build_scenario(
            [("west", (10.0, 55.0), 8), ("east", (75.0, 30.0), 8, (0.0, 1.0))], rho=0.999))
        noise = _noise_at_one_percent(stats, np.random.default_rng(3))
        d, c2 = _norm_terms(stats)
        const = np.array([stats.dim * noise])
        assert const[0] / np.min(-d) > 7e4
        assert np.isnan(_series_tail(d, c2, np.ones(d.shape), const, _MAX_STEPS)[0])
        start = time.perf_counter()
        got = snr_outage(stats, 1.0, noise)
        assert time.perf_counter() - start < 1.0
        exact = inversion_tail(d[0], c2[0], np.ones(d.shape[1]), const[0])
        assert abs(got - exact) <= 5e-5 * exact

    def test_form_matches_chi_square_on_one_variance(self, rng):
        """On one array of one variance, the noncentral chi-square CDF of numerics
        agrees with the form's series within 2e-15 (1.9e-15 measured)."""
        for n in range(1, 9):
            stats = alice_statistics(build_scenario([("mast", (40.0, 55.0), n)]))
            noise = _noise_at_one_percent(stats, rng)
            sigma2 = float(stats.variances[0])
            lam = 2.0 * float(np.vdot(stats.mean, stats.mean).real) / sigma2
            chi2 = ncx2_cdf(2.0 * n * noise / sigma2, 2 * n, lam)
            assert snr_outage(stats, 1.0, noise) == pytest.approx(chi2, rel=2e-15), n

    def test_closed_form_matches_scipy_ncx2(self):
        """The special-function closed form is scipy.stats.ncx2.cdf, λ = 0 included."""
        from scipy.stats import ncx2

        rng = np.random.default_rng(17)
        cases = [(n, float(rng.uniform(-4.0, 6.0)), lam)
                 for n in range(1, 17) for lam in (0.0, *rng.uniform(0.0, 200.0, 4))]
        cases += [(3, -1.0, 5.0), (3, 0.0, 5.0), (2, -1.0, 0.0)]   # x < 0 and x = 0
        for n, rate, lam in cases:
            mean = np.zeros(n, complex)
            mean[0] = np.sqrt(lam / 2.0)
            noise = float(rng.uniform(0.05, 20.0))
            stats = ChannelStatistics(mean=mean, variances=np.ones(1), rho=0.0,
                                      powers=np.ones(1), block_sizes=(n,))
            got = snr_outage(stats, rate, noise)
            x = 2.0 * (2.0 ** rate - 1.0) * n * noise
            want = float(ncx2.cdf(x, 2 * n, 2.0 * float(np.vdot(mean, mean).real)))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (n, rate, lam)

    def test_monotone_in_rate(self, dual_scenario):
        stats = alice_statistics(dual_scenario)
        noise = stats.powers.min() / 20.0
        probs = [snr_outage(stats, r, noise) for r in (0.5, 1.0, 2.0, 4.0)]
        assert probs == sorted(probs)


class TestServiceOutage:
    def test_union_bound_composition(self, dual_scenario):
        auth = make_authenticator(dual_scenario)
        noise = auth.stats.powers.min() / 20.0
        out = service_outage(auth, rate=1.0, noise_density=noise)
        assert out.mode == "centralized_bound"
        assert out.probability == pytest.approx(
            min(out.p_false_alarm + out.p_snr, 1.0))
        assert out.p_false_alarm == pytest.approx(dual_scenario.false_alarm_target, rel=1e-9)

    def test_exact_mode_flags_the_condition(self, dual_scenario):
        # the as-printed sufficient condition needs sqrt(T lambda_max / 2)
        # to dominate ||mu||, i.e. a threshold-dominated (weak line-of-sight)
        # deployment; a strong-K deployment must take the fallback branch
        weak = build_scenario([("mast", (40.0, 55.0), 2)], rice_db=-10.0)
        auth_weak = make_authenticator(weak)
        quiet = auth_weak.stats.powers.min() * 1e-9
        held = service_outage(auth_weak, rate=0.05, noise_density=quiet,
                              mode="centralized_exact_if_valid")
        assert held.exact_condition_held is True
        assert held.probability == pytest.approx(held.p_false_alarm)
        assert held.p_snr == 0.0

        auth = make_authenticator(dual_scenario)
        loud = auth.stats.powers.max() * 1e3
        failed = service_outage(auth, rate=4.0, noise_density=loud,
                                mode="centralized_exact_if_valid")
        assert failed.exact_condition_held is False
        assert failed.probability >= failed.p_false_alarm

    def test_local_bound_multiplies_per_array_outages(self, dual_scenario, corr_scenario):
        """The product of each array's own outage: chi-square CDFs under identity
        correlation, quadratic forms under exponential correlation."""
        for scenario in (dual_scenario, corr_scenario):
            auth = make_authenticator(scenario)
            stats = auth.stats
            noise = stats.powers.min() / 4.0
            out = service_outage(auth, rate=1.0, noise_density=noise, mode="local_bound")
            per = 1.0
            for j, (i, n) in enumerate(zip(stats.starts, stats.block_sizes)):
                sub = ChannelStatistics(mean=stats.mean[i:i + n], variances=stats.variances[j:j + 1],
                                        rho=stats.rho, powers=stats.powers[j:j + 1],
                                        block_sizes=(n,))
                per *= snr_outage(sub, 1.0, noise)
            assert 0.0 < per < 1e-4
            assert out.p_snr == pytest.approx(per, rel=1e-12)
            assert out.probability == pytest.approx(min(out.p_false_alarm + per, 1.0))

    def test_mode_validation(self, dual_scenario):
        auth = make_authenticator(dual_scenario)
        with pytest.raises(ValueError):
            service_outage(auth, 1.0, 1e-9, mode="bogus")


def test_unstable_error_type_exists():
    # the CLI maps this to its own exit code, so the type itself is API
    assert issubclass(UnstableQueueError, RuntimeError)
