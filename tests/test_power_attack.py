import numpy as np
import pytest
from scipy import stats as sps

from distpla import (NO_ATTACK, IndefiniteForm, PowerStrategy, discriminant,
                     estimate_probability, eve_statistics, make_authenticator,
                     mdp_fixed_strategy, mdp_optimal_pma,
                     mdp_single_array_closed_form, sample_channel)
from distpla.monte_carlo import best_case_acceptance_event
from distpla.power_attack import (build_indefinite_form, dncf_cdf, dncf_sf,
                                  fixed_strategy_form, optimal_power_strategy,
                                  saddlepoint_tail_probability,
                                  statistical_power_strategy)

from conftest import build_scenario, random_geometry


def _form_mc(form, samples, seed=0):
    """Direct Monte-Carlo on the reduced event; the oracle for the saddle point.

    Term i becomes multiplicities[i] complex normals with the eigenspace
    offset on the first; by rotational invariance the law is the same.
    """
    rng = np.random.default_rng(seed)
    mult = (np.ones(form.eigenvalues.size, int) if form.multiplicities is None
            else np.asarray(form.multiplicities))
    d = np.repeat(form.eigenvalues, mult)
    c = np.zeros(d.size, complex)
    c[np.cumsum(mult) - mult] = form.offsets
    z = rng.standard_normal((samples, 2 * d.size))
    w = (z[:, ::2] + 1j * z[:, 1::2]) / np.sqrt(2.0)
    vals = (np.abs(w + c) ** 2) @ d + form.constant
    p = float(np.mean(vals > 0))
    return p, float(np.sqrt(p * (1 - p) / samples))


class TestOptimalStrategy:
    def test_attains_minimum_among_random_strategies(self, dual_scenario, rng):
        auth = make_authenticator(dual_scenario)
        ev = eve_statistics(dual_scenario)
        for h in sample_channel(ev, rng, 50):
            strat, d_min = optimal_power_strategy(auth, h)
            assert discriminant(auth, strat.scale * h) == pytest.approx(d_min, abs=1e-9)
            etas = rng.uniform(0.01, 5.0, 40)
            psis = rng.uniform(-np.pi, np.pi, 40)
            trials = etas * np.exp(1j * psis)
            d_all = discriminant(auth, np.outer(trials, h))
            assert np.all(d_all >= d_min - 1e-9)

    def test_scale_invariance_of_minimum(self, dual_scenario, rng):
        # the attacker can undo any complex prefactor, so d_min ignores it
        auth = make_authenticator(dual_scenario)
        h = sample_channel(eve_statistics(dual_scenario), rng)
        _, d0 = optimal_power_strategy(auth, h)
        for c in (2.0, 0.1, -1.0, 3.0 * np.exp(1.2j)):
            _, d1 = optimal_power_strategy(auth, c * h)
            assert d1 == pytest.approx(d0, rel=1e-10)

    def test_brute_force_confirms_optimum(self, single_scenario, rng):
        from scipy.optimize import minimize
        auth = make_authenticator(single_scenario)
        h = sample_channel(eve_statistics(single_scenario), rng)
        strat, d_min = optimal_power_strategy(auth, h)

        def objective(p):
            return discriminant(auth, p[0] * np.exp(1j * p[1]) * h)

        res = minimize(objective, [strat.amplitude * 1.3, strat.phase + 0.4],
                       method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
        assert res.fun >= d_min - 1e-9
        assert res.fun == pytest.approx(d_min, rel=1e-6)

    def test_zero_channel_rejected(self, single_scenario):
        auth = make_authenticator(single_scenario)
        with pytest.raises(ValueError):
            optimal_power_strategy(auth, np.zeros(auth.stats.dim, complex))


class TestStatisticalStrategy:
    def test_compensates_known_amplitude_deficit(self, single_scenario):
        # attacker at the legitimate position with a quarter of the transmit
        # power has mu_E = mu_A / 2, so the best mean-play doubles the amplitude
        sc = single_scenario.with_eve(single_scenario.alice.position, tx_power=0.25)
        auth = make_authenticator(sc)
        strat = statistical_power_strategy(auth, eve_statistics(sc))
        assert strat.amplitude == pytest.approx(2.0, rel=1e-9)
        assert strat.phase == pytest.approx(0.0, abs=1e-9)

    def test_identity_when_stats_match(self, single_scenario):
        sc = single_scenario.with_eve(single_scenario.alice.position)
        auth = make_authenticator(sc)
        strat = statistical_power_strategy(auth, eve_statistics(sc))
        assert strat.amplitude == pytest.approx(1.0, rel=1e-9)
        assert strat.phase == pytest.approx(0.0, abs=1e-9)
        assert strat.scale == pytest.approx(1.0 + 0.0j)


class TestIndefiniteForm:
    def test_single_array_spectrum_is_known(self, single_scenario):
        """With Sigma_E = alpha Sigma_A the spectrum is {alpha(1-t), -alpha t (N-1 times)}."""
        auth = make_authenticator(single_scenario)
        ev = eve_statistics(single_scenario)
        form = build_indefinite_form(auth, ev)
        alpha = float((ev.cov[0, 0] / auth.stats.cov[0, 0]).real)
        t = form.threshold_param
        assert 0.0 < t < 1.0
        n = auth.stats.dim
        expected = np.sort(np.r_[alpha * (1 - t), np.full(n - 1, -alpha * t)])[::-1]
        spectrum = np.repeat(form.eigenvalues, form.multiplicities)
        assert np.allclose(np.sort(spectrum)[::-1], expected, rtol=1e-9)

    def test_exactly_one_positive_eigenvalue(self, rng):
        for _ in range(15):
            sc = random_geometry(rng)
            auth = make_authenticator(sc)
            form = build_indefinite_form(auth, eve_statistics(sc))
            if 0.0 < form.threshold_param < 1.0:
                assert int(np.sum(form.eigenvalues > 0)) == 1

    def test_reduced_event_matches_raw_event(self, dual_scenario):
        """The whitened form and the physical miss event have the same law."""
        auth = make_authenticator(dual_scenario)
        ev = eve_statistics(dual_scenario)
        form = build_indefinite_form(auth, ev)
        p_form, s_form = _form_mc(form, 200_000, seed=21)
        raw = estimate_probability(best_case_acceptance_event(auth), ev, 200_000, seed=22)
        sigma = np.hypot(s_form, raw.std_error)
        assert abs(p_form - raw.value) < 4 * max(sigma, 1e-4)

    def test_fixed_form_matches_scaled_acceptance(self, dual_scenario):
        from distpla.monte_carlo import acceptance_event
        auth = make_authenticator(dual_scenario)
        ev = eve_statistics(dual_scenario)
        strat = PowerStrategy(1.4, 0.6)
        form = fixed_strategy_form(auth, ev, strat)
        assert np.all(form.eigenvalues < 0)
        assert form.constant == pytest.approx(auth.threshold / 2.0)
        p_form, s_form = _form_mc(form, 200_000, seed=31)
        raw = estimate_probability(acceptance_event(auth, strat.scale), ev,
                                   200_000, seed=32)
        sigma = np.hypot(s_form, raw.std_error)
        assert abs(p_form - raw.value) < 4 * max(sigma, 1e-4)

    def test_zero_amplitude_rejected(self, dual_scenario):
        auth = make_authenticator(dual_scenario)
        with pytest.raises(ValueError):
            fixed_strategy_form(auth, eve_statistics(dual_scenario), PowerStrategy(0.0, 0.0))


def _dense_form(auth, ev, strategy=None):
    """The N x N reduction straight from the dense covariances (test oracle).

    Whitens h = shift + L_E w for the event {h^H C h + constant > 0} and
    diagonalizes L_E^H C L_E with a full eigensolver.
    """
    chol_e = np.linalg.cholesky(ev.cov)
    sia = np.linalg.inv(auth.stats.cov)
    t = 1.0 - auth.threshold / (2.0 * auth.mahalanobis_energy)
    if strategy is None:
        sia_mu = sia @ auth.stats.mean
        c_mat = np.outer(sia_mu, sia_mu.conj()) / auth.mahalanobis_energy - t * sia
        shift, const = ev.mean, 0.0
    else:
        scale = strategy.scale
        c_mat = -abs(scale) ** 2 * sia
        shift, const = ev.mean - auth.stats.mean / scale, auth.threshold / 2.0
    values, vectors = np.linalg.eigh(chol_e.conj().T @ c_mat @ chol_e)
    offsets = vectors.conj().T @ np.linalg.solve(chol_e, shift)
    return IndefiniteForm(eigenvalues=values, offsets=offsets, threshold_param=t,
                          constant=const)


class TestDenseOracle:
    """The per-array forms against the N x N reduction they replace."""

    @pytest.mark.parametrize("n_rx", [None, 1])
    def test_forms_match_dense_reduction(self, n_rx):
        rng = np.random.default_rng(77 if n_rx is None else 78)
        for _ in range(12):
            sc = random_geometry(rng, n_rx=n_rx)
            auth = make_authenticator(sc)
            ev = eve_statistics(sc)
            strategies = (None, statistical_power_strategy(auth, ev),
                          PowerStrategy(float(rng.uniform(0.3, 3.0)), float(rng.uniform(-3, 3))))
            for strategy in strategies:
                form = (build_indefinite_form(auth, ev) if strategy is None
                        else fixed_strategy_form(auth, ev, strategy))
                dense = _dense_form(auth, ev, strategy)
                assert np.all(form.multiplicities > 0)
                d = np.repeat(form.eigenvalues, form.multiplicities)
                scale = np.max(np.abs(dense.eigenvalues))
                assert np.allclose(np.sort(d), dense.eigenvalues, rtol=0.0, atol=1e-12 * scale)
                # offset energy carried by each distinct eigenvalue; energies are
                # dimensionless noncentralities, and a strategy that cancels the
                # mean leaves only rounding, hence the absolute floor
                dense_c2 = np.abs(dense.offsets) ** 2
                total = max(float(np.sum(dense_c2)), 1.0)
                for v in form.eigenvalues:
                    near_form = np.abs(form.eigenvalues - v) <= 1e-12 * scale
                    near_dense = np.abs(dense.eigenvalues - v) <= 1e-12 * scale
                    assert np.sum(np.abs(form.offsets[near_form]) ** 2) == pytest.approx(
                        np.sum(dense_c2[near_dense]), rel=1e-9, abs=1e-9 * total)
                if 0.0 < form.threshold_param < 1.0:
                    assert saddlepoint_tail_probability(form) == pytest.approx(
                        saddlepoint_tail_probability(dense), rel=1e-9)


class TestSaddlepoint:
    def test_symmetric_form_gives_half(self):
        form = IndefiniteForm(eigenvalues=np.array([1.0, -1.0]),
                              offsets=np.zeros(2, complex), threshold_param=0.5)
        assert saddlepoint_tail_probability(form) == pytest.approx(0.5, abs=0.05)

    def test_definite_forms_are_exact(self):
        neg = IndefiniteForm(eigenvalues=np.array([-2.0, -0.5]),
                             offsets=np.array([1.0 + 0j, 0.3j]), threshold_param=0.5)
        assert saddlepoint_tail_probability(neg) == 0.0
        pos = IndefiniteForm(eigenvalues=np.array([2.0, 0.5]),
                             offsets=np.array([1.0 + 0j, 0.3j]), threshold_param=0.5,
                             constant=0.1)
        assert saddlepoint_tail_probability(pos) == 1.0

    def test_against_direct_simulation(self, rng):
        for seed in range(4):
            sc = random_geometry(np.random.default_rng(100 + seed), n_rrh=2)
            auth = make_authenticator(sc)
            form = build_indefinite_form(auth, eve_statistics(sc))
            p_sp = saddlepoint_tail_probability(form)
            p_mc, s_mc = _form_mc(form, 400_000, seed=seed)
            assert abs(p_sp - p_mc) < max(4 * s_mc, 0.25 * max(p_mc, 1e-5), 2e-5)

    def test_tiny_tails_stay_positive(self):
        # a deeply negative-shifted form: the approximation must underflow
        # gracefully to a small positive number, not to garbage
        form = IndefiniteForm(eigenvalues=np.array([1.0, -1.0, -1.0, -1.0]),
                              offsets=np.array([0j, 3.0 + 0j, 3.0j, 2.0 + 2.0j]),
                              threshold_param=0.5, constant=-40.0)
        p = saddlepoint_tail_probability(form)
        assert 0.0 <= p < 1e-6


class TestDncf:
    def test_central_case_is_fisher_f(self):
        # frozen: scipy.stats.f.sf(1.7, 4, 6)
        assert dncf_sf(1.7, 0.0, 0.0, 4, 6) == pytest.approx(0.2671480178833008, rel=1e-10)
        assert dncf_cdf(1.7, 0.0, 0.0, 4, 6) == pytest.approx(1 - 0.2671480178833008, rel=1e-10)

    def test_cdf_sf_complement_and_monotonicity(self):
        xs = np.linspace(0.05, 8.0, 25)
        last = 0.0
        for x in xs:
            c = dncf_cdf(float(x), 3.0, 5.0, 2, 6)
            s = dncf_sf(float(x), 3.0, 5.0, 2, 6)
            assert c + s == pytest.approx(1.0, abs=1e-10)
            assert c >= last - 1e-12
            last = c

    def test_survival_side_keeps_relative_accuracy(self):
        p = dncf_sf(4000.0, 1.0, 1.0, 2, 6)
        assert 0.0 < p < 1e-9  # a literal 1 - cdf would return exactly 0 here

    def test_against_sampled_ratio(self):
        rng = np.random.default_rng(5)
        k1, k2, nu1, nu2 = 2, 6, 3.0, 5.0
        num = rng.noncentral_chisquare(k1, nu1, 400_000) / k1
        den = rng.noncentral_chisquare(k2, nu2, 400_000) / k2
        x = 1.5
        emp = float(np.mean(num / den <= x))
        sigma = np.sqrt(emp * (1 - emp) / 400_000)
        assert abs(dncf_cdf(x, nu1, nu2, k1, k2) - emp) < 4 * sigma

    def test_domain_errors_and_limits(self):
        with pytest.raises(ValueError):
            dncf_cdf(1.0, 1.0, 1.0, 0, 4)
        with pytest.raises(ValueError):
            dncf_sf(1.0, -1.0, 1.0, 2, 4)
        assert dncf_cdf(0.0, 1.0, 1.0, 2, 4) == 0.0
        assert dncf_sf(0.0, 1.0, 1.0, 2, 4) == 1.0


class TestMissProbability:
    def test_closed_form_matches_monte_carlo(self, single_scenario):
        auth = make_authenticator(single_scenario)
        ev = eve_statistics(single_scenario)
        p = mdp_single_array_closed_form(auth, ev)
        mc = estimate_probability(best_case_acceptance_event(auth), ev, 400_000, seed=9)
        assert abs(p - mc.value) < 4 * max(mc.std_error, 1e-4)

    def test_closed_form_matches_saddlepoint(self, single_scenario):
        auth = make_authenticator(single_scenario)
        ev = eve_statistics(single_scenario)
        p_cf = mdp_optimal_pma(auth, ev, method="closedform")
        p_sp = mdp_optimal_pma(auth, ev, method="saddlepoint")
        assert p_sp == pytest.approx(p_cf, rel=0.25)

    def test_auto_prefers_closed_form_on_single_array(self, single_scenario):
        auth = make_authenticator(single_scenario)
        ev = eve_statistics(single_scenario)
        assert mdp_optimal_pma(auth, ev) == mdp_single_array_closed_form(auth, ev)

    def test_certain_miss_when_threshold_swallows_the_mean(self):
        # so little line-of-sight energy that even a zero response is accepted
        sc = build_scenario([("mast", (40.0, 55.0), 2)], rice_db=-10.0, pfa=1e-2)
        auth = make_authenticator(sc)
        assert auth.threshold >= 2.0 * auth.mahalanobis_energy
        assert mdp_optimal_pma(auth, eve_statistics(sc)) == 1.0

    def test_fixed_strategies_never_beat_the_optimum(self, dual_scenario, rng):
        auth = make_authenticator(dual_scenario)
        ev = eve_statistics(dual_scenario)
        p_opt = mdp_optimal_pma(auth, ev)
        strategies = [NO_ATTACK, statistical_power_strategy(auth, ev),
                      PowerStrategy(float(rng.uniform(0.2, 3.0)), float(rng.uniform(-3, 3)))]
        for strat in strategies:
            p_fixed = mdp_fixed_strategy(auth, ev, strat)
            assert p_fixed <= p_opt * 1.25 + 1e-6

    def test_statistical_beats_no_attack_here(self, dual_scenario):
        auth = make_authenticator(dual_scenario)
        ev = eve_statistics(dual_scenario)
        p_none = mdp_fixed_strategy(auth, ev, NO_ATTACK)
        p_stat = mdp_fixed_strategy(auth, ev, statistical_power_strategy(auth, ev))
        assert p_stat >= p_none * 0.75 - 1e-9

    def test_monte_carlo_method_dispatch(self, dual_scenario):
        auth = make_authenticator(dual_scenario)
        ev = eve_statistics(dual_scenario)
        p_mc = mdp_optimal_pma(auth, ev, method="montecarlo", mc_samples=100_000, mc_seed=4)
        direct = estimate_probability(best_case_acceptance_event(auth), ev, 100_000, seed=4)
        assert p_mc == direct.value
        with pytest.raises(ValueError):
            mdp_optimal_pma(auth, ev, method="bogus")
