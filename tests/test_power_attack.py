import functools
import math
import operator
import time
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import betainc, gammaln

from distpla import (NO_ATTACK, PowerStrategy, SaddlepointError,
                     channel_statistics, discriminant, estimate_probability,
                     eve_statistics, load_scenario, make_authenticator,
                     mdp_fixed_strategy, mdp_fixed_strategy_sweep, mdp_optimal_pma,
                     mdp_optimal_pma_batch, mdp_optimal_pma_sweep,
                     mdp_single_array_closed_form, threshold_for_pfa, truncated_search)
from distpla import power_attack as pa
from distpla.monte_carlo import acceptance_event, best_case_acceptance_event
from distpla.numerics import NumericsError, bracketed_root_find
from distpla.power_attack import (build_indefinite_form,
                                  fixed_strategy_form, optimal_power_strategy,
                                  saddlepoint_tail_probability,
                                  statistical_power_strategy)

from conftest import (build_scenario, dense_cov, dncf_sf, form_row, inversion_tail,
                      mixture_tail, random_geometry, sample_channel)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DESK = SCENARIOS / "desk_2rrh.json"


def _t(auth):
    """The normalized acceptance parameter t = 1 - T/(2M) the optimal form is built at."""
    return 1.0 - auth.threshold / (2.0 * auth.mahalanobis_energy)


def _form_mc(form, samples, seed=0):
    """Direct Monte-Carlo on the reduced event of a one-row form; the oracle for the saddle point.

    Term i becomes m_i complex normals with the eigenspace offset on the
    first; by rotational invariance the law is the same.
    """
    rng = np.random.default_rng(seed)
    eigenvalues, offsets, mult, const = (v[0] for v in form)
    mult = np.asarray(mult, int)
    d = np.repeat(eigenvalues, mult)
    c = np.zeros(d.size, complex)
    c[np.cumsum(mult) - mult] = offsets
    z = rng.standard_normal((samples, 2 * d.size))
    w = (z[:, ::2] + 1j * z[:, 1::2]) / np.sqrt(2.0)
    vals = (np.abs(w + c) ** 2) @ d + const
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
        d, _, m, _ = build_indefinite_form(auth, ev)
        alpha = float(ev.variances[0] / auth.stats.variances[0])
        t = _t(auth)
        assert 0.0 < t < 1.0
        n = auth.stats.dim
        expected = np.sort(np.r_[alpha * (1 - t), np.full(n - 1, -alpha * t)])[::-1]
        spectrum = np.repeat(d[0], m[0])
        assert np.allclose(np.sort(spectrum)[::-1], expected, rtol=1e-9)

    def test_exactly_one_positive_eigenvalue(self, rng):
        for _ in range(15):
            sc = random_geometry(rng)
            auth = make_authenticator(sc)
            d = build_indefinite_form(auth, eve_statistics(sc))[0]
            if 0.0 < _t(auth) < 1.0:
                assert int(np.sum(d > 0)) == 1

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
        d, _, _, const = form
        assert np.all(d < 0)
        assert const[0] == pytest.approx(auth.threshold / 2.0)
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
    chol_e = np.linalg.cholesky(dense_cov(ev))
    sia = np.linalg.inv(dense_cov(auth.stats))
    t = _t(auth)
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
    return form_row(values, offsets, const)


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
                values, offsets, mult = form[0][0], form[1][0], form[2][0]
                dense_values, dense_offsets = dense[0][0], dense[1][0]
                assert np.all(mult > 0)
                d = np.repeat(values, mult)
                scale = np.max(np.abs(dense_values))
                assert np.allclose(np.sort(d), dense_values, rtol=0.0, atol=1e-12 * scale)
                # offset energy carried by each distinct eigenvalue; energies are
                # dimensionless noncentralities, and a strategy that cancels the
                # mean leaves only rounding, hence the absolute floor
                dense_c2 = np.abs(dense_offsets) ** 2
                total = max(float(np.sum(dense_c2)), 1.0)
                for v in values:
                    near_form = np.abs(values - v) <= 1e-12 * scale
                    near_dense = np.abs(dense_values - v) <= 1e-12 * scale
                    assert np.sum(np.abs(offsets[near_form]) ** 2) == pytest.approx(
                        np.sum(dense_c2[near_dense]), rel=1e-9, abs=1e-9 * total)
                if 0.0 < _t(auth) < 1.0:
                    assert saddlepoint_tail_probability(*form)[0] == pytest.approx(
                        saddlepoint_tail_probability(*dense)[0], rel=1e-9)


class TestSaddlepoint:
    def test_symmetric_form_gives_half(self):
        form = form_row([1.0, -1.0], np.zeros(2, complex))
        assert saddlepoint_tail_probability(*form)[0] == pytest.approx(0.5, abs=0.05)

    def test_definite_forms_are_exact(self):
        neg = form_row([-2.0, -0.5], [1.0 + 0j, 0.3j])
        assert saddlepoint_tail_probability(*neg)[0] == 0.0
        pos = form_row([2.0, 0.5], [1.0 + 0j, 0.3j], constant=0.1)
        assert saddlepoint_tail_probability(*pos)[0] == 1.0

    def test_against_direct_simulation(self, rng):
        for seed in range(4):
            sc = random_geometry(np.random.default_rng(100 + seed), n_rrh=2)
            auth = make_authenticator(sc)
            form = build_indefinite_form(auth, eve_statistics(sc))
            p_sp = saddlepoint_tail_probability(*form)[0]
            p_mc, s_mc = _form_mc(form, 400_000, seed=seed)
            assert abs(p_sp - p_mc) < max(4 * s_mc, 0.25 * max(p_mc, 1e-5), 2e-5)

    def test_tiny_tails_stay_positive(self):
        # a deeply negative-shifted form: the approximation must underflow
        # gracefully to a small positive number, not to garbage
        form = form_row([1.0, -1.0, -1.0, -1.0], [0j, 3.0 + 0j, 3.0j, 2.0 + 2.0j], constant=-40.0)
        p = saddlepoint_tail_probability(*form)[0]
        assert 0.0 <= p < 1e-6


def _reference_side(d, c2, m, const):
    """One side of the saddle point with a scalar brentq solve (test oracle).

    The per-form solver the batched Newton-bisection replaced: same bracket,
    shortcuts and correction, with the root from bracketed_root_find.
    """
    if d.size == 0:
        return 1.0 if const > 0 else 0.0
    if not np.any(d > 0) and const <= 0:
        return 0.0
    if not np.any(d < 0) and const >= 0:
        return 1.0

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        def s1(z):
            u = 1.0 - z * d
            return const + np.sum(c2 * d / u ** 2) - 1.0 / z + np.sum(m * d / u)

        pos = d[d > 0]
        z_rim = float(np.min(1.0 / pos)) if pos.size else np.inf
        lo = 1e-12
        if np.isfinite(z_rim):
            hi = z_rim * (1.0 - 1e-9)
        else:
            hi = 1.0
            for _ in range(400):
                if s1(hi) > 0:
                    break
                hi *= 2.0
            else:
                return np.nan
        if not (s1(lo) < 0 < s1(hi)):
            return np.nan
        try:
            z0 = bracketed_root_find(s1, lo, hi, tol=1e-15)
        except NumericsError:
            return np.nan

        u = 1.0 - z0 * d
        s0 = const * z0 + np.sum(c2 * z0 * d / u) - np.log(z0) - np.sum(m * np.log(u))
        s2 = np.sum(2.0 * c2 * d ** 2 / u ** 3) + 1.0 / z0 ** 2 + np.sum(m * d ** 2 / u ** 2)
        s3 = np.sum(6.0 * c2 * d ** 3 / u ** 4) - 2.0 / z0 ** 3 + np.sum(2.0 * m * d ** 3 / u ** 3)
        s4 = np.sum(24.0 * c2 * d ** 4 / u ** 5) + 6.0 / z0 ** 4 + np.sum(6.0 * m * d ** 4 / u ** 4)
        if not (np.isfinite(s0) and np.isfinite(s2) and s2 > 0):
            return np.nan
        correction = 1.0 + s4 / (8.0 * s2 ** 2) - 5.0 * s3 ** 2 / (24.0 * s2 ** 3)
        if not 0.1 <= correction <= 10.0:
            return np.nan
        return float(np.exp(s0) / np.sqrt(2.0 * np.pi * s2) * correction)


def _reference_tail(form):
    """saddlepoint_tail_probability on top of _reference_side for a one-row form; NaN for
    no saddle."""
    d, c, m, const = (v[0] for v in form)
    d, c2, m = np.asarray(d, float), np.abs(c) ** 2, np.asarray(m, float)
    keep = np.abs(d) > pa._EIG_DROP * max(float(np.max(np.abs(d), initial=0.0)), 1e-300)
    d, c2, m = d[keep], c2[keep], m[keep]
    p_direct = _reference_side(d, c2, m, float(const))
    p_complement = _reference_side(-d, c2, m, -float(const))
    if np.isnan(p_complement):
        return min(max(p_direct, 0.0), 1.0)
    if np.isnan(p_direct) or p_direct > p_complement:
        return 1.0 - min(max(p_complement, 0.0), 1.0)
    return min(max(p_direct, 0.0), 1.0)


def _batched(form):
    """saddlepoint_tail_probability of a one-row form, NaN where it raises SaddlepointError."""
    try:
        return saddlepoint_tail_probability(*form)[0]
    except SaddlepointError:
        return np.nan


def _attack_forms(sc, rng):
    """The optimal form and three fixed-strategy forms of one deployment."""
    auth = make_authenticator(sc)
    ev = eve_statistics(sc)
    strategies = (statistical_power_strategy(auth, ev), NO_ATTACK,
                  PowerStrategy(float(rng.uniform(0.3, 3.0)), float(rng.uniform(-3, 3))))
    return [build_indefinite_form(auth, ev)] + [fixed_strategy_form(auth, ev, s)
                                                for s in strategies]


def _width(forms):
    return max(f[0].shape[1] for f in forms)


def _rows(forms, width=None):
    """Stack one-row forms as (d, c2, m, const) rows, padded with inert terms to
    ``width`` (default: the widest form)."""
    d, c2, m = (np.zeros((len(forms), width or _width(forms))) for _ in range(3))
    for k, (fd, fc, fm, _) in enumerate(forms):
        n = fd.shape[1]
        d[k, :n] = fd[0]
        c2[k, :n] = np.abs(fc[0]) ** 2
        m[k, :n] = fm[0]
    return d, c2, m, np.concatenate([f[3] for f in forms]).astype(float)


def _fits(form):
    """Whether a one-row form is a case of the series: one positive term and no constant,
    or no positive term, a negative one and a positive constant."""
    d, _, _, const = (v[0] for v in form)
    return (np.sum(d > 0) == 1 and const == 0) or (not np.any(d > 0) and np.any(d < 0)
                                                   and const > 0)


def _poisson_mean(form):
    """mu of the series' Poisson count P for a one-row form: the positive term's offset
    energy, or const / min |d| when every term is negative."""
    d, c, _, const = (v[0] for v in form)
    return float(np.sum(np.abs(c[d > 0]) ** 2) if np.any(d > 0) else const / np.min(-d))


# hand-made forms: sign-definite both ways, all d < 0 with a positive
# constant (the doubling bracket), every term below the _EIG_DROP floor
# both ways, and one with a rim inside the left bracket end on both sides
_HAND_MADE = [
    form_row([-2.0, -0.5], [1.0, 0.3j]),
    form_row([2.0, 0.5], [1.0, 0.3j], constant=0.1),
    form_row([-1.0, -0.25], [0.7, 1.5], constant=3.0, multiplicities=[1, 3]),
    form_row([1e-320, -1e-321], [1.0, 1.0], constant=0.5),
    form_row([1e-320, -1e-321], [1.0, 1.0], constant=-0.5),
    form_row([1e13, -1e13], [1.0, 1.0]),
]


class TestBatchedSaddle:
    """The vectorised Newton-bisection against the scalar brentq solve."""

    @pytest.mark.parametrize("rho, n_rx", [(0.0, None), (None, None), (None, 1)],
                             ids=["identity", "exponential", "n_rx=1"])
    def test_matches_brentq_reference(self, rho, n_rx):
        rng = np.random.default_rng({None: 61, 1: 62}[n_rx] + (rho == 0.0))
        for _ in range(40):
            for form in _attack_forms(random_geometry(rng, n_rx=n_rx, rho=rho), rng):
                ref, got = _reference_tail(form), _batched(form)
                assert np.isnan(ref) == np.isnan(got)
                if not np.isnan(ref):
                    assert got == pytest.approx(ref, rel=1e-9, abs=1e-300)

    def test_hand_made_rows(self):
        expected = [0.0, 1.0, None, 1.0, 0.0, np.nan]
        for form, want in zip(_HAND_MADE, expected):
            ref, got = _reference_tail(form), _batched(form)
            assert got == pytest.approx(ref, rel=1e-9, nan_ok=True)
            if want is not None:
                assert got == pytest.approx(want, nan_ok=True)
        # the doubling bracket was really taken, and agrees side by side
        d, c2, m, const = _rows(_HAND_MADE[2:3], 2)
        assert not np.any(d > 0) and const[0] > 0
        assert pa._saddle_side(d, c2, m, const)[0] == pytest.approx(
            _reference_side(d[0], c2[0], m[0], const[0]), rel=1e-9)
        assert 0.0 < _batched(_HAND_MADE[2]) < 1.0
        with pytest.raises(SaddlepointError):
            saddlepoint_tail_probability(*_HAND_MADE[-1])

    def test_rows_alone_equal_rows_in_batch(self):
        rng = np.random.default_rng(63)
        forms = list(_HAND_MADE)
        for _ in range(12):
            forms += _attack_forms(random_geometry(rng), rng)
        # a 4-array optimal form has 8 terms, the width from which np.sum goes pairwise
        wide = _attack_forms(random_geometry(rng, 4), rng)
        for batch_forms in (forms, forms + wide):
            width = _width(batch_forms)
            assert (width >= 8) == (batch_forms is not forms)
            d, c2, m, const = _rows(batch_forms, width)
            batch = pa._saddle_tail(d, c2, m, const)
            for k, form in enumerate(batch_forms):
                alone = pa._saddle_tail(d[k:k + 1], c2[k:k + 1], m[k:k + 1], const[k:k + 1])
                assert np.array_equal(alone, batch[k:k + 1], equal_nan=True)
                # inert padding leaves the value alone
                assert batch[k] == pytest.approx(_batched(form), rel=1e-12, nan_ok=True)

    def test_row_sums_add_columns_left_to_right(self, rng):
        for width in range(10):
            x = rng.standard_normal((50, width)) * np.exp(rng.uniform(-30.0, 30.0, (50, width)))
            x[:3] = -0.0
            left_to_right = np.array([functools.reduce(operator.add, row, 0.0) for row in x])
            assert np.array_equal(pa._row_sum(x).view(np.int64), left_to_right.view(np.int64))
            if width < 8:   # numpy's own order, until it goes pairwise
                assert np.array_equal(left_to_right.view(np.int64),
                                      np.sum(x, axis=1).view(np.int64))

    def test_exact_zero_of_the_slope_is_the_root(self):
        # recorded from a desk_2rrh position search: an iterate of the direct
        # side makes s' exactly 0.0, and that iterate must be returned as the
        # root; bisecting onwards from it settles a few ulps away
        d = np.array([[-0.846456564685113, 0.8651990095567532,
                       -0.19444776647690648, -3.7306965465661355]])
        c2 = np.array([[3.6004392151249753, 10.569221838064191,
                        2.7053527269082718, 14.973559864182343]])
        m = np.array([[1.0, 1.0, 3.0, 3.0]])
        const = np.zeros(1)
        hi = 1.0 / d.max() * (1.0 - pa._BRACKET_RIM)
        z0 = pa._saddle_root(d, c2, m, const, np.array([pa._Z_LO]), np.array([hi]))
        assert pa._slopes(z0, d, c2, m, const)[0][0] == 0.0
        form = (d, np.sqrt(c2), m, const)
        assert saddlepoint_tail_probability(*form)[0] == pytest.approx(_reference_tail(form),
                                                                       rel=1e-9)

    def test_converged_newton_step_is_the_root(self, monkeypatch):
        # recorded from the seed-1 search-2rrh8 position search (row 751 of
        # its first p_md chunk, direct side): Newton converges from one side
        # until its next step rounds to the iterate itself; that iterate is
        # the root.  Taken for a non-step, it left the row bisecting from the
        # stale other end of its bracket: 58 evaluations of s' instead of 8.
        d = np.array([[-0.21313856998049915, 0.14396739434460182,
                       -0.39266801993916245, -0.10798337921547098]])
        c2 = np.array([[5.914696045290329, 32.7061806939843, 0.1903506128226233,
                        24.88591993646229]])
        m = np.array([[1.0, 1.0, 7.0, 7.0]])
        const = np.zeros(1)
        hi = 1.0 / d.max() * (1.0 - pa._BRACKET_RIM)
        slopes, evaluations = pa._slopes, []
        monkeypatch.setattr(pa, "_slopes", lambda z, *args: (evaluations.append(z.size),
                                                             slopes(z, *args))[1])
        z0 = pa._saddle_root(d, c2, m, const, np.array([pa._Z_LO]), np.array([hi]))
        assert sum(evaluations) <= 10
        s1, s2 = slopes(z0, d, c2, m, const)
        assert s1[0] != 0.0 and z0 - z0 * s1 / (s1 + z0 * s2) == z0
        p = pa._saddle_tail(d, c2, m, const)[0]
        assert p == pytest.approx(0.06445553267943421, rel=1e-13, abs=0)   # the 58-step value
        assert p == pytest.approx(pa._series_tail(d, c2, m, const)[0], rel=0.03)

    def test_no_saddle_takes_the_exact_tail(self, dual_scenario):
        # next to the larger array its alpha explodes, pushing the MGF rim
        # inside the left bracket end on both sides
        auth = make_authenticator(dual_scenario)
        pos = (75.0 - 1e-5, 30.0)
        ev = channel_statistics(dual_scenario, replace(dual_scenario.eve, position=pos))
        with pytest.raises(SaddlepointError):
            mdp_optimal_pma(auth, ev, method="saddlepoint")
        form = build_indefinite_form(auth, ev)
        assert np.isnan(pa._saddle_tail(*_rows([form]))[0])
        p_auto = mdp_optimal_pma(auth, ev)
        assert p_auto == pa._series_tail(*_rows([form]))[0]
        mc = estimate_probability(best_case_acceptance_event(auth), ev, 400_000, seed=0)
        assert abs(p_auto - mc.value) < 4 * mc.std_error
        p_md = mdp_optimal_pma_batch(auth, dual_scenario, [pos, dual_scenario.eve.position])
        assert p_md[0] == pytest.approx(p_auto, rel=1e-9)
        assert p_md[1] == mdp_optimal_pma(auth, eve_statistics(dual_scenario))


class TestExactTail:
    """The series, the package's exact tail, against its 40-digit mixture oracle, DNCF,
    the saddle point and sampling."""

    @pytest.mark.parametrize("rho", [0.0, None], ids=["identity", "exponential"])
    def test_matches_dncf_on_a_single_array(self, rho):
        # P(F > (N-1)(2M/T - 1)) for the doubly noncentral F with (2, 2(N-1)) degrees of
        # freedom whose noncentralities 2|c|^2 come from the form's two terms.  The
        # bounds are the largest relative errors measured on x86-64: the series is
        # within 7.6e-15 of the 40-digit oracle, dncf_sf within 2.4e-14 of it, and
        # the two within 2.6e-14 of each other
        rng = np.random.default_rng(81 + (rho == 0.0))
        checked = 0
        for _ in range(40):
            sc = random_geometry(rng, n_rrh=1, rho=rho)
            auth = make_authenticator(sc)
            ev = eve_statistics(sc)
            if auth.threshold >= 2.0 * auth.mahalanobis_energy:
                continue
            form = build_indefinite_form(auth, ev)
            n, c = auth.stats.dim, form[1][0]
            closed = dncf_sf((n - 1) * (2.0 * auth.mahalanobis_energy / auth.threshold - 1.0),
                             2.0 * abs(c[0]) ** 2, 2.0 * abs(c[1]) ** 2, 2, 2 * (n - 1))
            exact = pa._series_tail(*_rows([form]))[0]
            p, _ = mixture_tail(*(v[0] for v in _rows([form])))
            assert abs(exact - p) <= 8e-15 * p
            assert exact == pytest.approx(closed, rel=2.6e-14, abs=0)
            assert exact == mdp_single_array_closed_form(auth, ev)
            checked += 1
        assert checked >= 35

    @pytest.mark.parametrize("rho", [0.0, None], ids=["identity", "exponential"])
    def test_saddle_point_tracks_the_exact_tail(self, rho):
        # optimal and fixed-strategy forms of 40 seeded multi-array
        # deployments; the largest relative gap measured on this set was
        # 2.05 % (identity) and 1.39 % (exponential), so 3 % is the bound.
        # The series takes O(mu) terms, so the fixed strategies past mu = 2e5
        # are left out for their cost: one with p = 0.937 (identity) and two
        # with p below 1e-300 (exponential)
        rng = np.random.default_rng(71 + (rho is None))
        forms = []
        for _ in range(40):
            forms += _attack_forms(random_geometry(rng, int(rng.integers(2, 4)), rho=rho), rng)
        forms = [f for f in forms if _poisson_mean(f) < 2e5]
        assert len(forms) == (159 if rho == 0.0 else 158)
        rows = _rows(forms)
        exact = pa._series_tail(*rows)
        keep = (exact >= 1e-8) & (exact <= 0.5)
        assert keep.sum() >= 30
        assert pa._saddle_tail(*rows)[keep] == pytest.approx(exact[keep], rel=0.03)

    def test_matches_the_mixture_oracle(self):
        """The series against conftest.mixture_tail at 40 digits on both sides: the
        seeded optimal and fixed forms of the deployments above whose Poisson mean mu
        is at most 40 (the oracle's cost grows as mu^2), the hand-made forms that fit
        a case of the series, and reference_3rrh's no-attack form (mu about 650).
        The bounds are the largest errors measured on x86-64: where p < 1/2,
        3.1e-14 of p (fixed forms; optimal ones 2.4e-14, the reference row 2.1e-14);
        where p > 1/2 the series sums 1 - p, and p is within 3.2 ulps of 1."""
        forms = []
        for seed in (71, 72):
            rng = np.random.default_rng(seed)
            for _ in range(40):
                forms += _attack_forms(random_geometry(rng, int(rng.integers(2, 4)),
                                                       rho=0.0 if seed == 71 else None), rng)
        forms = [f for f in forms if _fits(f) and _poisson_mean(f) <= 40.0]
        forms += [_HAND_MADE[2], _HAND_MADE[5]]
        sc = load_scenario(SCENARIOS / "reference_3rrh.json")
        forms.append(fixed_strategy_form(make_authenticator(sc), eve_statistics(sc), NO_ATTACK))
        rows = _rows(forms)
        got = pa._series_tail(*rows)
        sides = [0, 0]
        for k, form in enumerate(forms):
            p, _ = mixture_tail(*(v[k] for v in rows))
            if p < 0.5:
                assert abs(got[k] - p) <= 3.1e-14 * p, k
            else:
                assert abs(got[k] - p) <= 3.2 * 2.0 ** -53, k
            sides[p >= 0.5] += 1
        assert sides[0] >= 100 and sides[1] >= 10
        assert got[-1] == pytest.approx(1.0197159e-7, rel=1e-7)

    def test_forms_outside_both_cases_are_refused(self):
        # the sign-definite rows are exact; a form with a positive term and a
        # constant, or with two positive terms, fits neither case
        d, c2, m, const = _rows(_HAND_MADE[:2])
        assert pa._series_tail(d, c2, m, const).tolist() == [0.0, 1.0]
        tiny = form_row([1.0, -1.0, -1.0, -1.0], [0j, 3.0, 3.0j, 2.0 + 2.0j], constant=-40.0)
        for form in (_HAND_MADE[3], _HAND_MADE[4], tiny, form_row([1.0, 2.0, -1.0], [1.0] * 3)):
            with pytest.raises(NumericsError):
                pa._series_tail(*_rows([form]))

    def test_reference_1rrh16_headline(self):
        """p_md_opt of reference_1rrh16 is within 1e-14 of its 40-digit value."""
        sc = load_scenario(SCENARIOS / "reference_1rrh16.json")
        best = truncated_search(sc).best
        ev = channel_statistics(sc, replace(sc.eve, position=best.position))
        form = build_indefinite_form(make_authenticator(sc), ev)
        p, _ = mixture_tail(*(v[0] for v in _rows([form])))
        assert abs(best.p_md - p) <= 1e-14 * p

    def test_rows_alone_equal_rows_in_batch(self):
        # besides the seeded forms: a positive term of multiplicity 2, whose P'
        # starts a step late, and a row that a Chernoff bound decides as 0.0
        rng = np.random.default_rng(64)
        forms = list(_HAND_MADE[:3]) + _HAND_MADE[5:] + _attack_forms(random_geometry(rng, 3), rng)
        for _ in range(12):
            forms += _attack_forms(random_geometry(rng), rng)
        forms += [form_row([0.5, -1.7 / 3.0], [1.5 ** 0.5, 2.5 ** 0.5], multiplicities=[2, 3]),
                  form_row([-1e-6], [1e4], constant=1.0, multiplicities=[4])]
        d, c2, m, const = _rows(forms)
        batch = pa._series_tail(d, c2, m, const)
        assert batch[-1] == 0.0 and 0.0 < batch[-2] < 1.0
        for k in range(len(forms)):
            assert pa._series_tail(d[k:k + 1], c2[k:k + 1], m[k:k + 1], const[k:k + 1]) == batch[k]

    def test_large_poisson_means_match_the_inversion_oracle(self):
        """The series against conftest.inversion_tail on the seeded forms of 240 more
        deployments whose Poisson mean mu lies in [2000, 7000] and whose sum stays
        under the cap (22 of them; the others are past it or a Chernoff 0).  The p
        side's cut is relative to a Chernoff bound: taken on a fixed grid of z, that
        bound missed its optimum here and left these tails off by up to 1.1e-5
        relative.  With the optimal z the largest error measured on x86-64 was
        4.2e-13 of the smaller side, so 5e-13 is the bound."""
        forms = []
        for seed in range(73, 79):
            rng = np.random.default_rng(seed)
            for _ in range(40):
                forms += _attack_forms(random_geometry(rng, int(rng.integers(2, 4)),
                                                       rho=None if seed % 2 == 0 else 0.0), rng)
        forms = [f for f in forms if _fits(f) and 2000.0 <= _poisson_mean(f) <= 7000.0]
        rows = _rows(forms)
        got = pa._series_tail(*rows, pa._MAX_STEPS)
        summed = np.flatnonzero((got > 0.0) & (got < 1.0))     # not NaN, nor a Chernoff 0
        assert summed.size >= 15
        for k in summed:
            p = inversion_tail(*(v[k] for v in rows))
            assert abs(got[k] - p) <= 5e-13 * min(p, 1 - p), k

    def test_rows_past_the_cap_take_the_saddle_point(self):
        """A fixed form with mu = 4.5e5 (the statistical strategy of a seeded
        deployment) would take the series about 13 s; past _MAX_STEPS terms every
        route hands it to the saddle point, which takes milliseconds and here is
        within 0.6 % of 1 - p (1.8 % at worst on the seeded forms past the cap)."""
        rng = np.random.default_rng(71)
        for _ in range(31):
            forms = _attack_forms(random_geometry(rng, int(rng.integers(2, 4)), rho=0.0), rng)
        d, c2, m, const = _rows([forms[1]])
        assert _poisson_mean(forms[1]) > 4e5
        assert np.isnan(pa._series_tail(d, c2, m, const, pa._MAX_STEPS)).all()
        start = time.perf_counter()
        got = pa._tail(d, c2, m, const)
        assert time.perf_counter() - start < 1.0
        assert got.tolist() == saddlepoint_tail_probability(d, np.sqrt(c2), m, const).tolist()
        p = inversion_tail(d[0], c2[0], m[0], const[0])
        assert 0.9 < p and abs(got[0] - p) <= 0.006 * (1 - p)

    def test_correction_outside_its_range_takes_the_exact_tail(self, dual_scenario,
                                                                 monkeypatch):
        # on the committed scenarios the factor stays near 1, so its range
        # is moved away from it: the saddle point then has no usable saddle
        # and raises, while "auto" takes the series whatever the saddle does
        auth = make_authenticator(dual_scenario)
        ev = eve_statistics(dual_scenario)
        forms = [build_indefinite_form(auth, ev), fixed_strategy_form(auth, ev, NO_ATTACK),
                 _HAND_MADE[0]]
        rows = _rows(forms)
        saddle = pa._saddle_tail(*rows)
        exact = pa._series_tail(*rows)
        monkeypatch.setattr(pa, "_CORRECTION", (10.0, 100.0))
        assert np.isnan(pa._saddle_tail(*rows)[:2]).all()
        assert exact[:2] == pytest.approx(saddle[:2], rel=0.03)
        assert exact[2] == saddle[2] == 0.0
        assert mdp_optimal_pma(auth, ev) == exact[0]
        assert mdp_fixed_strategy(auth, ev) == exact[1]
        with pytest.raises(SaddlepointError):
            mdp_optimal_pma(auth, ev, method="saddlepoint")


def _dncf_mpmath(x, nu1, nu2, k1, k2):
    """dncf_sf at 40 digits as the double sum over s and j of P(S = s) P(K = j | s)
    P(R > j - k1/2), R ~ Poisson(nu1/2), S ~ Poisson(nu2/2) and K | s ~ NegBin(k2/2 + s, q):
    each NegBin pmf term by term, no recurrence over the mixture."""
    a, b = k2 // 2, k1 // 2
    with mpmath.workdps(40):
        q = k1 * mpmath.mpf(x) / (k2 + k1 * mpmath.mpf(x))

        def window(lam):        # the Poisson mass outside it is far below 1e-45
            half = 16.0 * math.sqrt(lam) + 50.0
            lo, lam = max(int(lam - half), 0), mpmath.mpf(lam)
            w = [mpmath.exp(lo * mpmath.log(lam) - lam - mpmath.loggamma(lo + 1)) if lam
                 else mpmath.mpf(1)]
            for i in range(lo + 1, int(lam + half) + 1 if lam else 1):
                w.append(w[-1] * lam / i)
            return lo, w
        r0, wr = window(nu1 / 2.0)
        above = [mpmath.mpf(0)] * (len(wr) + 1)         # above[i] = P(R >= r0 + i)
        for i in range(len(wr) - 1, -1, -1):
            above[i] = above[i + 1] + wr[i]
        s0, ws = window(nu2 / 2.0)
        total = mpmath.mpf(0)
        for s, w in enumerate(ws, s0):
            nb, acc = (1 - q) ** (a + s), mpmath.mpf(0)
            for j in range(b + r0 + len(wr)):
                term = nb * above[min(max(j - b + 1 - r0, 0), len(wr))]
                acc += term
                if j > (a + s) * q / (1 - q) and term < mpmath.mpf(10) ** -50 * acc:
                    break
                nb *= q * (j + a + s) / (j + 1)
            total += w * acc
        return total


def _dncf_betainc(x, nu1, nu2, k1, k2, tol):
    """The double Poisson mixture of regularized incomplete beta terms,
    sum_r sum_s P(R = r) P(S = s) I_{1-q}(k2/2 + s, k1/2 + r), each Poisson
    window cut at 1 - tol of its mass: absolute error about tol."""
    def window(lam):
        if lam <= 0.0:
            return np.array([0]), np.array([1.0])
        r = np.arange(int(lam + 12.0 * math.sqrt(lam) + 25.0) + 1)
        w = np.exp(-lam + r * np.log(lam) - gammaln(r + 1.0))
        csum = np.cumsum(w)
        first = int(np.searchsorted(csum, tol / 2.0))
        last = int(np.searchsorted(csum, 1.0 - tol)) + 1
        return r[first:last + 1], w[first:last + 1]
    q = k1 * x / (k2 + k1 * x)
    (r, wr), (s, ws) = window(nu1 / 2.0), window(nu2 / 2.0)
    return float(wr @ betainc(k2 / 2.0 + s[None, :], k1 / 2.0 + r[:, None], 1.0 - q) @ ws)


_DNCF_PAIRS = [(2, 2), (2, 6), (2, 30), (2, 126), (4, 6)]


def _dncf_series(x, nu1, nu2, k1, k2):
    """dncf_sf(x, nu1, nu2, k1, k2) by the series, through the equivalent row: the event
    {(2/k1) sum_{k1/2} |w + c|^2 - (2x/k2) sum_{k2/2} |w + c|^2 > 0} with offset
    energies nu1/2 and nu2/2, one row per broadcast element."""
    x, nu1, nu2 = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float))
                                        for v in (x, nu1, nu2)))
    d = np.stack((np.full(x.shape, 2.0 / k1), -2.0 * x / k2), axis=1)
    m = np.broadcast_to([k1 / 2.0, k2 / 2.0], d.shape)
    return pa._series_tail(d, np.stack((nu1, nu2), axis=1) / 2.0, m, np.zeros(x.size))


class TestDncf:
    """dncf_sf, the oracle of the series on one array, and the series on its rows."""

    def test_series_on_the_equivalent_rows(self):
        """The draws of test_against_mpmath and the cases below, now by the series: it
        meets every bound measured for dncf_sf there but the first case of
        test_cases_the_truncated_beta_sum_missed (p = 6.5e-25), where it is 5.3e-15
        from _dncf_mpmath against dncf_sf's 1.0e-15.  That bound lies below what the
        rounding of q = a/(1 + a) alone moves log h_0 there (2.9e-15, q rounded
        once, everything after it exact), so the case keeps its measured value."""
        rng = np.random.default_rng(23)
        worst, tails = [0.0, 0.0], []
        for i in range(32):
            k1, k2 = _DNCF_PAIRS[i % 5]
            nu1, nu2 = 10.0 ** rng.uniform(-2.0, math.log10(260.0), 2)
            x = 10.0 ** rng.uniform(math.log10(0.02), math.log10(30.0))
            if 26 <= i < 30:
                k1, k2 = 2, (30, 126)[i % 2]
                nu1, nu2, x = nu1 / 100.0, rng.uniform(100.0, 260.0), rng.uniform(10.0, 30.0)
            if i >= 30:
                big = rng.uniform(260.0, 2000.0)
                nu1, nu2 = (big, nu2) if i == 30 else (nu1, big)
                x = (k1 + nu1) / k1 / ((k2 + nu2) / k2) * rng.uniform(0.5, 1.8)
            exact = _dncf_mpmath(x, nu1, nu2, k1, k2)
            if exact >= 1e-30:
                err = float(abs(_dncf_series(x, nu1, nu2, k1, k2)[0] - exact) / exact)
                worst[i >= 30] = max(worst[i >= 30], err)
                tails.append(float(exact))
        assert len(tails) == 31 and min(tails) < 1e-20
        assert worst[0] <= 8.0e-15 and worst[1] <= 1.2e-14, worst
        exact = 6.4598179956413515e-25
        got = _dncf_series(18.3345016134726, 3.1465758452624137, 129.5768181659879, 2, 6)[0]
        assert abs(got - exact) <= 5.3e-15 * exact
        exact = 9.7405681593611516e-16
        assert abs(_dncf_series(800.0, 3000.0, 200.0, 2, 30)[0] - exact) <= 1.05e-13 * exact
        assert _dncf_series(3.75, 4000.0, 10000.0, 2, 30)[0] == 1.0
        assert abs(_dncf_series(10.0, 2700.0, 4000.0, 2, 30)[0]
                   - 0.54459338783968086866) <= 2.6e-14
        assert _dncf_series(1.7, 0.0, 0.0, 4, 6)[0] == pytest.approx(0.2671480178833008,
                                                                     rel=1e-10)
        assert _dncf_series(0.0, 1.0, 1.0, 2, 4)[0] == 1.0

    def test_against_mpmath(self):
        """Seeded draws against _dncf_mpmath: k1 = 2 with k2 in {2, 6, 30, 126}
        and k1 = 4 with k2 = 6, x in [0.02, 30] and nu1, nu2 log-uniform in
        [0.01, 260]; four deep tails (x in [10, 30], nu2 in [100, 260]) and
        one draw each with nu1 or nu2 in [260, 2000]; every tail from 1e-30
        to 1 is checked.  The bounds are the largest relative errors measured
        on x86-64, 8.0e-15 with nu up to 260 and 1.2e-14 beyond; 300 more
        draws of this kind reached 1.5e-14 and, up to nu = 2000, 2.9e-13."""
        rng = np.random.default_rng(23)
        worst, tails = [0.0, 0.0], []
        for i in range(32):
            k1, k2 = _DNCF_PAIRS[i % 5]
            nu1, nu2 = 10.0 ** rng.uniform(-2.0, math.log10(260.0), 2)
            x = 10.0 ** rng.uniform(math.log10(0.02), math.log10(30.0))
            if 26 <= i < 30:
                k1, k2 = 2, (30, 126)[i % 2]
                nu1, nu2, x = nu1 / 100.0, rng.uniform(100.0, 260.0), rng.uniform(10.0, 30.0)
            if i >= 30:         # x about the ratio's mean
                big = rng.uniform(260.0, 2000.0)
                nu1, nu2 = (big, nu2) if i == 30 else (nu1, big)
                x = (k1 + nu1) / k1 / ((k2 + nu2) / k2) * rng.uniform(0.5, 1.8)
            exact = _dncf_mpmath(x, nu1, nu2, k1, k2)
            if exact >= 1e-30:
                err = float(abs(dncf_sf(x, nu1, nu2, k1, k2) - exact) / exact)
                worst[i >= 30] = max(worst[i >= 30], err)
                tails.append(float(exact))
        assert len(tails) == 31 and min(tails) < 1e-20
        assert worst[0] <= 8.0e-15 and worst[1] <= 1.2e-14, worst

    def test_cases_the_truncated_beta_sum_missed(self):
        # _dncf_mpmath's 40-digit values; the betainc sum with windows cut at
        # 1 - 1e-12 returned 5.95e-26 and 9.357e-16 there.  The bounds are the
        # relative errors measured on x86-64.
        exact = 6.4598179956413515e-25
        got = dncf_sf(18.3345016134726, 3.1465758452624137, 129.5768181659879, 2, 6)
        assert abs(got - exact) <= 1.0e-15 * exact
        exact = 9.7405681593611516e-16
        assert abs(dncf_sf(800.0, 3000.0, 200.0, 2, 30) - exact) <= 1.05e-13 * exact

    def test_underflowing_start_is_rescaled(self):
        # g_0 = (1-q)^a e^{-(nu2/2) q} is below the smallest double in both
        # (about e^-1003 and e^-800), so unscaled the recurrence returns 0.0;
        # _dncf_mpmath gives 1 - 2.15e-32 and 0.54459338783968086866
        assert dncf_sf(3.75, 4000.0, 10000.0, 2, 30) == 1.0
        assert abs(dncf_sf(10.0, 2700.0, 4000.0, 2, 30) - 0.54459338783968086866) <= 2.6e-14

    def test_agrees_with_the_beta_sum(self):
        """The betainc double sum, its windows cut at 1 - 1e-13, agrees within 1e-12."""
        rng = np.random.default_rng(24)
        worst = 0.0
        for i in range(60):
            k1, k2 = _DNCF_PAIRS[i % 5]
            nu1, nu2 = 10.0 ** rng.uniform(-2.0, math.log10(260.0), 2)
            x = 10.0 ** rng.uniform(math.log10(0.02), math.log10(30.0))
            worst = max(worst, abs(dncf_sf(x, nu1, nu2, k1, k2)
                                   - _dncf_betainc(x, nu1, nu2, k1, k2, 1e-13)))
        assert worst <= 1e-12

    def test_rows_alone_equal_rows_in_batch(self):
        # x about the ratio's mean; three rows' g_0 underflows and three tails are below 1e-70
        rng = np.random.default_rng(25)
        nu1 = np.concatenate(([0.0, 0.0, 3000.0], rng.uniform(0.0, 3000.0, 37)))
        nu2 = 10.0 ** rng.uniform(-2.0, 4.0, 40)
        x = (1.0 + nu1 / 2.0) / (1.0 + nu2 / 30.0) * 10.0 ** rng.uniform(-0.5, 0.7, 40)
        batch = dncf_sf(x, nu1, nu2, 2, 30)
        assert np.sum(batch < 1e-70) == 3 and batch.max() > 0.5
        for k in range(40):
            assert dncf_sf(x[k], nu1[k], nu2[k], 2, 30) == batch[k], k

    def test_central_case_is_fisher_f(self):
        # frozen: scipy.stats.f.sf(1.7, 4, 6)
        assert dncf_sf(1.7, 0.0, 0.0, 4, 6) == pytest.approx(0.2671480178833008, rel=1e-10)

    def test_sf_is_monotone(self):
        last = 1.0
        for x in np.linspace(0.05, 8.0, 25):
            s = dncf_sf(float(x), 3.0, 5.0, 2, 6)
            assert s <= last + 1e-12
            last = s

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
        assert abs(1 - dncf_sf(x, nu1, nu2, k1, k2) - emp) < 4 * sigma

    def test_domain_errors_and_limits(self):
        with pytest.raises(ValueError):
            dncf_sf(1.0, 1.0, 1.0, 0, 4)
        with pytest.raises(ValueError):
            dncf_sf(1.0, -1.0, 1.0, 2, 4)
        assert dncf_sf(0.0, 1.0, 1.0, 2, 4) == 1.0

    def test_odd_dof_are_refused(self):
        for k1, k2 in ((3, 4), (2, 5), (2.5, 4), (2, 0)):
            with pytest.raises(NumericsError):
                dncf_sf(1.0, 1.0, 1.0, k1, k2)


class TestMissProbability:
    def test_closed_form_matches_monte_carlo(self, single_scenario):
        auth = make_authenticator(single_scenario)
        ev = eve_statistics(single_scenario)
        p = mdp_single_array_closed_form(auth, ev)
        mc = estimate_probability(best_case_acceptance_event(auth), ev, 400_000, seed=9)
        assert abs(p - mc.value) < 4 * max(mc.std_error, 1e-4)

    def test_closed_form_equals_auto_on_any_layout(self, dual_scenario):
        # "closedform" names the series, as "auto" does, on every layout; the
        # second layout's threshold swallows the mean (T >= 2M)
        swallowed = build_scenario([("a", (10.0, 55.0), 2), ("b", (70.0, 55.0), 2)],
                                   rice_db=-10.0)
        for sc in (dual_scenario, swallowed):
            auth = make_authenticator(sc)
            ev = eve_statistics(sc)
            p = mdp_optimal_pma(auth, ev)
            assert mdp_optimal_pma(auth, ev, method="closedform") == p
            assert mdp_single_array_closed_form(auth, ev) == p
        assert auth.threshold >= 2.0 * auth.mahalanobis_energy and p == 1.0

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

    def test_unknown_method_is_rejected(self, dual_scenario):
        # Monte-Carlo is the fallback, not a route: estimate_probability is the oracle
        auth = make_authenticator(dual_scenario)
        ev = eve_statistics(dual_scenario)
        for method in ("montecarlo", "bogus"):
            with pytest.raises(ValueError):
                mdp_optimal_pma(auth, ev, method=method)


def _sweep_case(which, single_scenario):
    """Authenticator, attacker law and a threshold sweep that ends at 2M."""
    if which == "desk":
        sc = load_scenario(DESK)
    elif which == "single":
        sc = single_scenario
    else:
        # non-diagonal Cholesky factor, on which whitening the mean as several
        # columns of one solve rounds differently from a one-column solve
        sc = random_geometry(np.random.default_rng(11), n_rrh=3, n_rx=4, rho=0.5)
    auth = make_authenticator(sc)
    thresholds = [threshold_for_pfa(p, auth.total_dof) for p in (1e-4, 1e-3, 1e-2, 0.1, 0.3)]
    return sc, auth, eve_statistics(sc), thresholds + [2.0 * auth.mahalanobis_energy]


class TestSweeps:
    """The sweeps equal per-threshold scalar calls on replace(auth, threshold=T) bit for bit."""

    @pytest.mark.parametrize("which", ["desk", "single", "exponential"])
    def test_sweeps_equal_scalar_calls(self, which, single_scenario):
        _, auth, ev, thresholds = _sweep_case(which, single_scenario)
        at = [replace(auth, threshold=t) for t in thresholds]
        for method in ("auto", "saddlepoint"):
            p = mdp_optimal_pma_sweep(auth, ev, thresholds, method)
            assert p.tolist() == [mdp_optimal_pma(a, ev, method) for a in at]
            assert p[-1] == 1.0
        strategies = (NO_ATTACK, statistical_power_strategy(auth, ev), PowerStrategy(1.7, -0.4))
        for strat in strategies:
            p = mdp_fixed_strategy_sweep(auth, ev, thresholds, strat)
            assert p.tolist() == [mdp_fixed_strategy(a, ev, strat) for a in at]

    def test_no_saddle_row_alone_takes_the_exact_tail(self, monkeypatch):
        # the last saddle row of each call fails: "saddlepoint" then raises,
        # while every "auto" route takes the series and does not move
        sc, auth, ev, _ = _sweep_case("desk", None)
        m_energy = auth.mahalanobis_energy
        thresholds = [auth.threshold, 1.8 * m_energy, 2.0 * m_energy, 3.6 * m_energy]
        high = replace(auth, threshold=1.8 * m_energy)
        positions = [(30.0, 20.0), (50.0, 45.0), (12.0, 40.0), sc.eve.position]
        p_opt = mdp_optimal_pma_sweep(auth, ev, thresholds)
        p_none = mdp_fixed_strategy_sweep(auth, ev, thresholds)
        p_batch = mdp_optimal_pma_batch(high, sc, positions)
        real = pa._saddle_tail

        def last_row_fails(d, c2, m, const):
            p = real(d, c2, m, const)
            if len(p) > 1:
                p[-1] = np.nan
            return p

        def exact(form):
            return pa._series_tail(*_rows([form]))[0]

        def near_mc(p, event):
            est = estimate_probability(event, ev, 400_000, seed=0)
            return abs(p - est.value) < 4 * est.std_error

        monkeypatch.setattr(pa, "_saddle_tail", last_row_fails)
        with pytest.raises(SaddlepointError):
            mdp_optimal_pma_sweep(auth, ev, thresholds, "saddlepoint")
        assert mdp_optimal_pma_sweep(auth, ev, thresholds).tolist() == p_opt.tolist()
        assert p_opt[1] == exact(build_indefinite_form(high, ev)) > 0.0
        assert near_mc(p_opt[1], best_case_acceptance_event(high))
        top = replace(auth, threshold=thresholds[3])
        assert mdp_fixed_strategy_sweep(auth, ev, thresholds).tolist() == p_none.tolist()
        assert p_none[3] == exact(fixed_strategy_form(top, ev, NO_ATTACK)) > 0.0
        assert near_mc(p_none[3], acceptance_event(top))
        assert mdp_optimal_pma_batch(high, sc, positions).tolist() == p_batch.tolist()
        assert p_batch[3] == pytest.approx(exact(build_indefinite_form(high, ev)), rel=1e-9)


class TestRowViews:
    """The one-row views the tracer names equal, bit for bit, the routes the CLI runs."""

    @pytest.mark.parametrize("name, rho", [("desk_2rrh", None), ("reference_1rrh16", None),
                                           ("reference_2rrh8", None), ("reference_3rrh", None),
                                           ("reference_3rrh", 0.5)])
    def test_row_views_equal_the_cli_routes(self, name, rho):
        sc = load_scenario(SCENARIOS / f"{name}.json")
        sc = sc if rho is None else replace(sc, rho=rho)
        auth, ev = make_authenticator(sc), eve_statistics(sc)
        p_opt = saddlepoint_tail_probability(*build_indefinite_form(auth, ev))
        assert p_opt.tolist() == [mdp_optimal_pma(auth, ev, method="saddlepoint")]
        thresholds = np.array([threshold_for_pfa(p, auth.total_dof)
                               for p in (1e-4, 1e-3, 1e-2, 0.1, 0.3)])
        for strategy in (NO_ATTACK, statistical_power_strategy(auth, ev),
                         PowerStrategy(2.0, 0.5)):
            d, c, m, const = fixed_strategy_form(auth, ev, strategy)
            assert const.tolist() == [auth.threshold / 2.0]
            rows = (np.broadcast_to(v, (thresholds.size, v.shape[1]))
                    for v in (d, np.abs(c) ** 2, m.astype(float)))
            assert (pa._tail(*rows, thresholds / 2.0).tolist()
                    == mdp_fixed_strategy_sweep(auth, ev, thresholds, strategy).tolist())
