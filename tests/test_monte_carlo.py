import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from distpla import (BLOCK_SIZE, WhitenedEvent, acceptance_event,
                     best_case_acceptance_event, discriminant, estimate_probability,
                     eve_statistics, load_scenario, make_authenticator, threshold_for_pfa)
import distpla.monte_carlo as mc
from distpla.monte_carlo import block_generator
from distpla.power_attack import optimal_power_strategy

from conftest import (build_scenario, decide_on_channel, dense_cov, dense_hits,
                      dense_whiten, random_geometry, sample_channel)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _median_event(auth):
    """{Re x_mid > 0} on the legitimate law: {Re h_mid > 0} under identity correlation."""
    mid = auth.stats.dim // 2
    return WhitenedEvent(auth, lambda x: x[:, mid].real > 0)


def test_same_seed_same_result(dual_scenario):
    auth = make_authenticator(dual_scenario)
    stats = auth.stats
    a = estimate_probability(_median_event(auth), stats, 50_000, seed=7)
    b = estimate_probability(_median_event(auth), stats, 50_000, seed=7)
    assert a == b
    c = estimate_probability(_median_event(auth), stats, 50_000, seed=8)
    assert c.hits != a.hits  # different stream, almost surely


@pytest.mark.parametrize("threads", [2, 4, 8])
def test_thread_count_never_changes_hits(dual_scenario, threads):
    auth = make_authenticator(dual_scenario)
    stats = auth.stats
    base = estimate_probability(_median_event(auth), stats, 3 * BLOCK_SIZE + 17, seed=3)
    par = estimate_probability(_median_event(auth), stats, 3 * BLOCK_SIZE + 17,
                               seed=3, threads=threads)
    assert par.hits == base.hits
    assert par.value == base.value


def test_workers_are_capped_by_the_blocks(dual_scenario, monkeypatch):
    """min(threads, blocks) workers split the blocks between them, asked of a
    stand-in pool that records its size and starts no thread; one block runs
    without a pool."""
    asked, parts = [], []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            parts.append(list(items))
            return map(fn, parts[-1])

    monkeypatch.setattr(mc, "ThreadPoolExecutor", Pool)
    auth = make_authenticator(dual_scenario)
    samples = 3 * BLOCK_SIZE + 17                     # four blocks
    base = estimate_probability(_median_event(auth), auth.stats, samples, seed=3)
    assert asked == []
    for threads in (2, 3, 4, 5, 10_000):
        asked.clear()
        parts.clear()
        est = estimate_probability(_median_event(auth), auth.stats, samples, seed=3,
                                   threads=threads)
        assert asked == [min(threads, 4)] and est == base
        assert sorted(b for blocks in parts[0] for b in blocks) == [0, 1, 2, 3]
    asked.clear()
    estimate_probability(_median_event(auth), auth.stats, BLOCK_SIZE, threads=10_000)
    assert asked == []


@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_sub_block_rows_never_change_hits(monkeypatch, rho):
    """Blocks drawn and decided one row, 7 rows (which leave a partial
    sub-block at the end of every block) or a whole block at a time hit
    exactly what the default sub-block hits, for one- and 13-column events,
    at 1 to 3 threads, under identity and exponential correlation."""
    sc = replace(load_scenario(SCENARIOS / "reference_3rrh.json"), rho=rho)
    auth, eve = make_authenticator(sc), eve_statistics(sc)
    thresholds = [threshold_for_pfa(float(p), auth.total_dof) for p in np.logspace(-4, -1, 13)]
    events = [best_case_acceptance_event(replace(auth, threshold=thresholds[6])),
              best_case_acceptance_event(auth, thresholds)]
    samples = 2 * BLOCK_SIZE + 1000       # ends in a partial block
    base = [estimate_probability(e, eve, samples, seed=4).hits for e in events]
    assert 0 < base[0] < samples and base[1][6] == base[0]
    for rows in (1, 7, BLOCK_SIZE):
        monkeypatch.setattr(mc, "_SUB_ROWS", rows)
        for threads in (1, 2, 3):
            for event, hits in zip(events, base):
                est = estimate_probability(event, eve, samples, seed=4, threads=threads)
                assert np.array_equal(est.hits, hits), (rows, threads)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_peak_memory_does_not_grow_with_the_block(threads):
    """A 100-threshold pass over 200,000 samples on reference_2rrh8 (32 real
    coordinates) holds, per worker, the sub-block buffer and the event's
    temporaries over it (about 2.3 MiB), not a block: its traced peak stays
    below 2 MiB plus 3 MiB a worker, where a worker holding a whole
    16,384-row block and its temporaries would take about 18 MiB."""
    sc = load_scenario(SCENARIOS / "reference_2rrh8.json")
    auth, eve = make_authenticator(sc), eve_statistics(sc)
    thresholds = [threshold_for_pfa(float(p), auth.total_dof) for p in np.logspace(-4, -1, 100)]
    event = best_case_acceptance_event(auth, thresholds)
    tracemalloc.start()
    try:
        est = estimate_probability(event, eve, 200_000, seed=1, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.hits.shape == (100,)
    assert peak < (2 + 3 * threads) * 2 ** 20, peak


@pytest.mark.parametrize("threads", [1, 2])
def test_peak_memory_does_not_grow_with_the_thresholds(threads):
    """A 2,000-threshold pass over two blocks on reference_2rrh8 holds, per
    worker, one sub-block's (rows, k) boolean result (3.9 MiB), a block of
    threshold columns' products and the buffer: its traced peak stays below
    2 MiB plus 6 MiB a worker, where a (rows, k) float64 product would add
    31 MiB a worker, and a worker holding its last result while deciding the
    next would add 3.9 MiB."""
    sc = load_scenario(SCENARIOS / "reference_2rrh8.json")
    auth, eve = make_authenticator(sc), eve_statistics(sc)
    thresholds = [threshold_for_pfa(float(p), auth.total_dof) for p in np.logspace(-4, -1, 2000)]
    event = best_case_acceptance_event(auth, thresholds)
    tracemalloc.start()
    try:
        est = estimate_probability(event, eve, BLOCK_SIZE + 3616, seed=1, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.hits.shape == (2000,)
    assert peak < (2 + 6 * threads) * 2 ** 20, peak


def test_partial_final_block(dual_scenario):
    auth = make_authenticator(dual_scenario)
    est = estimate_probability(WhitenedEvent(auth, lambda x: np.ones(len(x), bool)), auth.stats,
                               BLOCK_SIZE + 1)
    assert est.samples == BLOCK_SIZE + 1
    assert est.hits == BLOCK_SIZE + 1
    assert est.value == 1.0


def test_complementary_events_are_exact(dual_scenario):
    auth = make_authenticator(dual_scenario)
    ev = _median_event(auth)
    a = estimate_probability(ev, auth.stats, 30_000, seed=5)
    b = estimate_probability(WhitenedEvent(auth, lambda x: ~ev.decide(x)), auth.stats, 30_000,
                             seed=5)
    assert a.hits + b.hits == 30_000


def test_input_validation(dual_scenario):
    auth = make_authenticator(dual_scenario)
    stats = auth.stats
    with pytest.raises(ValueError):
        estimate_probability(_median_event(auth), stats, 0)
    with pytest.raises(ValueError):
        # event returning the wrong shape must be rejected, not mis-counted
        estimate_probability(WhitenedEvent(auth, lambda x: np.ones(3, bool)), stats, 100)
    with pytest.raises(ValueError):
        estimate_probability(WhitenedEvent(auth, lambda x: np.ones((3, 2), bool)), stats, 100)
    with pytest.raises(ValueError):
        estimate_probability(WhitenedEvent(auth, lambda x: np.ones((len(x), 2, 2), bool)),
                             stats, 100)
    with pytest.raises(TypeError, match="WhitenedEvent"):
        # an event on h itself has no sampler: only whitened events are drawn
        estimate_probability(lambda h: np.ones(len(h), bool), stats, 100)
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            estimate_probability(_median_event(auth), stats, 100, threads=threads)


def test_one_column_event_keeps_python_scalars(dual_scenario):
    auth = make_authenticator(dual_scenario)
    est = estimate_probability(_median_event(auth), auth.stats, 1000, seed=2)
    assert type(est.hits) is int and type(est.samples) is int
    assert type(est.value) is float and type(est.std_error) is float


def test_threshold_column_blocks_never_change_flags(monkeypatch):
    """150 thresholds compared one, 7 (which leave a partial block at the end),
    64 or all columns at a time give the flags of the 150 single-threshold
    events, on one sub-block of draws of reference_3rrh."""
    sc = load_scenario(SCENARIOS / "reference_3rrh.json")
    auth, eve = make_authenticator(sc), eve_statistics(sc)
    thresholds = [threshold_for_pfa(float(p), auth.total_dof) for p in np.logspace(-6, -0.2, 150)]
    h = sample_channel(eve, np.random.default_rng(8), mc._SUB_ROWS)
    singles = np.column_stack([decide_on_channel(best_case_acceptance_event(
        replace(auth, threshold=t)), h) for t in thresholds])
    assert 0 < singles.sum() < singles.size
    for columns in (1, 7, 64, 150):
        monkeypatch.setattr(mc, "_EVENT_COLUMNS", columns)
        assert np.array_equal(decide_on_channel(best_case_acceptance_event(auth, thresholds), h),
                              singles)


@pytest.mark.parametrize("name", ["desk_2rrh", "reference_3rrh"])
def test_threshold_sweep_equals_separate_estimates(name):
    """A k-threshold best-case event gives, column for column, the hits, value
    and standard error of k single-threshold estimates, for any thread count."""
    sc = load_scenario(SCENARIOS / f"{name}.json")
    eve = eve_statistics(sc)
    auths = [make_authenticator(replace(sc, false_alarm_target=float(p)))
             for p in np.logspace(-4, -1, 13)]
    samples = 2 * BLOCK_SIZE + 1000       # ends in a partial block
    singles = [estimate_probability(best_case_acceptance_event(a), eve, samples, seed=2)
               for a in auths]
    hits = [s.hits for s in singles]
    assert hits[0] > 0 and hits == sorted(hits, reverse=True)
    event = best_case_acceptance_event(auths[0], [a.threshold for a in auths])
    for threads in (1, 2, 8):
        est = estimate_probability(event, eve, samples, seed=2, threads=threads)
        assert est.samples == samples
        assert est.hits.tolist() == hits
        assert est.value.tolist() == [s.value for s in singles]
        assert est.std_error.tolist() == [s.std_error for s in singles]


def test_block_generator_streams_are_stable():
    # same (seed, block) twice gives the same draws; distinct blocks differ
    a = block_generator(11, 4).standard_normal(8)
    b = block_generator(11, 4).standard_normal(8)
    c = block_generator(11, 5).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_channel_moments(dual_scenario, rng):
    """The tests' dense oracle draws from the channel law."""
    stats = make_authenticator(dual_scenario).stats
    cov = dense_cov(stats)
    h = sample_channel(stats, rng, 200_000)
    assert h.shape == (200_000, stats.dim)
    err_mean = np.abs(h.mean(axis=0) - stats.mean)
    assert np.all(err_mean < 6 * np.sqrt(np.diag(cov).real / len(h)))
    centered = h - stats.mean
    emp_cov = centered.T.conj() @ centered / len(h)
    scale = np.abs(np.diag(cov)).max()
    assert np.abs(emp_cov.T - cov).max() < 0.02 * scale


def test_sample_channel_single_draw(dual_scenario, rng):
    stats = make_authenticator(dual_scenario).stats
    h = sample_channel(stats, rng)
    assert h.shape == (stats.dim,)
    assert h.dtype == complex


def test_acceptance_event_matches_discriminant(dual_scenario, rng):
    auth = make_authenticator(dual_scenario)
    ev = eve_statistics(dual_scenario)
    h = sample_channel(ev, rng, 512)
    scale = 0.8 * np.exp(0.3j)
    flags = decide_on_channel(acceptance_event(auth, scale), h)
    direct = discriminant(auth, scale * h) < auth.threshold
    assert np.array_equal(flags, direct)


def test_best_case_event_matches_pointwise_optimum(dual_scenario, rng):
    """The reduced best-case event agrees with optimizing each draw separately."""
    auth = make_authenticator(dual_scenario)
    ev = eve_statistics(dual_scenario)
    h = sample_channel(ev, rng, 256)
    flags = decide_on_channel(best_case_acceptance_event(auth), h)
    direct = np.array([optimal_power_strategy(auth, row)[1] < auth.threshold for row in h])
    assert np.array_equal(flags, direct)


def test_estimate_matches_closed_form_gaussian(dual_scenario):
    """P(Re h_0 > E Re h_0) = 1/2: sanity of the sampling transform itself.
    x_0 = h_0 / L_00 with L_00 > 0, so the event is {Re x_0 > Re (L^{-1} mu)_0}."""
    auth = make_authenticator(dual_scenario)
    mu0 = auth.whitened_mean[0].real
    est = estimate_probability(WhitenedEvent(auth, lambda x: x[:, 0].real > mu0), auth.stats,
                               400_000, seed=1)
    assert abs(est.value - 0.5) < 4 * est.std_error
    assert est.std_error == pytest.approx(np.sqrt(est.value * (1 - est.value) / est.samples))


def test_whitened_draws_count_what_the_dense_path_counts():
    """Acceptance events drawn in the authenticator's whitened coordinates hit
    exactly the samples that h = mu + L w followed by event(h) hits, on random
    deployments with identity and exponential correlation."""
    rng = np.random.default_rng(2024)
    samples = BLOCK_SIZE + 3000          # ends in a partial block
    for g in range(14):
        sc = random_geometry(rng, rho=0.0 if g % 2 else None)
        auth, eve = make_authenticator(sc), eve_statistics(sc)
        # pilot draws from another seed place the thresholds from 0 hits to nearly all;
        # T = 0 is never met, since |m^H x|^2 <= M ||x||^2
        h = sample_channel(eve, block_generator(99, 0), 2000)
        x = dense_whiten(auth.stats, h.T)
        best_d = 2.0 * (auth.mahalanobis_energy - np.abs(auth.whitened_mean.conj() @ x) ** 2
                        / np.sum(np.abs(x) ** 2, axis=0))
        thresholds = [0.0, *np.quantile(best_d, [0.02, 0.3, 0.7, 0.98])]
        scale = complex(rng.uniform(0.3, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        d = discriminant(auth, scale * h)
        events = [best_case_acceptance_event(auth, thresholds),
                  acceptance_event(replace(auth, threshold=float(np.median(d))), scale)]
        for event in events:
            dense = dense_hits(lambda h: decide_on_channel(event, h), eve, samples, seed=g)
            for threads in (1, 3):
                est = estimate_probability(event, eve, samples, seed=g, threads=threads)
                assert np.array_equal(est.hits, dense), (g, threads)
        hits = estimate_probability(events[0], eve, samples, seed=g).hits
        assert hits[0] == 0 and 0.9 * samples < hits[-1] < samples, (g, hits)


def test_whitened_events_refuse_an_unrelated_correlation():
    """Eve's law from a scenario whose correlation differs from the
    authenticator's is refused, never sampled another way: another rho, or
    the same rho with another Rice factor, whose diffuse variances
    P_E,j/(K'+1) are not alpha_j P_A,j/(K+1)."""
    rrhs = [("west", (10.0, 55.0), 3), ("east", (75.0, 30.0), 4, (0.0, 1.0))]
    auth = make_authenticator(build_scenario(rrhs, rho=0.3))
    for eve in (eve_statistics(build_scenario(rrhs, rho=0.6)),
                eve_statistics(build_scenario(rrhs, rho=0.3, rice_db=9.0))):
        for event in (best_case_acceptance_event(auth), acceptance_event(auth, 0.8)):
            with pytest.raises(ValueError, match="alpha_j"):
                estimate_probability(event, eve, 1000)
    same = eve_statistics(build_scenario(rrhs, rho=0.3))
    assert estimate_probability(best_case_acceptance_event(auth), same, 1000).samples == 1000
    # an event on h itself is refused as well: nothing samples h densely
    with pytest.raises(TypeError, match="WhitenedEvent"):
        estimate_probability(lambda h: h[:, 0].real > 0, eve, 1000)


def test_philox_layout_pinned_by_literal_hit_counts():
    """Literal hit counts, whatever evaluates a block: a change to the block
    size, the key layout or the real/imaginary pairing moves them."""
    sc = load_scenario(SCENARIOS / "desk_2rrh.json")
    auth, eve = make_authenticator(sc), eve_statistics(sc)
    thresholds = [threshold_for_pfa(p, auth.total_dof) for p in (1e-5, 3e-6, 1e-6)]
    est = estimate_probability(best_case_acceptance_event(auth, thresholds), eve, 50_000,
                               seed=3, threads=2)
    assert est.hits.tolist() == [803, 3185, 9593]
    tight = replace(auth, threshold=thresholds[2])
    assert estimate_probability(acceptance_event(tight, 0.5), eve, 50_000, seed=3).hits == 12
