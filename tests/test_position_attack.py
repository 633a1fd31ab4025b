import json
import multiprocessing
import os
import tracemalloc
from dataclasses import replace
from itertools import count, product
from pathlib import Path

import numpy as np
import pytest

import distpla.position_attack as pa
from distpla import (SearchConfig, alice_statistics, channel_statistics,
                     count_small_scale_optima, eve_statistics, load_scenario, lobe_sets,
                     make_authenticator, mdp_optimal_pma, scenario_from_dict, steering_vector,
                     truncated_search, wavelength)
from distpla.position_attack import (ArrayLobes, EmptyRegionError, LobeBand,
                                     NoCandidatesError, _allowed_mask, _array_contexts,
                                     _band_masks, _disc_local_maxima, _in_bands,
                                     _point_geometry, grid_axes)

from distpla.cli import main

from conftest import (angular_inner_product, build_scenario, correlation_matrix, count_oracle,
                      exhaustive_search, f_obj, point_fields, random_geometry, sample_channel)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestObjective:
    def test_scale_invariance(self, dual_scenario, rng):
        auth = make_authenticator(dual_scenario)
        h = sample_channel(eve_statistics(dual_scenario), rng)
        base = f_obj(auth, h)
        for c in (0.3, 7.0, np.exp(2.1j), 0.01 * np.exp(-0.5j)):
            assert f_obj(auth, c * h) == pytest.approx(base, rel=1e-10)

    def test_bounded_by_energy_with_equality_at_mean(self, dual_scenario, rng):
        auth = make_authenticator(dual_scenario)
        m = auth.mahalanobis_energy
        assert f_obj(auth, auth.stats.mean) == pytest.approx(m, rel=1e-12)
        assert f_obj(auth, 3.7j * auth.stats.mean) == pytest.approx(m, rel=1e-12)
        h = sample_channel(eve_statistics(dual_scenario), rng, 200)
        vals = f_obj(auth, h)
        assert vals.shape == (200,)
        assert np.all(vals <= m * (1 + 1e-12))
        assert np.all(vals > 0)

    def test_expanded_route_matches_matrix_route(self, rng):
        """Geometry-only expansion equals f_obj at the mean channel."""
        for _ in range(60):
            sc = random_geometry(rng)
            auth = make_authenticator(sc)
            mu_e = eve_statistics(sc).mean
            direct = f_obj(auth, mu_e)
            expanded = point_fields(sc, sc.eve.position)[0][0]
            assert expanded == pytest.approx(direct, rel=1e-9)

    def test_expansion_ignores_attacker_power(self, dual_scenario):
        boosted = dual_scenario.with_eve(dual_scenario.eve.position, tx_power=37.0)
        assert point_fields(boosted, boosted.eve.position)[0][0] == pytest.approx(
            point_fields(dual_scenario, dual_scenario.eve.position)[0][0], rel=1e-12)

    def test_batched_positions(self, dual_scenario):
        pts = np.array([[26.0, 49.0], [30.0, 20.0], [55.0, 40.0]])
        batch = point_fields(dual_scenario, pts)[0]
        assert batch.shape == (3,)
        for row, point in zip(batch, pts):
            assert row == pytest.approx(point_fields(dual_scenario, point)[0][0], rel=1e-12)


class TestAngularInnerProduct:
    def test_identity_correlation_is_dirichlet(self):
        n, s = 6, 0.5
        for d_omega in (0.02, 0.17, -0.31, 0.5):
            _, g = angular_inner_product(0.1 + d_omega, 0.1, n, s)
            expected = np.sin(np.pi * s * n * d_omega) / np.sin(np.pi * s * d_omega)
            assert g == pytest.approx(expected, rel=1e-10)

    def test_peak_at_alignment(self):
        s_val, g = angular_inner_product(0.3, 0.3, 8, 0.5)
        assert g == pytest.approx(8.0)
        assert s_val == pytest.approx(8.0 + 0j)

    def test_matches_direct_vector_computation(self, rng):
        rho, n, s = 0.55, 5, 0.5
        lam_inv = np.linalg.inv(correlation_matrix(rho, n))
        for _ in range(20):
            om_e, om_a = rng.uniform(-1, 1, 2)
            s_val, g = angular_inner_product(om_e, om_a, n, s, rho)
            direct = complex(steering_vector(om_e, n, s).conj() @ lam_inv
                             @ steering_vector(om_a, n, s))
            assert s_val == pytest.approx(direct, rel=1e-10)
            # the deterministic phase factor carries all of the argument
            assert abs(s_val) == pytest.approx(abs(g), rel=1e-9)

    def test_closed_forms_match_the_dense_products(self, single_scenario):
        """_angular_g and _s_ee against the dense e(Omega)^H Lambda^{-1} e(Omega_A)
        on 400 seeded draws: n in 2..16, rho in [0, 0.95], s in {1/4, 1/2, 3/4, 1},
        Omega_A and Omega over [-1, 1], endfire ±1 and Omega = Omega_A (the pole
        branch of D_n and D_{n-1}) among them.  The bounds are the largest errors
        measured: 4.1e-13 of the lobe peak for g, where sin(pi s x) nears a pole
        at s x = ±1 as in the identity kernel, and 1.1e-14 relative for S_EE."""
        base = _array_contexts(single_scenario)[0]
        rng = np.random.default_rng(22)
        err_g = err_s = 0.0
        for _ in range(400):
            n, rho = int(rng.integers(2, 17)), float(rng.uniform(0.0, 0.95))
            spacing = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            omega_a = float(rng.choice([-1.0, 1.0]) if rng.random() < 0.1 else rng.uniform(-1, 1))
            ctx = replace(base, n=n, spacing=spacing, omega_a=omega_a, rho=rho)
            omegas = np.concatenate((rng.uniform(-1.0, 1.0, 8), [-1.0, 1.0, omega_a]))
            dense = [angular_inner_product(om, omega_a, n, spacing, rho)[1] for om in omegas]
            s_ee = [angular_inner_product(om, om, n, spacing, rho)[0].real for om in omegas]
            err_g = max(err_g, np.max(np.abs(pa._angular_g(ctx, omegas) - dense)) / ctx.peak)
            err_s = max(err_s, np.max(np.abs(pa._s_ee(ctx, omegas) / s_ee - 1.0)))
        assert err_g <= 4.1e-13 and err_s <= 1.1e-14

    def test_phase_separation_sign(self):
        # g keeps its sign through zero crossings instead of folding to |g|
        n, s = 4, 0.5
        _, g_inside = angular_inner_product(0.1, 0.0, n, s)
        _, g_beyond = angular_inner_product(0.6, 0.0, n, s)
        assert g_inside > 0 > g_beyond


class TestSmallScale:
    def test_counts_all_arrays_at_the_legitimate_position(self, rng):
        for _ in range(10):
            sc = random_geometry(rng)
            assert point_fields(sc, sc.alice.position)[1][0] == pytest.approx(
                len(sc.rrhs), rel=1e-9)

    def test_range(self, dual_scenario, rng):
        pts = np.column_stack([rng.uniform(0, 80, 300), rng.uniform(0, 60, 300)])
        vals = point_fields(dual_scenario, pts)[1]
        assert np.all(vals >= 0)
        assert np.all(vals <= len(dual_scenario.rrhs) + 1e-9)


class TestLobeSets:
    def test_edges_solve_the_threshold_equation(self, rng):
        for _ in range(8):
            sc = random_geometry(rng, n_rrh=2, n_rx=int(rng.integers(4, 9)))
            sets = lobe_sets(sc)
            for al in sets.per_array:
                rrh = next(r for r in sc.rrhs if r.id == al.rrh_id)
                for band in (al.main, *al.sidelobes):
                    target = band.peak / sets.g0
                    for edge in (band.omega_lo, band.omega_hi):
                        if abs(edge) >= 1.0:      # clipped to the physical window
                            continue
                        _, g = angular_inner_product(edge, al.omega_a,
                                                     rrh.num_antennas,
                                                     sc.antenna_spacing, sc.rho)
                        assert abs(g) == pytest.approx(target, abs=1e-6 * band.peak)

    def test_main_band_straddles_the_alice_bearing(self, dual_scenario):
        sets = lobe_sets(dual_scenario)
        for al in sets.per_array:
            assert al.main.omega_lo <= al.omega_a <= al.main.omega_hi
            for side in al.sidelobes:
                assert side.peak < al.main.peak
                # first sidelobes sit outside the main band
                assert side.omega_hi <= al.main.omega_lo or side.omega_lo >= al.main.omega_hi

    def test_wider_tolerance_widens_bands(self, dual_scenario):
        import dataclasses
        narrow = lobe_sets(dual_scenario)
        wide_sc = dataclasses.replace(
            dual_scenario, search=dataclasses.replace(dual_scenario.search, g0=3.0))
        wide = lobe_sets(wide_sc)
        for a, b in zip(narrow.per_array, wide.per_array):
            assert b.main.omega_hi - b.main.omega_lo > a.main.omega_hi - a.main.omega_lo

    def test_g0_must_exceed_one(self, dual_scenario):
        import dataclasses
        bad = dataclasses.replace(
            dual_scenario, search=dataclasses.replace(dual_scenario.search, g0=1.0))
        with pytest.raises(ValueError):
            lobe_sets(bad)

    # (omega_lo, omega_hi, peak) of each array's main lobe, then of its first
    # sidelobes, recorded from the point-by-point scan; the float32 band
    # masks of the search pick their cells from exactly these bits
    PINNED = {
        "desk_2rrh": {
            "north": [(-0.11726468689207216, 0.33812773904176524, 4.0),
                      (0.7186049740442393, 0.9748759256102552, 1.0886621079036347),
                      (-0.7540128734605621, -0.49774192189454614, 1.0886621079036345)],
            "south": [(-0.39209520027227596, 0.0632972256615614, 4.0),
                      (0.44377446066403536, 0.7000454122300513, 1.0886621079036345),
                      (-1.0, -0.7725724352747501, 1.0886621079036343)]},
        "reference_1rrh16": {
            "mast": [(0.6516449037088377, 0.7625686586642573, 16.0),
                     (0.8567200107433836, 0.919231084499117, 3.521911630154962),
                     (0.494982477873978, 0.5574935516297114, 3.521911630154962)]},
        "reference_2rrh8": {
            "west": [(-0.11149083655024641, 0.11149083655024655, 8.0),
                     (0.30008689928980464, 0.4257177568737873, 1.8332538091960957),
                     (-0.4257177568737872, -0.30008689928980453, 1.8332538091960957)],
            "east": [(-0.11149083655024655, 0.11149083655024641, 8.0),
                     (0.30008689928980453, 0.4257177568737872, 1.8332538091960957),
                     (-0.4257177568737873, -0.30008689928980464, 1.8332538091960957)]},
        "reference_3rrh": {
            "rrh1": [(0.4103664774626047, 1.0, 2.0),
                     (-1.0, -0.5833646757974275, 1.980209191178598)],
            "rrh3": [(-0.696116135138184, 0.30388386486181596, 2.0),
                     (0.9414438550203815, 1.0, 0.6064181555986957)],
            "rrh8": [(-0.5000000000000001, 0.49999999999999994, 2.0)]},
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_committed_scenario_bands_are_pinned(self, name):
        sets = lobe_sets(load_scenario(SCENARIOS / f"{name}.json"))
        got = {al.rrh_id: [(b.omega_lo, b.omega_hi, b.peak) for b in (al.main, *al.sidelobes)]
               for al in sets.per_array}
        assert got == self.PINNED[name]

    def test_random_deployments_match_a_scipy_backed_scan(self, monkeypatch):
        """The written-out Brent root finder and bounded minimizer give the
        bands that scipy's brentq and minimize_scalar give, bit for bit."""
        from scipy.optimize import brentq, minimize_scalar
        scenarios = [random_geometry(np.random.default_rng(seed), rho=0.0 if seed % 2 else None)
                     for seed in range(100)]
        got = [lobe_sets(sc) for sc in scenarios]

        def root(f, lo, hi, tol=1e-12, max_iter=200):
            x = brentq(f, lo, hi, xtol=tol, rtol=max(tol, 4 * np.finfo(float).eps),
                       maxiter=max_iter)
            return float(min(max(x, lo), hi))

        def minimum(f, lo, hi, xatol):
            res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
            return float(res.x), float(res.fun)

        monkeypatch.setattr(pa, "bracketed_root_find", root)
        monkeypatch.setattr(pa, "bounded_minimum", minimum)
        assert got == [lobe_sets(sc) for sc in scenarios]
        assert {sc.rho > 0 for sc in scenarios} == {False, True}
        assert sum(len(al.sidelobes) for sets in got for al in sets.per_array) > 200


def test_grid_axes_are_cell_centers():
    sc = build_scenario([("r", (0.0, 0.0), 2)], region=(0, 10, 0, 6))
    xs, ys = grid_axes(sc, 2.0)
    assert np.allclose(xs, [1.0, 3.0, 5.0, 7.0, 9.0])
    assert np.allclose(ys, [1.0, 3.0, 5.0])
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="grid resolution"):
            grid_axes(sc, bad)


def test_disc_local_maxima_matches_brute_force(rng, monkeypatch):
    """Members anywhere, in a narrow column band (the filter crops to its
    span ± eps_px), and in bands touching the left or right grid edge; the
    decided rows are the whole grid, its top, its middle and its bottom.
    Integer values make plateaus, which count as maxima; a NaN member
    beats every member of its disc and is no maximum itself.  Every disc
    radius from 1 to 6 cells, whose rows have different half-widths, and
    strips of 16 and 5 rows, so that decided rows cross strip boundaries."""
    cols = ((0, 37), (15, 20), (0, 4), (33, 37), (0, 1), (36, 37))
    for c in cols:
        _check_disc_local_maxima(rng, c, 3, "uniform")
    for strip in (pa._STRIP_ROWS, 5):
        monkeypatch.setattr(pa, "_STRIP_ROWS", strip)
        for eps_px in range(1, 7):
            for k, kind in enumerate(("uniform", "integer", "nan")):
                _check_disc_local_maxima(rng, cols[(eps_px + k) % len(cols)], eps_px, kind)


def _check_disc_local_maxima(rng, cols, eps_px, kind):
    shape = (40, 37)
    iy, ix = np.meshgrid(np.arange(shape[0]), np.arange(*cols), indexing="ij")
    pool = (iy * shape[1] + ix).ravel()
    n_members = min(500, pool.size // 2)
    member_idx = np.sort(rng.choice(pool, n_members, replace=False))
    values = (rng.integers(0, 4, n_members).astype(float) if kind == "integer"
              else rng.uniform(0, 4, n_members))
    if kind == "nan":
        values[rng.choice(n_members, 3, replace=False)] = np.nan
    grid = np.full(shape, -np.inf, np.float32)
    grid.ravel()[member_idx] = values
    iy, ix = np.divmod(member_idx, shape[1])
    ties = 0
    for r0, r1 in ((0, 40), (0, 9), (11, 29), (30, 40), (17, 18), (5, 5), (3, 37)):
        got = _disc_local_maxima(grid, r0, r1, eps_px)
        expected = []
        for a in np.flatnonzero((iy >= r0) & (iy < r1)):
            near = (iy - iy[a]) ** 2 + (ix - ix[a]) ** 2 <= eps_px ** 2
            if np.all(values[a] >= values[near]):     # False for a NaN anywhere in the disc
                expected.append(int(member_idx[a]))
                ties += np.count_nonzero(values[near] == values[a]) > 1
        assert got.tolist() == expected, (r0, r1, eps_px, kind)
        if r1 - r0 > 9 and kind != "nan":
            assert 0 < len(expected) < np.count_nonzero((iy >= r0) & (iy < r1))
    assert ties > 0 or kind != "integer"


def _search_scenario(height=20.0, resolution=0.25, **search):
    """Compact two-array deployment with a coarse grid: fast to search."""
    return build_scenario(
        [("north", (12.0, 20.0), 4), ("south", (18.0, 0.0), 4)],
        alice=(15.0, 10.0), eve=(5.0, 15.0), region=(0, 30, 0, height),
        search=SearchConfig(grid_resolution=resolution, **search))


class TestSearches:
    @pytest.mark.parametrize("g0, lobe_cells", [(1.2, 1370), (3.0, 4514)])
    def test_g0_on_the_scenario_sets_the_lobe_cells(self, g0, lobe_cells):
        """The lobe bands, and so the lobe cells and the exhaustive search's
        label, take g0 from ``scenario.search``, the settings the grid comes from."""
        sc = _search_scenario()
        on_scenario = replace(sc, search=replace(sc.search, g0=g0))
        assert truncated_search(on_scenario).n_lobe_points == lobe_cells
        assert truncated_search(sc).n_lobe_points == 2180       # the default g0 = sqrt(2)
        assert lobe_sets(on_scenario).g0 == g0
        full = exhaustive_search(on_scenario)
        assert full.best.label == _candidate_label(_array_contexts(on_scenario),
                                                   lobe_sets(on_scenario), *full.best.position)

    def test_truncated_agrees_with_exhaustive(self):
        sc = _search_scenario()
        trunc = truncated_search(sc)
        full = exhaustive_search(sc)
        top = max(c.f_obj for c in trunc.candidates)
        assert top >= 0.99 * full.best.f_obj
        assert trunc.p_md_opt >= 0.99 * full.p_md_opt
        assert trunc.n_lobe_points < full.n_allowed
        assert full.n_survivors == full.n_allowed and full.n_evaluated == 1

    def test_exponential_rho_zero_is_the_identity_search(self):
        """A file's exponential correlation at rho = 0 loads as its identity
        correlation, so the search is the same, bit for bit (repr round-trips
        every float)."""
        data = json.loads((SCENARIOS / "desk_2rrh.json").read_text())
        data["search"] = {"grid_resolution_m": 0.25, "small_scale_radius_m": 1.5}
        identity = scenario_from_dict(data)
        zero = scenario_from_dict(dict(data, correlation={"model": "exponential", "rho": 0}))
        assert zero == identity and type(zero.rho) is float
        assert repr(truncated_search(zero, 2, True)) == repr(truncated_search(identity, 2, True))

    def test_candidates_match_scalar_evaluation(self):
        """Every batched candidate p_md equals the per-position scalar route."""
        sc = _search_scenario()
        auth = make_authenticator(sc)
        r = truncated_search(sc)
        assert r.n_evaluated > 100
        for c in r.candidates:
            stats = channel_statistics(sc, replace(sc.eve, position=c.position))
            assert c.p_md == pytest.approx(mdp_optimal_pma(auth, stats), rel=1e-9, abs=1e-300)

    def test_result_bookkeeping(self):
        sc = _search_scenario()
        r = truncated_search(sc)
        assert r.n_evaluated == len(r.candidates) <= r.n_lobe_points
        assert r.n_survivors == r.n_evaluated       # the cap does not bind here
        assert r.n_lobe_points <= r.n_allowed <= r.n_grid == 80 * 120
        assert r.best is r.candidates[0]
        pmds = [c.p_md for c in r.candidates]
        assert pmds == sorted(pmds, reverse=True)
        assert r.p_md_opt == pmds[0]
        for c in r.candidates:
            assert 0.0 <= c.p_md <= 1.0
            assert c.label == "other" or c.label.startswith(("main:", "sidelobes:"))
        # exclusion zones are honored
        ax, ay = sc.alice.position
        for c in r.candidates:
            assert np.hypot(c.position[0] - ax, c.position[1] - ay) >= sc.exclusion_alice

    def test_candidate_cap(self):
        sc = _search_scenario()
        capped = truncated_search(_search_scenario(max_candidates=5))
        assert capped.n_survivors > capped.n_evaluated == 5
        # the cap keeps the highest alignment objectives
        uncapped = truncated_search(sc)
        best_objs = sorted((c.f_obj for c in uncapped.candidates), reverse=True)[:5]
        assert max(c.f_obj for c in capped.candidates) == pytest.approx(best_objs[0])

    def test_small_scale_filter_reduces_candidates(self):
        sc = _search_scenario()
        plain = truncated_search(sc)
        filtered = truncated_search(_search_scenario(small_scale_radius=1.0))
        assert filtered.n_evaluated < plain.n_evaluated
        assert filtered.p_md_opt <= plain.p_md_opt * 1.05 + 1e-9

    def test_single_array_skips_the_filter(self):
        sc = build_scenario([("solo", (15.0, 20.0), 6)], alice=(15.0, 10.0),
                            eve=(5.0, 15.0), region=(0, 30, 0, 20),
                            search=SearchConfig(grid_resolution=0.5,
                                                small_scale_radius=2.0))
        r = truncated_search(sc)
        assert r.n_evaluated == min(r.n_lobe_points, sc.search.max_candidates)
        assert count_small_scale_optima(sc) == r.n_allowed

    @pytest.mark.parametrize("tile", [1, 2 * 120, 7 * 120 + 3])
    def test_tile_size_does_not_change_results(self, monkeypatch, tile):
        """One row per tile, fewer rows than the 6-row disc halo, and a tile
        that is not a whole number of 120-cell rows, in bands of one row, of
        fewer rows than the halo and of 17 rows and 5 cells, each on 1, 2 and
        3 worker processes, all give the results of the single default band
        and tile on one, the search's count of small-scale optima included."""
        sc = _search_scenario(small_scale_radius=1.5)

        def searches(threads):
            return (truncated_search(sc, threads),
                    truncated_search(sc, threads, count_optima=True),
                    count_small_scale_optima(sc, threads))

        whole = searches(1)
        assert whole[0].n_grid <= pa._TILE_CELLS <= pa._BAND_CELLS
        assert whole[0].n_optima is None and whole[1].n_optima == whole[2] > 0
        assert replace(whole[1], n_optima=None) == whole[0]
        monkeypatch.setattr(pa, "_TILE_CELLS", tile)
        for band in (1, 4 * 120, 17 * 120 + 5):
            monkeypatch.setattr(pa, "_BAND_CELLS", band)
            for threads in (1, 2, 3):
                assert searches(threads) == whole, (band, threads)

    def test_halo_covers_the_whole_disc(self, monkeypatch):
        """The fields replace the small-scale count, both the fast one that
        the disc filter reads and the float64 one that decides.  On noise
        every disc offset decides some cell's maximum, so deciding
        a row while the tile holds one row short of the 6-cell radius below
        it changes the count; on the second field (every sixth row set,
        falling with y) each set cell is beaten only by the set cell six rows
        before it, so carrying one row short of two radii over to the next
        tile changes it too.  With one-row tiles the halo comes from six
        neighbouring tiles, and with one- and seven-row bands from neighbouring
        bands, each walked by a worker process of its own."""
        sc = _search_scenario(small_scale_radius=1.5)
        tile, band_cells = pa._TILE_CELLS, pa._BAND_CELLS
        for field in (lambda px, py: np.sin(12.9898 * px + 78.233 * py) * 43758.5453 % 1.0,
                      lambda px, py: np.where(np.round(4.0 * py - 0.5) % 6 == 0,
                                              2.0 - 1e-3 * py, 0.0)):
            monkeypatch.setattr(pa, "_point_fields", lambda scenario, ctxs, px, py, objective=True:
                                (px if objective else None, field(px, py)))
            monkeypatch.setattr(pa, "_fast_count", lambda scenario, ctxs, px, py:
                                field(px, py).astype(np.float32))
            monkeypatch.setattr(pa, "_TILE_CELLS", tile)
            monkeypatch.setattr(pa, "_BAND_CELLS", band_cells)
            whole = count_small_scale_optima(sc)
            for rows, band in product((1, 10), (1, 7)):
                monkeypatch.setattr(pa, "_TILE_CELLS", rows * 120)
                monkeypatch.setattr(pa, "_BAND_CELLS", band * 120)
                for threads in (1, 2, 3):
                    assert count_small_scale_optima(sc, threads) == whole, (rows, band, threads)

    def test_optima_count_matches_a_brute_force_disc_maximum(self, monkeypatch):
        """On seeded random deployments, alternating identity and exponential
        correlation, the search's n_optima and count_small_scale_optima both
        equal the allowed cells that are >= every allowed cell of their disc,
        the count taken in float32 as the walk keeps it and the disc scanned
        offset by offset.  The walk runs on two worker processes in bands of
        20 rows and tiles of 7 rows and 3 cells.  One-antenna arrays have a
        flat angular response, so there the lobe cells are the allowed cells;
        elsewhere they are fewer."""
        rng = np.random.default_rng(20)
        monkeypatch.setattr(pa, "_TILE_CELLS", 7 * 160 + 3)
        monkeypatch.setattr(pa, "_BAND_CELLS", 20 * 160)
        cfg = SearchConfig(grid_resolution=0.25, small_scale_radius=1.0)
        lobe_share = []
        for k in range(6):
            sc = random_geometry(rng, 2 + k % 2, n_rx=1 if k == 5 else None,
                                 rho=None if k % 2 else 0.0, region=(0, 40, 0, 30))
            sc = replace(sc, search=cfg)
            xs, ys = grid_axes(sc, 0.25)
            allowed = _allowed_mask(sc, xs, ys)
            gx, gy = np.meshgrid(xs, ys)
            count = np.where(allowed, point_fields(sc, np.column_stack((gx.ravel(), gy.ravel())))[1]
                             .reshape(allowed.shape).astype(np.float32), -np.inf)
            padded = np.pad(count, 4, constant_values=-np.inf)
            is_max = allowed.copy()
            for dy in range(-4, 5):
                for dx in range(-4, 5):
                    if dy * dy + dx * dx <= 16:
                        is_max &= count >= padded[4 + dy:4 + dy + ys.size, 4 + dx:4 + dx + xs.size]
            expected = int(np.count_nonzero(is_max))
            result = truncated_search(sc, threads=2, count_optima=True)
            assert result.n_optima == count_small_scale_optima(sc, threads=2) == expected, k
            assert 0 < expected < result.n_allowed
            lobe_share.append(result.n_lobe_points / result.n_allowed)
        assert max(lobe_share[:5]) < 1.0 == lobe_share[5]
        assert result.n_survivors == result.n_optima     # one grid, one set of maxima

    @pytest.mark.parametrize("tile, band", [(None, None), (1, 20 * 120), (2 * 120, 7 * 120 + 3),
                                            (7 * 120 + 3, 1)], ids=["None", "1", "240", "843"])
    def test_fields_are_evaluated_once_per_cell(self, monkeypatch, tmp_path, tile, band):
        """The walk evaluates each member cell's fast small-scale count
        exactly once per band that walks its row, in its own band or as halo
        rows of the next or the previous one, and a search that also counts the
        small-scale optima each allowed cell's, not once per lobe cell and
        again per allowed cell.  The float64 count is paid once at each cell
        of R, the settle step's set on the fast grid (the contenders and their
        near disc cells; under the optima count, of both grids), which holds
        the survivors and is smaller than the members.  Tiles settle on their
        own, so where discs on both sides of a seam between two tiles' decided
        rows reach a cell of R, both tiles pay for it.  f_obj is evaluated
        only at the filter's survivors, and no call takes more than
        _CHUNK_CELLS cells.  Worker processes record the calls in files.  The
        walk starts min(threads, bands) workers."""
        sc = _search_scenario(small_scale_radius=1.5)
        _, eps_px, xs, ys = pa.search_grid(sc)
        margin = pa._fast_count_error(len(sc.rrhs))
        if tile is not None:
            monkeypatch.setattr(pa, "_TILE_CELLS", tile)
            monkeypatch.setattr(pa, "_BAND_CELLS", band)
        monkeypatch.setattr(pa, "_CHUNK_CELLS", 100)
        workers, serial = [], count()
        point_fields_, fast_count_, forked = pa._point_fields, pa._fast_count, pa._forked

        def record(kind, px, py, values):
            idx = np.searchsorted(ys, py) * xs.size + np.searchsorted(xs, px)
            np.save(tmp_path / f"{kind}.{os.getpid()}.{next(serial)}.npy", np.stack((idx, values)))

        def counted(scenario, ctxs, px, py, objective=True):
            record("f_obj" if objective else "count", px, py, np.zeros(px.size))
            return point_fields_(scenario, ctxs, px, py, objective)

        def fast_counted(scenario, ctxs, px, py):
            out = fast_count_(scenario, ctxs, px, py)
            record("fast", px, py, out)
            return out

        monkeypatch.setattr(pa, "_point_fields", counted)
        monkeypatch.setattr(pa, "_fast_count", fast_counted)
        monkeypatch.setattr(pa, "_forked",
                            lambda n, *jobs: (workers.append(n), forked(n, *jobs))[1])
        band_rows = max(pa._BAND_CELLS // xs.size, 1)
        starts = range(0, ys.size, band_rows)
        allowed = _allowed_mask(sc, xs, ys)
        members = allowed & pa._lobe_mask(_array_contexts(sc), lobe_sets(sc), xs, ys,
                                          pa.search_grid(sc)[0])

        def walked(mask):
            """The fast counts of ``mask``'s cells that the bands' walks take:
            its members plus, at each band seam, those of the halo rows."""
            rows = np.count_nonzero(mask, axis=1)
            return sum(int(rows[max(b0 - eps_px, 0):b0 + band_rows + eps_px].sum())
                       for b0 in starts)

        def cells(search, *args):
            """(fast count cells, float64 count cells, f_obj cells) of one search,
            and the fast grid and calls it recorded."""
            for f in tmp_path.glob("*.npy"):
                f.unlink()
            result = search(sc, *args)
            calls = [(f.name.split(".")[0], np.load(f)) for f in tmp_path.glob("*.npy")]
            assert max(rec.shape[1] for _, rec in calls) <= 100
            fast = np.full((ys.size, xs.size), -np.inf, np.float32)
            for kind, rec in calls:
                if kind == "fast":
                    fast.ravel()[rec[0].astype(np.intp)] = rec[1]
            split = tuple(sum(rec.shape[1] for kind, rec in calls if kind == want)
                          for want in ("fast", "count", "f_obj"))
            return result, split, fast, calls

        def settled(calls, *grids):
            """The float64 count's cells are R of the grids, each once in one tile."""
            got = np.concatenate([rec[0] for kind, rec in calls if kind == "count"])
            expected = set().union(*(_settle_set(g, eps_px, margin) for g in grids))
            assert set(got.astype(np.intp).tolist()) == expected
            assert got.size == len(expected) if tile is None else got.size < 2 * len(expected)
            return len(expected)

        assert walked(members) > np.count_nonzero(members) or tile is None
        for threads in (1, 3):
            trunc, split, fast, calls = cells(truncated_search, threads)
            assert split[::2] == (walked(members), trunc.n_survivors)
            assert np.count_nonzero(members) == trunc.n_lobe_points
            assert trunc.n_survivors <= settled(calls, fast) < trunc.n_lobe_points
            counted_, split, fast, calls = cells(truncated_search, threads, True)
            assert split[::2] == (walked(allowed), counted_.n_survivors)
            assert (counted_.n_optima <= settled(calls, fast, np.where(members, fast, -np.inf))
                    < counted_.n_allowed)
            assert counted_.n_lobe_points < counted_.n_allowed == np.count_nonzero(allowed)
            assert counted_.n_survivors == trunc.n_survivors
        # the 80-row grid is one default band, and at least 4 of any other size
        assert workers == [min(threads, len(starts)) for threads in (1, 3) for _ in range(2)]
        assert max(workers) == (1 if tile is None else 3)

    def test_memory_is_bounded_by_the_tile(self, monkeypatch, tmp_path):
        """Quadrupling the grid leaves the search's peak allocation nearly
        flat, on one walk worker and on two, where each worker process
        records its own peak, from the start of each task it runs.

        Both heights have more survivors than the 1,000-candidate cap, which
        bounds the candidate list, so only a dependence on the grid size
        could raise the peak."""
        monkeypatch.setattr(pa, "_TILE_CELLS", 1 << 12)
        monkeypatch.setattr(pa, "_BAND_CELLS", 1 << 15)
        forked = pa._forked

        def measured(job):
            def run(*args):
                tracemalloc.reset_peak()
                out = job(*args)
                peak = tmp_path / f"peak.{os.getpid()}"
                top = int(peak.read_text()) if peak.exists() else 0
                peak.write_text(str(max(top, tracemalloc.get_traced_memory()[1])))
                return out
            return run

        monkeypatch.setattr(pa, "_forked", lambda n, *jobs: forked(
            n, *(jobs if n == 1 else map(measured, jobs))))

        def peak_bytes(height, threads):
            sc = _search_scenario(height, resolution=0.05, max_candidates=1000)
            for f in tmp_path.glob("peak.*"):
                f.unlink()
            tracemalloc.start()
            try:
                result = truncated_search(sc, threads=threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            workers = [int(f.read_text()) for f in tmp_path.glob("peak.*")]
            assert result.n_survivors > 1000 and (len(workers) > 0) == (threads > 1)
            return max([peak] + workers)

        peak_bytes(20.0, 1)     # first-call imports and caches are not the search's
        for threads in (1, 2):
            assert peak_bytes(80.0, threads) < 1.5 * peak_bytes(20.0, threads), threads

    def test_memory_does_not_grow_with_lobe_density(self, monkeypatch):
        """A search whose one tile is all lobe cells peaks under 1.5 times the
        search whose lobe cells are a 5 % column band of the same tile (the
        lobe mask is replaced by the band, the disc is 3 cells and one
        candidate is kept).  Per lobe cell the walk holds only the tile's
        float32 count grid: the count is evaluated in chunks gathered from the
        rows that hold them, the contenders' discs are gathered in chunks, and
        f_obj is paid at the disc filter's survivors.  (The ratio is 1.30; a
        walk that keeps a flat index of the tile's lobe cells gives 1.60, one
        that evaluates both fields at every lobe cell at once about 7.)"""
        sc = _search_scenario(resolution=0.05, small_scale_radius=0.15, max_candidates=1)
        xs, ys = grid_axes(sc, 0.05)
        assert xs.size * ys.size <= pa._TILE_CELLS and pa.search_grid(sc)[1] == 3

        def peak_bytes(cols):
            band = np.arange(xs.size) < cols
            monkeypatch.setattr(pa, "_lobe_mask", lambda *args: band[None, :])
            tracemalloc.start()
            try:
                members = truncated_search(sc).n_lobe_points
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, members

        peak_bytes(30)      # first-call imports and caches are not the search's
        sparse, dense = peak_bytes(30), peak_bytes(xs.size)
        assert dense[1] > 10 * sparse[1]
        assert dense[0] < 1.5 * sparse[0]

    def test_empty_region(self):
        sc = build_scenario([("r", (50.0, 50.0), 2)], alice=(5.0, 5.0),
                            region=(3, 7, 3, 7),
                            search=SearchConfig(grid_resolution=0.5))
        with pytest.raises(EmptyRegionError):
            truncated_search(sc)

    def test_workers_never_exceed_the_bands(self, monkeypatch):
        """The walk asks its pool for min(threads, bands) workers of the fork
        start method, one band per task whatever ``threads`` is; the pool here
        records that and runs the calls in this process, starting none."""
        import concurrent.futures

        class InlinePool:
            def __init__(self, workers, context, initializer, initargs):
                made.append((workers, context.get_start_method()))
                initializer(*initargs)

            def map(self, fn, *args):
                return map(fn, *args)

            def shutdown(self, cancel_futures):
                assert cancel_futures

        made = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(pa, "_jobs", ())
        sc = _search_scenario(small_scale_radius=1.5)
        whole = truncated_search(sc), count_small_scale_optima(sc)
        assert (truncated_search(sc, 10_000), count_small_scale_optima(sc, 10_000)) == whole
        assert made == []       # one default band: the search runs inline
        for rows, bands in ((20, 4), (7, 12), (1, 80)):
            monkeypatch.setattr(pa, "_BAND_CELLS", rows * 120)
            assert truncated_search(sc, 10_000) == whole[0]
            assert count_small_scale_optima(sc, 10_000) == whole[1]
            assert made[-2:] == [(bands, "fork")] * 2
        assert len(made) == 6 and not multiprocessing.active_children()

    def test_no_worker_outlives_a_search(self, monkeypatch):
        """No worker process is alive after a search on worker processes that
        succeeds, one that finds no allowed cell, or one whose band task fails."""
        sc = _search_scenario(small_scale_radius=1.5)
        monkeypatch.setattr(pa, "_BAND_CELLS", 20 * 120)
        assert truncated_search(sc, 2) == truncated_search(sc)
        assert not multiprocessing.active_children()
        empty = build_scenario([("r", (50.0, 50.0), 2)], alice=(5.0, 5.0), region=(3, 7, 3, 7),
                               search=SearchConfig(grid_resolution=0.5))
        monkeypatch.setattr(pa, "_BAND_CELLS", 8)
        with pytest.raises(EmptyRegionError):
            truncated_search(empty, 3)
        assert not multiprocessing.active_children()
        parent, allowed_mask = os.getpid(), pa._allowed_mask

        def failing(scenario, xs, ys):
            if os.getpid() != parent and ys[0] > 10.0:
                raise RuntimeError("band task failed in a worker")
            return allowed_mask(scenario, xs, ys)

        monkeypatch.setattr(pa, "_BAND_CELLS", 20 * 120)
        monkeypatch.setattr(pa, "_allowed_mask", failing)
        with pytest.raises(RuntimeError, match="band task failed in a worker"):
            truncated_search(sc, 2)
        assert not multiprocessing.active_children()

    def test_no_candidates_when_lobes_miss_the_region(self):
        """The region holds allowed cells but no lobe cell: the search, and so
        its count of the small-scale optima, raises NoCandidatesError."""
        sc = build_scenario([("r", (0.0, 0.0), 8)], alice=(10.0, 0.001),
                            eve=(-15.0, 0.0), region=(-20, -10, -5, 5),
                            search=SearchConfig(grid_resolution=0.5))
        with pytest.raises(NoCandidatesError):
            truncated_search(sc)
        with pytest.raises(NoCandidatesError):
            count_small_scale_optima(sc)


def test_mirror_symmetric_geometry_gives_mirror_fields():
    sc = build_scenario([("r", (0.0, 10.0), 5)], alice=(8.0, 10.0), eve=(5.0, 15.0),
                        region=(-20, 20, 0, 20))
    pts = np.array([[6.0, 14.0], [3.0, 2.5], [12.0, 17.0]])
    mirrored = pts.copy()
    mirrored[:, 1] = 20.0 - mirrored[:, 1]  # reflect across the array axis y=10
    assert np.allclose(point_fields(sc, pts)[0], point_fields(sc, mirrored)[0], rtol=1e-9)


def test_default_resolution_is_a_tenth_wavelength():
    sc = build_scenario([("r", (1.0, 30.0), 2)], region=(0, 2, 0, 2), fc=2.4e9)
    r = exhaustive_search(sc.with_eve((1.9, 1.9)))
    xs, ys = grid_axes(sc, wavelength(2.4e9) / 10.0)
    assert r.n_grid == xs.size * ys.size == 160 * 160


def _candidate_label(ctxs, lobes, x, y):
    """The labelling rule one point at a time: the oracle for the search's labels."""
    omegas = [float(_point_geometry(ctx, np.array([x]), np.array([y]))[1][0]) for ctx in ctxs]
    in_side = []
    for ctx, al, om in zip(ctxs, lobes.per_array, omegas):
        if al.main.omega_lo <= om <= al.main.omega_hi:
            return f"main:{ctx.rrh_id}"
        in_side.append(any(b.omega_lo <= om <= b.omega_hi for b in al.sidelobes))
    for i in range(len(ctxs)):
        for j in range(i + 1, len(ctxs)):
            if in_side[i] and in_side[j]:
                return f"sidelobes:{ctxs[i].rrh_id}+{ctxs[j].rrh_id}"
    return "other"


def test_labels_follow_the_per_point_rule():
    for sc in (_search_scenario(), load_scenario(SCENARIOS / "desk_2rrh.json")):
        ctxs, lobes = _array_contexts(sc), lobe_sets(sc)
        cands = truncated_search(sc).candidates
        assert [c.label for c in cands] == [_candidate_label(ctxs, lobes, *c.position)
                                            for c in cands]
    # a candidate passed the float32 lobe masks, so float64 labels it too
    assert "other" not in {c.label for c in cands}


def _restricted_and_dense_lobe_masks(monkeypatch, sc, res, rows):
    """The search's _lobe_mask over the grid at ``res`` in tiles of ``rows``
    rows, as (restricted, dense) pairs per tile, and the number of tiles whose
    band masks ran on fewer than all columns."""
    ctxs, lobes = _array_contexts(sc), lobe_sets(sc)
    xs, ys = grid_axes(sc, res)
    pairs, restricted = [], 0
    for r0 in range(0, ys.size, rows):
        tile_ys = ys[r0:r0 + rows]
        restricted += isinstance(pa._lobe_columns(ctxs, lobes, xs, tile_ys, res), np.ndarray)
        got = pa._lobe_mask(ctxs, lobes, xs, tile_ys, res)
        with monkeypatch.context() as m:
            m.setattr(pa, "_lobe_columns", lambda *args: slice(None))
            pairs.append((got, pa._lobe_mask(ctxs, lobes, xs, tile_ys, res)))
    return pairs, restricted


def _walk_counts(sc, monkeypatch):
    """The walk's fast small-scale count of every cell of the search grid,
    row-major, as the disc filter reads it: -inf off the allowed cells."""
    decided, maxima = [], pa._disc_local_maxima

    def record(grid, r0, r1, *args):
        decided.append(np.vstack(grid)[r0:r1])
        return maxima(grid, r0, r1, *args)

    monkeypatch.setattr(pa, "_disc_local_maxima", record)
    count_small_scale_optima(sc)
    return np.concatenate(decided[::2]).ravel()     # a tile's full grid, then its members'


def _disc_maxima(count, eps_px):
    """Flat indices of the cells of ``count`` (-inf off the members) that are
    >= every cell of their disc of radius ``eps_px``, offset by offset."""
    e, (ny, nx) = eps_px, count.shape
    padded = np.pad(count, e, constant_values=-np.inf)
    is_max = count != -np.inf
    for dy in range(-e, e + 1):
        for dx in range(-e, e + 1):
            if dy * dy + dx * dx <= e * e:
                is_max &= count >= padded[e + dy:e + dy + ny, e + dx:e + dx + nx]
    return np.flatnonzero(is_max)


def _settle_set(fast, eps_px, margin):
    """R of _disc_local_maxima's settle step on a whole fast-count grid
    (-inf off the members), as a set of flat indices: the contenders, members
    within 2e of their disc's maximum, and each contender's disc cells above
    its count less 2e, offset by offset."""
    e, (ny, nx) = eps_px, fast.shape
    padded = np.pad(fast, e, constant_values=-np.inf)
    offsets = [(dy, dx) for dy in range(-e, e + 1) for dx in range(-e, e + 1)
               if dy * dy + dx * dx <= e * e]
    disc = np.max([padded[e + dy:e + dy + ny, e + dx:e + dx + nx] for dy, dx in offsets], axis=0)
    contenders = (fast != -np.inf) & (fast >= disc - 2.0 * margin)
    found = set()
    for dy, dx in offsets:
        near = contenders & (padded[e + dy:e + dy + ny, e + dx:e + dx + nx] > fast - 2.0 * margin)
        iy, ix = np.nonzero(near)
        found.update(((iy + dy) * nx + ix + dx).tolist())
    return found


def _walk_maxima(sc, threads):
    """(survivor flat indices, row-major, and number of optima) of the search,
    with a candidate cap that keeps every survivor."""
    xs, ys = pa.search_grid(sc)[2:]
    r = truncated_search(replace(sc, search=replace(sc.search, max_candidates=xs.size * ys.size)),
                         threads, count_optima=True)
    idx = [np.searchsorted(ys, y) * xs.size + np.searchsorted(xs, x)
           for x, y in (c.position for c in r.candidates)]
    assert len(idx) == r.n_survivors
    return np.sort(idx), r.n_optima


class TestCountOracle:
    """conftest's count_oracle is the full Dirichlet kernel on centres
    x_min + (idx % nx + 0.5) res.  On every allowed cell, the float64 count
    that decides the disc maxima (_point_fields on the grid axes' centres)
    equals it bit for bit, and the walk's float32 filter grid is _fast_count
    on those centres, within e/16 of it.  The walk's survivors and optima,
    in tiles of 7 rows and bands of 30 rows on one and on three worker
    processes, are the disc maxima of
    the oracle's float32 grid, over the lobe cells and over the allowed cells."""

    @staticmethod
    def check(sc, monkeypatch):
        counts = _walk_counts(sc, monkeypatch)
        xs, ys = grid_axes(sc, sc.search.grid_resolution)
        allowed = _allowed_mask(sc, xs, ys)
        assert np.array_equal(counts != -np.inf, allowed.ravel())
        idx = np.flatnonzero(allowed)
        ctxs, px, py = _array_contexts(sc), xs[idx % xs.size], ys[idx // xs.size]
        oracle = count_oracle(sc, idx)
        exact = pa._point_fields(sc, ctxs, px, py, objective=False)[1].astype(np.float32)
        assert np.array_equal(exact.view(np.uint32), oracle.view(np.uint32))
        fast = pa._fast_count(sc, ctxs, px, py)
        assert np.array_equal(counts[idx].view(np.uint32), fast.view(np.uint32))
        assert np.max(np.abs(fast.astype(float) - oracle)) <= pa._fast_count_error(len(ctxs)) / 16

        grid = np.full(allowed.shape, -np.inf, np.float32)
        grid.ravel()[idx] = oracle
        res, eps_px = pa.search_grid(sc)[:2]
        monkeypatch.setattr(pa, "_TILE_CELLS", 7 * xs.size + 3)
        monkeypatch.setattr(pa, "_BAND_CELLS", 30 * xs.size + 1)
        members = pa._lobe_mask(ctxs, lobe_sets(sc), xs, ys, res)
        walks = [_walk_maxima(sc, threads) for threads in (1, 3)]
        survivors = _disc_maxima(np.where(members, grid, -np.inf), eps_px)
        optima = _disc_maxima(grid, eps_px).size
        for got in walks:
            assert got[0].tolist() == survivors.tolist() and got[1] == optima

    def test_random_deployments(self, monkeypatch):
        for seed in range(6):
            # even seeds: identity correlation; odd seeds: exponential
            sc = random_geometry(np.random.default_rng(90 + seed), 2 + seed % 2,
                                 rho=0.5 if seed % 2 else 0.0)
            self.check(replace(sc, search=SearchConfig(0.25, small_scale_radius=0.75)),
                       monkeypatch)

    @pytest.mark.parametrize("alice, axis, offset", [((30.125, 10.125), (0.0, 1.0), 0.0),
                                                      ((4.125, 10.125), (1.0, 0.0), 2.0)],
                             ids=["bearing", "endfire"])
    def test_pole_cells(self, monkeypatch, alice, axis, offset):
        """A grid row through the array's own row of cells holds cells at the
        offset x = 0 from Alice's bearing (broadside) or at x = 2 with s = 1/2
        (Alice endfire behind the array); there sin(pi s x) is a pole.  With 13
        antennas sin(pi s n x) x has the sign of the pole limit at x = 0 by
        no rounding and at x = 2 by the wrong one."""
        sc = build_scenario([("row", (10.125, 10.125), 13, axis), ("far", (35.0, 2.0), 4)],
                            alice=alice, region=(0, 40, 0, 20),
                            search=SearchConfig(0.25, small_scale_radius=0.75))
        ctx = _array_contexts(sc)[0]
        xs, ys = grid_axes(sc, 0.25)
        row = _allowed_mask(sc, xs, ys[40:41])[0]
        x = _point_geometry(ctx, xs, ys[40])[1] - ctx.omega_a
        assert np.count_nonzero(row & (x == offset)) > 50
        self.check(sc, monkeypatch)

    def test_spacing_above_one_half(self, monkeypatch):
        """At s = 0.75 sin(pi s x) changes sign inside the visible region (|s x| > 1)."""
        sc = replace(random_geometry(np.random.default_rng(97), 2, rho=0.0), antenna_spacing=0.75,
                     search=SearchConfig(0.25, small_scale_radius=0.75))
        xs, ys = grid_axes(sc, 0.25)
        ctx = _array_contexts(sc)[0]
        x = _point_geometry(ctx, xs[None, :], ys[:, None])[1] - ctx.omega_a
        assert np.count_nonzero(np.abs(0.75 * x) > 1.0) > 1000
        self.check(sc, monkeypatch)

    def test_cells_on_a_null_take_the_float64_sign(self):
        """Along an array's axis omega is exactly ±1, so with omega_A = 1/2
        the cells on the far side sit at x = 1/2, where s n x = 1 is a null of
        sin(pi s n x): the parity of floor(s n x) says g < 0, while the float64
        route's sine of the rounded pi says g > 0.  The fast count takes the
        float64 sign there and stays within e/16 of _point_fields' count."""
        sc = build_scenario([("axis", (10.0, 10.0), 4), ("far", (35.0, 2.0), 4)],
                            search=SearchConfig(0.25, small_scale_radius=0.75))
        ctxs = _array_contexts(sc)
        ctxs[0] = replace(ctxs[0], omega_a=0.5)
        px, py = 10.0 + np.arange(1, 200) * 0.25, np.full(199, 10.0)
        assert np.all(_point_geometry(ctxs[0], px, py)[1] - 0.5 == 0.5)
        exact = pa._point_fields(sc, ctxs, px, py, objective=False)[1].astype(np.float32)
        fast = pa._fast_count(sc, ctxs, px, py)
        assert np.max(np.abs(fast.astype(float) - exact)) <= pa._fast_count_error(2) / 16


def test_float32_cos_and_sin_err_by_under_two_ulp():
    """_fast_count's bound takes numpy's float32 cos and sin within 2 ulp on
    [-pi, pi]; checked on every 4,099th float32 there."""
    x = np.arange(0, int(np.float32(np.pi).view(np.uint32)) + 1, 4099, dtype=np.uint32)
    x = np.concatenate((x.view(np.float32), -x.view(np.float32)))
    for fun in (np.cos, np.sin):
        exact = fun(x.astype(float))
        ulp = np.spacing(np.abs(exact).astype(np.float32)).astype(float)
        assert np.max(np.abs(fun(x) - exact) / ulp) < 2.0, fun


def test_filter_noise_within_half_the_margin_changes_nothing(monkeypatch, tmp_path, capsys):
    """The fast count may be off by e in either direction: with seeded
    noise in [-e/2, e/2] added to it, the survivors, the optima, every
    candidate and the bytes of ``optimize --out`` stay the same."""
    sc = _search_scenario(small_scale_radius=1.5)
    margin, fast_count = pa._fast_count_error(2), pa._fast_count
    reference = [truncated_search(sc, 2, True), _walk_maxima(sc, 2)[0].tolist()]
    main(["optimize", "--scenario", str(SCENARIOS / "desk_2rrh.json"),
          "--out", str(tmp_path / "reference.json")])
    rng = np.random.default_rng(21)
    monkeypatch.setattr(pa, "_fast_count", lambda scenario, ctxs, px, py: (
        fast_count(scenario, ctxs, px, py) + rng.uniform(-margin / 2, margin / 2, px.size)
    ).astype(np.float32))
    noisy = [truncated_search(sc, 2, True), _walk_maxima(sc, 2)[0].tolist()]
    assert noisy == reference
    main(["optimize", "--scenario", str(SCENARIOS / "desk_2rrh.json"),
          "--out", str(tmp_path / "noisy.json")])
    capsys.readouterr()
    assert (tmp_path / "noisy.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


class TestRestrictedBandMasks:
    """_lobe_mask evaluates the float32 band masks only on the columns that
    _lobe_columns keeps; the masks must equal the dense ones bit for bit."""

    @pytest.mark.parametrize("name", ["desk_2rrh", "reference_1rrh16", "reference_2rrh8",
                                      "reference_3rrh"])
    def test_committed_scenarios(self, monkeypatch, name):
        sc = load_scenario(SCENARIOS / f"{name}.json")
        res = pa.search_grid(sc)[0]
        rows = pa._TILE_CELLS // grid_axes(sc, res)[0].size
        pairs, restricted = _restricted_and_dense_lobe_masks(monkeypatch, sc, res, rows)
        for got, dense in pairs:
            assert np.array_equal(got, dense)
        assert restricted > 0 or name == "reference_3rrh"

    def test_random_deployments(self, monkeypatch):
        restricted = 0
        kinds = set()
        for seed in range(100):
            # odd seeds: identity correlation; even seeds: exponential, rho in (0, 0.7)
            sc = random_geometry(np.random.default_rng(seed), rho=0.0 if seed % 2 else None,
                                 region=(0, 40, 0, 30))
            kinds.add("exponential" if sc.rho else "identity")
            pairs, n = _restricted_and_dense_lobe_masks(monkeypatch, sc, 0.05, 150)
            restricted += n
            for got, dense in pairs:
                assert np.array_equal(got, dense), seed
        assert kinds == {"identity", "exponential"} and restricted > 200

    @pytest.mark.parametrize("axis", [(1.0, 0.0), (-1.0, 0.0)])
    def test_grazing_bearing(self, monkeypatch, axis):
        """Alice on the axis of an array whose axis runs along the grid rows:
        her main lobe is the endfire wedge hugging that row."""
        sc = build_scenario([("row", (10.0, 30.0), 8, axis), ("col", (40.0, 2.0), 4, (0.0, 1.0))],
                            alice=(50.0, 30.0))
        assert abs(pa._array_contexts(sc)[0].omega_a) == 1.0
        pairs, restricted = _restricted_and_dense_lobe_masks(monkeypatch, sc, 0.05, 7)
        assert restricted > 0 and any(dense.any() for _, dense in pairs)
        for got, dense in pairs:
            assert np.array_equal(got, dense)


def test_band_distance_equals_hypotf(rng):
    """_band_masks decides on the float32 distance that np.hypot (libm's
    hypotf) gives, bit for bit, on random tiles that reach within 1 m of an
    array.  Band edges placed exactly on the float32 angular sines of random
    cells make a one-ulp change of a distance flip a mask."""
    near = 0
    for k in range(12):
        sc = random_geometry(rng, int(rng.integers(1, 4)), rho=0.0 if k % 2 else None)
        for ctx in _array_contexts(sc):
            res = float(rng.choice([1e-3, 0.0125, 0.05, 0.3]))
            x0, y0 = ctx.position + rng.uniform(-60.0, 0.0, 2) * res
            xs = x0 + (np.arange(int(rng.integers(50, 150))) + 0.5) * res
            ys = y0 + (np.arange(int(rng.integers(50, 150))) + 0.5) * res
            dx = (xs - ctx.position[0]).astype(np.float32)
            dy = (ys - ctx.position[1]).astype(np.float32)
            dist = np.hypot(dx[None, :], dy[:, None])
            omega = ((dx[None, :] * np.float32(ctx.axis[0]) + dy[:, None] * np.float32(ctx.axis[1]))
                     / dist)
            near += int(np.count_nonzero(dist < 1.0))
            edges = np.sort(rng.choice(omega.ravel(), 7, replace=False)).astype(float)
            lobes = ArrayLobes(ctx.rrh_id, ctx.omega_a, LobeBand(edges[0], edges[1], 1.0),
                               (LobeBand(edges[2], edges[3], 1.0), LobeBand(edges[4], edges[4], 1.0),
                                LobeBand(edges[5], edges[6], 1.0)))
            for got, want in zip(_band_masks(ctx, lobes, xs, ys), _in_bands(lobes, omega)):
                assert np.array_equal(got, want), k
                assert want.any() and not want.all()
    assert near > 1000


def _dense_allowed_mask(sc, xs, ys):
    """_allowed_mask's rule on every cell: float32 squared distances to each centre."""
    xs32, ys32 = xs.astype(np.float32), ys.astype(np.float32)
    allowed = np.ones((ys.size, xs.size), bool)
    for (cx, cy), r in [(sc.alice.position, sc.exclusion_alice)] + [
            (rrh.position, sc.exclusion_rrh) for rrh in sc.rrhs]:
        allowed &= np.add.outer((ys32 - cy) ** 2, (xs32 - cx) ** 2) >= r ** 2
    return allowed


def test_allowed_mask_equals_the_dense_mask():
    """_allowed_mask evaluates each disc only on its bounding box of rows
    and columns; the mask must equal the dense one bit for bit, on the
    committed scenarios (in the walk's row tiles) and on random deployments."""
    excluded = 0
    for name in ("desk_2rrh", "reference_1rrh16", "reference_2rrh8", "reference_3rrh"):
        sc = load_scenario(SCENARIOS / f"{name}.json")
        xs, ys = pa.search_grid(sc)[2:]
        rows = pa._TILE_CELLS // xs.size
        for r0 in range(0, ys.size, rows):
            got = _allowed_mask(sc, xs, ys[r0:r0 + rows])
            assert np.array_equal(got, _dense_allowed_mask(sc, xs, ys[r0:r0 + rows])), (name, r0)
            excluded += int(np.count_nonzero(~got))
    for seed in range(100):
        sc = random_geometry(np.random.default_rng(seed))
        xs, ys = grid_axes(sc, 0.05)
        got = _allowed_mask(sc, xs, ys)
        assert np.array_equal(got, _dense_allowed_mask(sc, xs, ys)), seed
        excluded += int(np.count_nonzero(~got))
    assert excluded > 0


def test_column_scan_slack_covers_float32_rounding():
    """Far from an array the geometric widening h/(r - h) of _lobe_columns
    exceeds the largest change of omega over h = 16 cells by only about
    h²/r² plus (1 - cos)·h/r terms of the tilt, less than float32 rounding
    of omega in _band_masks.  Here a 1 mm grid row lies about 18 km (1.8e7
    cells) from an array tilted by 0.06 rad, and the main band ends at the
    float32 omega of the first cell of a scan run: that cell is in the
    band, its run's centre lies beyond the widened edge, and only the
    1e-5 slack keeps the column."""
    th = 0.06
    sc = build_scenario([("far", (0.0, 0.0), 8, (np.cos(th), np.sin(th)))],
                        alice=(-360.0, 18011.0), region=(-361, -359, 18011, 18011.001))
    ctx = _array_contexts(sc)[0]
    res = 1e-3
    xs, ys = grid_axes(sc, res)
    assert ys.size == 1
    dx, dy = (xs - ctx.position[0]).astype(np.float32), (ys - ctx.position[1]).astype(np.float32)
    om32 = ((dx * np.float32(ctx.axis[0]) + dy * np.float32(ctx.axis[1])) / np.hypot(dx, dy))
    k = pa._SCAN_STRIDE
    h = k // 2 * res
    first = np.arange(0, xs.size - k + 1, k)
    dist, om = _point_geometry(ctx, xs[first + k // 2], ys[0])
    # how far each run's centre lies beyond a band ending at its first cell,
    # less the geometric widening: positive where only the slack keeps the run
    beyond = om - om32[first] - h / (dist - h)
    run = int(np.argmax(beyond))
    assert np.all(np.diff(om32) >= 0) and beyond[run] > 0
    band = pa.LobeBand(-1.0, float(om32[first[run]]), 8.0)
    lobes = pa.LobeSets(2.0, (pa.ArrayLobes("far", ctx.omega_a, band, ()),))
    dense = _band_masks(ctx, lobes.per_array[0], xs, ys)[0]
    assert dense[0, first[run]] and not dense[0, first[run] + k // 2]
    assert np.array_equal(pa._lobe_mask([ctx], lobes, xs, ys, res), dense)


def test_float32_masks_differ_from_float64_only_at_edges():
    """Exclusion and band membership are decided in float32; a cell may flip
    against float64 only within float32 rounding of a radius or band edge."""
    u = 2.0 ** -24     # float32 unit roundoff
    sc = random_geometry(np.random.default_rng(20), n_rrh=2)
    xs, ys = grid_axes(sc, 0.05)
    gx, gy = np.meshgrid(xs, ys)
    coord = 80.0       # largest coordinate magnitude: the region is [0, 80] x [0, 60]
    allowed, near = np.ones(gx.shape, bool), np.zeros(gx.shape, bool)
    for (cx, cy), r in [(sc.alice.position, sc.exclusion_alice)] + [
            (rrh.position, sc.exclusion_rrh) for rrh in sc.rrhs]:
        d = np.hypot(gx - cx, gy - cy)
        allowed &= d >= r
        # float32 rounds x, the centre and their difference (each off by at
        # most u·coord), then the squares, their sum and r² (each off by
        # u·r² near the edge): near d = r that moves d by at most
        # 3√2·u·coord + 1.5·u·r, well inside 8·u·(coord + r)
        near |= np.abs(d - r) <= 8 * u * (coord + r)
    excl_flips = _allowed_mask(sc, xs, ys) != allowed
    assert np.all(near[excl_flips])
    band_flips = 0
    for ctx, al in zip(_array_contexts(sc), lobe_sets(sc).per_array):
        _, om = _point_geometry(ctx, gx, gy)
        main32, side32 = _band_masks(ctx, al, xs, ys)
        inside = [(b.omega_lo <= om) & (om <= b.omega_hi) for b in (al.main, *al.sidelobes)]
        # relative to the distance, float32 rounds dx, dy, the axis, the
        # products and their sum ((3√2 + 1)·u in the numerator), the hypot
        # (2·u) and the quotient (u), and the edge itself rounds by u:
        # under 10·u in all, inside the 16·u used here
        near = np.min([np.abs(om - e) for b in (al.main, *al.sidelobes)
                       for e in (b.omega_lo, b.omega_hi)], axis=0) <= 16 * u
        for mask32, mask64 in ((main32, inside[0]),
                               (side32, np.logical_or.reduce([np.zeros_like(main32)] + inside[1:]))):
            diff = mask32 != mask64
            assert np.all(near[diff])
            band_flips += int(diff.sum())
    # this grid meets both kinds of edge, so neither check above is vacuous
    assert excl_flips.any() and band_flips > 0
