"""The ten headline checks, one test per criterion.

Each test prints a single pass/fail line with its runtime (use ``pytest -s``
to see the lines for passing tests) and fails with the list of violated
sub-checks otherwise.  Seeds are fixed, so every criterion is deterministic.
"""
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from conftest import (build_scenario, correlation_matrix, exhaustive_search, f_obj,
                      point_fields, random_geometry, sample_channel)
from distpla import (ArrivalModel, ServiceModel,
                     acceptance_event, alice_statistics,
                     best_case_acceptance_event, delay_violation_bound,
                     discriminant, estimate_probability, eve_statistics,
                     load_scenario, make_authenticator,
                     mdp_optimal_pma, optimal_power_strategy,
                     pfa_of_threshold, rice_means,
                     simulate_queue_delays, stability_margin,
                     statistical_power_strategy, steering_vector,
                     threshold_for_pfa, truncated_search)
from distpla.cli import main as cli_main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _finish(num: int, name: str, t0: float, budget: float, failures: list[str]):
    elapsed = time.perf_counter() - t0
    if elapsed >= budget:
        failures = failures + [f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget"]
    tag = "PASS" if not failures else "FAIL"
    line = f"[{tag}] criterion {num:02d} {name}: {elapsed:.1f}s / {budget:.0f}s budget"
    print(line)
    assert not failures, line + "".join(f"\n  - {f}" for f in failures)


def _sigma(p_hat: float, p_model: float, n: int) -> float:
    """Binomial standard error, robust to zero-hit and all-hit estimates."""
    p = max(p_hat, p_model, 1.0 / n)
    return math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def test_criterion_01_false_alarm_calibration():
    t0 = time.perf_counter()
    failures: list[str] = []
    layouts = {
        4: [("a", (10.0, 55.0), 2)],
        12: [("a", (10.0, 55.0), 2), ("b", (70.0, 55.0), 4)],
        16: [("a", (10.0, 55.0), 8)],
        32: [("a", (10.0, 55.0), 8), ("b", (70.0, 55.0), 8)],
    }
    n = 1_000_000
    for dof, rrhs in layouts.items():
        sc = build_scenario(rrhs)
        auth = make_authenticator(sc)
        if auth.total_dof != dof:
            failures.append(f"layout for dof={dof} came out as {auth.total_dof}")
            continue
        stats = alice_statistics(sc)
        rng = np.random.default_rng(dof)
        d = np.empty(n)
        done = 0
        while done < n:
            m = min(65_536, n - done)
            d[done:done + m] = discriminant(auth, sample_channel(stats, rng, m))
            done += m
        for p_star in (1e-3, 1e-2, 1e-1):
            thr = threshold_for_pfa(p_star, dof)
            back = pfa_of_threshold(thr, dof)
            if abs(back - p_star) > 1e-9:
                failures.append(f"roundtrip dof={dof} p*={p_star}: {back}")
            emp = float(np.mean(d >= thr))
            sig = math.sqrt(p_star * (1.0 - p_star) / n)
            if abs(emp - p_star) > 3.0 * sig:
                failures.append(
                    f"H0 rate dof={dof} p*={p_star}: emp={emp:.3e} vs 3sig={3 * sig:.3e}")
    _finish(1, "false-alarm calibration", t0, 10.0, failures)


def test_criterion_02_strategy_optimality():
    t0 = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(42)
    for g in range(50):
        sc = random_geometry(rng)
        auth = make_authenticator(sc)
        block = sample_channel(eve_statistics(sc), rng, 20)
        for k, h in enumerate(block):
            strat, d_min = optimal_power_strategy(auth, h)
            eta = rng.uniform(0.05, 4.0)
            psi = rng.uniform(-np.pi, np.pi)
            d_rand = float(discriminant(auth, eta * np.exp(1j * psi) * h))
            d_star = float(discriminant(auth, strat.scale * h))
            if d_rand < d_min - 1e-9:
                failures.append(f"tuple {g}/{k}: d({eta:.3f},{psi:.3f})={d_rand} < {d_min}")
            if abs(d_star - d_min) > 1e-9:
                failures.append(f"tuple {g}/{k}: optimum off by {abs(d_star - d_min):.2e}")
    _finish(2, "optimal-strategy optimality", t0, 5.0, failures)


# criterion 3 support: Eve on the array-to-Alice ray, pushed sideways until
# the closed form lands near a target miss level
_ALICE = np.array([40.0, 30.0])
_RRH = np.array([40.0, 55.0])
_RAY = (_ALICE - _RRH) / np.linalg.norm(_ALICE - _RRH)
_PERP = np.array([-_RAY[1], _RAY[0]])


def _ray_scenario(n_rx: int, k_db: float, radial: float, lateral: float):
    eve = _RRH + _RAY * 25.0 * radial + _PERP * lateral
    return build_scenario([("solo", tuple(_RRH), n_rx)], alice=tuple(_ALICE),
                          eve=(float(eve[0]), float(eve[1])), rice_db=k_db)


def _closed_at(n_rx: int, k_db: float, radial: float, lateral: float):
    sc = _ray_scenario(n_rx, k_db, radial, lateral)
    auth = make_authenticator(sc)
    return mdp_optimal_pma(auth, eve_statistics(sc), method="auto"), sc


def _lateral_for_target(n_rx: int, k_db: float, radial: float, target: float) -> float:
    lo, hi = 0.0, 0.25
    p_hi, _ = _closed_at(n_rx, k_db, radial, hi)
    while p_hi > target and hi < 30.0:
        lo, hi = hi, hi * 2.0
        p_hi, _ = _closed_at(n_rx, k_db, radial, hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        p_mid, _ = _closed_at(n_rx, k_db, radial, mid)
        if p_mid > target:
            lo = mid
        else:
            hi = mid
    return hi


def test_criterion_03_single_array_triple_agreement():
    t0 = time.perf_counter()
    failures: list[str] = []
    combos = [(n, k) for n in (2, 4, 8) for k in (3.0, 6.0, 12.0)]
    targets = np.logspace(math.log10(2e-4), math.log10(0.45), 10)
    n = 1_000_000
    in_band = 0
    for i in range(20):
        n_rx, k_db = combos[i % 9]
        radial = (1.0, 0.9, 1.15, 0.8, 1.25)[i % 5]
        if i % 2 == 0:
            lateral = 0.05 * (i % 5)
        else:
            lateral = _lateral_for_target(n_rx, k_db, radial, float(targets[(i // 2) % 10]))
        closed, sc = _closed_at(n_rx, k_db, radial, lateral)
        auth = make_authenticator(sc)
        ev = eve_statistics(sc)
        saddle = mdp_optimal_pma(auth, ev, method="saddlepoint")
        mc = estimate_probability(best_case_acceptance_event(auth), ev, n, seed=100 + i).value[0]
        sig = _sigma(mc, closed, n)
        if abs(closed - mc) > 3.0 * sig:
            failures.append(f"case {i} (N={n_rx}, K={k_db}dB): closed={closed:.4e} "
                            f"vs mc={mc:.4e} (3sig={3 * sig:.2e})")
        if 1e-4 <= closed <= 0.5:
            in_band += 1
            if abs(saddle - closed) > 0.25 * closed:
                failures.append(f"case {i}: saddle={saddle:.4e} vs closed={closed:.4e}")
    if in_band < 5:
        failures.append(f"only {in_band} cases landed in the saddle-check band")
    _finish(3, "single-array triple agreement", t0, 120.0, failures)


def test_criterion_04_multi_array_saddlepoint_validation():
    t0 = time.perf_counter()
    failures: list[str] = []
    # the committed attacker position misses too rarely for a 1e6-sample
    # check, so the sweep pins Eve where every point is resolvable
    base = load_scenario(SCENARIOS / "reference_3rrh.json").with_eve((58.0, 34.0))
    n = 1_000_000
    seed = 0
    for rho in (0.0, 0.3, 0.6):
        sc = replace(base, rho=rho)
        ev = eve_statistics(sc)
        for pfa in np.logspace(-4.0, -1.0, 5):
            auth = make_authenticator(replace(sc, false_alarm_target=float(pfa)))
            sp = mdp_optimal_pma(auth, ev, method="saddlepoint")
            mc = estimate_probability(best_case_acceptance_event(auth), ev, n, seed=seed).value[0]
            seed += 1
            tol = max(3.0 * _sigma(mc, sp, n), 0.25 * mc)
            if abs(sp - mc) > tol:
                failures.append(f"rho={rho} pfa={pfa:.1e}: saddle={sp:.4e} "
                                f"vs mc={mc:.4e} (tol={tol:.2e})")
    _finish(4, "multi-array saddle-point validation", t0, 300.0, failures)


def test_criterion_05_expansion_identity():
    t0 = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(5)
    worst_rel = 0.0
    worst_imag = 0.0
    for kind in ("identity", "exponential"):
        for _ in range(1000):
            rho = 0.0 if kind == "identity" else float(rng.uniform(0.05, 0.7))
            sc = random_geometry(rng, rho=rho)
            auth = make_authenticator(sc)
            ev = eve_statistics(sc)
            direct = float(f_obj(auth, ev.mean))
            expanded = float(point_fields(sc, sc.eve.position)[0][0])
            rel = abs(direct - expanded) / max(abs(direct), abs(expanded))
            worst_rel = max(worst_rel, rel)
            omegas_a = rice_means(sc, sc.alice.position)[3][0]
            omegas_e = rice_means(sc, sc.eve.position)[3][0]
            for rrh, om_a, om_e in zip(sc.rrhs, omegas_a, omegas_e):
                n_ant = rrh.num_antennas
                lam_inv = np.linalg.inv(correlation_matrix(sc.rho, n_ant))
                e_a = steering_vector(om_a, n_ant, sc.antenna_spacing)
                e_e = steering_vector(om_e, n_ant, sc.antenna_spacing)
                s_val = complex(e_e.conj() @ (lam_inv @ e_a))
                g = s_val * np.exp(-1j * np.pi * (n_ant - 1) * sc.antenna_spacing
                                   * (om_e - om_a))
                peak = float((e_a.conj() @ (lam_inv @ e_a)).real)
                worst_imag = max(worst_imag, abs(g.imag) / peak)
    if worst_rel > 1e-9:
        failures.append(f"expansion mismatch up to rel {worst_rel:.2e}")
    if worst_imag > 1e-9:
        failures.append(f"angular product imaginary residual {worst_imag:.2e}")
    _finish(5, "expansion identity", t0, 10.0, failures)


def test_criterion_06_truncated_search_fidelity():
    t0 = time.perf_counter()
    failures: list[str] = []
    sc = load_scenario(SCENARIOS / "desk_2rrh.json")
    trunc = truncated_search(sc)
    full = exhaustive_search(sc)
    if trunc.best.f_obj < 0.99 * full.best.f_obj:
        failures.append(f"truncated best {trunc.best.f_obj:.6f} below 0.99 x "
                        f"exhaustive {full.best.f_obj:.6f}")
    if trunc.p_md_opt < 0.99 * full.p_md_opt:
        failures.append(f"truncated p_md {trunc.p_md_opt:.6g} below 0.99 x "
                        f"exhaustive {full.p_md_opt:.6g}")
    fraction = trunc.n_lobe_points / trunc.n_grid
    if fraction >= 0.35:
        failures.append(f"searched fraction {fraction:.3f} not under 0.35")
    _finish(6, "truncated-search fidelity", t0, 600.0, failures)


def test_criterion_07_deployment_ordering():
    t0 = time.perf_counter()
    failures: list[str] = []
    single = truncated_search(load_scenario(SCENARIOS / "reference_1rrh16.json"))
    dual = truncated_search(load_scenario(SCENARIOS / "reference_2rrh8.json"))
    if single.p_md_opt < 0.95:
        failures.append(f"single 16-antenna array p_md {single.p_md_opt:.4f} < 0.95")
    if dual.p_md_opt > single.p_md_opt * 1e-2:
        failures.append(f"dual 8+8 p_md {dual.p_md_opt:.3e} not two orders below "
                        f"single {single.p_md_opt:.3e}")
    _finish(7, "deployment ordering", t0, 900.0, failures)


def test_criterion_08_attack_knowledge_ordering():
    t0 = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(808)
    n = 40_000
    for g in range(50):
        sc = random_geometry(rng, rho=0.0)
        sc = replace(sc, rice_factor=10.0 ** (rng.uniform(6.0, 12.0) / 10.0))
        auth = make_authenticator(sc)
        ev = eve_statistics(sc)
        p_none = estimate_probability(acceptance_event(auth), ev, n, seed=3 * g)
        strat = statistical_power_strategy(auth, ev)
        p_stat = estimate_probability(acceptance_event(auth, scale=strat.scale),
                                      ev, n, seed=3 * g + 1)
        p_opt = estimate_probability(best_case_acceptance_event(auth), ev, n,
                                     seed=3 * g + 2)
        (s_none,), (s_stat,), (s_opt,) = (e.std_error for e in (p_none, p_stat, p_opt))
        (v_none,), (v_stat,), (v_opt,) = (e.value for e in (p_none, p_stat, p_opt))
        s1 = math.hypot(s_none, s_stat) + 1e-12
        s2 = math.hypot(s_stat, s_opt) + 1e-12
        if v_none > v_stat + 3.0 * s1:
            failures.append(f"geometry {g}: none={v_none:.4e} above "
                            f"statistical={v_stat:.4e} + 3sig")
        if v_stat > v_opt + 6.0 * s2:
            failures.append(f"geometry {g}: statistical={v_stat:.4e} above "
                            f"optimal={v_opt:.4e} + 6sig")
    _finish(8, "attack-knowledge ordering", t0, 300.0, failures)


_DELAY_STABLE = [
    (8.0, 2.0, 8.0, 0.10), (5.0, 1.5, 6.0, 0.25), (12.0, 4.0, 5.0, 0.05),
    (3.0, 1.0, 8.0, 0.30), (10.0, 2.0, 8.0, 0.15), (6.0, 3.0, 4.0, 0.20),
    (9.0, 1.5, 10.0, 0.12), (4.0, 2.0, 4.0, 0.35), (15.0, 4.0, 6.0, 0.08),
    (2.0, 0.5, 8.0, 0.25),
]
_DELAY_UNSTABLE = [(20.0, 2.0, 8.0, 0.10), (12.0, 4.0, 3.0, 0.35), (9.0, 2.0, 4.0, 0.15)]


def _grid_has_feasible_s(arrival: ArrivalModel, service: ServiceModel) -> bool:
    for s in np.logspace(-3.0, 2.0, 400):
        try:
            prod = arrival.mellin(1.0 + s) * service.mellin(1.0 - s)
        except OverflowError:
            continue
        if math.isfinite(prod) and prod < 1.0:
            return True
    return False


def test_criterion_09_delay_bound_validity():
    t0 = time.perf_counter()
    failures: list[str] = []
    for gamma, rate, nk, px in _DELAY_STABLE:
        arrival, service = ArrivalModel(gamma), ServiceModel(rate, nk, px)
        if stability_margin(arrival, service) <= 0:
            failures.append(f"config gamma={gamma} lacks the stability margin")
            continue
        delays = simulate_queue_delays(arrival, service, 100_000, seed=17)
        m = delays.size
        for w in range(1, 21):
            bound = delay_violation_bound(arrival, service, w)
            emp = float(np.mean(delays > w))
            sig = math.sqrt(max(emp * (1.0 - emp), 1.0 / m) / m)
            if bound.probability < emp - 3.0 * sig:
                failures.append(f"gamma={gamma} w={w}: bound {bound.probability:.3e} "
                                f"below empirical {emp:.3e} - 3sig")
    for gamma, rate, nk, px in _DELAY_STABLE + _DELAY_UNSTABLE:
        arrival, service = ArrivalModel(gamma), ServiceModel(rate, nk, px)
        flagged = delay_violation_bound(arrival, service, 5).stable
        feasible = _grid_has_feasible_s(arrival, service)
        if flagged != feasible:
            failures.append(f"gamma={gamma}, service {rate * nk * (1 - px):.2f}: "
                            f"stable={flagged} but grid feasibility={feasible}")
    _finish(9, "delay-bound validity", t0, 120.0, failures)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    failures: list[str] = []
    scenario = str(SCENARIOS / "reference_3rrh.json")
    commands = {
        "mdp": ["mdp", "--scenario", scenario, "--method", "montecarlo",
                "--samples", "200000", "--seed", "9"],
        "validate": ["validate", "--scenario", scenario, "--points", "2",
                     "--samples", "100000", "--pfa-min", "1e-2", "--pfa-max", "1e-1"],
        # desk_2rrh's grid is two row bands: the grid pass runs on worker processes
        "optimize": ["optimize", "--scenario", str(SCENARIOS / "desk_2rrh.json")],
    }
    for name, argv in commands.items():
        blobs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"{name}_{threads}.out"
            code = cli_main(argv + ["--threads", threads, "--out", str(out)])
            if code != 0:
                failures.append(f"{name} exited {code} at {threads} threads")
                continue
            blobs.append(out.read_bytes())
        if len(set(blobs)) != 1:
            failures.append(f"{name} output depends on the thread count")
        rerun = tmp_path / f"{name}_rerun.out"
        code = cli_main(argv + ["--threads", "1", "--out", str(rerun)])
        if code != 0 or rerun.read_bytes() != blobs[0]:
            failures.append(f"{name} rerun with identical flags changed bytes")
    _finish(10, "determinism", t0, 120.0, failures)
