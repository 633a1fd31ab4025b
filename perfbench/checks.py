"""Output checks for every command the workloads run.

Each checker receives the command's --out text, its stdout text and the
seeded scenarios (parsed JSON, by name) and returns a list of problems;
an empty list means the output is correct.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import replace

# validate: saddle point and Monte-Carlo agree as in acceptance criterion 04
VALIDATE_SAMPLES = 200_000
CURVE_POINTS = 13            # default --points of roc and validate
DELAY_W_MAX = 20             # default --w-max of delay
REL_TOL = 1e-9


def _rows(text: str, header: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]} != {header!r}")
    return list(csv.DictReader(io.StringIO(text)))


def _in_unit(x: float) -> bool:
    return 0.0 <= x <= 1.0


def _grid_cells(region: dict, resolution: float) -> tuple[int, int]:
    """Cell counts per axis, as distpla's grid_axes computes them."""
    nx = max(int(math.floor((region["x_max"] - region["x_min"]) / resolution + 1e-9)), 1)
    ny = max(int(math.floor((region["y_max"] - region["y_min"]) / resolution + 1e-9)), 1)
    return nx, ny


def _allowed(pos: list[float], sc: dict) -> bool:
    """Inside the region and outside every exclusion zone.

    The search masks compare squared distances in float32, so a cell on a
    zone's edge may pass there; the check allows that rounding and no more.
    """
    reg, excl = sc["region_m"], sc.get("exclusion_m", {})
    if not (reg["x_min"] <= pos[0] <= reg["x_max"] and reg["y_min"] <= pos[1] <= reg["y_max"]):
        return False
    zones = [(sc["alice"]["position_m"], float(excl.get("alice", 6.0)))]
    zones += [(r["position_m"], float(excl.get("rrh", 3.0))) for r in sc["rrhs"]]
    return all(math.dist(pos, c) ** 2 >= r * r * (1.0 - 1e-6) for c, r in zones)


def check_threshold(out: str, stdout: str, scenarios: dict) -> list[str]:
    d = json.loads(out)
    target = d["false_alarm_target"]
    if abs(d["false_alarm_check"] - target) > REL_TOL * target:
        return [f"false_alarm_check {d['false_alarm_check']} != target {target}"]
    return []


def check_mdp(out: str, stdout: str, scenarios: dict) -> list[str]:
    d = json.loads(out)
    return [] if _in_unit(d["p_md"]) else [f"p_md {d['p_md']} outside [0, 1]"]


def check_mdp_montecarlo(out: str, stdout: str, scenarios: dict) -> list[str]:
    d = json.loads(out)
    n, p = d["samples"], d["p_md"]
    problems = [] if n == 1_000_000 else [f"samples {n} != 1000000"]
    if not _in_unit(p) or abs(p * n - round(p * n)) > 1e-6:
        problems.append(f"p_md {p} is not a hit count over {n} samples")
    elif abs(d["std_error"] - math.sqrt(p * (1.0 - p) / n)) > 1e-12:
        problems.append(f"std_error {d['std_error']} inconsistent with p_md")
    return problems


def check_roc(out: str, stdout: str, scenarios: dict) -> list[str]:
    rows = _rows(out, "p_fa,p_md_opt,p_md_none")
    problems = [] if len(rows) == CURVE_POINTS else [f"{len(rows)} rows != {CURVE_POINTS}"]
    for r in rows:
        if not all(_in_unit(float(r[k])) for k in r):
            problems.append(f"value outside [0, 1] in {r}")
    return problems


def _sigma(p_hat: float, p_model: float, n: int) -> float:
    """Binomial standard error, robust to zero-hit and all-hit estimates."""
    p = max(p_hat, p_model, 1.0 / n)
    return math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def check_validate(out: str, stdout: str, scenarios: dict) -> list[str]:
    rows = _rows(out, "param,saddlepoint,montecarlo,std_error")
    problems = [] if len(rows) == CURVE_POINTS else [f"{len(rows)} rows != {CURVE_POINTS}"]
    for r in rows:
        sp, mc = float(r["saddlepoint"]), float(r["montecarlo"])
        tol = max(3.0 * _sigma(mc, sp, VALIDATE_SAMPLES), 0.25 * mc)
        if abs(sp - mc) > tol:
            problems.append(f"p_fa={r['param']}: saddle {sp} vs mc {mc} (tol {tol:.3e})")
    return problems


def check_heatmap(out: str, stdout: str, scenarios: dict) -> list[str]:
    rows = _rows(out, "x_m,y_m,log10_pmd")
    (sc,) = scenarios.values()
    nx, ny = _grid_cells(sc["region_m"], 1.0)
    problems = [] if len(rows) == nx * ny else [f"{len(rows)} rows != nx*ny = {nx * ny}"]
    if any(not -15.0 <= float(r["log10_pmd"]) <= 0.0 for r in rows):
        problems.append("log10_pmd outside [-15, 0]")
    return problems


def check_delay(out: str, stdout: str, scenarios: dict) -> list[str]:
    rows = _rows(out, "w,bound,s_opt")
    bounds = [float(r["bound"]) for r in rows]
    problems = []
    if [int(r["w"]) for r in rows] != list(range(1, DELAY_W_MAX + 1)):
        problems.append("w column is not 1..w_max")
    if not all(_in_unit(b) for b in bounds):
        problems.append("bound outside [0, 1]")
    if any(b2 > b1 for b1, b2 in zip(bounds, bounds[1:])):
        problems.append("bound increases with w")
    return problems


def check_optimize(out: str, stdout: str, scenarios: dict) -> list[str]:
    from distpla import channel_statistics, make_authenticator, mdp_optimal_pma, scenario_from_dict

    d = json.loads(out)
    (sc,) = scenarios.values()
    cands = d["candidates"]
    problems = []
    if not cands or d["p_md_opt"] != cands[0]["p_md"]:
        problems.append("p_md_opt != candidates[0].p_md")
    pmds = [c["p_md"] for c in cands]
    if pmds != sorted(pmds, reverse=True):
        problems.append("candidates not sorted by p_md descending")
    if d["position"] != (cands[0]["position"] if cands else None):
        problems.append("position != candidates[0].position")
    if not _allowed(d["position"], sc):
        problems.append(f"best position {d['position']} is outside the allowed area")
    if stdout.strip() != f"p_MD^(Opt. Position) = {d['p_md_opt']!r}":
        problems.append(f"summary line {stdout.strip()!r} disagrees with p_md_opt")
    scenario = scenario_from_dict(sc)
    eve = replace(scenario.eve, position=tuple(d["position"]))
    p = mdp_optimal_pma(make_authenticator(scenario), channel_statistics(scenario, eve))
    if abs(p - d["p_md_opt"]) > REL_TOL * abs(d["p_md_opt"]):
        problems.append(f"recomputed p_md {p} != p_md_opt {d['p_md_opt']}")
    return problems


def check_compare(out: str, stdout: str, scenarios: dict) -> list[str]:
    rows = _rows(out, "scenario,n_rrh,n_rx,total_antennas,pmd_opt_position,"
                      "coverage_pct,search_points,total_small_scale_optima")
    problems = []
    if [r["scenario"] for r in rows] != list(scenarios):
        problems.append(f"scenarios {[r['scenario'] for r in rows]} != {list(scenarios)}")
    for r, sc in zip(rows, scenarios.values()):
        ants = [a["num_antennas"] for a in sc["rrhs"]]
        if (int(r["n_rrh"]), r["n_rx"], int(r["total_antennas"])) != (
                len(ants), "/".join(str(n) for n in sorted(set(ants))), sum(ants)):
            problems.append(f"{r['scenario']}: array counts disagree with the scenario")
        cells = math.prod(_grid_cells(sc["region_m"], 2.0))
        cov = float(r["coverage_pct"])
        if not 0.0 <= cov <= 100.0 or abs(cov * cells / 100.0 - round(cov * cells / 100.0)) > 1e-6:
            problems.append(f"{r['scenario']}: coverage {cov} is not a share of {cells} cells")
        max_cand = sc.get("search", {}).get("max_candidates", 20_000)
        if not 1 <= int(r["search_points"]) <= max_cand or int(r["total_small_scale_optima"]) < 1:
            problems.append(f"{r['scenario']}: search counts out of range")
        if not _in_unit(float(r["pmd_opt_position"])):
            problems.append(f"{r['scenario']}: p_md outside [0, 1]")
    return problems


CHECKS = {
    "threshold": check_threshold,
    "mdp": check_mdp,
    "mdp_montecarlo": check_mdp_montecarlo,
    "roc": check_roc,
    "validate": check_validate,
    "heatmap": check_heatmap,
    "delay": check_delay,
    "optimize": check_optimize,
    "compare": check_compare,
}


def check_output(label: str, out: str, stdout: str, scenarios: dict) -> list[str]:
    """Problems with one command's output; a malformed output is one problem."""
    problems = [] if label == "optimize" or not stdout else [f"unexpected stdout {stdout[:60]!r}"]
    try:
        return problems + CHECKS[label](out, stdout, scenarios)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
