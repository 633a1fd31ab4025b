"""Command-line toolkit: every analysis as a deterministic batch command.

Commands: threshold, mdp, roc, validate, heatmap, optimize, compare, delay.
Outputs are JSON or CSV (header row, '.' decimal), written atomically to
--out or printed to stdout; failures print an error JSON to stderr and
exit 2 (configuration), 3 (numeric failure), or 4 (infeasible).  --threads
(at least 1) sets the worker threads of the Monte-Carlo passes and the
worker processes (forked, so POSIX) of the optimize/compare search; for
fixed (scenario, seed, samples) the output bytes do not depend on it.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from itertools import product
from pathlib import Path

import numpy as np

from .authenticator import make_authenticator, pfa_of_threshold, threshold_for_pfa
from .delay_bounds import (ArrivalModel, ServiceModel, UnstableQueueError,
                           delay_violation_bound, service_outage)
from .geometry import Scenario, eve_statistics
from .monte_carlo import best_case_acceptance_event, estimate_probability
from .numerics import NumericsError
from .position_attack import PositionSearchError, grid_axes, search_grid, truncated_search
from .power_attack import (NO_ATTACK, PowerStrategy, SaddlepointError,
                           mdp_fixed_strategy, mdp_fixed_strategy_sweep,
                           mdp_optimal_pma, mdp_optimal_pma_batch,
                           mdp_optimal_pma_sweep, statistical_power_strategy)
from .scenario_io import ScenarioError, load_scenario

_LOG10_FLOOR = -15.0


def _fmt(x: float) -> str:
    return repr(float(x))


def _log10_clamped(p: float) -> float:
    if not p > 10.0 ** _LOG10_FLOOR:
        return p if math.isnan(p) else _LOG10_FLOOR     # NaN: a cell on an RRH
    return max(math.log10(p), _LOG10_FLOOR)


def _scenario(args, path: str | None = None) -> Scenario:
    """The scenario at ``path`` (default: --scenario) with --pfa applied."""
    sc = load_scenario(path or args.scenario)
    if args.pfa is not None:
        sc = replace(sc, false_alarm_target=args.pfa)
    return sc


def _cmd_threshold(args):
    sc = _scenario(args)
    auth = make_authenticator(sc)
    payload = json.dumps({
        "dof": auth.total_dof,
        "false_alarm_target": sc.false_alarm_target,
        "threshold": auth.threshold,
        "false_alarm_check": pfa_of_threshold(auth.threshold, auth.total_dof),
        "mahalanobis_energy": auth.mahalanobis_energy,
    }, sort_keys=True, indent=2) + "\n"
    return payload, None


def _strategy(method: str, auth, eve) -> PowerStrategy:
    """The fixed strategy an mdp method names: statistical, none or fixed:ETA,PSI."""
    if method == "statistical":
        return statistical_power_strategy(auth, eve)
    if method == "none":
        return NO_ATTACK
    if not method.startswith("fixed:"):
        raise ValueError(f"unknown mdp --method {method!r}")
    try:
        eta, psi = map(float, method.split(":", 1)[1].split(","))
    except Exception:
        raise ValueError("fixed method expects fixed:ETA,PSI") from None
    if not (math.isfinite(eta) and math.isfinite(psi)):
        raise ValueError(f"--method fixed:ETA,PSI needs finite ETA and PSI, got {method!r}")
    if not eta > 0.0:
        raise ValueError(f"--method fixed:ETA,PSI needs an amplitude ETA > 0, got {method!r}")
    return PowerStrategy(eta, psi)


def _cmd_mdp(args):
    sc = _scenario(args)
    auth = make_authenticator(sc)
    eve = eve_statistics(sc)
    out = {"method": args.method, "false_alarm_target": sc.false_alarm_target,
           "threshold": auth.threshold}
    if args.method in ("saddlepoint", "auto"):
        out["p_md"] = mdp_optimal_pma(auth, eve, method=args.method)
    elif args.method == "montecarlo":
        est = estimate_probability(best_case_acceptance_event(auth), eve,
                                   args.samples, seed=args.seed, threads=args.threads)
        out.update(p_md=est.value[0], std_error=est.std_error[0], samples=est.samples)
    else:
        strat = _strategy(args.method, auth, eve)
        out["strategy"] = {"eta": strat.amplitude, "psi": strat.phase}
        out["p_md"] = mdp_fixed_strategy(auth, eve, strat)
    return json.dumps(out, sort_keys=True, indent=2) + "\n", None


def _sweep(args):
    """The authenticator, the attacker law, the swept false-alarm targets and their thresholds."""
    sc = _scenario(args)
    pfas = np.logspace(math.log10(args.pfa_min), math.log10(args.pfa_max), args.points)
    auth = make_authenticator(sc)
    thresholds = [threshold_for_pfa(float(p), auth.total_dof) for p in pfas]
    return auth, eve_statistics(sc), pfas, thresholds


def _cmd_roc(args):
    auth, eve, pfas, thresholds = _sweep(args)
    p_opt = mdp_optimal_pma_sweep(auth, eve, thresholds)
    p_none = mdp_fixed_strategy_sweep(auth, eve, thresholds, NO_ATTACK)
    lines = ["p_fa,p_md_opt,p_md_none"]
    lines += [f"{_fmt(pfa)},{_fmt(a)},{_fmt(b)}" for pfa, a, b in zip(pfas, p_opt, p_none)]
    return "\n".join(lines) + "\n", None


def _cmd_validate(args):
    auth, eve, pfas, thresholds = _sweep(args)
    lines = ["param,saddlepoint,montecarlo,std_error"]
    p_sp = mdp_optimal_pma_sweep(auth, eve, thresholds, method="saddlepoint")
    # one pass over the samples tests every threshold of the sweep
    event = best_case_acceptance_event(auth, thresholds)
    est = estimate_probability(event, eve, args.samples, seed=args.seed, threads=args.threads)
    lines += [f"{_fmt(pfa)},{_fmt(p)},{_fmt(v)},{_fmt(se)}"
              for pfa, p, v, se in zip(pfas, p_sp, est.value, est.std_error)]
    return "\n".join(lines) + "\n", None


def _pmd_cells(sc: Scenario, resolution: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal-attack p_md on every grid cell, y the outer and x the inner index;
    NaN on a cell whose centre is an RRH's position, where the channel is undefined."""
    xs, ys = grid_axes(sc, resolution)
    gx, gy = np.meshgrid(xs, ys)
    cells = np.column_stack((gx.ravel(), gy.ravel()))
    on_rrh = np.any([(cells == rrh.position).all(axis=1) for rrh in sc.rrhs], axis=0)
    vals = np.full(len(cells), np.nan)
    vals[~on_rrh] = mdp_optimal_pma_batch(make_authenticator(sc), sc, cells[~on_rrh])
    return xs, ys, vals


def _cmd_heatmap(args):
    sc = _scenario(args)
    xs, ys, vals = _pmd_cells(sc, args.grid or search_grid(sc)[0])
    lines = ["x_m,y_m,log10_pmd"] + [f"{_fmt(x)},{_fmt(y)},{_fmt(_log10_clamped(v))}"
                                     for (y, x), v in zip(product(ys, xs), vals)]
    return "\n".join(lines) + "\n", None


def _cmd_optimize(args):
    sc = _scenario(args)
    if args.grid is not None:
        sc = replace(sc, search=replace(sc.search, grid_resolution=args.grid))
    result = truncated_search(sc, threads=args.threads)
    payload = json.dumps({
        "p_md_opt": result.p_md_opt,
        "position": list(result.best.position),
        "n_grid": result.n_grid,
        "n_allowed": result.n_allowed,
        "n_lobe_points": result.n_lobe_points,
        "n_evaluated": result.n_evaluated,
        "candidates": [asdict(c) for c in result.candidates],
    }, sort_keys=True, indent=2) + "\n"
    summary = f"p_MD^(Opt. Position) = {_fmt(result.p_md_opt)}"
    return payload, summary


def _cmd_compare(args):
    header = ("scenario,n_rrh,n_rx,total_antennas,pmd_opt_position,"
              "coverage_pct,search_points,total_small_scale_optima")
    lines = [header]
    for path in args.scenario:
        sc = _scenario(args, path)
        result = truncated_search(sc, threads=args.threads, count_optima=True)
        _, _, vals = _pmd_cells(sc, args.grid or 2.0)
        coverage = 100.0 * np.count_nonzero(vals < args.coverage_pmd) / len(vals)
        n_rx = "/".join(str(n) for n in sorted({r.num_antennas for r in sc.rrhs}))
        name = Path(path).stem
        lines.append(
            f"{name},{len(sc.rrhs)},{n_rx},{sum(r.num_antennas for r in sc.rrhs)},"
            f"{_fmt(result.p_md_opt)},{_fmt(coverage)},"
            f"{result.n_evaluated},{result.n_optima}")
    return "\n".join(lines) + "\n", None


def _cmd_delay(args):
    for flag, value, zero_ok in (("--arrival", args.arrival, True), ("--noise", args.noise, True),
                                 ("--rate", args.rate, False),
                                 ("--resources", args.resources, False)):
        if not (math.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
            kind = "non-negative" if zero_ok else "positive"
            raise ValueError(f"{flag} must be {kind} and finite, got {value}")
    sc = _scenario(args)
    auth = make_authenticator(sc)
    outage = service_outage(auth, args.rate, args.noise, mode=args.outage_mode)
    arrival = ArrivalModel(args.arrival)
    service = ServiceModel(args.rate, args.resources, outage.probability)
    lines = ["w,bound,s_opt"]
    for w in range(1, args.w_max + 1):
        bound = delay_violation_bound(arrival, service, w)
        if not bound.stable:
            raise UnstableQueueError(
                "no transform parameter stabilizes the queue "
                f"(arrival {args.arrival} bits/frame vs service "
                f"{args.rate * args.resources} bits at outage {_fmt(outage.probability)})")
        lines.append(f"{w},{_fmt(bound.probability)},{_fmt(bound.s_opt)}")
    return "\n".join(lines) + "\n", None


def _add_common(p: argparse.ArgumentParser, scenario_multi: bool = False):
    if scenario_multi:
        p.add_argument("--scenario", action="append", required=True,
                       help="scenario JSON (repeatable)")
    else:
        p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", help="output file (atomic write); default stdout")
    p.add_argument("--seed", type=int, default=0, help="RNG seed in [0, 2**128) (default 0)")
    p.add_argument("--samples", type=int, default=200_000,
                   help="Monte-Carlo samples (default 200000)")
    p.add_argument("--threads", type=int, default=1,
                   help="Monte-Carlo worker threads and search worker processes (default 1)")
    p.add_argument("--pfa", type=float, default=None,
                   help="override the scenario's false-alarm target")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distpla",
        description="Worst-case detection guarantees for distributed "
                    "SIMO physical-layer authentication")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="acceptance threshold for the false-alarm target")
    _add_common(p)
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser("mdp", help="missed-detection probability at the scenario's attacker position")
    _add_common(p)
    p.add_argument("--method", default="saddlepoint",
                   help="saddlepoint | auto (the route of roc, heatmap and optimize) | "
                        "montecarlo | fixed:ETA,PSI | statistical | none")
    p.set_defaults(handler=_cmd_mdp)

    for name, handler, hlp in (("roc", _cmd_roc, "miss probability versus false-alarm sweep"),
                               ("validate", _cmd_validate, "saddle point versus Monte-Carlo sweep")):
        p = sub.add_parser(name, help=hlp)
        _add_common(p)
        p.add_argument("--pfa-min", type=float, default=1e-4)
        p.add_argument("--pfa-max", type=float, default=1e-1)
        p.add_argument("--points", type=int, default=13)
        p.set_defaults(handler=handler)

    p = sub.add_parser("heatmap", help="log10 miss probability over the region grid")
    _add_common(p)
    p.add_argument("--grid", type=float, default=None, help="cell size in meters")
    p.set_defaults(handler=_cmd_heatmap)

    p = sub.add_parser("optimize", help="worst-case attacker position search")
    _add_common(p)
    p.add_argument("--grid", type=float, default=None, help="search grid cell size in meters")
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("compare", help="deployment comparison table")
    _add_common(p, scenario_multi=True)
    p.add_argument("--grid", type=float, default=None,
                   help="coverage grid cell size in meters (default 2.0)")
    p.add_argument("--coverage-pmd", type=float, default=1e-4,
                   help="coverage counts cells with p_md below this (default 1e-4)")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("delay", help="delay violation bounds over the authenticated link")
    _add_common(p)
    p.add_argument("--arrival", type=float, required=True, help="arrival bits per frame")
    p.add_argument("--rate", type=float, required=True, help="bits per resource unit")
    p.add_argument("--resources", type=float, required=True, help="scheduled resources per frame")
    p.add_argument("--noise", type=float, default=1.0, help="noise density N0 (default 1)")
    p.add_argument("--w-max", type=int, default=20, help="largest delay bound to tabulate")
    p.add_argument("--outage-mode", default="centralized_bound",
                   choices=["centralized_bound", "centralized_exact_if_valid", "local_bound"])
    p.set_defaults(handler=_cmd_delay)

    return parser


def _emit_error(exc: BaseException, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _write_atomic(path: str, text: str) -> None:
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, target)
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        for flag in ("threads", "samples", "points", "w_max"):
            if getattr(args, flag, 1) < 1:
                raise ValueError(f"--{flag.replace('_', '-')} must be at least 1, "
                                 f"got {getattr(args, flag)}")
        if not 0 <= args.seed < 2 ** 128:
            raise ValueError(f"--seed must lie in [0, 2**128), got {args.seed}")
        if getattr(args, "grid", None) is not None and not 0.0 < args.grid < math.inf:
            raise ValueError(f"--grid must be positive and finite, got {args.grid}")
        for flag in ("pfa_min", "pfa_max"):
            if not 0.0 < getattr(args, flag, 0.5) < 1.0:
                raise ValueError(f"--{flag.replace('_', '-')} must lie in (0, 1), "
                                 f"got {getattr(args, flag)}")
        if math.isnan(getattr(args, "coverage_pmd", 0.0)):
            raise ValueError("--coverage-pmd must be a number, got nan")
        payload, summary = args.handler(args)
    except (UnstableQueueError, PositionSearchError) as exc:
        return _emit_error(exc, 4)
    except (SaddlepointError, NumericsError, np.linalg.LinAlgError,
            FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        return _emit_error(exc, 3)
    except (ScenarioError, ValueError, KeyError, TypeError, OSError) as exc:
        return _emit_error(exc, 2)
    if args.out:
        try:
            _write_atomic(args.out, payload)
        except OSError as exc:
            return _emit_error(exc, 2)
    else:
        sys.stdout.write(payload)
    if summary is not None:
        print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
