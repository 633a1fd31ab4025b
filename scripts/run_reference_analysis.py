#!/usr/bin/env python3
"""Full point analysis of one deployment: threshold, attacker models, ROC.

Writes threshold.json, roc.csv, and validate.csv into --out-dir and prints
the miss probabilities for the no-attack / statistical / optimal attacker
models at the scenario's committed attacker position.
"""
import argparse
import json
from pathlib import Path

import numpy as np

from distpla import (NO_ATTACK, best_case_acceptance_event, estimate_probability,
                     eve_statistics, load_scenario, make_authenticator,
                     mdp_fixed_strategy, mdp_fixed_strategy_sweep, mdp_optimal_pma,
                     mdp_optimal_pma_sweep, pfa_of_threshold,
                     statistical_power_strategy)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="scenarios/reference_3rrh.json")
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=9)
    args = ap.parse_args()

    sc = load_scenario(args.scenario)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    auth = make_authenticator(sc)
    eve = eve_statistics(sc)
    (out / "threshold.json").write_text(json.dumps({
        "dof": auth.total_dof,
        "threshold": auth.threshold,
        "false_alarm_target": sc.false_alarm_target,
        "false_alarm_check": pfa_of_threshold(auth.threshold, auth.total_dof),
    }, indent=2) + "\n")

    p_opt = mdp_optimal_pma(auth, eve)
    strat = statistical_power_strategy(auth, eve)
    p_stat = mdp_fixed_strategy(auth, eve, strat)
    p_none = mdp_fixed_strategy(auth, eve, NO_ATTACK)
    print(f"deployment: {args.scenario}  (p_FA target {sc.false_alarm_target:g})")
    print(f"  p_MD no attack            {p_none:.6e}")
    print(f"  p_MD statistical (eta={strat.amplitude:.3f}, psi={strat.phase:+.3f})"
          f"  {p_stat:.6e}")
    print(f"  p_MD optimal manipulation {p_opt:.6e}")

    pfas = np.logspace(-4, -1, args.points)
    auths = [make_authenticator(sc, float(pfa)) for pfa in pfas]
    sp = mdp_optimal_pma_sweep(auths, eve, method="saddlepoint")
    none = mdp_fixed_strategy_sweep(auths, eve, NO_ATTACK)
    est = estimate_probability(best_case_acceptance_event(auths[0], [a.threshold for a in auths]),
                               eve, args.samples, seed=args.seed)
    roc_lines = ["p_fa,p_md_opt,p_md_none"]
    val_lines = ["param,saddlepoint,montecarlo,std_error"]
    for k, pfa in enumerate(pfas.tolist()):
        roc_lines.append(f"{pfa!r},{sp[k].item()!r},{none[k].item()!r}")
        val_lines.append(f"{pfa!r},{sp[k].item()!r},{est.value[k].item()!r},"
                         f"{est.std_error[k].item()!r}")
    (out / "roc.csv").write_text("\n".join(roc_lines) + "\n")
    (out / "validate.csv").write_text("\n".join(val_lines) + "\n")
    print(f"wrote {out / 'threshold.json'}, {out / 'roc.csv'}, {out / 'validate.csv'}")


if __name__ == "__main__":
    main()
