"""Workload definitions and the seeded scenario generator.

A workload is a fixed list of distpla CLI commands over committed reference
scenarios.  The seed only moves the legitimate transmitter (Alice) and the
attacker (Eve): both are drawn uniformly inside the scenario's region and
redrawn while they fall inside an exclusion zone.  Arrays, antenna counts,
axes, region, carrier and search grid come from the committed file.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``@name`` in ``argv`` stands for a seeded scenario file."""

    label: str
    argv: tuple[str, ...]
    monte_carlo: bool = False   # rerun at --threads 1 once per run; bytes must not change


def _cmd(label: str, *argv: str, monte_carlo: bool = False) -> Command:
    return Command(label, argv, monte_carlo)


WORKLOADS: dict[str, tuple[Command, ...]] = {
    "search-2rrh8": (
        _cmd("optimize", "optimize", "--scenario", "@reference_2rrh8"),
    ),
    "compare-refs": (
        _cmd("compare", "compare", "--scenario", "@reference_1rrh16",
             "--scenario", "@reference_3rrh"),
    ),
    "analysis-2rrh8": (
        _cmd("threshold", "threshold", "--scenario", "@reference_2rrh8"),
        _cmd("mdp", "mdp", "--scenario", "@reference_2rrh8"),
        _cmd("mdp_montecarlo", "mdp", "--scenario", "@reference_2rrh8",
             "--method", "montecarlo", "--samples", "1000000", monte_carlo=True),
        _cmd("roc", "roc", "--scenario", "@reference_2rrh8"),
        # validate samples through the same estimate_probability; rerunning it
        # at --threads 1 as well would add about 8 s to every run
        _cmd("validate", "validate", "--scenario", "@reference_2rrh8"),
        _cmd("heatmap", "heatmap", "--scenario", "@reference_2rrh8", "--grid", "1.0"),
        _cmd("delay", "delay", "--scenario", "@reference_2rrh8", "--arrival", "8",
             "--rate", "2", "--resources", "8", "--noise", "1e-9"),
    ),
}

# every command of every workload runs with this many worker threads (nproc here)
THREADS = 2


def scenario_names(commands: tuple[Command, ...]) -> list[str]:
    names = []
    for cmd in commands:
        names += [a[1:] for a in cmd.argv if a.startswith("@") and a[1:] not in names]
    return names


def _draw(rng: random.Random, region: dict, avoid: list[tuple[list[float], float]]):
    while True:
        p = [round(rng.uniform(region["x_min"], region["x_max"]), 3),
             round(rng.uniform(region["y_min"], region["y_max"]), 3)]
        if all(math.dist(p, centre) > radius for centre, radius in avoid):
            return p


def seeded_scenario(source: Path, seed: int) -> dict:
    """The scenario at ``source`` with Alice and Eve drawn from ``seed``."""
    data = json.loads(source.read_text())
    rng = random.Random(f"{source.stem}:{seed}")
    excl = data.get("exclusion_m", {})
    near_rrh = [(r["position_m"], float(excl.get("rrh", 3.0))) for r in data["rrhs"]]
    alice = _draw(rng, data["region_m"], near_rrh)
    eve = _draw(rng, data["region_m"], near_rrh + [(alice, float(excl.get("alice", 6.0)))])
    data["alice"]["position_m"] = alice
    data["eve"]["position_m"] = eve
    return data


def write_scenarios(root: Path, commands: tuple[Command, ...], seed: int,
                    dest: Path) -> dict[str, dict]:
    """Write every seeded scenario the commands use into ``dest``; returns them by name."""
    dest.mkdir(parents=True, exist_ok=True)
    out = {}
    for name in scenario_names(commands):
        data = seeded_scenario(root / "scenarios" / f"{name}.json", seed)
        (dest / f"{name}.json").write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        out[name] = data
    return out


def command_argv(cmd: Command, scenario_dir: Path, out: Path, threads: int) -> list[str]:
    argv = [str(scenario_dir / f"{a[1:]}.json") if a.startswith("@") else a for a in cmd.argv]
    return argv + ["--threads", str(threads), "--out", str(out)]
