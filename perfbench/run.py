"""Benchmark of the distpla CLI: seeded workloads, output checks, traced split.

Usage (from the repository root):

    python3 perfbench/run.py --workload search-2rrh8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

One client drives the CLI in a closed loop: one command process at a time,
each with ``--threads 2``.  A run writes the seeded scenarios, starts short
``threshold`` probes until ``SETUP_SAMPLES`` processes will have run, then
repeats the workload's command list until ``--seconds`` have passed (at
least once).  Every output is checked, and repeated outputs must be
byte-identical.  Commands marked ``monte_carlo`` rerun once
at ``--threads 1`` and must give the same bytes.  With ``--trace 1`` the
command list then runs once more inside this process with timing wrappers
around every layer (see tracing.py); its outputs must equal the untraced
ones.

The last stdout line is one JSON object: ``correct``, ``attempted`` (CLI
commands run), ``failed`` (commands that exited non-zero, failed their
check or changed bytes) and ``metrics`` -- the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics traced.  Run artifacts go
to perfbench/_work/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(ROOT / "src"))   # the in-process checks and the traced run

from checks import check_output  # noqa: E402
from workloads import (THREADS, WORKLOADS, Command, command_argv,  # noqa: E402
                       scenario_names, write_scenarios)
import tracing  # noqa: E402

SETUP_SAMPLES = 3    # threshold probes top a run up to this many set-up samples
COMMAND_TIMEOUT_S = 170.0


@dataclass
class Proc:
    code: int
    wall_s: float
    main_s: float | None          # seconds inside cli.main, None if never reached
    rss_mb: float
    stdout: bytes
    out: bytes
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout + b"\0" + self.out).hexdigest()


def run_cli(argv: list[str], out: Path) -> Proc:
    """Run one CLI command in a fresh interpreter; wall time and peak RSS from wait4."""
    timing = out.with_suffix(".time")
    for stale in (out, timing):
        stale.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with open(out.with_suffix(".stdout"), "w+b") as so, open(out.with_suffix(".stderr"), "w+b") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "launch.py"), str(timing), *argv],
                                stdout=so, stderr=se, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        so.seek(0)
        se.seek(0)
        stdout, stderr = so.read(), se.read()
    main_s = float(timing.read_text()) if timing.exists() else None
    p = Proc(proc.returncode, wall, main_s, usage.ru_maxrss / 1024.0, stdout,
             out.read_bytes() if out.exists() else b"")
    if p.code != 0:
        p.problems.append(f"exit code {p.code}: {stderr.decode(errors='replace').strip()[-300:]}")
    return p


class Session:
    """One benchmark invocation of one workload at one seed."""

    def __init__(self, name: str, seed: int, commands: tuple[Command, ...]):
        self.name, self.seed, self.commands = name, seed, commands
        self.dir = WORK / f"{name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.scenarios = write_scenarios(ROOT, commands, seed, self.dir / "scenarios")
        self.procs: list[Proc] = []                # every CLI process started
        self.first: dict[str, Proc] = {}           # first untraced output per command
        self.failed = 0

    def _scenarios_of(self, cmd: Command) -> dict:
        names = [a[1:] for a in cmd.argv if a.startswith("@")]
        return {n: self.scenarios[n] for n in names}

    def record(self, cmd: Command, p: Proc) -> None:
        """Check one output (or compare it with the first one) and count failures."""
        ref = self.first.get(cmd.label)
        if p.code == 0 and ref is None:
            p.problems += check_output(cmd.label, p.out.decode(), p.stdout.decode(),
                                       self._scenarios_of(cmd))
            self.first[cmd.label] = p
        elif p.code == 0 and p.digest != ref.digest:
            p.problems.append(f"output differs from the first run of {cmd.label}")
        self.failed += bool(p.problems)
        for msg in p.problems:
            print(f"  FAIL {cmd.label}: {msg}")

    def run(self, cmd: Command, tag: str, threads: int = THREADS) -> Proc:
        out = self.dir / tag / f"{cmd.label}.out"
        out.parent.mkdir(parents=True, exist_ok=True)
        p = run_cli(command_argv(cmd, self.dir / "scenarios", out, threads), out)
        self.procs.append(p)
        main = f"{p.main_s:.3f}" if p.main_s is not None else "-"
        print(f"  {tag:>8} {cmd.label:<15} exit {p.code} wall {p.wall_s:8.3f} s "
              f"main {main:>8} s rss {p.rss_mb:7.1f} MB sha256 {p.digest[:16]}")
        return p

    def probes(self) -> None:
        first = scenario_names(self.commands)[0]
        probe = Command("threshold", ("threshold", "--scenario", "@" + first))
        for i in range(SETUP_SAMPLES - len(self.commands)):
            self.record(probe, self.run(probe, f"probe{i}"))

    def iterate(self, seconds: float) -> list[list[Proc]]:
        iterations = []
        t0 = time.perf_counter()
        while not iterations or time.perf_counter() - t0 < seconds:
            tag = f"iter{len(iterations)}"
            procs = [self.run(cmd, tag) for cmd in self.commands]
            for cmd, p in zip(self.commands, procs):
                self.record(cmd, p)
            iterations.append(procs)
        return iterations

    def thread_pass(self) -> float:
        """Rerun Monte-Carlo commands at --threads 1; returns the t1/t2 time ratio."""
        t1 = t2 = 0.0
        for cmd in self.commands:
            if cmd.monte_carlo:
                p = self.run(cmd, "threads1", threads=1)
                self.record(cmd, p)
                if p.main_s is not None and self.first.get(cmd.label):
                    t1 += p.main_s
                    t2 += self.first[cmd.label].main_s
        return t1 / t2 if t2 else 0.0

    def check_digests(self) -> None:
        """Outputs of one workload at one seed must not change between invocations."""
        path = WORK / "digests" / f"{self.name}-seed{self.seed}.json"
        now = {label: p.digest for label, p in self.first.items()}
        if path.exists():
            before = json.loads(path.read_text())
            for label, digest in now.items():
                if before.get(label, digest) != digest:
                    print(f"  FAIL {label}: output differs from an earlier run at this seed")
                    self.failed += 1
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(now, indent=2, sort_keys=True) + "\n")

    def traced(self, all_labels: list[str]) -> dict[str, float]:
        """Run the command list in-process under the tracer; per-layer metrics."""
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for cmd in self.commands:
                out = self.dir / "traced" / f"{cmd.label}.out"
                out.parent.mkdir(parents=True, exist_ok=True)
                out.unlink(missing_ok=True)
                code, stdout = tracer.run_command(
                    cmd.label, command_argv(cmd, self.dir / "scenarios", out, THREADS))
                ref = self.first.get(cmd.label)
                body = out.read_bytes() if out.exists() else b""
                if code != 0 or ref is None or (stdout.encode(), body) != (ref.stdout, ref.out):
                    print(f"  FAIL {cmd.label}: traced output differs from the untraced run")
                    self.failed += 1
        finally:
            tracer.uninstall()
        tracer.write_spans(self.dir / "spans.csv")
        return tracing.layer_metrics(tracer, all_labels)


def end_to_end(iterations: list[list[Proc]], procs: list[Proc]) -> dict[str, float]:
    setups = [p.wall_s - p.main_s for p in procs if p.main_s is not None]
    return {
        "wall_s": statistics.median(sum(p.wall_s for p in it) for it in iterations),
        "peak_rss_mb": statistics.median(max(p.rss_mb for p in it) for it in iterations),
        "setup_s": statistics.median(setups) if setups else float("nan"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, all_labels: list[str]):
    s = Session(name, seed, WORKLOADS[name])
    for sc_name, sc in s.scenarios.items():
        print(f"[{name}] seed {seed} {sc_name}: alice {sc['alice']['position_m']} "
              f"eve {sc['eve']['position_m']}")
    s.probes()
    iterations = s.iterate(seconds)
    speedup = s.thread_pass() if any(c.monte_carlo for c in s.commands) else 0.0
    s.check_digests()
    metrics = end_to_end(iterations, s.procs)
    attempted = len(s.procs)
    if trace:
        untraced_main = sum(p.main_s or 0.0 for p in iterations[0])
        layers = s.traced(all_labels)
        attempted += len(s.commands)
        traced_main = sum(layers[f"cli.{c.label}_s"] for c in s.commands)
        layers["monte_carlo.thread_speedup"] = speedup
        layers["trace.overhead_s"] = traced_main - untraced_main
        layers["trace.overhead_pct"] = 100.0 * (traced_main - untraced_main) / untraced_main
        metrics.update(layers)
    print(f"[{name}] seed {seed}: wall_s {metrics['wall_s']:.3f} s, "
          f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB, setup_s {metrics['setup_s']:.3f} s, "
          f"failed_ops {s.failed}/{attempted} ({100.0 * s.failed / attempted:.1f} %), "
          f"{len(iterations)} iteration(s)")
    return metrics, attempted, s.failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    needed = [ROOT / "src" / "distpla" / "cli.py", spec_path]
    needed += [ROOT / "scenarios" / f"{n}.json"
               for cmds in WORKLOADS.values() for n in scenario_names(cmds)]
    missing = [str(p.relative_to(ROOT)) for p in dict.fromkeys(needed) if not p.is_file()]
    if missing:
        print(f"perfbench: not a distpla checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    all_labels = sorted({c.label for cmds in WORKLOADS.values() for c in cmds})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace), all_labels)
        attempted, failed = attempted + a, failed + f
        prefix = f"{name}." if len(names) > 1 else ""
        for spec_m in wanted:
            metrics[prefix + spec_m["name"]] = {"value": m[spec_m["name"]], "unit": spec_m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
