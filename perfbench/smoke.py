"""Smoke check of the benchmark's output checks on the small desk_2rrh scenario.

Usage (from the repository root): python3 perfbench/smoke.py

Runs optimize, heatmap and delay on a seeded desk_2rrh through the same
session code as run.py, expects every output to pass its check, then feeds
a corrupted copy of each output through the checks and expects each one to
be counted in failed_ops.  Exits 0 when both hold.
"""
from __future__ import annotations

import re
import sys
from dataclasses import replace

from run import Session
from workloads import Command

COMMANDS = (
    Command("optimize", ("optimize", "--scenario", "@desk_2rrh")),
    Command("heatmap", ("heatmap", "--scenario", "@desk_2rrh", "--grid", "1.0")),
    Command("delay", ("delay", "--scenario", "@desk_2rrh", "--arrival", "8", "--rate", "2",
                      "--resources", "8", "--noise", "1e-9")),
)


def _corrupt(label: str, out: bytes) -> bytes:
    text = out.decode()
    if label == "optimize":       # a p_md_opt that the best candidate does not have
        return re.sub(r'"p_md_opt": [^,]+,', '"p_md_opt": 0.5,', text, count=1).encode()
    if label == "heatmap":        # one grid cell missing
        return "".join(text.splitlines(keepends=True)[:-1]).encode()
    lines = text.splitlines(keepends=True)    # delay: bounds that grow with w
    return "".join(lines[:1] + lines[1:][::-1]).encode()


def main() -> int:
    s = Session("smoke-desk_2rrh", 0, COMMANDS)
    clean = [s.run(cmd, "clean") for cmd in COMMANDS]
    for cmd, p in zip(COMMANDS, clean):
        s.record(cmd, p)
    print(f"clean outputs: failed_ops {s.failed}/{len(clean)}")
    clean_failed = s.failed
    s.first.clear()
    for cmd, p in zip(COMMANDS, clean):
        s.record(cmd, replace(p, out=_corrupt(cmd.label, p.out), problems=[]))
    corrupt_failed = s.failed - clean_failed
    print(f"corrupted outputs: failed_ops {corrupt_failed}/{len(clean)}")
    ok = clean_failed == 0 and corrupt_failed == len(clean)
    print("smoke check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
