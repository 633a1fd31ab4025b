"""Run one distpla CLI command and record how long ``cli.main`` took.

Usage: python3 launch.py TIMING_FILE CLI_ARGS...

Behaves like the ``distpla`` entry point (same stdout, --out bytes and
exit code) and additionally writes the seconds spent inside ``cli.main``
to TIMING_FILE, so the caller can split the process wall time into the
command itself and set-up (interpreter start, imports, exit).
"""
import sys
import time

from distpla import cli

t0 = time.perf_counter()
code = cli.main(sys.argv[2:])
elapsed = time.perf_counter() - t0
with open(sys.argv[1], "w") as fh:
    fh.write(repr(elapsed))
sys.exit(code)
