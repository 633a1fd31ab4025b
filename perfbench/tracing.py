"""In-process tracing of distpla CLI commands from outside the package.

The tracer wraps the public functions of every layer (module of
``src/distpla``) with timing spans.  Each wrapped name is replaced in every
``distpla`` module that binds it, so calls made through any module's own
reference are seen.  Spans hold name, start, end, parent span and command
id; they stay in memory and are written out by ``write_spans``.  Only the
calling thread is traced: Monte-Carlo worker threads call no wrapped
function.
"""
from __future__ import annotations

import contextlib
import io
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# layer -> public functions wrapped in that layer
TRACED = {
    "scenario_io": ("load_scenario",),
    "geometry": ("channel_statistics",),
    "authenticator": ("make_authenticator",),
    "power_attack": ("mdp_optimal_pma", "mdp_fixed_strategy", "build_indefinite_form",
                     "fixed_strategy_form", "saddlepoint_tail_probability",
                     "mdp_single_array_closed_form"),
    "numerics": ("bracketed_root_find",),
    "position_attack": ("truncated_search", "count_small_scale_optima", "lobe_sets"),
    "monte_carlo": ("estimate_probability",),
    "delay_bounds": ("delay_violation_bound", "service_outage"),
}
LAYERS = ("cli",) + tuple(TRACED)
ROOT = "cli.main"


class Span:
    __slots__ = ("id", "name", "parent", "command", "start", "end", "child_s", "error", "info")

    def __init__(self, id_, name, parent, command):
        self.id, self.name, self.parent, self.command = id_, name, parent, command
        self.start = self.end = self.child_s = 0.0
        self.error = ""
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.commands: list[str] = []
        self._stack: list[Span] = []
        self._thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, len(self.commands) - 1)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def _wrap(self, name: str, fn):
        tracer = self
        counts_evals = name == "numerics.bracketed_root_find"

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                if counts_evals:    # count objective evaluations of the root finder
                    f, evals = args[0], [0]

                    def counted(*a):
                        evals[0] += 1
                        return f(*a)
                    args = (counted,) + args[1:]
                    span.info = evals
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if name == "position_attack.truncated_search":
                span.info = (result.n_grid, result.n_lobe_points, result.n_evaluated)
            elif name == "monte_carlo.estimate_probability":
                span.info = result.samples
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every traced function in every loaded distpla module."""
        import distpla.cli  # noqa: F401  (loads every layer)
        modules = [m for n, m in sys.modules.items() if n == "distpla" or n.startswith("distpla.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"distpla.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapper)
                        self._patched.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

    def run_command(self, label: str, argv: list[str]) -> tuple[int, str]:
        """Run ``cli.main(argv)`` under a root span; returns (exit code, stdout)."""
        from distpla import cli

        self.commands.append(label)
        buf = io.StringIO()
        span = self._open(ROOT)
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        finally:
            self._close(span)
        return code, buf.getvalue()

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("id,name,parent,command,start_s,end_s,self_s,error\n")
            t0 = self.spans[0].start if self.spans else 0.0
            for s in self.spans:
                parent = s.parent.id if s.parent is not None else -1
                fh.write(f"{s.id},{s.name},{parent},{self.commands[s.command]},"
                         f"{s.start - t0:.9f},{s.end - t0:.9f},{s.self_s:.9f},{s.error}\n")


def layer_metrics(tracer: Tracer, command_labels: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced session (see the README's metric table)."""
    total = defaultdict(float)     # inclusive seconds per span name
    self_s = defaultdict(float)    # self seconds per span name
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    cmd_s = defaultdict(float)
    grid = lobe = cand = evals = samples = failures = fallbacks = 0
    for s in tracer.spans:
        total[s.name] += s.duration
        self_s[s.name] += s.self_s
        calls[s.name] += 1
        layer_self[s.layer] += s.self_s
        if s.name == ROOT:
            cmd_s[tracer.commands[s.command]] += s.duration
        elif s.name == "position_attack.truncated_search" and s.info:
            grid, lobe, cand = grid + s.info[0], lobe + s.info[1], cand + s.info[2]
        elif s.name == "numerics.bracketed_root_find":
            evals += s.info[0]
        elif s.name == "power_attack.saddlepoint_tail_probability" and s.error == "SaddlepointError":
            failures += 1
        elif s.name == "monte_carlo.estimate_probability" and s.info:
            samples += s.info
            p = s.parent
            while p is not None and not p.name.startswith("power_attack.mdp_"):
                p = p.parent
            fallbacks += p is not None

    def ratio(a, b):
        return a / b if b else 0.0

    forms = ("power_attack.build_indefinite_form", "power_attack.fixed_strategy_form")
    form_s, form_calls = sum(total[n] for n in forms), sum(calls[n] for n in forms)
    mdps = ("power_attack.mdp_optimal_pma", "power_attack.mdp_fixed_strategy")
    m = {
        "position_attack.search_self_s": self_s["position_attack.truncated_search"],
        "position_attack.optima_self_s": self_s["position_attack.count_small_scale_optima"],
        "position_attack.lobe_sets_s": total["position_attack.lobe_sets"],
        "position_attack.grid_cells": grid,
        "position_attack.lobe_fraction": ratio(lobe, grid),
        "position_attack.candidates": cand,
        "position_attack.grid_cells_per_s": ratio(grid, total["position_attack.truncated_search"]),
        "power_attack.form_build_s": form_s,
        "power_attack.form_build_calls": form_calls,
        "power_attack.form_build_us": 1e6 * ratio(form_s, form_calls),
        "power_attack.saddle_s": total["power_attack.saddlepoint_tail_probability"],
        "power_attack.saddle_calls": calls["power_attack.saddlepoint_tail_probability"],
        "power_attack.saddle_failures": failures,
        "power_attack.closed_form_s": total["power_attack.mdp_single_array_closed_form"],
        "power_attack.closed_form_calls": calls["power_attack.mdp_single_array_closed_form"],
        "power_attack.mdp_calls": sum(calls[n] for n in mdps),
        "power_attack.mc_fallbacks": fallbacks,
        "numerics.root_finds": calls["numerics.bracketed_root_find"],
        "numerics.root_fn_evals": evals,
        "numerics.root_find_s": total["numerics.bracketed_root_find"],
        "geometry.channel_statistics_s": total["geometry.channel_statistics"],
        "geometry.channel_statistics_calls": calls["geometry.channel_statistics"],
        "authenticator.make_authenticator_s": total["authenticator.make_authenticator"],
        "authenticator.make_authenticator_calls": calls["authenticator.make_authenticator"],
        "scenario_io.load_s": total["scenario_io.load_scenario"],
        "monte_carlo.estimate_s": total["monte_carlo.estimate_probability"],
        "monte_carlo.samples": samples,
        "monte_carlo.samples_per_s": ratio(samples, total["monte_carlo.estimate_probability"]),
        "delay_bounds.bound_s": total["delay_bounds.delay_violation_bound"],
        "delay_bounds.outage_s": total["delay_bounds.service_outage"],
    }
    for label in command_labels:
        m[f"cli.{label}_s"] = cmd_s[label]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.spans"] = len(tracer.spans)
    m["trace.accounted_pct"] = 100.0 * ratio(sum(layer_self.values()), total[ROOT])
    return m
