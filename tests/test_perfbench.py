"""The benchmark must keep finding the functions it wraps and the CLI options it
passes, and the outputs it checks must pass its checks."""
import ast
import importlib.util
import json
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    """Every function perfbench/tracing.py wraps exists in its distpla module,
    so deleting or renaming one cannot quietly break a traced benchmark run.
    The TRACED literal is read from the source, without running the module."""
    tree = ast.parse(TRACING.read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TRACED")
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"distpla.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"distpla.{layer}.{name}"


def _load(name):
    """perfbench's module ``name``.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  TRACING.with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_workload_argv_parse():
    """Every command of every benchmark workload, with the scenario paths, --threads
    and --out that the runner appends, parses with the CLI's own parser, so a CLI
    change that would break a benchmark run fails here first."""
    from distpla.cli import build_parser

    workloads = _load("workloads")
    parser = build_parser()
    for name, commands in workloads.WORKLOADS.items():
        for cmd in commands:
            argv = workloads.command_argv(cmd, Path("scenarios"), Path("out"), workloads.THREADS)
            args = parser.parse_args(argv)
            assert args.command == cmd.argv[0] and args.threads == workloads.THREADS, (name, argv)


def test_optimize_passes_the_benchmark_output_check(tmp_path, capsys):
    """``optimize`` on desk_2rrh and on the benchmark's seed-1 reference_2rrh8,
    at the benchmark's --threads, passes perfbench/checks.py's own output check
    (ranking, summary line, best position outside every exclusion zone, p_md
    recomputed at it), so a search change that would make a benchmark run
    report incorrect outputs fails here first."""
    from distpla.cli import main

    checks, workloads = _load("checks"), _load("workloads")
    root = TRACING.parent.parent / "scenarios"
    seeded = workloads.seeded_scenario(root / "reference_2rrh8.json", 1)
    for name, data in (("desk_2rrh", json.loads((root / "desk_2rrh.json").read_text())),
                       ("reference_2rrh8", seeded)):
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out.json"
        path.write_text(json.dumps(data))
        assert main(["optimize", "--scenario", str(path), "--threads", str(workloads.THREADS),
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert checks.check_output("optimize", out.read_text(), stdout, {name: data}) == [], name
