"""The benchmark must keep finding the functions it wraps and the CLI options it passes."""
import ast
import importlib.util
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


def test_workload_argv_parse():
    """Every command of every benchmark workload, with the scenario paths, --threads
    and --out that the runner appends, parses with the CLI's own parser, so a CLI
    change that would break a benchmark run fails here first."""
    from distpla.cli import build_parser

    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  TRACING.with_name("workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads     # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    parser = build_parser()
    for name, commands in workloads.WORKLOADS.items():
        for cmd in commands:
            argv = workloads.command_argv(cmd, Path("scenarios"), Path("out"), workloads.THREADS)
            args = parser.parse_args(argv)
            assert args.command == cmd.argv[0] and args.threads == workloads.THREADS, (name, argv)
