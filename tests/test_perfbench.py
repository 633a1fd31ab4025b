"""The benchmark must keep finding the functions it wraps and the CLI options it
passes, and the outputs it checks must pass its checks."""
import ast
import importlib.util
import json
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
PACKAGE = TRACING.parent.parent / "src" / "distpla"


def _traced() -> dict:
    """perfbench/tracing.py's TRACED literal, read from the source without running it."""
    tree = ast.parse(TRACING.read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "TRACED")


def test_traced_names_resolve():
    """Every function perfbench/tracing.py wraps exists in its distpla module,
    so deleting or renaming one cannot quietly break a traced benchmark run."""
    traced = _traced()
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"distpla.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"distpla.{layer}.{name}"


def test_every_top_level_definition_is_reached():
    """Every top-level function and class of src/distpla is reached, by the
    names it uses, from cli.main, the names distpla/__init__ exports, the
    names perfbench traces and the module-level statements, which run on
    import.  A name resolves to its module's own definition or to what a
    ``from .module import`` brings in; a local that shadows a top-level name
    counts as a use of it, so the walk may reach too much, never too little."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    defined, imported = {}, {}
    for module, tree in trees.items():
        imported[module] = {alias.asname or alias.name: (node.module, alias.name)
                            for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) and node.level == 1
                            for alias in node.names}
        defined.update(((module, node.name), node) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)))

    def uses(module, nodes):
        names = {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)}
        return [imported[module].get(name, (module, name)) for name in names]

    todo = [("cli", "main"), *imported["__init__"].values()]
    todo += [(layer, name) for layer, names in _traced().items() for name in names]
    todo += [ref for module, tree in trees.items()
             for ref in uses(module, [node for node in tree.body
                                      if not isinstance(node, (ast.FunctionDef, ast.ClassDef))])]
    reached = set()
    while todo:
        ref = todo.pop()
        if ref in defined and ref not in reached:
            reached.add(ref)
            todo += uses(ref[0], [defined[ref]])
    assert sorted(f"{m}.{n}" for m, n in defined.keys() - reached) == []


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
