"""The benchmark's tracer must keep finding the functions it wraps."""
import ast
import importlib
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
