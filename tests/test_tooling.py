"""The benchmark's tracer rebinds library functions by name with no default,
so a name it lists that the library no longer has breaks `--trace 1`."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced() -> dict:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return eval(compile(ast.Expression(node.value), str(TRACING), "eval"), {})
    raise AssertionError("perfbench/tracing.py defines no TRACED")


def test_every_traced_function_resolves():
    targets = [pair for pairs in _traced().values() for pair in pairs]
    assert targets
    for module, name in targets:
        assert callable(getattr(importlib.import_module(f"trisupport.{module}"), name, None)), (module, name)
