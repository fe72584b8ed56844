"""The benchmark's tracer rebinds library functions by name with no default,
so a name it lists that the library no longer has breaks `--trace 1`; and a
library change that breaks one of the benchmark's answer checks fails its
self-test."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_benchmark_selftest_passes():
    # about 10 s; writes only to the ignored .bench_build/
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
