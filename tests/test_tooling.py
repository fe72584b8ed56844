"""The benchmark's tracer rebinds library functions by name with no default,
so a name it lists that the library no longer has breaks `--trace 1`, and it
forwards only `(rows, ncols)` to the `linalg` functions it wraps; a
library change that breaks one of the benchmark's answer checks fails its
self-test; importing the package builds no census table; every name in its
`__all__` resolves; the README's CLI block shows every leaf command and its
module table has a row for every module; the values the README quotes for
`SWITCH`, `CAP_TOL`, `_MATCH_NODES`, `TABLE_MAX_BITS` and `PRIME` are the
library's; and `certify` and the test oracles import nothing that they check."""

import argparse
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import trisupport
from trisupport import compress, linalg, spectral
from trisupport.cli import build_parser

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


def test_traced_linalg_functions_take_rows_and_ncols_only():
    # `Tracer._wrap` wraps them as fn(rows, ncols); another parameter would crash `--trace 1`
    targets = [pair for name, pairs in _traced().items() if name.startswith("linalg.") for pair in pairs]
    assert targets
    for module, name in targets:
        params = inspect.signature(getattr(importlib.import_module(f"trisupport.{module}"), name)).parameters
        assert list(params) == ["rows", "ncols"], (module, name, list(params))


def test_benchmark_selftest_passes():
    # about 10 s; writes only to the ignored .bench_build/
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


def test_import_builds_no_census_table():
    # the census tables are built on the first call for each m, outside every workload's set-up
    probe = "import trisupport; print(trisupport.deciders._cube_tables.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout.split() == ["0"], done.stderr


def test_every_exported_name_resolves():
    # a stale name in __all__ would break `from trisupport import *`
    assert len(set(trisupport.__all__)) == len(trisupport.__all__)
    missing = [name for name in trisupport.__all__ if not hasattr(trisupport, name)]
    assert not missing, missing


def _leaf_commands(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()) -> list[tuple[str, ...]]:
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return [path]
    return [leaf for name, sub in groups[0].choices.items() for leaf in _leaf_commands(sub, path + (name,))]


def test_readme_cli_block_shows_every_leaf_command():
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    shown = [line.split()[1:] for line in block.splitlines() if line.startswith("trisupport ")]
    leaves = _leaf_commands(build_parser())
    assert ("decide", "free") in leaves and ("symmetry", "span-stabilizer") in leaves
    for leaf in leaves:
        assert any(tuple(words[: len(leaf)]) == leaf for words in shown), " ".join(leaf)


def test_readme_table_has_a_row_for_every_module():
    section = (ROOT / "README.md").read_text().split("\n## What is inside\n", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `trisupport\.(\w+)` \|", section, re.MULTILINE))
    modules = {path.stem for path in (ROOT / "src" / "trisupport").glob("*.py") if not path.stem.startswith("__")}
    assert modules <= rows, sorted(modules - rows)


def test_readme_states_the_solver_switch():
    stated = re.findall(r"`SWITCH` = (\d+)", (ROOT / "README.md").read_text())
    assert stated and all(int(value) == spectral.SWITCH for value in stated), stated


def test_readme_states_the_library_constants():
    readme = (ROOT / "README.md").read_text()
    quoted = [
        (spectral.CAP_TOL, [float(v) for v in re.findall(r"`CAP_TOL` = ([\d.e-]+)", readme)]),
        (spectral._MATCH_NODES, [int(v) for v in re.findall(r"`_MATCH_NODES` = (\d+)", readme)]),
        (compress.TABLE_MAX_BITS, [int(v) for v in re.findall(r"`TABLE_MAX_BITS` = (\d+)", readme)]),
        (linalg.PRIME, [2 ** int(e) - int(d) for e, d in re.findall(r"`PRIME` = 2\^(\d+) − (\d+)", readme)]),
    ]
    for value, stated in quoted:
        assert stated and all(v == value for v in stated), (value, stated)


def _imports(path: Path) -> list[str]:
    """Every module `path` imports, relative ones with their leading dots."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(("." * node.level) + (node.module or ""))
    return names


def test_certify_imports_only_core_and_the_standard_library():
    # the checker shares no code with the solvers whose answers it checks
    for name in _imports(ROOT / "src" / "trisupport" / "certify.py"):
        assert name == ".core" or name.split(".")[0] in sys.stdlib_module_names, name


def test_oracles_import_only_core_from_the_library():
    # the brute-force oracles share no code with the code they check
    names = _imports(ROOT / "tests" / "_oracles.py")
    assert "trisupport.core" in names
    for name in names:
        assert name.split(".")[0] != "trisupport" or name == "trisupport.core", name
