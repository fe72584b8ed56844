"""Self-test of the benchmark at a tiny scale.

    python3 perfbench/selftest.py

Checks that every workload prints every end-to-end and per-layer metric with
its unit and fails no query; that the answer digest repeats for a seed; that
a corrupted answer (one weight of a witness changed) is counted as a failure;
that BENCHMARK.json names the metrics and workloads the benchmark prints; and
that the benchmark refuses to run, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from report import run_once  # noqa: E402
from tracing import METRICS as LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

TINY = ("--tiny",)
failures: list[str] = []


def check(cond: bool, what: str) -> None:
    print(f"[{'ok' if cond else 'FAIL'}] {what}", flush=True)
    if not cond:
        failures.append(what)


def units(result) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def digest_of(text: str) -> str:
    return next(ln.split("answer digest ")[1].split(",")[0] for ln in text.splitlines() if "answer digest" in ln)


def test_workloads() -> None:
    for workload in WORKLOADS:
        for trace, want in ((0, run.END_TO_END), (1, LAYER_METRICS)):
            code, result, text = run_once(workload, 7, 0.5, trace, TINY)
            check(code == 0 and result is not None, f"{workload} trace {trace}: exits 0 with a result line")
            if result is None:
                print(text)
                continue
            check(units(result) == want, f"{workload} trace {trace}: every metric printed with its unit")
            check(result["failed"] == 0 and result["correct"] and " fail_ratio 0 ratio" in text,
                  f"{workload} trace {trace}: fail_ratio is 0 ({result['failed']}/{result['attempted']})")
            if trace:
                accounted = result["metrics"]["trace.accounted_ratio"]["value"]
                check(0.9 <= accounted <= 1.0 + 1e-9, f"{workload}: layer and benchmark self times account for the traced wall time ({accounted:.4f})")
            else:
                _, _, again = run_once(workload, 7, 0.5, trace, TINY)
                check(digest_of(text) == digest_of(again), f"{workload}: answer digest repeats for a seed")


def test_corruption() -> None:
    """Change one weight of a decide_tight witness and expect one failure."""
    lib = run.import_package()
    plan = build("decide-search", lib, 7, True, run.OUT / "selftest")
    query = next(q for q in plan.draws[0] if q.kind == "decide_tight")
    honest = run.Counts()
    honest.run(query)
    call = query.call

    def corrupted():
        w = call()
        return lib.deciders.TightWitness(w.tau_a[:-1] + (w.tau_a[-1] + 1,), w.tau_b, w.tau_c)

    query.call = corrupted
    counts = run.Counts()
    counts.run(query)
    check(honest.failed == 0 and counts.failed == 1, "a witness with one weight changed is counted as a failure")
    shutil.rmtree(run.OUT / "selftest", ignore_errors=True)


def test_cycle_sizes() -> None:
    """p90 needs ten queries beyond it: every full cycle has 100 or more."""
    sys.path.insert(0, str(run.SRC))
    lib = run.import_package()
    for workload in WORKLOADS:
        plan = build(workload, lib, 7, False, run.OUT / "selftest")
        size = len(plan.draws[0])
        check(size >= 100, f"{workload}: a cycle has {size} queries")


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "BENCHMARK.json end_to_end matches the printed metrics")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS, "BENCHMARK.json per_layer matches the printed metrics")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json lists the four workloads")
    layer_map = json.loads((HERE / "baseline.json").read_text())["layer_map"]
    names = {n for row in layer_map for n in row["metrics"]}
    check(names <= set(LAYER_METRICS), "every per-layer metric in the layer map is printed")


def test_bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result, text = run_once("symmetry-kron", 7, 0.5, 0, TINY, cwd=bare)
    check(code != 0 and result is None and '"metrics"' not in text, f"refuses to run without the sources (exit {code})")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    test_benchmark_json()
    test_cycle_sizes()
    test_corruption()
    test_bare_directory()
    test_workloads()
    print("selftest", "FAILED: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
