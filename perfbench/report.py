"""Run workloads in fresh processes and summarise their metrics.

    python3 perfbench/report.py                                   # every workload, default seed
    python3 perfbench/report.py --seeds 1 2 3 4 5 --workloads decide-search
    python3 perfbench/report.py --trace 1                        # per-layer metrics

Each (workload, seed) pair runs `run.py` in its own process, so peak memory
and set-up time belong to that workload alone.  With one seed the table lists
every metric of every workload by name and unit, plus fail_ratio.  With
several seeds it lists, per metric, the median, the first and third quartiles
and their distance as a share of the median, which is the run-to-run spread
that BENCHMARK.json's bounds are compared against.  Each run's line also
gives the slowdown its times were divided by (see run.py).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int, extra: tuple[str, ...] = (), cwd: Path | None = None):
    """Run one workload in a fresh process from the root of a checkout (by
    default this one); return its exit code, the parsed result line (or
    None) and the text it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd or HERE.parent)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[DEFAULT_SEED])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            code, result, text = run_once(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {code}\n{text}", file=sys.stderr)
                continue
            runs.append(result)
            digest = next((ln.split("answer digest ")[1].split(",")[0] for ln in text.splitlines() if "answer digest" in ln), "?")
            slowdown = next((ln.split("reference kernel: ")[1].split("x")[0] for ln in text.splitlines() if "reference kernel: " in ln), "-")
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
                  f"fail_ratio {result['failed'] / result['attempted']:.3g} ratio, digest {digest}, slowdown {slowdown}", flush=True)
        if not runs:
            continue
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) == 1:
                print(f"  {name:<42} {values[0]:>14.6g} {metric['unit']}")
            else:
                med, q1, q3, share = spread(values)
                print(f"  {name:<42} median {med:>12.6g} {metric['unit']:<6} q1 {q1:>12.6g} q3 {q3:>12.6g} spread {share:.4f}")
                print(f"  {'':<42} runs " + " ".join(f"{v:.4g}" for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
