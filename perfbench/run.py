"""Closed-loop benchmark of the trisupport toolkit.

    python3 perfbench/run.py --workload symmetry-kron --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` and from nowhere else.  One process runs one workload with one caller
on one thread: each query is sent only after the previous answer has been
checked.  Set-up (package import, input generation from the seed, warm-up) is
repeated and its median is `setup_s`.  The timed loop then goes through the
plan's draws of the cycle in turn, each with its own inputs, and stops after
the whole draw whose end comes closest to `--seconds` of wall time (at least
one draw).  A query that ran more than once counts with its median latency;
p50 and p90 are taken over every query that ran (at least 100 per draw, so
that ten lie beyond p90), and queries_per_s is the number of checked queries
completed over the whole loop's time, checks included.

Times are the CPU time of the benchmark process (time.process_time: every
thread, user and system).  The program runs in this process on one thread
and waits on nothing but its own file writes to the page cache, so on an
unshared CPU this is its wall time; on a virtual machine whose host is busy
it leaves out the time the host ran other guests (steal time, which the
guest kernel does not charge to the process).

A shared host also changes how fast that CPU time runs, by 10-30% from one
stretch of tens of seconds to the next, and alike for any pure-Python code.
So every run also times a fixed reference kernel (exact rational arithmetic,
tuple-keyed dicts, sorting; no code of the program) every SPEED_EVERY CPU
seconds between queries, and divides each time by the run's slowdown: the
mean kernel time over its nominal REFERENCE_SECONDS.  The metrics are thus
CPU times at the kernel's nominal speed on the 2-vCPU machine the benchmark
was defined on.  The slowdown is printed beside them; a time as measured is
the printed time times the slowdown.  On that machine this cut the spread of
ten runs on ten seeds from up to 0.18 of the median to at most 0.10.

With `--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics; with `--trace 1` it carries the per-layer metrics of a traced run,
which runs the first draw, every query untraced, traced and untraced again,
and writes its spans to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time as clock
from types import SimpleNamespace

from tracing import METRICS as LAYER_METRICS, Tracer
from workloads import WORKLOADS, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
PACKAGE = "trisupport"
MODULES = ("core", "linalg", "deciders", "symmetry", "compress", "spectral", "arrangement", "cli", "constructions", "sampling")
DEFAULT_SEED = 1811
SETUP_REPEATS = 5
REFERENCE_SECONDS = 0.0025  # about the mean CPU time of reference_kernel on the defining machine
SPEED_EVERY = 0.1  # CPU seconds between reference samples in the timed loop
SETUP_SPEED_SAMPLES = 15  # reference samples after each set-up repeat
END_TO_END = {
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Counts:
    """Attempted and failed queries and the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, query, tracer: Tracer | None = None, digest: list | None = None) -> float:
        """Send one query, check its answer, and return its latency in CPU
        seconds (infinite if it failed).  The answer's invariants, or FAILED,
        are appended to `digest` when one is given."""
        self.attempted += 1
        span = tracer.begin("bench.query") if tracer else None
        t0 = clock()
        try:
            answer = query.call()
        except Exception:  # a raising query is a failed query; keep measuring
            if span:
                tracer.end(span)
            return self._fail(query, traceback.format_exc(limit=3), digest)
        latency = clock() - t0
        if span:
            tracer.end(span)
            span = tracer.begin("bench.check")
        try:
            invariant = query.check(answer)
        except Exception as exc:  # any error in checking counts against the answer
            return self._fail(query, f"{type(exc).__name__}: {exc}", digest)
        finally:
            if span:
                tracer.end(span)
        if digest is not None:
            digest.append([query.kind, invariant])
        return latency

    def _fail(self, query, message: str, digest: list | None) -> float:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"{query.kind}: {message.strip()}")
        if digest is not None:
            digest.append([query.kind, "FAILED"])
        return math.inf


def reference_kernel() -> int:
    """A fixed pure-Python mix like the program's own work: exact rational
    arithmetic, tuple-keyed dicts and sorting."""
    acc = Fraction(0)
    cells: dict = {}
    for i in range(1, 400):
        acc += Fraction(i, i + 3)
        key = (i % 7, i % 11, i % 13)
        cells[key] = cells.get(key, 0) + i
    return acc.denominator.bit_length() + len(sorted(cells.items()))


class Speed:
    """CPU times of the reference kernel, sampled through a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.due = 0.0

    def sample(self) -> None:
        """Time one kernel call with the collector off, so that no collection
        of the program's heap falls into it."""
        gc.disable()
        t0 = clock()
        reference_kernel()
        self.samples.append(clock() - t0)
        gc.enable()

    def tick(self) -> None:
        """Sample if SPEED_EVERY CPU seconds have passed since the last sample."""
        if clock() >= self.due:
            self.sample()
            self.due = clock() + SPEED_EVERY

    @staticmethod
    def slowdown(samples: list[float]) -> float:
        """Mean kernel time over its nominal time.  The mean, not the median:
        the host switches the CPU between fast and slow states faster than a
        query lasts, and the mean weighs the states as a query's time does."""
        return statistics.fmean(samples) / REFERENCE_SECONDS


def import_package() -> SimpleNamespace:
    """Import trisupport afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def set_up(workload: str, seed: int, tiny: bool, repeats: int, counts: Counts, speed: Speed):
    """Import, generate and warm up `repeats` times; return the median CPU
    time, each repeat's divided by the slowdown sampled right after it, and
    the last plan.  Warm-up answers of the last repeat are checked and
    counted."""
    times = []
    for rep in range(repeats):
        plan = None  # let the previous repeat's inputs go before building new ones
        t0 = clock()
        lib = import_package()
        plan = build(workload, lib, seed, tiny, OUT / f"{workload}-{os.getpid()}")
        warm = counts if rep == repeats - 1 else Counts()
        for query in plan.warmup:
            warm.run(query)
        elapsed = clock() - t0
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        times.append(elapsed / speed.slowdown(speed.samples[-SETUP_SPEED_SAMPLES:]))
    return statistics.median(times), plan


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; None when it falls on a failed query."""
    ordered = sorted(values)
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    return value if math.isfinite(value) else None


def timed_loop(plan, seconds: float, counts: Counts, speed: Speed) -> dict[str, float]:
    """Go through the draws in turn, whole draws only, until the end of the
    draw closest to `seconds` of wall time.  A query's latency is the median
    over its runs; throughput is over the CPU time of the queries and their
    checks.  Both are scaled by the loop's slowdown."""
    samples: list[list[list[float]]] = [[[] for _ in draw] for draw in plan.draws]
    digest: list = []
    busy = 0.0
    done = 0
    first = len(speed.samples)
    speed.sample()
    started = perf_counter()
    while True:
        draw = done % len(plan.draws)
        for n, query in enumerate(plan.draws[draw]):
            t0 = clock()
            samples[draw][n].append(counts.run(query, digest=digest if done == 0 else None))
            busy += clock() - t0
            speed.tick()
        done += 1
        elapsed = perf_counter() - started
        if elapsed + elapsed / done / 2 >= seconds:
            break
    slowdown = speed.slowdown(speed.samples[first:])
    # a query that failed in any run counts as missing every latency limit
    runs = [s for draw in samples for s in draw if s]
    ms = [statistics.median(s) * 1000.0 / slowdown if all(map(math.isfinite, s)) else math.inf for s in runs]
    return {
        "queries_per_s": sum(math.isfinite(x) for s in runs for x in s) / busy * slowdown,
        "query_p50_ms": percentile(ms, 0.5),
        "query_p90_ms": percentile(ms, 0.9),
        "_digest": digest,
        "_passes": done,
        "_draws": len(plan.draws),
        "_slowdown": slowdown,
        "_speed_samples": len(speed.samples) - first,
    }


def traced_loop(plan, counts: Counts, workload: str) -> dict[str, float]:
    """Run the first draw, every query untraced, traced and untraced again,
    back to back, so that the traced run is compared with untraced runs on
    either side of it, in the same machine state.  Spans are timed in wall
    time, and so is the comparison."""
    tracer = Tracer(PACKAGE)
    traced_wall = untraced_wall = 0.0
    digest: list = []
    for query in plan.draws[0]:
        t0 = perf_counter()
        counts.run(query, digest=digest)
        untraced = perf_counter() - t0
        tracer.install()
        try:
            t0 = perf_counter()
            counts.run(query, tracer)
            traced_wall += perf_counter() - t0
        finally:
            tracer.uninstall()
        t0 = perf_counter()
        counts.run(query)
        untraced_wall += (untraced + perf_counter() - t0) / 2
    metrics = tracer.summary(traced_wall, untraced_wall)
    tracer.write(OUT / f"spans-{workload}.jsonl")
    metrics["_digest"] = digest
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test scale: small rounds, one set-up")
    args = parser.parse_args(argv)

    # one thread for numeric libraries; numpy is first imported with the package
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    counts = Counts()
    speed = Speed()
    repeats = 1 if args.trace or args.tiny else SETUP_REPEATS
    try:
        setup_s, plan = set_up(args.workload, args.seed, args.tiny, repeats, counts, speed)
        if args.trace:
            result = traced_loop(plan, counts, args.workload)
            units = LAYER_METRICS
        else:
            result = timed_loop(plan, args.seconds, counts, speed)
            result["setup_s"] = setup_s
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END
    finally:
        shutil.rmtree(OUT / f"{args.workload}-{os.getpid()}", ignore_errors=True)

    digest = hashlib.sha256(json.dumps(result.pop("_digest"), sort_keys=True).encode()).hexdigest()
    for message in counts.messages:
        print(f"failure: {message}", file=sys.stderr)
    fail_ratio = counts.failed / counts.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{counts.attempted} queries, fail_ratio {fail_ratio:.6g} ratio, answer digest {digest[:16]}"
          + (f", {result['_passes']} passes over {result['_draws']} draws" if "_draws" in result else ""))
    if "_slowdown" in result:
        print(f"  reference kernel: {result['_slowdown']:.4f}x its nominal {REFERENCE_SECONDS * 1000:g} ms over "
              f"{result['_speed_samples']} samples in the timed loop; times below are divided by it")
    for name, unit in units.items():
        print(f"  {name:<42} {result[name]!s:>22} {unit}")
    print(json.dumps({
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": result[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
