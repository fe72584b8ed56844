"""Benchmark-side tracing of calls into the library's public functions.

`Tracer.install` rebinds each traced function, in its defining module and in
every trisupport module that imported it by name, to a wrapper that records a
span (name, start, end, parent) in memory and updates a few counters from the
call's arguments and result.  `uninstall` puts the originals back.  Nothing
inside the library changes.

Self time is a span's duration minus the time its child spans cover.  Counter
work done by a wrapper happens outside its own span; it is recorded as the
span's overhead, taken out of the parent's self time and reported as
`trace.self_s`, so the layer self times stay honest.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from time import perf_counter

# span name -> (module, function); several functions may share one span name
TRACED = {
    "core.kronecker": [("core", "kronecker")],
    "core.direct_sum": [("core", "direct_sum")],
    "core.apply_permutations": [("core", "apply_permutations")],
    "core.json": [
        ("core", f)
        for f in (
            "tensor_to_obj", "support_to_obj", "obj_to_tensor", "obj_to_support",
            "tensor_to_json", "support_to_json", "tensor_from_json", "support_from_json",
        )
    ],
    "linalg.rank": [("linalg", "rank")],
    "linalg.nullspace": [("linalg", "nullspace")],
    "symmetry.annihilator": [("symmetry", "annihilator")],
    "symmetry.lie_apply": [("symmetry", "lie_apply")],
    "symmetry.check_propagation": [("symmetry", "check_propagation")],
    "symmetry.flattening_rank": [("symmetry", "flattening_rank")],
    "deciders.decide_oblique": [("deciders", "decide_oblique")],
    "deciders.decide_tight": [("deciders", "decide_tight")],
    "deciders.census_m3": [("deciders", "census_m3")],
    "compress.find_zero_box": [("compress", "find_zero_box")],
    "compress.total_compressibility": [("compress", "total_compressibility")],
    "compress.multicompressibility": [("compress", "multicompressibility")],
    "compress.slice_cover": [("compress", "slice_cover")],
    "spectral.zeta_full": [("spectral", "zeta_full")],
    "spectral.incompr_set": [("spectral", "incompr_set")],
    "spectral.zeta_min": [("spectral", "zeta_min_over_axis_orders")],
    "arrangement.build_arrangement": [("arrangement", "build_arrangement")],
    "arrangement.joints": [("arrangement", "joints")],
    "arrangement.render_svg": [("arrangement", "render_svg")],
    "arrangement.joint_free_subarrangement": [("arrangement", "joint_free_subarrangement")],
    "cli.main": [("cli", "main")],
}

LAYERS = ("core", "linalg", "symmetry", "deciders", "compress", "spectral", "arrangement", "cli")

# per-layer metrics, in report order: name -> unit
METRICS = {
    "linalg.calls": "count",
    "linalg.self_s": "s",
    "linalg.rows_sum": "count",
    "linalg.nnz_sum": "count",
    "linalg.in_bits_max": "bits",
    "linalg.nullity_sum": "count",
    "linalg.out_bits_max": "bits",
    "symmetry.self_s": "s",
    "symmetry.annihilator.calls": "count",
    "symmetry.annihilator.self_s": "s",
    "symmetry.annihilator.ncols_max": "count",
    "symmetry.lie_apply.self_s": "s",
    "symmetry.check_propagation.self_s": "s",
    "symmetry.flattening_rank.calls": "count",
    "deciders.self_s": "s",
    "deciders.decide_oblique.calls": "count",
    "deciders.decide_oblique.self_s": "s",
    "deciders.decide_oblique.nodes_sum": "count",
    "deciders.decide_oblique.nodes_max": "count",
    "deciders.decide_oblique.fastpath_ratio": "ratio",
    "deciders.decide_tight.calls": "count",
    "deciders.decide_tight.self_s": "s",
    "deciders.decide_tight.tight_ratio": "ratio",
    "deciders.census_m3.self_s": "s",
    "compress.self_s": "s",
    "compress.find_zero_box.calls": "count",
    "compress.find_zero_box.self_s": "s",
    "compress.find_zero_box.found_ratio": "ratio",
    "compress.total_compressibility.self_s": "s",
    "compress.multicompressibility.self_s": "s",
    "compress.slice_cover.self_s": "s",
    "spectral.self_s": "s",
    "spectral.zeta_full.calls": "count",
    "spectral.zeta_full.self_s": "s",
    "spectral.zeta_full.iterations_sum": "count",
    "spectral.zeta_full.iterations_max": "count",
    "spectral.zeta_full.gap_max": "log2",
    "spectral.incompr_set.self_s": "s",
    "spectral.zeta_min.orders": "count",
    "spectral.zeta_min.cache_hit_ratio": "ratio",
    "core.self_s": "s",
    "core.kronecker.self_s": "s",
    "core.direct_sum.self_s": "s",
    "core.apply_permutations.self_s": "s",
    "core.json.self_s": "s",
    "arrangement.self_s": "s",
    "arrangement.joints.count": "count",
    "arrangement.render_svg.bytes": "B",
    "cli.main.self_s": "s",
    "bench.self_s": "s",
    "trace.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}


def _bits(v) -> int:
    return max(abs(v.numerator).bit_length(), v.denominator.bit_length())


class Tracer:
    def __init__(self, package: str = "trisupport"):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent, overhead]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def begin(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()

    def add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    # --- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        if name.startswith("linalg."):

            def linalg_wrapper(rows, ncols):
                t0 = perf_counter()
                rows = list(rows)
                tracer._linalg_inputs(rows)
                span = tracer.begin(name)
                pre = span[1] - t0
                try:
                    out = fn(rows, ncols)
                finally:
                    tracer.end(span)
                tracer._linalg_outputs(name, out, ncols)
                span[4] = pre + perf_counter() - span[2]
                return out

            return linalg_wrapper

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(args, out)
                span[4] = perf_counter() - span[2]
            return out

        return wrapper

    def _linalg_inputs(self, rows) -> None:
        self.add("linalg.rows_sum", len(rows))
        self.add("linalg.nnz_sum", sum(map(len, rows)))
        self.peak("linalg.in_bits_max", max((abs(v).bit_length() for r in rows for v in r.values()), default=0))

    def _linalg_outputs(self, name: str, out, ncols: int) -> None:
        if name == "linalg.rank":
            self.add("linalg.nullity_sum", ncols - out)
            return
        self.add("linalg.nullity_sum", len(out))
        self.peak("linalg.out_bits_max", max((_bits(v) for vec in out for v in vec), default=0))

    def _after_symmetry_annihilator(self, args, out) -> None:
        self.peak("symmetry.annihilator.ncols_max", sum(n * n for n in args[0].shape))

    def _after_deciders_decide_oblique(self, args, out) -> None:
        self.add("deciders.decide_oblique.nodes_sum", out.nodes)
        self.peak("deciders.decide_oblique.nodes_max", out.nodes)
        self.add("deciders.decide_oblique.fastpath", out.status == "oblique" and out.nodes == 0)

    def _after_deciders_decide_tight(self, args, out) -> None:
        self.add("deciders.decide_tight.tight", out is not None)

    def _after_compress_find_zero_box(self, args, out) -> None:
        self.add("compress.find_zero_box.found", out is not None)

    def _after_spectral_zeta_full(self, args, out) -> None:
        self.add("spectral.zeta_full.iterations_sum", out.iterations)
        self.peak("spectral.zeta_full.iterations_max", out.iterations)
        self.peak("spectral.zeta_full.gap_max", out.gap)

    def _after_spectral_zeta_min(self, args, out) -> None:
        a, b, c = args[0].shape
        self.add("spectral.zeta_min.orders", math.factorial(a) * math.factorial(b) * math.factorial(c))

    def _after_arrangement_joints(self, args, out) -> None:
        self.add("arrangement.joints.count", len(out))

    def _after_arrangement_render_svg(self, args, out) -> None:
        self.add("arrangement.render_svg.bytes", len(out))

    def install(self) -> None:
        """Rebind every traced function wherever a trisupport module holds it."""
        modules = [m for n, m in sys.modules.items() if n == self.package or n.startswith(self.package + ".")]
        for name, targets in TRACED.items():
            for mod_name, fn_name in targets:
                original = getattr(sys.modules[f"{self.package}.{mod_name}"], fn_name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # --- results -----------------------------------------------------------

    def summary(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        n = len(self.spans)
        covered = [0.0] * n
        calls: dict[str, int] = {}
        for sp in self.spans:
            if sp[3] >= 0:
                covered[sp[3]] += sp[2] - sp[1] + sp[4]
            calls[sp[0]] = calls.get(sp[0], 0) + 1
        self_by_name: dict[str, float] = {}
        in_min = [False] * n
        inner_zeta = 0
        for idx, sp in enumerate(self.spans):
            name, parent = sp[0], sp[3]
            self_by_name[name] = self_by_name.get(name, 0.0) + (sp[2] - sp[1]) - covered[idx]
            in_min[idx] = name == "spectral.zeta_min" or (parent >= 0 and in_min[parent])
            if name == "spectral.zeta_full" and parent >= 0 and in_min[parent]:
                inner_zeta += 1

        c = self.counters.get
        m: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, t in self_by_name.items():
            layer_self[name.split(".")[0]] += t
        for layer, t in layer_self.items():
            m[f"{layer}.self_s"] = t
        for name, t in self_by_name.items():
            m[f"{name}.self_s"] = t
        m["linalg.calls"] = calls.get("linalg.rank", 0) + calls.get("linalg.nullspace", 0)
        for key in ("linalg.rows_sum", "linalg.nnz_sum", "linalg.in_bits_max", "linalg.nullity_sum", "linalg.out_bits_max"):
            m[key] = c(key, 0)
        for name in ("symmetry.annihilator", "symmetry.flattening_rank", "deciders.decide_oblique",
                     "deciders.decide_tight", "compress.find_zero_box", "spectral.zeta_full"):
            m[f"{name}.calls"] = calls.get(name, 0)
        m["symmetry.annihilator.ncols_max"] = c("symmetry.annihilator.ncols_max", 0)
        obl = calls.get("deciders.decide_oblique", 0)
        m["deciders.decide_oblique.nodes_sum"] = c("deciders.decide_oblique.nodes_sum", 0)
        m["deciders.decide_oblique.nodes_max"] = c("deciders.decide_oblique.nodes_max", 0)
        m["deciders.decide_oblique.fastpath_ratio"] = c("deciders.decide_oblique.fastpath", 0) / obl if obl else 0.0
        tight = calls.get("deciders.decide_tight", 0)
        m["deciders.decide_tight.tight_ratio"] = c("deciders.decide_tight.tight", 0) / tight if tight else 0.0
        boxes = calls.get("compress.find_zero_box", 0)
        m["compress.find_zero_box.found_ratio"] = c("compress.find_zero_box.found", 0) / boxes if boxes else 0.0
        for key in ("spectral.zeta_full.iterations_sum", "spectral.zeta_full.iterations_max",
                    "spectral.zeta_full.gap_max", "spectral.zeta_min.orders",
                    "arrangement.joints.count", "arrangement.render_svg.bytes"):
            m[key] = c(key, 0)
        orders = c("spectral.zeta_min.orders", 0)
        m["spectral.zeta_min.cache_hit_ratio"] = 1.0 - inner_zeta / orders if orders else 0.0
        overhead = sum(sp[4] for sp in self.spans)
        m["trace.self_s"] = overhead
        m["trace.wall_s"] = traced_wall
        m["trace.overhead_ratio"] = traced_wall / untraced_wall
        m["trace.accounted_ratio"] = (sum(layer_self.values()) + overhead) / traced_wall
        return {name: float(m.get(name, 0.0)) for name in METRICS}

    def write(self, path: Path) -> None:
        """Write the spans out, one JSON array per line: name, start, end,
        parent index (-1 for a root) and counter overhead, times in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")
