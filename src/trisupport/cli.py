"""Command-line interface: JSON in, JSON out, deterministic given --seed.

Exit codes: 0 decided/ok, 1 invalid input or usage, 2 unknown (budget or
scope gate), 3 internal invariant violation or a failed reproduce criterion.
Results go to stdout as a run report; human-readable logs go to stderr;
--out writes the result payload to a file.

The parser tree is built once per process (`build_parser` is cached), and
each leaf subcommand carries its own handler, so `main` parses and calls
`args.handler` with no second dispatch.  A handler whose report still prints
but whose exit code is not 0 (an honest unknown, a failed reproduce criterion)
raises `ReportedExit`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__
from .arrangement import build_arrangement, joint_free_subarrangement, joints, render_svg
from .compress import _box_finder, find_zero_box, multicompressibility, slice_cover, size_splits, total_compressibility
from .constructions import (
    CATALOG_IDS,
    construct,
    coppersmith_winograd,
    m_one_sum,
    matmul,
    not_tight_compressible_4,
    oblique_not_tight_4,
    t_std,
    tight_max_support,
    free_max_support,
)
from .core import (
    Shape,
    Support,
    Tensor,
    _parse_ints,
    apply_permutations,
    support_from_json,
    support_to_obj,
    tensor_from_json,
    tensor_to_obj,
)
from .deciders import DEFAULT_BUDGET, TightWitness, census_m3, decide_oblique, decide_tight, is_free, max_oblique_size
from .sampling import generic_tensor_on, random_concise_tensor, random_support
from .spectral import SpectralWeights, ZetaUnconverged, zeta_full, zeta_min_over_axis_orders
from .symmetry import annihilator, check_propagation, class_dimension, span_stabilizer_dim

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNKNOWN = 2
EXIT_INTERNAL = 3


class ReportedExit(Exception):
    """A command that ends with its report printed and a non-zero exit code:
    an honest unknown (budget or scope gate), or a failed reproduce criterion."""

    def __init__(self, payload: dict, code: int):
        super().__init__(f"exit {code}")
        self.payload = payload
        self.code = code


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_support(path: str) -> Support:
    return support_from_json(Path(path).read_text())


def _read_tensor(path: str) -> Tensor:
    return tensor_from_json(Path(path).read_text())


def _witness_obj(w: TightWitness) -> dict:
    return {"tauA": list(w.tau_a), "tauB": list(w.tau_b), "tauC": list(w.tau_c)}


def _witness_from_obj(obj: object) -> TightWitness:
    if not isinstance(obj, dict):
        raise ValueError(f"witness must be a JSON object, got {type(obj).__name__}")
    return TightWitness(*(_parse_ints(obj.get(key), key) for key in ("tauA", "tauB", "tauC")))


def _perms_obj(p) -> dict:
    return {"onA": list(p.on_a), "onB": list(p.on_b), "onC": list(p.on_c)}


# --- subcommand handlers ---------------------------------------------------

def _cmd_construct(args) -> dict:
    built = construct(args.catalog_id, args.param)
    witness = None
    if isinstance(built, tuple):
        built, witness = built
    if isinstance(built, Support):
        kind, obj = "support", support_to_obj(built)
    else:
        kind, obj = "tensor", tensor_to_obj(built)
    out = {"kind": kind, kind: obj}
    if witness is not None:
        out["witness"] = _witness_obj(witness)
    out["_file_payload"] = obj
    return out


def _cmd_tight(args) -> dict:
    w = decide_tight(_read_support(args.infile), seed=args.seed)
    if w is None:
        return {"property": "tight", "holds": False}
    return {"property": "tight", "holds": True, "witness": _witness_obj(w)}


def _cmd_oblique(args) -> dict:
    res = decide_oblique(_read_support(args.infile), budget=args.budget, seed=args.seed)
    if res.status == "unknown":
        raise ReportedExit({"property": "oblique", "status": "unknown", "budget": args.budget}, EXIT_UNKNOWN)
    out = {"property": "oblique", "holds": res.status == "oblique"}
    if res.witness is not None:
        out["witness"] = _perms_obj(res.witness)
    return out


def _cmd_free(args) -> dict:
    return {"property": "free", "holds": is_free(_read_support(args.infile))}


def _census_counts(rep) -> dict:
    return {"maximal": rep.maximal_count, "concise": rep.concise_count, "orbits": rep.orbit_count}


def _cmd_census(args) -> dict:
    rep = census_m3(seed=args.seed)
    return {
        "counts": _census_counts(rep),
        "orbit_sizes": list(rep.orbit_sizes),
        "representatives": [
            {
                "triples": [list(t) for t in r.triples],
                "tight": w is not None,
                "witness": _witness_obj(w) if w is not None else None,
            }
            for r, w in zip(rep.representatives, rep.witnesses)
        ],
    }


def _cmd_max_oblique(args) -> dict:
    bound, achieving = max_oblique_size(args.a, args.b, args.c)
    return {"bound": bound, "achieving": support_to_obj(achieving)}


def _cmd_annihilator(args) -> dict:
    rep = annihilator(_read_tensor(args.infile))
    return {
        "kernel_dim": rep.kernel_dim,
        "annihilator_dim": rep.annihilator_dim,
        "basis_size": len(rep.basis),
    }


def _cmd_propagate(args) -> dict:
    return dataclasses.asdict(check_propagation(_read_tensor(args.in1), _read_tensor(args.in2)))


def _cmd_class_dim(args) -> dict:
    return {"class": args.cls, "m": args.m, "dimension": class_dimension(args.cls, args.m)}


def _cmd_span_stabilizer(args) -> dict:
    return {"span_stabilizer_dim": span_stabilizer_dim(_read_support(args.infile))}


def _cmd_box(args) -> dict:
    box = find_zero_box(_read_support(args.infile), *args.dims)
    out: dict = {"dims": args.dims, "found": box is not None}
    if box is not None:
        out["box"] = {"I": list(box.i_set), "J": list(box.j_set), "K": list(box.k_set)}
    out["note"] = "coordinate search; exact"
    return out


def _cmd_multi(args) -> dict:
    return {
        "multicompressibility": multicompressibility(_read_support(args.infile)),
        "note": "coordinate notion; lower bound for subspace notion",
    }


def _cmd_cover(args) -> dict:
    s = _read_support(args.infile)
    cov = slice_cover(s)
    kappa = sum(s.shape) - cov.size  # the complement of a minimum cover is a largest zero box
    return {
        "cover_size": cov.size,
        "slices": [{"axis": a, "index": i} for a, i in cov.slices],
        "total_compressibility": kappa,
        "duality_sum": cov.size + kappa,
    }


def _parse_theta(vals: list[str]) -> SpectralWeights:
    try:
        return SpectralWeights(*map(Fraction, vals))
    except ZeroDivisionError as exc:  # Fraction("1/0")
        raise ValueError(f"theta {' '.join(vals)} has a zero denominator") from exc


def _cmd_zeta(args) -> dict:
    s = _read_support(args.infile)
    weights = _parse_theta(args.theta)
    try:
        res = (zeta_min_over_axis_orders if args.min_orders else zeta_full)(s, weights)
    except ZetaUnconverged as exc:
        raise ReportedExit(
            {"status": "unknown", "reason": "unconverged zeta solve", "gap": exc.gap, "iterations": exc.iterations},
            EXIT_UNKNOWN,
        ) from exc
    if args.min_orders:
        if res.status == "unknown":
            raise ReportedExit(
                {"status": "unknown", "reason": "axis size above the exhaustive-order gate"}, EXIT_UNKNOWN
            )
        return {
            "value": res.value,
            "certificate_gap": res.gap,
            "minimized_over_axis_orders": True,
            "note": "coordinate-flag upper bound for the full flag minimum",
        }
    return {
        "value": res.value,
        "log2_value": res.log2_value,
        "certificate_gap": res.gap,
        "iterations": res.iterations,
        "note": "coordinate-flag value",
    }


def _cmd_arrange(args) -> dict:
    obj = json.loads(Path(args.witness).read_text())
    w = _witness_from_obj(obj)
    arr = build_arrangement(w)
    out: dict = {
        "lines": {"x": list(arr.xs), "y": list(arr.ys), "z": list(arr.zs)},
        "joints": [
            {"point": list(j.point), "triple": list(j.triple)} for j in joints(arr)
        ],
    }
    if args.dims is not None:
        sub = joint_free_subarrangement(arr, *args.dims)
        out["joint_free_subarrangement"] = (
            None if sub is None else {"x": list(sub.xs), "y": list(sub.ys), "z": list(sub.zs)}
        )
    if args.svg is not None:
        render_svg(arr, args.svg)
        out["svg"] = args.svg
    return out


# --- reproduce: the acceptance criteria ------------------------------------
# CRITERIA holds acceptance criteria 1-7 in order.  Each run(seed) draws from its
# own Random(seed), so its inputs do not depend on the entries run before it.


class CriterionFailed(Exception):
    """A claim checked by one CRITERIA entry does not hold."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CriterionFailed(message)


def _census_criterion(seed: int) -> dict:
    rep = census_m3(seed=seed)
    counts = _census_counts(rep)
    _require(list(counts.values()) == [144, 80, 13] and sum(rep.orbit_sizes) == 80, f"census {counts}, {rep.orbit_sizes}")
    certified = all(w is not None and w.certifies(r) for r, w in zip(rep.representatives, rep.witnesses))
    _require(certified, "an orbit representative is not certified tight")
    return counts


def _maximal_supports_criterion(seed: int) -> dict:
    for m in range(2, 9):
        s, w = tight_max_support(m)
        found = decide_tight(s, seed=seed)
        _require(len(s) == (3 * m * m + 3) // 4 and w.certifies(s), f"t-max({m}) has the wrong size or certificate")
        _require(found is not None and found.certifies(s), f"decide_tight does not certify t-max({m})")
        f = free_max_support(m)
        _require(len(f) == m * m and is_free(f), f"f-max({m}) is not a free support of size {m * m}")
    return {}


def _annihilator_criterion(seed: int) -> dict:
    rng = random.Random(seed)
    for m in (3, 4, 5):
        generic = annihilator(generic_tensor_on(tight_max_support(m)[0], rng)).annihilator_dim
        _require(generic == 1, f"generic tensor on t-max({m}): annihilator {generic}, expected 1")
        _require(annihilator(t_std(m)).annihilator_dim == 0, f"t_std({m}) has a nonzero annihilator")
    for t in (oblique_not_tight_4(), not_tight_compressible_4()):
        _require(annihilator(t).annihilator_dim == 0, "a 4x4x4 counterexample has a nonzero annihilator")
    # matmul(n) has 3(n^2 - 1) symmetries; the effective group has dimension 3m^2 - 2 (m = n^2 = 4), so
    # the affine orbit of M<2> is one dimension above the projective one that class_dimension("MaMu", 4) counts
    matmul2_dim = annihilator(matmul(2)).annihilator_dim
    ok = matmul2_dim == 9 and (3 * 16 - 2) - matmul2_dim == class_dimension("MaMu", 4) + 1
    _require(ok, f"matmul(2): annihilator {matmul2_dim}, expected 9 = 3m^2 - 2 - (MaMu(4) + 1)")
    return {"matmul2_dim": matmul2_dim, "matmul2_expected": 9}


def _class_dimension_criterion(seed: int) -> dict:
    for m in (3, 4, 5):
        dims = (span_stabilizer_dim(tight_max_support(m)[0]), span_stabilizer_dim(free_max_support(m)))
        _require(dims == (3 * m, 3 * m), f"span stabilizers of t-max({m}), f-max({m}): {dims}, expected {3 * m}")
    # at m = 2 the unit tensor's affine orbit, 3m^2 - 2 = 10 minus its annihilator, fills the ambient space
    unit_orbit = 10 - annihilator(m_one_sum(2)).annihilator_dim
    at_two = [class_dimension(cls, 2) for cls in ("Tight", "Oblique", "Free", "Ambient")]
    _require(at_two == [unit_orbit] * 4, f"class dimensions {at_two} at m = 2, unit tensor orbit {unit_orbit}")
    rows = [{"m": m, **{cls: class_dimension(cls, m) for cls in ("Tight", "Oblique", "Free")}} for m in range(2, 7)]
    _require(all(row["Oblique"] == row["Tight"] for row in rows), f"Oblique differs from Tight: {rows}")
    return {"unit_orbit_m2": unit_orbit, "rows": rows}


def _compressibility_criterion(seed: int) -> dict:
    rng = random.Random(seed)
    rep = census_m3(seed=seed)
    # sorted by its weighting, a tight support of the m-cube misses a half box
    for s, w in [tight_max_support(m) for m in range(3, 8)] + list(zip(rep.representatives, rep.witnesses)):
        hi, lo = (s.shape.a + 1) // 2, s.shape.a // 2
        ss = apply_permutations(s, w.sorting_permutations())
        splits = {(hi, hi, lo), (hi, lo, hi), (lo, hi, hi)}
        find = _box_finder(ss)
        _require(any(find(*p) is not None for p in splits), f"sorted {s.triples} misses no half box")
    bounds = [(tight_max_support(m)[0], 3 * (m // 2) + 1) for m in range(3, 7)]
    bounds += [(coppersmith_winograd(q).support(), 2 * q + 1) for q in (1, 2)]
    bounds += [(coppersmith_winograd(q, big=True).support(), 2 * q + 3) for q in (1, 2)]
    bounds.append((not_tight_compressible_4().support(), 6))
    for s, bound in bounds:
        _require(multicompressibility(s) >= bound, f"multicompressibility of {s.triples} is below {bound}")
    for _ in range(100):
        shp = Shape(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        s = random_support(rng, shp, rng.uniform(0.15, 0.8))
        kappa, box = total_compressibility(s)
        _require(slice_cover(s).size + kappa == shp.a + shp.b + shp.c, f"cover duality fails on {s.triples} in {shp}")
        # the other engine confirms the box, and by monotonicity that no larger one exists
        find = _box_finder(s)
        larger = [sp for sp in size_splits(shp, kappa + 1) if find(*sp) is not None]
        _require(find(*box.dims()) is not None and not larger, f"kappa {kappa} of {s.triples} is not maximal")
    return {}


def _support_functional_criterion(seed: int) -> dict:
    uniform = SpectralWeights.uniform()
    for r in range(1, 6):
        for theta in (uniform, SpectralWeights(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), SpectralWeights(1, 0, 0)):
            value = zeta_full(m_one_sum(r).support(), theta).value
            _require(abs(value - r) <= 1e-6, f"zeta of m1-sum({r}) at {theta} is {value}, expected {r}")
    two_point = zeta_full(Support(Shape(2, 2, 2), ((0, 0, 0), (1, 1, 0))), uniform).value
    _require(abs(two_point - 2 ** (2 / 3)) <= 1e-4, f"two-point zeta is {two_point}, expected 2^(2/3)")
    return {"two_point": two_point}


def _propagation_criterion(seed: int) -> dict:
    rng = random.Random(seed)
    for _ in range(10):
        t1 = random_concise_tensor(rng, Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)))
        t2 = random_concise_tensor(rng, Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)))
        prop = check_propagation(t1, t2)
        ok = prop.sum_is_additive and prop.product_contains_factors and prop.zero_factors_give_zero_product
        _require(ok, f"propagation fails for tensors of shapes {t1.shape} and {t2.shape}")
    prop = check_propagation(t_std(3), t_std(3))
    dims = (prop.dim_first, prop.dim_second, prop.dim_direct_sum, prop.dim_kronecker)
    ok = dims == (0, 0, 0, 0) and prop.sum_is_additive and prop.zero_factors_give_zero_product
    _require(ok, f"t_std(3) with itself: annihilators {dims}, or propagation fails")
    return {}


CRITERIA = (
    ("census counts 144/80/13, all orbit representatives tight", _census_criterion),
    ("maximal tight/free supports, sizes and certificates (m=2..8)", _maximal_supports_criterion),
    ("annihilator dimensions of catalog tensors", _annihilator_criterion),
    ("class dimensions: span stabilizers, the m=2 unit orbit, oblique = tight", _class_dimension_criterion),
    ("compressibility: boxes, multicompressibility bounds, cover duality", _compressibility_criterion),
    ("support functional: normalization and the two-point value", _support_functional_criterion),
    ("symmetry propagation under direct sum and Kronecker product", _propagation_criterion),
)


def _cmd_reproduce(args) -> dict:
    checks: list[dict] = []
    for name, run in CRITERIA:
        try:
            checks.append({"name": name, "ok": True, **run(args.seed)})
        except CriterionFailed as exc:
            checks.append({"name": name, "ok": False, "failed": str(exc)})
        print(f"[{'ok' if checks[-1]['ok'] else 'FAIL'}] {name}", file=sys.stderr)
    report = {"checks": checks, "all_ok": all(c["ok"] for c in checks)}
    if not report["all_ok"]:
        # a failed paper claim still prints the whole report, then exits like a broken invariant
        raise ReportedExit(report, EXIT_INTERNAL)
    return report


# --- driver ----------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call; every caller shares it, so
    none may add to it."""
    parser = argparse.ArgumentParser(
        prog="trisupport",
        description="Exact combinatorics of 3-tensor supports.",
    )
    # every leaf carries the common flags, so "--seed" works after the leaf name
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=0, help="seed for randomized witnesses and generic tensors"
    )
    common.add_argument("--out", help="also write the result payload to this file")
    reads = argparse.ArgumentParser(add_help=False, parents=[common])
    reads.add_argument("--in", dest="infile", required=True)
    # no dest on any group: a missing leaf is then reported by its choices, not an internal name
    sub = parser.add_subparsers(required=True)

    def leaf(group, name: str, handler, parent=common, **kwargs) -> argparse.ArgumentParser:
        p = group.add_parser(name, parents=[parent], **kwargs)
        p.set_defaults(handler=handler)
        return p

    def branch(name: str, **kwargs):
        return sub.add_parser(name, **kwargs).add_subparsers(required=True)

    p = leaf(sub, "construct", _cmd_construct, help="emit a catalog tensor or support as JSON")
    p.add_argument("catalog_id", choices=CATALOG_IDS)
    p.add_argument("param", type=int, nargs="?", help="size parameter where required")

    decide = branch("decide", help="decide a support class with certificate")
    leaf(decide, "tight", _cmd_tight, reads)
    p = leaf(decide, "oblique", _cmd_oblique, reads)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="backtracking node budget")
    leaf(decide, "free", _cmd_free, reads)

    leaf(sub, "census-m3", _cmd_census, help="classify maximal antichains of the 3-cube")

    p = leaf(sub, "max-oblique", _cmd_max_oblique, help="sharp antichain bound with achieving slice")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)

    symmetry = branch("symmetry", help="symmetry Lie algebra computations")
    leaf(symmetry, "annihilator", _cmd_annihilator, reads)
    p = leaf(symmetry, "propagate", _cmd_propagate)
    p.add_argument("--in1", required=True)
    p.add_argument("--in2", required=True)
    p = leaf(symmetry, "class-dim", _cmd_class_dim)
    p.add_argument("cls", choices=("MaMu", "Tight", "Oblique", "Free", "Ambient"))
    p.add_argument("m", type=int)
    leaf(symmetry, "span-stabilizer", _cmd_span_stabilizer, reads)

    compress = branch("compress", help="zero boxes, multicompressibility, slice covers")
    p = leaf(compress, "box", _cmd_box, reads)
    p.add_argument("--dims", type=int, nargs=3, required=True, metavar=("A1", "B1", "C1"))
    leaf(compress, "multi", _cmd_multi, reads)
    leaf(compress, "cover", _cmd_cover, reads)

    p = leaf(sub, "zeta", _cmd_zeta, reads, help="support functional at coordinate flags")
    p.add_argument("--theta", nargs=3, required=True, metavar=("TA", "TB", "TC"))
    p.add_argument("--min-orders", action="store_true")

    p = leaf(sub, "arrange", _cmd_arrange, help="line arrangement from a weighting witness")
    p.add_argument("--witness", required=True)
    p.add_argument("--svg", help="write a deterministic SVG rendering here")
    p.add_argument("--dims", type=int, nargs=3, metavar=("A1", "B1", "C1"))

    leaf(sub, "reproduce", _cmd_reproduce, help="run the consolidated verification suite")
    return parser


def _input_digests(args) -> dict[str, str]:
    digests = {}
    for attr in ("infile", "in1", "in2", "witness"):
        path = getattr(args, attr, None)
        if path:
            digests[path] = _sha256(path)
    return digests


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_INVALID if exc.code else EXIT_OK
    started = time.time()
    code = EXIT_OK
    try:
        digests = _input_digests(args)
        try:
            result = args.handler(args)
        except ReportedExit as exc:
            result, code = exc.payload, exc.code
        file_payload = result.pop("_file_payload", result)
        # written before the report, so an unwritable path prints no report
        if args.out:
            Path(args.out).write_text(json.dumps(file_payload, indent=2) + "\n")
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report = {
        "command": argv,
        "inputs": digests,
        "seed": args.seed,
        "result": result,
        "elapsed_s": round(time.time() - started, 6),
        "version": __version__,
    }
    print(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
