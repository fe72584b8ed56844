"""Command-line interface: JSON in, JSON out, deterministic given --seed.

Exit codes: 0 decided/ok, 1 invalid input or usage, 2 unknown (budget or
scope gate), 3 internal invariant violation or a failed reproduce criterion.
Results go to stdout as a run report; human-readable logs go to stderr;
--out writes the result payload to a file.
"""

from __future__ import annotations

import argparse
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
from .compress import find_zero_box, multicompressibility, slice_cover, size_splits, total_compressibility
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
from .deciders import TightWitness, census_m3, decide_oblique, decide_tight, is_free, max_oblique_size
from .sampling import generic_tensor_on, random_concise_tensor, random_support
from .spectral import SpectralWeights, ZetaUnconverged, zeta, zeta_full, zeta_min_over_axis_orders
from .symmetry import annihilator, check_propagation, class_dimension, span_stabilizer_dim

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNKNOWN = 2
EXIT_INTERNAL = 3


class UnknownResult(Exception):
    """Raised when a command ends in an honest don't-know (budget/scope)."""

    def __init__(self, payload: dict):
        super().__init__("unknown")
        self.payload = payload


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
    if isinstance(built, tuple):
        support, witness = built
        obj = support_to_obj(support)
        return {
            "kind": "support",
            "support": obj,
            "witness": _witness_obj(witness),
            "_file_payload": obj,
        }
    if isinstance(built, Support):
        obj = support_to_obj(built)
        return {"kind": "support", "support": obj, "_file_payload": obj}
    obj = tensor_to_obj(built)
    return {"kind": "tensor", "tensor": obj, "_file_payload": obj}


def _cmd_decide(args) -> dict:
    s = _read_support(args.infile)
    if args.property == "free":
        return {"property": "free", "holds": is_free(s)}
    if args.property == "tight":
        w = decide_tight(s, seed=args.seed)
        if w is None:
            return {"property": "tight", "holds": False}
        return {"property": "tight", "holds": True, "witness": _witness_obj(w)}
    res = decide_oblique(s, budget=args.budget, seed=args.seed)
    if res.status == "unknown":
        raise UnknownResult({"property": "oblique", "status": "unknown", "budget": args.budget})
    out = {"property": "oblique", "holds": res.status == "oblique"}
    if res.witness is not None:
        out["witness"] = _perms_obj(res.witness)
    return out


def _cmd_census(args) -> dict:
    rep = census_m3(seed=args.seed)
    return {
        "counts": {
            "maximal": rep.maximal_count,
            "concise": rep.concise_count,
            "orbits": rep.orbit_count,
        },
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


def _cmd_symmetry(args) -> dict:
    if args.sym_cmd == "annihilator":
        t = _read_tensor(args.infile)
        rep = annihilator(t)
        return {
            "kernel_dim": rep.kernel_dim,
            "annihilator_dim": rep.annihilator_dim,
            "basis_size": len(rep.basis),
        }
    if args.sym_cmd == "propagate":
        t1 = _read_tensor(args.in1)
        t2 = _read_tensor(args.in2)
        rep = check_propagation(t1, t2)
        return {
            "dim_first": rep.dim_first,
            "dim_second": rep.dim_second,
            "dim_direct_sum": rep.dim_direct_sum,
            "dim_kronecker": rep.dim_kronecker,
            "sum_is_additive": rep.sum_is_additive,
            "product_contains_factors": rep.product_contains_factors,
            "zero_factors_give_zero_product": rep.zero_factors_give_zero_product,
        }
    if args.sym_cmd == "class-dim":
        return {"class": args.cls, "m": args.m, "dimension": class_dimension(args.cls, args.m)}
    if args.sym_cmd == "span-stabilizer":
        s = _read_support(args.infile)
        return {"span_stabilizer_dim": span_stabilizer_dim(s)}
    raise ValueError(f"unknown symmetry subcommand {args.sym_cmd!r}")


def _cmd_compress(args) -> dict:
    s = _read_support(args.infile)
    if args.comp_cmd == "box":
        a1, b1, c1 = args.dims
        box = find_zero_box(s, a1, b1, c1)
        if box is None:
            return {"dims": [a1, b1, c1], "found": False, "note": "coordinate search; exact"}
        return {
            "dims": [a1, b1, c1],
            "found": True,
            "box": {"I": list(box.i_set), "J": list(box.j_set), "K": list(box.k_set)},
            "note": "coordinate search; exact",
        }
    if args.comp_cmd == "multi":
        return {
            "multicompressibility": multicompressibility(s),
            "note": "coordinate notion; lower bound for subspace notion",
        }
    if args.comp_cmd == "cover":
        cov = slice_cover(s)
        kappa, _ = total_compressibility(s)
        return {
            "cover_size": cov.size,
            "slices": [{"axis": a, "index": i} for a, i in cov.slices],
            "total_compressibility": kappa,
            "duality_sum": cov.size + kappa,
        }
    raise ValueError(f"unknown compress subcommand {args.comp_cmd!r}")


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
        raise UnknownResult(
            {"status": "unknown", "reason": "ascent iteration cap", "gap": exc.gap, "iterations": exc.iterations}
        ) from exc
    if args.min_orders:
        if res.status == "unknown":
            raise UnknownResult(
                {"status": "unknown", "reason": "axis size above the exhaustive-order gate"}
            )
        return {
            "value": res.value,
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
        a1, b1, c1 = args.dims
        sub = joint_free_subarrangement(arr, a1, b1, c1)
        if sub is None:
            out["joint_free_subarrangement"] = None
        else:
            out["joint_free_subarrangement"] = {
                "x": list(sub.xs),
                "y": list(sub.ys),
                "z": list(sub.zs),
            }
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
    counts = {"maximal": rep.maximal_count, "concise": rep.concise_count, "orbits": rep.orbit_count}
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
        _require(any(find_zero_box(ss, *p) is not None for p in splits), f"sorted {s.triples} misses no half box")
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
        larger = [sp for sp in size_splits(shp, kappa + 1) if find_zero_box(s, *sp) is not None]
        _require(find_zero_box(s, *box.dims()) is not None and not larger, f"kappa {kappa} of {s.triples} is not maximal")
    return {}


def _support_functional_criterion(seed: int) -> dict:
    uniform = SpectralWeights.uniform()
    for r in range(1, 6):
        for theta in (uniform, SpectralWeights(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), SpectralWeights(1, 0, 0)):
            value = zeta(m_one_sum(r).support(), theta)
            _require(abs(value - r) <= 1e-6, f"zeta of m1-sum({r}) at {theta} is {value}, expected {r}")
    two_point = zeta(Support(Shape(2, 2, 2), ((0, 0, 0), (1, 1, 0))), uniform)
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
    all_ok = all(c["ok"] for c in checks)
    # a failed paper claim still prints the whole report, then exits like a broken invariant
    return {"checks": checks, "all_ok": all_ok, "_exit_code": EXIT_OK if all_ok else EXIT_INTERNAL}


# --- driver ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisupport",
        description="Exact combinatorics of 3-tensor supports.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=0, help="seed for randomized witnesses and generic tensors"
    )
    common.add_argument("--out", help="also write the result payload to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add("construct", help="emit a catalog tensor or support as JSON")
    p.add_argument("catalog_id", choices=CATALOG_IDS)
    p.add_argument("param", type=int, nargs="?", help="size parameter where required")
    p.set_defaults(handler=_cmd_construct)

    p = add("decide", help="decide a support class with certificate")
    p.add_argument("property", choices=("tight", "oblique", "free"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget", type=int, default=10_000_000, help="backtracking node budget for oblique")
    p.set_defaults(handler=_cmd_decide)

    p = add("census-m3", help="classify maximal antichains of the 3-cube")
    p.set_defaults(handler=_cmd_census)

    p = add("max-oblique", help="sharp antichain bound with achieving slice")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(handler=_cmd_max_oblique)

    # nested leaves carry the common flags so "--seed" works after the leaf name
    p = sub.add_parser("symmetry", help="symmetry Lie algebra computations")
    ps = p.add_subparsers(dest="sym_cmd", required=True)
    q = ps.add_parser("annihilator", parents=[common])
    q.add_argument("--in", dest="infile", required=True)
    q = ps.add_parser("propagate", parents=[common])
    q.add_argument("--in1", required=True)
    q.add_argument("--in2", required=True)
    q = ps.add_parser("class-dim", parents=[common])
    q.add_argument("cls", choices=("MaMu", "Tight", "Oblique", "Free", "Ambient"))
    q.add_argument("m", type=int)
    q = ps.add_parser("span-stabilizer", parents=[common])
    q.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_symmetry)

    p = sub.add_parser("compress", help="zero boxes, multicompressibility, slice covers")
    pc = p.add_subparsers(dest="comp_cmd", required=True)
    q = pc.add_parser("box", parents=[common])
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--dims", type=int, nargs=3, required=True, metavar=("A1", "B1", "C1"))
    q = pc.add_parser("multi", parents=[common])
    q.add_argument("--in", dest="infile", required=True)
    q = pc.add_parser("cover", parents=[common])
    q.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_compress)

    p = add("zeta", help="support functional at coordinate flags")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--theta", nargs=3, required=True, metavar=("TA", "TB", "TC"))
    p.add_argument("--min-orders", action="store_true")
    p.set_defaults(handler=_cmd_zeta)

    p = add("arrange", help="line arrangement from a weighting witness")
    p.add_argument("--witness", required=True)
    p.add_argument("--svg", help="write a deterministic SVG rendering here")
    p.add_argument("--dims", type=int, nargs=3, metavar=("A1", "B1", "C1"))
    p.set_defaults(handler=_cmd_arrange)

    p = add("reproduce", help="run the consolidated verification suite")
    p.set_defaults(handler=_cmd_reproduce)

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
        result = args.handler(args)
    except UnknownResult as unk:
        result = unk.payload
        digests = {}
        code = EXIT_UNKNOWN
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    code = result.pop("_exit_code", code)
    file_payload = result.pop("_file_payload", result)
    report = {
        "command": argv,
        "inputs": digests,
        "seed": args.seed,
        "result": result,
        "elapsed_s": round(time.time() - started, 6),
        "version": __version__,
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(json.dumps(file_payload, indent=2) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
