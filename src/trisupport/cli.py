"""Command-line interface: JSON in, JSON out, deterministic given --seed.

Exit codes: 0 decided/ok, 1 invalid input, 2 unknown (budget or scope gate),
3 internal invariant violation.  Results go to stdout as a run report;
human-readable logs go to stderr; --out writes the result payload to a file.
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
from .compress import find_zero_box, multicompressibility, slice_cover, total_compressibility
from .constructions import (
    CATALOG_IDS,
    construct,
    coppersmith_winograd,
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
    apply_permutations,
    support_from_json,
    support_to_obj,
    tensor_from_json,
    tensor_to_obj,
)
from .deciders import TightWitness, census_m3, decide_oblique, decide_tight, is_free, max_oblique_size
from .sampling import generic_tensor_on, random_concise_tensor, random_support
from .spectral import SpectralWeights, zeta_full, zeta_min_over_axis_orders
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


def _witness_from_obj(obj: dict) -> TightWitness:
    return TightWitness(tuple(obj["tauA"]), tuple(obj["tauB"]), tuple(obj["tauC"]))


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
    return SpectralWeights(Fraction(vals[0]), Fraction(vals[1]), Fraction(vals[2]))


def _cmd_zeta(args) -> dict:
    s = _read_support(args.infile)
    weights = _parse_theta(args.theta)
    if args.min_orders:
        res = zeta_min_over_axis_orders(s, weights, tol=args.tol)
        if res.status == "unknown":
            raise UnknownResult(
                {"status": "unknown", "reason": "axis size above the exhaustive-order gate"}
            )
        return {
            "value": res.value,
            "minimized_over_axis_orders": True,
            "note": "coordinate-flag upper bound for the full flag minimum",
        }
    res = zeta_full(s, weights, tol=args.tol)
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


# --- reproduce -------------------------------------------------------------

def _check(name: str, ok: bool, details: dict) -> dict:
    print(f"[{'ok' if ok else 'FAIL'}] {name}", file=sys.stderr)
    return {"name": name, "ok": bool(ok), **details}


def _cmd_reproduce(args) -> dict:
    checks: list[dict] = []
    rng = random.Random(args.seed)

    rep = census_m3(seed=args.seed)
    checks.append(
        _check(
            "census counts 144/80/13, all orbit representatives tight",
            rep.maximal_count == 144
            and rep.concise_count == 80
            and rep.orbit_count == 13
            and sum(rep.orbit_sizes) == 80
            and all(w is not None and w.certifies(r) for r, w in zip(rep.representatives, rep.witnesses)),
            {
                "maximal": rep.maximal_count,
                "concise": rep.concise_count,
                "orbits": rep.orbit_count,
            },
        )
    )

    dims_ok = True
    dim_rows = []
    for m in range(2, 7):
        tight_d = class_dimension("Tight", m)
        free_d = class_dimension("Free", m)
        expect_tight = 3 * m * m - 3 * m + len(tight_max_support(m)[0])
        expect_free = 3 * m * m - 3 * m + len(free_max_support(m))
        dims_ok = dims_ok and tight_d == expect_tight and free_d == expect_free
        dim_rows.append({"m": m, "Tight": tight_d, "Oblique": class_dimension("Oblique", m), "Free": free_d})
    dims_ok = dims_ok and class_dimension("MaMu", 4) == 36 and class_dimension("Ambient", 3) == 27
    checks.append(_check("class dimension closed forms vs catalog support sizes", dims_ok, {"rows": dim_rows}))

    sizes_ok = True
    for m in range(2, 9):
        s, w = tight_max_support(m)
        f = free_max_support(m)
        sizes_ok = (
            sizes_ok
            and len(s) == (3 * m * m + 3) // 4
            and w.certifies(s)
            and decide_tight(s, seed=args.seed) is not None
            and len(f) == m * m
            and is_free(f)
        )
    checks.append(_check("maximal tight/free supports, sizes and certificates (m=2..8)", sizes_ok, {}))

    comp_ok = True
    for m in range(3, 8):
        s, w = tight_max_support(m)
        ss = apply_permutations(s, w.sorting_permutations())
        want = ((m + 1) // 2, (m + 1) // 2, m // 2)
        splits = {want, (want[0], want[2], want[1]), (want[2], want[0], want[1])}
        comp_ok = comp_ok and any(find_zero_box(ss, *p) is not None for p in splits)
    for m in range(3, 7):
        comp_ok = comp_ok and multicompressibility(tight_max_support(m)[0]) >= 3 * (m // 2) + 1
    for q in (1, 2):
        comp_ok = comp_ok and multicompressibility(coppersmith_winograd(q).support()) >= 2 * q + 1
        comp_ok = comp_ok and multicompressibility(coppersmith_winograd(q, big=True).support()) >= 2 * q + 3
    comp_ok = comp_ok and multicompressibility(not_tight_compressible_4().support()) >= 6
    duality_ok = True
    for _ in range(100):
        shp = Shape(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        s = random_support(rng, shp, rng.uniform(0.15, 0.8))
        kappa, _box = total_compressibility(s)
        duality_ok = duality_ok and slice_cover(s).size + kappa == shp.a + shp.b + shp.c
    checks.append(_check("compressibility: boxes, multicompressibility bounds, cover duality", comp_ok and duality_ok, {}))

    prop_ok = True
    for _ in range(10):
        t1 = random_concise_tensor(rng, Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)))
        t2 = random_concise_tensor(rng, Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)))
        pr = check_propagation(t1, t2)
        prop_ok = prop_ok and pr.sum_is_additive and pr.product_contains_factors and pr.zero_factors_give_zero_product
    pr = check_propagation(t_std(3), t_std(3))
    prop_ok = prop_ok and pr.dim_kronecker == 0 and pr.sum_is_additive
    checks.append(_check("symmetry propagation under direct sum and Kronecker product", prop_ok, {}))

    ann_ok = True
    for m in (3, 4, 5):
        s, _ = tight_max_support(m)
        ann_ok = ann_ok and annihilator(generic_tensor_on(s, rng)).annihilator_dim == 1
        ann_ok = ann_ok and annihilator(t_std(m)).annihilator_dim == 0
    for t in (oblique_not_tight_4(), not_tight_compressible_4()):
        ann_ok = ann_ok and annihilator(t).annihilator_dim == 0
    # 9 = 3(n^2 - 1) at n = 2, the value acceptance criterion 3 asserts
    matmul2_dim = annihilator(matmul(2)).annihilator_dim
    ann_ok = ann_ok and matmul2_dim == 9
    checks.append(
        _check(
            "annihilator dimensions of catalog tensors",
            ann_ok,
            {"matmul2_dim": matmul2_dim, "matmul2_expected": 9},
        )
    )

    return {"checks": checks, "all_ok": all(c["ok"] for c in checks)}


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
    p.add_argument("--tol", type=float, default=1e-9)
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
