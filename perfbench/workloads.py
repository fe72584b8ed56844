"""The four seeded query workloads.

A workload is a cycle of rounds; a round is a list of queries run one after
the other by a single caller (a closed loop).  Every query of a cycle is
distinct.  A plan holds several draws of the cycle, each with fresh inputs
from the same seeded stream, so that a run averages over more inputs than
one cycle gives; a run goes through the draws in turn.  Every input is generated here,
at set-up, from the workload seed; the library sees it only as arguments.
Queries look their library function up through the module at call time, so
the traced run sees the wrappers it installs.

Each query's check raises `WrongAnswer` for a wrong answer and otherwise
returns the invariant part of the answer for the answer digest: verdicts,
dimensions, sizes, kappa, cover sizes and rounded zeta values, never
witnesses, boxes or cover slices.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    box_misses,
    dominated_points,
    entropy_cap,
    expect,
    is_antichain,
    is_concise,
    is_free,
    leibniz_kills,
    permute,
    slices_cover,
    span_stabilizer_dim,
    weighting_certifies,
    zero_sum_triples,
)

# Rounds that make one cycle; the CLI script is a single round.  The timed
# loop runs whole cycles, so every run weighs every round alike.
ROUNDS = {"symmetry-kron": 6, "decide-search": 12, "compress-zeta": 6}
TINY_ROUNDS = 2
# Draws of the cycle per plan: about 25 s of queries on a 2-vCPU machine.  The
# CLI script's inputs are the catalog's, the same for every seed, so it has
# one draw and a run repeats it.
DRAWS = {"symmetry-kron": 3, "decide-search": 3, "compress-zeta": 3, "cli-catalog": 1}


@dataclass
class Query:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], object]


@dataclass
class Plan:
    draws: list[list[Query]]  # each a whole cycle, its rounds in order
    warmup: list[Query]


def _shape(s) -> tuple[int, int, int]:
    return (s.shape.a, s.shape.b, s.shape.c)


def _taus(w) -> tuple:
    return (w.tau_a, w.tau_b, w.tau_c)


# ---------------------------------------------------------------------------
# symmetry-kron: exact large-integer elimination
# ---------------------------------------------------------------------------

# Every unordered pair of factor shapes with axes in {2, 3} is asked once per
# cycle (ROUNDS rounds), 6 pairs to a round, so that every seed asks for the
# same system sizes; the seed draws supports of a fixed size and coefficients.
# The largest pair gives the biggest system, 729 rows x 243 columns.
FACTOR_SHAPES = tuple(itertools.product((2, 3), repeat=3))
KRON_PAIRS = tuple(
    sorted(itertools.combinations_with_replacement(FACTOR_SHAPES, 2), key=lambda p: (math.prod(p[0]) * math.prod(p[1]), p))
)
FACTOR_DENSITY = 0.6
# (constructor, parameter, expected annihilator dimension), one per round.
# matmul(n) follows the README's count 3(n^2 - 1), not the known-failing
# acceptance assertion of 10 for n = 2.
SYMMETRY_CATALOG = (("matmul", 2, 9), ("matmul", 3, 24), ("matmul", 4, 45), ("t_std", 3, 0), ("t_std", 4, 0), ("t_std", 5, 0))


def _kron_entries(e1, shape2, e2) -> dict:
    a2, b2, c2 = shape2
    return {
        (i1 * a2 + i2, j1 * b2 + j2, k1 * c2 + k2): v1 * v2
        for (i1, j1, k1), v1 in e1.items()
        for (i2, j2, k2), v2 in e2.items()
    }


def _sum_entries(shape1, e1, e2) -> dict:
    a1, b1, c1 = shape1
    out = dict(e1)
    out.update({(i + a1, j + b1, k + c1): v for (i, j, k), v in e2.items()})
    return out


def _check_report(rep, shape, entries) -> None:
    expect(rep.kernel_dim == len(rep.basis), "kernel_dim differs from the basis size")
    expect(rep.annihilator_dim == rep.kernel_dim - 2 >= 0, "annihilator_dim is not kernel_dim - 2")
    for elem in rep.basis:
        expect(leibniz_kills((elem.x, elem.y, elem.z), shape, entries), "basis element does not kill the tensor")


def sized_support(lib, rng: random.Random, shape, density: float, concise: bool = False):
    """A support with exactly round(density * volume) cells (at least one),
    drawn uniformly; redrawn until concise when asked.  A fixed size keeps
    the cost of a query steady from seed to seed."""
    cells = list(itertools.product(*(range(n) for n in shape)))
    size = max(1, max(shape) if concise else 1, round(density * len(cells)))
    while True:
        triples = rng.sample(cells, size)
        if not concise or is_concise(shape, triples):
            return lib.core.Support(lib.core.Shape(*shape), tuple(triples))


def concise_tensor(lib, rng: random.Random, shape):
    """Generic integer coefficients on a fixed-size concise support, redrawn
    until the tensor is concise (check_propagation requires it)."""
    while True:
        t = lib.sampling.generic_tensor_on(sized_support(lib, rng, shape, FACTOR_DENSITY, concise=True), rng)
        if lib.symmetry.is_concise_tensor(t):
            return t


def _symmetry_round(lib, rng: random.Random, r: int, n_rounds: int, tiny: bool) -> list[Query]:
    # round r takes every n_rounds-th pair, so rounds cost about the same;
    # check_propagation, which repeats the Kronecker solve, runs on the cheapest
    pairs = KRON_PAIRS[r : r + 1] if tiny else KRON_PAIRS[r::n_rounds]
    memo: dict = {}
    out: list[Query] = []
    factors: dict = {}  # factor shape -> tensor, one per shape in the round

    def annihilate(key, t, expect_dim=None):
        shape, entries = _shape(t), dict(t.entries)

        def check(rep):
            _check_report(rep, shape, entries)
            if expect_dim is not None:
                expect(rep.annihilator_dim == expect_dim, f"{key}: dimension {rep.annihilator_dim}, expected {expect_dim}")
            memo[key] = rep.annihilator_dim
            return rep.annihilator_dim

        return Query("annihilator", lambda: lib.symmetry.annihilator(t), check)

    def factor(shape):
        """The round's tensor of this shape, drawn and annihilated when the
        shape first appears.  Sharing factors among a round's pairs keeps the
        cheap factor queries under half of the cycle, so that the median falls
        inside the direct-sum cluster rather than at its edge."""
        if shape not in factors:
            factors[shape] = concise_tensor(lib, rng, shape)
            out.append(annihilate(shape, factors[shape]))
        return factors[shape]

    for p, (sh1, sh2) in enumerate(pairs):
        t1, t2 = factor(sh1), factor(sh2)
        e1, e2 = dict(t1.entries), dict(t2.entries)
        sum_shape = tuple(x + y for x, y in zip(sh1, sh2))
        kron_shape = tuple(x * y for x, y in zip(sh1, sh2))
        sum_entries = _sum_entries(sh1, e1, e2)
        kron_entries = _kron_entries(e1, sh2, e2)

        def call_sum(t1=t1, t2=t2):
            t = lib.core.direct_sum(t1, t2)
            return t, lib.symmetry.annihilator(t)

        def check_sum(ans, p=p, sh1=sh1, sh2=sh2, shape=sum_shape, entries=sum_entries):
            t, rep = ans
            expect(_shape(t) == shape and dict(t.entries) == entries, "direct_sum built the wrong tensor")
            _check_report(rep, shape, entries)
            expect(rep.kernel_dim - 4 == memo[sh1] + memo[sh2], "direct-sum kernels are not additive")
            memo[(p, "sum")] = rep.kernel_dim - 4
            return rep.kernel_dim - 4

        def call_kron(t1=t1, t2=t2):
            t = lib.core.kronecker(t1, t2)
            return t, lib.symmetry.annihilator(t)

        def check_kron(ans, p=p, sh1=sh1, sh2=sh2, shape=kron_shape, entries=kron_entries):
            t, rep = ans
            expect(_shape(t) == shape and dict(t.entries) == entries, "kronecker built the wrong tensor")
            _check_report(rep, shape, entries)
            expect(rep.annihilator_dim >= memo[sh1] + memo[sh2], "Kronecker product does not contain both factors")
            memo[(p, "kron")] = rep.annihilator_dim
            return rep.annihilator_dim

        out.append(Query("annihilator_direct_sum", call_sum, check_sum))
        out.append(Query("annihilator_kronecker", call_kron, check_kron))
        if p == 0:

            def check_prop(rep, p=p, sh1=sh1, sh2=sh2):
                d1, d2 = memo[sh1], memo[sh2]
                expect(
                    (rep.dim_first, rep.dim_second, rep.dim_direct_sum, rep.dim_kronecker)
                    == (d1, d2, memo[(p, "sum")], memo[(p, "kron")]),
                    "propagation dimensions disagree with the direct queries",
                )
                expect(rep.sum_is_additive and rep.product_contains_factors, "propagation verdict is false")
                if d1 == 0 and d2 == 0:
                    expect(rep.zero_factors_give_zero_product == (rep.dim_kronecker == 0), "zero-product verdict is wrong")
                return [rep.dim_first, rep.dim_second, rep.dim_direct_sum, rep.dim_kronecker]

            out.append(Query("check_propagation", lambda t1=t1, t2=t2: lib.symmetry.check_propagation(t1, t2), check_prop))

    name, param, dim = SYMMETRY_CATALOG[0 if tiny else r % len(SYMMETRY_CATALOG)]
    out.append(annihilate((name, param), getattr(lib.constructions, name)(param), dim))
    return out


# ---------------------------------------------------------------------------
# decide-search: backtracking and many tiny incidence systems
# ---------------------------------------------------------------------------

# (m, size as a fraction of m^2) strata of random free supports.  Small m
# gives fast-path, search and refutation answers alike; m = 7 mostly costs a
# refutation over m! first-axis orders, and its six strata put the 90th
# percentile inside their cluster rather than at its edge.
OBLIQUE_STRATA = tuple((5, f) for f in (0.4, 0.5, 0.6)) + tuple((6, f) for f in (0.4, 0.5, 0.6)) + tuple(
    (7, f) for f in (0.4, 0.45, 0.5, 0.55, 0.6, 0.65)
)
F_MAX_REFUTED = 8  # m! = 40,320 nodes
# Sparser supports at m >= 12 make decide_tight's cost swing 30-fold from
# seed to seed, so only m = 8 is drawn that sparse.
TIGHT_STRATA = ((8, 0.15), (8, 0.35)) + tuple((m, f) for m in (12, 16, 20, 24) for f in (0.35, 0.6))
T_MAX_SIZES = (8, 16, 24)


def free_support(lib, rng: random.Random, m: int, size: int):
    """Greedy pass over cells of the m-cube in random order that keeps a cell
    only if it shares no coordinate pair with a kept cell, so the result is
    free.  Cells are drawn lazily; a cell drawn again is rejected like any
    conflicting one, so this is the greedy pass over a shuffled cube, cut at
    `size` cells (which must stay well below a maximal free set's size)."""
    used: set = set()
    kept: list = []
    misses = 0
    while len(kept) < size:
        i, j, k = rng.randrange(m), rng.randrange(m), rng.randrange(m)
        keys = (("ij", i, j), ("ik", i, k), ("jk", j, k))
        if any(key in used for key in keys):
            misses += 1
            if misses > 20 * m**3:  # stuck in a maximal free set smaller than size: start over
                used.clear()
                kept.clear()
                misses = 0
            continue
        misses = 0
        used.update(keys)
        kept.append((i, j, k))
    return lib.core.Support(lib.core.Shape(m, m, m), tuple(kept))


def _oblique_query(lib, s, expect_status=None) -> Query:
    triples = list(s.triples)

    def check(res):
        expect(res.status in ("oblique", "not_oblique"), f"decide_oblique answered {res.status}")
        if expect_status is not None:
            expect(res.status == expect_status, f"expected {expect_status}")
        if res.status == "oblique":
            w = res.witness
            expect(is_antichain(permute(triples, w.on_a, w.on_b, w.on_c)), "reordered support is not an antichain")
        else:
            expect(res.nodes > 0, "a free support was refuted without search")
        return res.status

    return Query("decide_oblique", lambda: lib.deciders.decide_oblique(s), check)


def _tight_query(lib, s, memo: dict, key, must_be_tight: bool) -> Query:
    shape, triples = _shape(s), list(s.triples)

    def check(w):
        if w is None:
            expect(not must_be_tight, "a tight support was declared not tight")
        else:
            expect(weighting_certifies(_taus(w), shape, triples), "weighting does not certify the support")
            memo[key] = w
        return w is not None

    return Query("decide_tight", lambda: lib.deciders.decide_tight(s), check)


def _arrangement_query(lib, memo: dict, key) -> Query:
    """build_arrangement, joints, render_svg and joint_free_subarrangement on a
    witness that an earlier query of the same round produced."""

    def call():
        arr = lib.arrangement.build_arrangement(memo[key])
        js = lib.arrangement.joints(arr)
        svg = lib.arrangement.render_svg(arr)
        dims = tuple(max(1, n // 2) for n in (len(arr.xs), len(arr.ys), len(arr.zs)))
        sub = lib.arrangement.joint_free_subarrangement(arr, *dims)
        return memo[key], arr, js, svg, dims, sub

    def check(ans):
        w, arr, js, svg, dims, sub = ans
        lines = tuple(tuple(sorted(t)) for t in _taus(w))
        expect((arr.xs, arr.ys, arr.zs) == lines, "arrangement lines are not the sorted weights")
        expected = zero_sum_triples(*lines)
        expect(sorted(j.triple for j in js) == sorted(expected), "joints are not the zero-sum triples")
        expect(all(j.point == (lines[0][j.triple[0]], lines[1][j.triple[1]]) for j in js), "joint point is wrong")
        expect(svg.startswith("<svg ") and svg.endswith("</svg>\n"), "SVG is not a document")
        expect(svg.count("<line ") == sum(map(len, lines)), "SVG line count is wrong")
        expect(svg.count("<circle ") == len(expected), "SVG joint count is wrong")
        if sub is not None:
            parts = (sub.xs, sub.ys, sub.zs)
            expect(tuple(map(len, parts)) == dims, "sub-arrangement has the wrong size")
            expect(all(set(p) <= set(full) for p, full in zip(parts, lines)), "sub-arrangement uses foreign lines")
            expect(not zero_sum_triples(*parts), "sub-arrangement has a joint")
        return [len(expected), sub is not None]

    return Query("arrangement", call, check)


def _decide_round(lib, rng: random.Random, r: int, n_rounds: int, tiny: bool) -> list[Query]:
    memo: dict = {}
    out: list[Query] = []
    for m, frac in OBLIQUE_STRATA[:3] if tiny else OBLIQUE_STRATA:
        out.append(_oblique_query(lib, free_support(lib, rng, m, round(frac * m * m))))
    f_max = 5 if tiny else F_MAX_REFUTED
    out.append(_oblique_query(lib, lib.constructions.free_max_support(f_max), "not_oblique"))

    for n, (m, frac) in enumerate(TIGHT_STRATA[:2] if tiny else TIGHT_STRATA):
        s = free_support(lib, rng, m, round(frac * m * m))
        out.append(_tight_query(lib, s, memo, ("free", n), False))
    arrangements = []
    for m in T_MAX_SIZES[:1] if tiny else T_MAX_SIZES:
        s, _ = lib.constructions.tight_max_support(m)
        out.append(_tight_query(lib, s, memo, ("t-max", m), True))
        arrangements.append(("t-max", m))

    def check_census(rep):
        expect((rep.maximal_count, rep.concise_count, rep.orbit_count) == (144, 80, 13), "census counts are not 144/80/13")
        expect(sum(rep.orbit_sizes) == 80, "orbit sizes do not sum to 80")
        for n, (r, w) in enumerate(zip(rep.representatives, rep.witnesses)):
            triples = list(r.triples)
            expect(is_antichain(triples) and is_concise((3, 3, 3), triples), "representative is not a concise antichain")
            expect(w is not None and weighting_certifies(_taus(w), (3, 3, 3), triples), "representative is not certified tight")
            memo[("census", n)] = w
        return [rep.maximal_count, rep.concise_count, rep.orbit_count, list(rep.orbit_sizes)]

    out.append(Query("census_m3", lambda: lib.deciders.census_m3(), check_census))
    arrangements += [("census", n) for n in range(13)]
    out += [_arrangement_query(lib, memo, key) for key in arrangements]
    return out


# ---------------------------------------------------------------------------
# compress-zeta: exact cover search and the float ascent
# ---------------------------------------------------------------------------

# (shape, density) schedules; the seed draws the cells of fixed-size supports.
COMPRESS_RANDOM = (
    ((4, 5, 6), 0.1),
    ((5, 5, 5), 0.3),
    ((6, 6, 6), 0.6),
    ((7, 7, 7), 0.2),
    ((4, 6, 7), 0.45),
    ((5, 6, 7), 0.15),
    ((4, 4, 4), 0.5),
    ((6, 7, 5), 0.35),
)
ZETA_RANDOM = (
    ((4, 4, 4), 0.3),
    ((5, 5, 5), 0.3),
    ((6, 6, 6), 0.2),
    ((8, 8, 8), 0.1),
    ((10, 10, 10), 0.1),
    ((4, 5, 6), 0.25),
    ((3, 4, 5), 0.35),
    ((6, 8, 10), 0.1),
)
ZETA_MIN_RANDOM = ((2, 2, 2), 0.5)
M1_SUM_R = (2, 3, 4, 5)


def _zeta_min_catalog(lib) -> list:
    """Supports with axes <= 3 whose minimum over a!b!c! axis orders runs the
    ascent thousands of times; one per round.  The 4x4x4 case (about 32 s)
    is left out for run length."""
    c = lib.constructions
    return [
        c.m_one_sum(3).support(),
        c.tight_max_support(3)[0],
        c.coppersmith_winograd(2).support(),
        c.m_one_sum(2).support(),
        c.free_max_support(3),
        c.tight_max_support(2)[0],
    ]


def _compress_catalog(lib) -> list:
    c = lib.constructions
    return [c.tight_max_support(m)[0] for m in (4, 5, 6, 7)] + [
        c.coppersmith_winograd(2).support(),
        c.coppersmith_winograd(3).support(),
        c.coppersmith_winograd(2, big=True).support(),
        c.coppersmith_winograd(3, big=True).support(),
        c.not_tight_compressible_4().support(),
    ]


def _compress_queries(lib, s) -> list[Query]:
    shape, triples = _shape(s), list(s.triples)
    memo: dict = {}
    split = tuple(n // 2 for n in shape)

    def check_cover(cov):
        expect(all(0 <= i < shape[a] for a, i in cov.slices), "cover slice out of range")
        expect(slices_cover(cov.slices, triples), "slices do not cover the support")
        memo["cover"] = cov.size
        return cov.size

    def check_total(ans):
        kappa, box = ans
        expect(sum(map(len, (box.i_set, box.j_set, box.k_set))) == kappa, "box size is not kappa")
        expect(box_misses(box.i_set, box.j_set, box.k_set, triples), "box meets the support")
        expect(memo["cover"] + kappa == sum(shape), "cover size + kappa != a + b + c")
        memo["kappa"] = kappa
        return kappa

    def check_multi(r):
        expect(0 <= r <= memo["kappa"], "multicompressibility exceeds kappa")
        memo["multi"] = r
        return r

    def check_box(box):
        if box is None:
            expect(sum(split) > memo["multi"], "no box although every split of that size has one")
            return False
        expect((len(box.i_set), len(box.j_set), len(box.k_set)) == split, "box has the wrong size")
        expect(box_misses(box.i_set, box.j_set, box.k_set, triples), "box meets the support")
        expect(sum(split) <= memo["kappa"], "box larger than kappa")
        return True

    return [
        Query("slice_cover", lambda: lib.compress.slice_cover(s), check_cover),
        Query("total_compressibility", lambda: lib.compress.total_compressibility(s), check_total),
        Query("multicompressibility", lambda: lib.compress.multicompressibility(s), check_multi),
        Query("find_zero_box", lambda: lib.compress.find_zero_box(s, *split), check_box),
    ]


def _zeta_query(lib, s, memo: dict, key, expect_value=None) -> Query:
    shape, triples = _shape(s), list(s.triples)
    weights = lib.spectral.SpectralWeights.uniform()

    incompressible: list = []  # computed at the first check, then kept

    def check(res):
        expect(res.gap < 1e-6, f"zeta_full gap {res.gap} is not below 1e-6")
        expect(abs(res.value - 2.0 ** res.log2_value) <= 1e-9 * res.value, "value is not 2 ** log2_value")
        expect(1.0 - 1e-9 <= res.value <= entropy_cap(shape) * (1 + 1e-9), "value outside [1, entropy cap]")
        probs = res.distribution.probs
        expect(abs(sum(probs.values()) - 1.0) < 1e-9, "distribution does not sum to 1")
        if not incompressible:
            incompressible.append(dominated_points(shape, triples))
        expect(set(probs) <= incompressible[0], "distribution leaves the incompressibility set")
        if expect_value is not None:
            expect(abs(res.value - expect_value) < 1e-6 * expect_value, f"zeta is {res.value}, expected {expect_value}")
        memo[key] = res.value
        return round(res.value, 4)

    return Query("zeta_full", lambda: lib.spectral.zeta_full(s, weights), check)


def _zeta_min_query(lib, s, memo: dict, key) -> Query:
    weights = lib.spectral.SpectralWeights.uniform()

    def check(res):
        expect(res.status == "ok" and res.permutations is not None, "zeta_min gave no answer")
        expect(1.0 - 1e-9 <= res.value <= memo[key] + 1e-6, "minimum over orders exceeds the identity order")
        return round(res.value, 4)

    return Query("zeta_min_over_axis_orders", lambda: lib.spectral.zeta_min_over_axis_orders(s, weights), check)


def _compress_round(lib, rng: random.Random, r: int, n_rounds: int, tiny: bool) -> list[Query]:
    memo: dict = {}
    out: list[Query] = []
    supports = [sized_support(lib, rng, shape, d) for shape, d in COMPRESS_RANDOM[: 1 if tiny else None]]
    catalog = _compress_catalog(lib)
    for s in supports + (catalog[-1:] if tiny else catalog):
        out += _compress_queries(lib, s)
    for n, (shape, d) in enumerate(ZETA_RANDOM[: 2 if tiny else None]):
        out.append(_zeta_query(lib, sized_support(lib, rng, shape, d), memo, ("random", n)))
    for m in M1_SUM_R[:1] if tiny else M1_SUM_R:
        out.append(_zeta_query(lib, lib.constructions.m_one_sum(m).support(), memo, ("m1-sum", m), float(m)))
    minimized = [sized_support(lib, rng, *ZETA_MIN_RANDOM)]
    if not tiny:
        catalog = _zeta_min_catalog(lib)
        minimized.append(catalog[r % len(catalog)])
    for n, s in enumerate(minimized):
        out.append(_zeta_query(lib, s, memo, ("min", n)))
        out.append(_zeta_min_query(lib, s, memo, ("min", n)))
    return out


# ---------------------------------------------------------------------------
# cli-catalog: in-process CLI over a fixed script
# ---------------------------------------------------------------------------

class CliScript:
    """Writes the catalog inputs as JSON into a work directory and builds one
    query per command line of a fixed script that runs every subcommand on
    several catalog inputs."""

    def __init__(self, lib, workdir: Path, seed: int):
        self.lib, self.dir, self.seed = lib, workdir, seed
        c, core = lib.constructions, lib.core
        self.supports: dict[str, tuple] = {}  # name -> (shape, triples)
        self.witnesses: dict[str, tuple] = {}  # name -> (tauA, tauB, tauC)
        self.tensors: dict[str, object] = {}
        workdir.mkdir(parents=True, exist_ok=True)
        for m in (3, 4, 5, 6):
            s, w = c.tight_max_support(m)
            self._support(f"tmax{m}", s)
            self.witnesses[f"tmax{m}"] = _taus(w)
            self.path(f"tmax{m}w").write_text(json.dumps({"tauA": list(w.tau_a), "tauB": list(w.tau_b), "tauC": list(w.tau_c)}))
            self._support(f"fmax{m}", c.free_max_support(m))
        self._support("fmax7", c.free_max_support(7))
        tensors = {"matmul2": c.matmul(2), "ont4": c.oblique_not_tight_4(), "ntc4": c.not_tight_compressible_4()}
        tensors.update({f"tstd{m}": c.t_std(m) for m in (2, 3, 4)})
        tensors.update({f"m1sum{r}": c.m_one_sum(r) for r in (2, 3, 4)})
        tensors.update({f"cwsmall{q}": c.coppersmith_winograd(q) for q in (1, 2, 3)})
        tensors.update({f"cwbig{q}": c.coppersmith_winograd(q, big=True) for q in (1, 2, 3)})
        for name, t in tensors.items():
            self.tensors[name] = t
            self.path(name).write_text(json.dumps(core.tensor_to_obj(t)))
            self.supports[name] = (_shape(t), list(t.entries))

    def _support(self, name: str, s) -> None:
        self.path(name).write_text(json.dumps(self.lib.core.support_to_obj(s)))
        self.supports[name] = (_shape(s), list(s.triples))

    def path(self, name: str) -> Path:
        return self.dir / f"{name}.json"

    def query(self, argv: list[str], check_result, code: int = 0) -> Query:
        kind = " ".join(a for a in argv[:2] if not a.startswith("-") and not a.isdigit())
        if "--seed" not in argv:
            argv = argv + ["--seed", str(self.seed)]
        cli = self.lib.cli

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
            return rc, out.getvalue()

        def check(ans):
            rc, text = ans
            expect(rc == code, f"{kind}: exit code {rc}, expected {code}")
            report = json.loads(text)
            expect(report["command"] == argv, "report does not echo the command")
            if code == 0:
                want = {
                    argv[n + 1]: hashlib.sha256(Path(argv[n + 1]).read_bytes()).hexdigest()
                    for n, a in enumerate(argv)
                    if a in ("--in", "--in1", "--in2", "--witness")
                }
                expect(report["inputs"] == want, "input digests are wrong")
            return check_result(report["result"])

        return Query(kind, call, check)

    def queries(self, with_reproduce: bool) -> list[Query]:
        p = lambda name: str(self.path(name))  # noqa: E731
        out_file, svg_file = str(self.dir / "out.json"), str(self.dir / "out.svg")
        supports = [n for n in self.supports if n != "fmax7"]
        qs: list[Query] = []

        def construct(name):
            shape, triples = self.supports[name]

            def check(res):
                doc = res[res["kind"]]
                expect(doc["shape"] == list(shape), "catalog entry has the wrong shape")
                expect(sorted(tuple(e["idx"]) for e in doc["entries"]) == sorted(triples), "catalog entry differs")
                expect(json.loads(Path(out_file).read_text()) == doc, "--out payload differs from the result")
                if "witness" in res:
                    w = res["witness"]
                    expect(weighting_certifies((w["tauA"], w["tauB"], w["tauC"]), shape, triples), "catalog witness fails")
                return [res["kind"], len(triples)]

            return check

        for cid, params, name in (
            ("t-max", (3, 4, 5, 6), "tmax"), ("f-max", (3, 4, 5, 6), "fmax"), ("matmul", (2,), "matmul"),
            ("m1-sum", (2, 3, 4), "m1sum"), ("t-std", (2, 3, 4), "tstd"), ("cw-small", (1, 2, 3), "cwsmall"),
            ("cw-big", (1, 2, 3), "cwbig"), ("oblique-not-tight-4", (None,), "ont4"),
            ("not-tight-compressible-4", (None,), "ntc4"),
        ):
            for param in params:
                argv = ["construct", cid] + ([str(param)] if param else []) + ["--out", out_file]
                qs.append(self.query(argv, construct(name + (str(param) if param else ""))))

        def tight(name):
            shape, triples = self.supports[name]

            def check(res):
                if res["holds"]:
                    w = res["witness"]
                    expect(weighting_certifies((w["tauA"], w["tauB"], w["tauC"]), shape, triples), "witness fails")
                else:
                    expect(name not in self.witnesses, "a maximal tight support was declared not tight")
                return res["holds"]

            return check

        def oblique(name):
            _, triples = self.supports[name]

            def check(res):
                if res["holds"]:
                    w = res["witness"]
                    expect(is_antichain(permute(triples, w["onA"], w["onB"], w["onC"])), "reordering is no antichain")
                else:
                    expect(name not in self.witnesses, "a tight support was declared not oblique")
                return res["holds"]

            return check

        def free(name):
            def check(res):
                expect(res["holds"] is is_free(self.supports[name][1]), "decide free is wrong")
                return res["holds"]

            return check

        def stabilizer(name):
            def check(res):
                expect(res["span_stabilizer_dim"] == span_stabilizer_dim(*self.supports[name]), "span stabilizer dimension is wrong")
                return res["span_stabilizer_dim"]

            return check

        for name in supports:
            qs.append(self.query(["decide", "tight", "--in", p(name)], tight(name)))
            qs.append(self.query(["decide", "oblique", "--in", p(name)], oblique(name)))
            qs.append(self.query(["decide", "free", "--in", p(name)], free(name)))
            qs.append(self.query(["symmetry", "span-stabilizer", "--in", p(name)], stabilizer(name)))

        def unknown(res):
            expect(res["status"] == "unknown", "budget query did not answer unknown")
            return res["status"]

        qs.append(self.query(["decide", "oblique", "--in", p("fmax7"), "--budget", "100"], unknown, code=2))

        def census(res):
            counts = res["counts"]
            expect((counts["maximal"], counts["concise"], counts["orbits"]) == (144, 80, 13), "census counts are wrong")
            for r in res["representatives"]:
                w = r["witness"]
                expect(r["tight"] and weighting_certifies((w["tauA"], w["tauB"], w["tauC"]), (3, 3, 3), [tuple(t) for t in r["triples"]]), "census witness fails")
            return [counts["maximal"], counts["concise"], counts["orbits"]]

        qs.append(self.query(["census-m3"], census))

        def max_oblique(dims):
            def check(res):
                triples = [tuple(e["idx"]) for e in res["achieving"]["entries"]]
                expect(res["achieving"]["shape"] == list(dims), "achieving slice has the wrong shape")
                expect(len(triples) == res["bound"] and is_antichain(triples), "achieving slice is wrong")
                return res["bound"]

            return check

        for dims in ((3, 3, 3), (3, 4, 5), (2, 5, 7), (4, 4, 4), (2, 2, 9)):
            qs.append(self.query(["max-oblique", *map(str, dims)], max_oblique(dims)))

        def ann_dim(want):
            def check(res):
                expect(res["kernel_dim"] == res["annihilator_dim"] + 2 == res["basis_size"] and res["annihilator_dim"] >= 0, "annihilator report is inconsistent")
                if want is not None:
                    expect(res["annihilator_dim"] == want, f"annihilator dimension {res['annihilator_dim']}, expected {want}")
                return res["annihilator_dim"]

            return check

        # matmul(2): the README's 3(n^2 - 1) = 9; t_std(m): 0 for m >= 3
        for name in self.tensors:
            want = {"matmul2": 9, "tstd3": 0, "tstd4": 0}.get(name)
            qs.append(self.query(["symmetry", "annihilator", "--in", p(name)], ann_dim(want)))

        def propagate(res):
            expect(res["sum_is_additive"] and res["product_contains_factors"], "propagation verdict is false")
            expect(res["dim_direct_sum"] == res["dim_first"] + res["dim_second"], "direct sum is not additive")
            expect(res["dim_kronecker"] >= res["dim_first"] + res["dim_second"], "product does not contain the factors")
            return [res["dim_first"], res["dim_second"], res["dim_direct_sum"], res["dim_kronecker"]]

        for a, b in (("tstd3", "m1sum2"), ("m1sum2", "m1sum3"), ("tstd2", "tstd2")):
            qs.append(self.query(["symmetry", "propagate", "--in1", p(a), "--in2", p(b)], propagate))

        closed = {
            "MaMu": lambda m: 3 * m * m - 3 * m,
            "Tight": lambda m: 3 * m * m + (3 * m * m + 3) // 4 - 3 * m,
            "Oblique": lambda m: 3 * m * m + (3 * m * m + 3) // 4 - 3 * m,
            "Free": lambda m: 4 * m * m - 3 * m,
            "Ambient": lambda m: m**3,
        }

        def class_dim(cls, m):
            def check(res):
                expect(res["dimension"] == closed[cls](m), "class dimension is wrong")
                return res["dimension"]

            return check

        for cls in closed:
            for m in (4, 9) if cls == "MaMu" else (3, 4):
                qs.append(self.query(["symmetry", "class-dim", cls, str(m)], class_dim(cls, m)))

        def box(name, dims):
            def check(res):
                if res["found"]:
                    b = res["box"]
                    expect([len(b["I"]), len(b["J"]), len(b["K"])] == list(dims), "box has the wrong size")
                    expect(box_misses(b["I"], b["J"], b["K"], self.supports[name][1]), "box meets the support")
                return res["found"]

            return check

        def multi(name):
            def check(res):
                expect(0 <= res["multicompressibility"] <= sum(self.supports[name][0]), "multicompressibility out of range")
                if name == "ntc4":
                    expect(res["multicompressibility"] >= 6, "not-tight-compressible-4 is 6-multicompressible")
                return res["multicompressibility"]

            return check

        def cover(name):
            shape, triples = self.supports[name]

            def check(res):
                slices = [(s["axis"], s["index"]) for s in res["slices"]]
                expect(len(slices) == res["cover_size"] and slices_cover(slices, triples), "cover is wrong")
                expect(res["duality_sum"] == res["cover_size"] + res["total_compressibility"] == sum(shape), "cover size + kappa != a + b + c")
                return [res["cover_size"], res["total_compressibility"]]

            return check

        for name in ("ntc4", "cwbig2", "tmax5", "fmax4", "cwsmall3"):
            dims = tuple(n // 2 for n in self.supports[name][0])
            qs.append(self.query(["compress", "box", "--in", p(name), "--dims", *map(str, dims)], box(name, dims)))
            qs.append(self.query(["compress", "multi", "--in", p(name)], multi(name)))
            qs.append(self.query(["compress", "cover", "--in", p(name)], cover(name)))

        def zeta(name):
            shape = self.supports[name][0]

            def check(res):
                expect(res["certificate_gap"] < 1e-6, "zeta gap is not below 1e-6")
                expect(1.0 - 1e-9 <= res["value"] <= entropy_cap(shape) * (1 + 1e-9), "zeta outside [1, entropy cap]")
                if name.startswith("m1sum"):
                    r = int(name[5:])
                    expect(abs(res["value"] - r) < 1e-6 * r, f"zeta(m1-sum({r})) is not {r}")
                return round(res["value"], 4)

            return check

        def zeta_min(res):
            expect(1.0 - 1e-9 <= res["value"] <= 2.0 + 1e-6, "minimum over orders exceeds the identity order's value 2")
            return round(res["value"], 4)

        theta = ["--theta", "1/3", "1/3", "1/3"]
        for name in ("m1sum2", "m1sum3", "m1sum4", "tmax3", "cwsmall2"):
            qs.append(self.query(["zeta", "--in", p(name)] + theta, zeta(name)))
        for name in ("m1sum2", "cwsmall1"):  # zeta of both is 2
            qs.append(self.query(["zeta", "--in", p(name), "--min-orders"] + theta, zeta_min))

        def arrange(name, dims):
            lines = tuple(tuple(sorted(t)) for t in self.witnesses[name])
            joints = zero_sum_triples(*lines)

            def check(res):
                expect((tuple(res["lines"]["x"]), tuple(res["lines"]["y"]), tuple(res["lines"]["z"])) == lines, "lines are wrong")
                expect(sorted(tuple(j["triple"]) for j in res["joints"]) == sorted(joints), "joints are wrong")
                svg = Path(svg_file).read_text()
                expect(svg.count("<circle ") == len(joints) and svg.count("<line ") == sum(map(len, lines)), "SVG is wrong")
                sub = res["joint_free_subarrangement"]
                if sub is not None:
                    expect([len(sub["x"]), len(sub["y"]), len(sub["z"])] == list(dims), "sub-arrangement has the wrong size")
                    expect(not zero_sum_triples(sub["x"], sub["y"], sub["z"]), "sub-arrangement has a joint")
                return [len(joints), sub is not None]

            return check

        for name in self.witnesses:
            dims = tuple(max(1, len(t) // 2) for t in self.witnesses[name])
            argv = ["arrange", "--witness", p(name + "w"), "--svg", svg_file, "--dims", *map(str, dims)]
            qs.append(self.query(argv, arrange(name, dims)))

        def reproduce(res):
            expect(res["all_ok"] and all(c["ok"] for c in res["checks"]), "reproduce reports a failed check")
            return [c["name"] for c in res["checks"]]

        if with_reproduce:
            # a fixed --seed: reproduce draws random tensors whose cost varies with it
            qs.append(self.query(["reproduce", "--seed", "0"], reproduce))
        return qs


# ---------------------------------------------------------------------------

def build(name: str, lib, seed: int, tiny: bool, workdir: Path) -> Plan:
    """Generate every input of a workload from its seed: DRAWS draws of the
    cycle (one at tiny scale) from one seeded stream.  The warm-up is a tiny
    round on inputs from a fixed stream (every eighth command of the CLI
    script, without reproduce), so set-up costs the same for every seed."""
    if name == "cli-catalog":
        script = CliScript(lib, workdir, seed)
        queries = script.queries(with_reproduce=True)
        return Plan([queries[::4] + queries[-1:] if tiny else queries], script.queries(with_reproduce=False)[::8])
    make = {"symmetry-kron": _symmetry_round, "decide-search": _decide_round, "compress-zeta": _compress_round}[name]
    n_rounds = TINY_ROUNDS if tiny else ROUNDS[name]
    rng = random.Random(seed)
    draws = [
        [q for r in range(n_rounds) for q in make(lib, rng, r, n_rounds, tiny)]
        for _ in range(1 if tiny else DRAWS[name])
    ]
    return Plan(draws, make(lib, random.Random(0), 0, 1, True))


WORKLOADS = ("symmetry-kron", "decide-search", "compress-zeta", "cli-catalog")
