"""Exact decision procedures for tight, oblique and free supports.

Tightness is decided by an exact rational nullspace computation: the support's
incidence system has an injective integer solution iff no coordinate-difference
functional vanishes identically on the solution space (over an infinite field a
linear space lies in a finite union of hyperplanes iff it lies in one of them).
Before any elimination, two kinds of row combination that equal such a
difference refute tightness: two triples agreeing on two axes (the support is
not free), then an intercalate of four triples in a free support.
Obliqueness is decided by the tight fast path or by an exhaustive backtracking
search over axis orders within a node budget; freeness checks that the three
pair projections of the support are injective.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import index, le
from typing import Literal, Optional, Sequence

from . import linalg
from .core import (
    AxisPermutations,
    Shape,
    Support,
    Triple,
    apply_permutations,
)


@dataclass(frozen=True)
class TightWitness:
    """Three injective integer weightings that sum to zero on every triple
    of the support they certify."""

    tau_a: tuple[int, ...]
    tau_b: tuple[int, ...]
    tau_c: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau_a", tuple(map(index, self.tau_a)))
        object.__setattr__(self, "tau_b", tuple(map(index, self.tau_b)))
        object.__setattr__(self, "tau_c", tuple(map(index, self.tau_c)))

    def is_injective(self) -> bool:
        return all(
            len(set(t)) == len(t) for t in (self.tau_a, self.tau_b, self.tau_c)
        )

    def certifies(self, s: Support) -> bool:
        if (len(self.tau_a), len(self.tau_b), len(self.tau_c)) != tuple(s.shape):
            return False
        if not self.is_injective():
            return False
        return all(
            self.tau_a[i] + self.tau_b[j] + self.tau_c[k] == 0
            for (i, j, k) in s.triples
        )

    def sorting_permutations(self) -> AxisPermutations:
        """Permutations sending each index to its rank under the weighting.

        Applying them to a certified support yields an antichain under the
        natural coordinatewise order.
        """

        taus = (self.tau_a, self.tau_b, self.tau_c)
        return AxisPermutations(*(_ranks(sorted(range(len(t)), key=t.__getitem__)) for t in taus))


def is_free(s: Support) -> bool:
    """True iff every pair of distinct triples differs in at least two entries,
    that is, iff forgetting any one axis keeps the triples distinct.  The
    projections are keyed by j c + k, i c + k and i b + j."""
    _a, b, c = s.shape
    return all(
        len({t[x] * n + t[y] for t in s.triples}) == len(s) for x, n, y in ((1, c, 2), (0, c, 2), (0, b, 1))
    )


def is_antichain(s: Support) -> bool:
    """True iff no two distinct triples are coordinatewise comparable."""
    ts = s.triples
    for x in range(len(ts)):
        for y in range(x + 1, len(ts)):
            p, q = ts[x], ts[y]
            if all(p[d] <= q[d] for d in range(3)) or all(q[d] <= p[d] for d in range(3)):
                return False
    return True


# ---------------------------------------------------------------------------
# Tightness
# ---------------------------------------------------------------------------

def _incidence_rows(s: Support) -> tuple[list[linalg.SparseRow], int]:
    a, b, _c = s.shape
    rows = [{i: 1, a + j: 1, a + b + k: 1} for (i, j, k) in s.triples]
    return rows, s.shape.a + s.shape.b + s.shape.c


def _injective_witness(
    vectors: Sequence[Sequence[Fraction]], shape: Sequence[int], seed: int = 0
) -> Optional[TightWitness]:
    """Slice an injective integer combination of `vectors`, whose entries run
    over the first, second and third axis in turn, into a witness; None when
    some pair of entries on one axis agrees on every vector."""
    a, b, c = shape
    blocks = ((0, a), (a, a + b), (a + b, a + b + c))
    ints = linalg.injective_combination(vectors, blocks, seed)
    return None if ints is None else TightWitness(*(ints[lo:hi] for lo, hi in blocks))


def not_tight_certificate(s: Support) -> Optional[tuple[Triple, ...]]:
    """Two or four triples whose incidence rows, taken with signs + - or
    + - - +, sum to c (e_u - e_v) for two values u != v of one axis, so that
    every solution weights u and v alike; None when there are none of
    either kind.

    Two triples that agree on two axes give r1 - r2 = e_u - e_v, and exist
    exactly when the support is not free.  In a free support an intercalate
    (i, j, k), (i, j', k'), (i', j, k'), (i', j', k) gives
    r1 - r2 - r3 + r4 = 2 (e_k - e_k').  Its first two triples share a
    first-axis value, so one pass over such pairs with the (j, k) -> triple
    map finds it, at O(sum of squared first-axis degrees).
    """
    _a, b, c = s.shape
    projections: list[dict[int, Triple]] = []
    for x, n, y in ((1, c, 2), (0, c, 2), (0, b, 1)):  # keys j c + k, i c + k, i b + j
        seen: dict[int, Triple] = {}
        for t in s.triples:
            key = t[x] * n + t[y]
            if key in seen:
                return seen[key], t
            seen[key] = t
        projections.append(seen)
    by_jk = projections[0]
    by_i: dict[int, list[Triple]] = {}
    for t in s.triples:
        by_i.setdefault(t[0], []).append(t)
    for row in by_i.values():
        for p, q in itertools.combinations(row, 2):
            r = by_jk.get(p[1] * c + q[2])
            if r is not None:
                u = by_jk.get(q[1] * c + p[2])
                if u is not None and u[0] == r[0]:
                    return p, q, r, u
    return None


def decide_tight(s: Support, seed: int = 0) -> Optional[TightWitness]:
    """Return a verified witness if the support is tight, else None.

    Checks run in this order.  A `not_tight_certificate` (two triples that
    agree on two axes, else an intercalate) answers None before any
    elimination.  Otherwise the witness is an injective integer combination
    of the canonical exact kernel basis of the incidence system
    (`linalg.injective_combination`), and None means that some difference of
    two values of one axis vanishes on the whole kernel.
    """
    if not_tight_certificate(s) is not None:
        return None
    rows, ncols = _incidence_rows(s)
    witness = _injective_witness(linalg.nullspace(rows, ncols), s.shape, seed)
    if witness is not None and not witness.certifies(s):
        raise AssertionError("internal: extracted weighting failed verification")
    return witness


# ---------------------------------------------------------------------------
# Obliqueness
# ---------------------------------------------------------------------------

# search nodes `decide_oblique` may spend before it answers "unknown"
DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class ObliqueResult:
    """The verdict, a witness reordering when oblique, and the search nodes
    spent: one per first-axis order (a refuted prefix counts its orders at
    once), one per placement of a second-axis value (and one for the empty
    order), and one per third-axis solve.  The tight fast path and the
    freeness refutation spend none; "unknown" reports the whole budget."""

    status: Literal["oblique", "not_oblique", "unknown"]
    witness: Optional[AxisPermutations]
    nodes: int


def decide_oblique(s: Support, budget: int = DEFAULT_BUDGET, seed: int = 0) -> ObliqueResult:
    """Decide whether some reordering of the three index ranges turns the
    support into an antichain.

    Tight supports short-circuit through the weighting-sort construction.
    Otherwise one rule drives the search: two distinct triples are
    incomparable exactly when the orders of the axes they differ on do not
    all point the same way.  A pair that agrees on the third axis forces a
    second-axis edge against its first-axis order.  First-axis orders grow
    depth first, and a prefix whose forced edges hold two opposite ones is
    refuted with all its completions, counted as nodes in one step.  The
    second-axis orders searched are the linear extensions of a surviving
    order's edges.  For each complete second-axis order, every other pair
    forces a third-axis edge against its first two axes unless they point
    opposite ways, and the third-axis order is the smallest topological
    order of those edges.  The search is exhaustive, so "not_oblique" is exact;
    "unknown" occurs only when the node budget is exhausted.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if not is_free(s):
        return ObliqueResult("not_oblique", None, 0)

    witness = decide_tight(s, seed=seed)
    if witness is not None:
        perms = witness.sorting_permutations()
        if not is_antichain(apply_permutations(s, perms)):
            raise AssertionError("internal: weighting sort did not yield an antichain")
        return ObliqueResult("oblique", perms, 0)

    status, perms, nodes = _oblique_search(s, budget)
    if perms is not None and not is_antichain(apply_permutations(s, perms)):
        raise AssertionError("internal: oblique search returned a non-antichain")
    return ObliqueResult(status, perms, nodes)


def _oblique_search(
    s: Support, budget: int
) -> tuple[Literal["oblique", "not_oblique", "unknown"], Optional[AxisPermutations], int]:
    """The search of `decide_oblique` on integer state, as (status, witness,
    nodes); "unknown", with the budget, at the node that first exceeds it.

    A forced second-axis edge u -> v is the id u*b + v in the multiset
    `count`; placed and predecessor sets are bitmasks; second-axis prefixes
    are walked on an explicit stack; each pair differing on the third axis
    is packed once as (i, i', j, j', k, k'), and a third-axis solve scans
    them into predecessor masks and takes the smallest ready value at each
    step.  Two nodes that no verdict separates are counted together.
    """
    a, b, c = s.shape
    forced: list[list[tuple[int, int, int]]] = [[] for _ in range(a)]
    rest = []
    for (i, j, k), (i2, j2, k2) in itertools.combinations(s.triples, 2):
        if k == k2:
            # (the other end's bit, the edge if this end comes first, its opposite)
            forced[i].append((1 << i2, j2 * b + j, j * b + j2))
            forced[i2].append((1 << i, j * b + j2, j2 * b + j))
        else:
            rest.append((i, i2, j, j2, k, k2))
    count = [0] * (b * b)
    order_a: list[int] = []
    added: list[list[tuple[int, int]]] = []
    placed = nodes = v = 0
    while True:
        if v == a:
            if not order_a:
                return "not_oblique", None, nodes
            v = order_a.pop()
            placed ^= 1 << v
            for e, _ in added.pop():
                count[e] -= 1
            v += 1
            continue
        if placed >> v & 1:
            v += 1
            continue
        new = [(e, r) for bit, e, r in forced[v] if not placed & bit]
        for e, _ in new:
            count[e] += 1
        if any(count[r] for _, r in new):
            nodes += math.factorial(a - len(order_a) - 1)
            if nodes > budget:
                return "unknown", None, budget
            for e, _ in new:
                count[e] -= 1
            v += 1
            continue
        order_a.append(v)
        placed |= 1 << v
        added.append(new)
        v = 0
        if len(order_a) < a:
            continue
        v = a
        # the complete first-axis order and the empty second-axis prefix
        nodes += 2
        if nodes > budget:
            return "unknown", None, budget
        rank_a = _ranks(order_a)
        preds_b = [0] * b
        for edges in added:
            for e, _ in edges:
                preds_b[e % b] |= 1 << (e // b)
        order_b: list[int] = []
        placed_b = u = 0
        while True:
            if u == b:
                if not order_b:
                    break
                u = order_b.pop()
                placed_b ^= 1 << u
                u += 1
                continue
            if placed_b >> u & 1 or preds_b[u] & ~placed_b:
                u += 1
                continue
            order_b.append(u)
            placed_b |= 1 << u
            u = 0
            if len(order_b) < b:
                nodes += 1
                if nodes > budget:
                    return "unknown", None, budget
                continue
            u = b
            # the complete second-axis order and its third-axis solve
            nodes += 2
            if nodes > budget:
                return "unknown", None, budget
            rank_b = _ranks(order_b)
            preds_c = [0] * c
            for i, i2, j, j2, k, k2 in rest:
                pa, qa, pb, qb = rank_a[i], rank_a[i2], rank_b[j], rank_b[j2]
                if pa >= qa and pb >= qb:
                    preds_c[k2] |= 1 << k
                elif pa <= qa and pb <= qb:
                    preds_c[k] |= 1 << k2
            rank_c = [0] * c
            done = 0
            for pos in range(c):
                for w in range(c):
                    if not done >> w & 1 and not preds_c[w] & ~done:
                        break
                else:
                    break
                done |= 1 << w
                rank_c[w] = pos
            if done == (1 << c) - 1:
                return "oblique", AxisPermutations(rank_a, rank_b, rank_c), nodes


def _ranks(order: Sequence[int]) -> list[int]:
    """The position of each value in `order`."""
    out = [0] * len(order)
    for pos, val in enumerate(order):
        out[val] = pos
    return out


# ---------------------------------------------------------------------------
# Maximal antichain size and the 3x3x3 census
# ---------------------------------------------------------------------------

def max_oblique_size(a: int, b: int, c: int) -> tuple[int, Support]:
    """Sharp upper bound for an antichain in [a] x [b] x [c], with the central
    constant-sum slice that attains it."""
    if min(a, b, c) < 1:
        raise ValueError("dimensions must be >= 1")
    x, y, z = sorted((a, b, c))
    if x + y <= z:
        bound = x * y
    else:
        bound = x * y - ((x + y - z) ** 2) // 4
    h_max = (a + b + c - 3) // 2
    triples = tuple(
        (i, j, k)
        for i in range(a)
        for j in range(b)
        for k in range(c)
        if i + j + k == h_max
    )
    achieving = Support(Shape(a, b, c), triples)
    if len(achieving) != bound:
        raise AssertionError("internal: central slice size disagrees with the bound")
    return bound, achieving


def _maximal_independent_sets(n: int, adj: Sequence[int]) -> list[int]:
    """All maximal independent sets of a graph on n vertices (bitmask adjacency),
    via Bron-Kerbosch with pivoting on the complement."""
    full = (1 << n) - 1
    inc = [(~adj[v]) & (full ^ (1 << v)) for v in range(n)]
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pux = p | x
        best_u, best_cnt = -1, -1
        u = pux
        while u:
            v = (u & -u).bit_length() - 1
            cnt = (p & inc[v]).bit_count()
            if cnt > best_cnt:
                best_u, best_cnt = v, cnt
            u &= u - 1
        cand = p & ~inc[best_u]
        while cand:
            vbit = cand & -cand
            v = vbit.bit_length() - 1
            bk(r | vbit, p & inc[v], x & inc[v])
            p &= ~vbit
            x |= vbit
            cand &= ~vbit
    bk(0, full, 0)
    return out


@dataclass(frozen=True)
class CensusReport:
    maximal_count: int
    concise_count: int
    orbit_count: int
    representatives: tuple[Support, ...]
    witnesses: tuple[Optional[TightWitness], ...]
    orbit_sizes: tuple[int, ...]


def census(m: int, seed: int = 0) -> CensusReport:
    """Classify the maximal antichains of the m x m x m grid.

    Enumerates maximal antichains as maximal independent sets of the
    comparability graph on the m^3 vertices, keeps the concise ones (those
    meeting every axis slice), groups them into orbits of the order-12
    symmetry group by the largest of their 12 image keys, and runs the tight
    decider on every orbit representative.  Maximal antichains never contain
    one another, so the largest key is the image with the lexicographically
    smallest sorted triple list; the representatives are those images, in
    increasing order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    verts, comparable, slices, tables = _cube_tables(m)
    n = len(verts)
    masks = _maximal_independent_sets(n, comparable)
    concise = [mk for mk in masks if all(map(mk.__and__, slices))]
    full, fields = (1 << n) - 1, range(0, 12 * n, n)
    orbits: Counter[int] = Counter()
    for mk in concise:
        # distinct vertices have distinct images, so the sum of the byte entries is their OR
        images = sum(row[mk >> (8 * p) & 255] for p, row in enumerate(tables))
        orbits[max([images >> f & full for f in fields])] += 1
    keys = sorted(orbits, reverse=True)
    shape = Shape(m, m, m)
    reps = tuple(Support(shape, tuple(verts[n - 1 - b] for b in range(n) if key >> b & 1)) for key in keys)
    return CensusReport(
        maximal_count=len(masks),
        concise_count=len(concise),
        orbit_count=len(reps),
        representatives=reps,
        witnesses=tuple(decide_tight(r, seed=seed) for r in reps),
        orbit_sizes=tuple(orbits[key] for key in keys),
    )


def census_m3(seed: int = 0) -> CensusReport:
    """The paper's 3x3x3 census, `census(3, seed)`."""
    return census(3, seed)


@cache
def _cube_tables(m: int) -> tuple[tuple[Triple, ...], tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The m-cube's vertices, vertex (i, j, k) at bit (i*m + j)*m + k, with the
    comparability mask of each vertex, the 3m axis-slice masks, and one table
    per mask byte sending it to the keys of its 12 images side by side, in
    fields of m^3 bits.  The images are under the axis permutations, with or
    without the flip x -> m-1-x, and a key holds vertex v at bit m^3 - 1 - v.
    Built on the first call for m and kept, as tuples, since every caller shares them."""
    verts = tuple(itertools.product(range(m), repeat=3))
    n = len(verts)
    index = {t: v for v, t in enumerate(verts)}
    comparable = tuple(
        sum(1 << v for v, q in enumerate(verts) if p != q and (all(map(le, p, q)) or all(map(le, q, p))))
        for p in verts
    )
    slices = tuple(sum(1 << v for v, t in enumerate(verts) if t[d] == x) for d in range(3) for x in range(m))
    symmetries = [(perm, flip) for perm in itertools.permutations(range(3)) for flip in (False, True)]
    # vertex v's image under symmetry g, in field g
    bits = [
        sum(1 << (g * n + n - 1 - index[tuple(m - 1 - t[d] if flip else t[d] for d in perm)])
            for g, (perm, flip) in enumerate(symmetries))
        for t in verts
    ] + [0] * (-n % 8)
    tables = []
    for lo in range(0, n, 8):
        row = [0] * 256
        for byte in range(1, 256):
            row[byte] = row[byte & (byte - 1)] | bits[lo + (byte & -byte).bit_length() - 1]
        tables.append(tuple(row))
    return verts, comparable, slices, tuple(tables)
