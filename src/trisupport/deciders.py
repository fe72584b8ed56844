"""Exact decision procedures for tight, oblique and free supports.

Tightness is decided by an exact rational nullspace computation: the support's
incidence system has an injective integer solution iff no coordinate-difference
functional vanishes identically on the solution space (over an infinite field a
linear space lies in a finite union of hyperplanes iff it lies in one of them).
Obliqueness is decided by the tight fast path or by an exhaustive backtracking
search over axis orders; freeness is a pairwise scan.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional

from . import linalg
from .core import (
    AxisPermutations,
    Shape,
    Support,
    Triple,
    apply_permutations,
    is_concise_support,
)


@dataclass(frozen=True)
class TightWitness:
    """Three injective integer weightings that sum to zero on every triple
    of the support they certify."""

    tau_a: tuple[int, ...]
    tau_b: tuple[int, ...]
    tau_c: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau_a", tuple(int(x) for x in self.tau_a))
        object.__setattr__(self, "tau_b", tuple(int(x) for x in self.tau_b))
        object.__setattr__(self, "tau_c", tuple(int(x) for x in self.tau_c))

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

        def ranks(tau: tuple[int, ...]) -> tuple[int, ...]:
            order = sorted(range(len(tau)), key=lambda i: tau[i])
            out = [0] * len(tau)
            for pos, idx in enumerate(order):
                out[idx] = pos
            return tuple(out)

        return AxisPermutations(ranks(self.tau_a), ranks(self.tau_b), ranks(self.tau_c))


def is_free(s: Support) -> bool:
    """True iff every pair of distinct triples differs in at least two entries."""
    ts = s.triples
    for x in range(len(ts)):
        i1, j1, k1 = ts[x]
        for y in range(x + 1, len(ts)):
            i2, j2, k2 = ts[y]
            if (i1 == i2) + (j1 == j2) + (k1 == k2) >= 2:
                return False
    return True


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


def _axis_slices(shape: Shape) -> tuple[tuple[int, int], ...]:
    a, b, c = shape
    return ((0, a), (a, a + b), (a + b, a + b + c))


def decide_tight(s: Support, seed: int = 0) -> Optional[TightWitness]:
    """Return a verified witness if the support is tight, else None.

    The witness is an integer combination of exact nullspace basis vectors;
    injectivity is generic, so a seeded random combination is tried first and
    a guaranteed polynomial-coefficient sweep is used as fallback.
    """
    rows, ncols = _incidence_rows(s)
    basis = linalg.nullspace(rows, ncols)

    for lo, hi in _axis_slices(s.shape):
        for i in range(lo, hi):
            for i2 in range(i + 1, hi):
                if all(vec[i] == vec[i2] for vec in basis):
                    return None

    def combine(coeffs: list[int]) -> list[Fraction]:
        vec = [Fraction(0)] * ncols
        for c, bvec in zip(coeffs, basis):
            if c:
                for idx in range(ncols):
                    vec[idx] += c * bvec[idx]
        return vec

    def injective(vec: list[Fraction]) -> bool:
        for lo, hi in _axis_slices(s.shape):
            vals = vec[lo:hi]
            if len(set(vals)) != len(vals):
                return False
        return True

    d = len(basis)
    rng = random.Random(seed)
    chosen: Optional[list[Fraction]] = None
    for _ in range(64):
        vec = combine([rng.randint(-16, 16) for _ in range(d)])
        if injective(vec):
            chosen = vec
            break
    if chosen is None:
        # coefficients (1, n, n^2, ...): each difference functional is a nonzero
        # polynomial in n of degree < d, so some n below pairs*(d-1)+2 works
        pairs = sum((hi - lo) * (hi - lo - 1) // 2 for lo, hi in _axis_slices(s.shape))
        n = pairs + 1
        while True:
            vec = combine([n**t for t in range(d)])
            if injective(vec):
                chosen = vec
                break
            n += 1

    ints = linalg.integerize(chosen)
    (lo_a, hi_a), (lo_b, hi_b), (lo_c, hi_c) = _axis_slices(s.shape)
    witness = TightWitness(
        tuple(ints[lo_a:hi_a]), tuple(ints[lo_b:hi_b]), tuple(ints[lo_c:hi_c])
    )
    if not witness.certifies(s):
        raise AssertionError("internal: extracted weighting failed verification")
    return witness


# ---------------------------------------------------------------------------
# Obliqueness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObliqueResult:
    status: Literal["oblique", "not_oblique", "unknown"]
    witness: Optional[AxisPermutations]
    nodes: int


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self) -> bool:
        self.left -= 1
        return self.left >= 0


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def decide_oblique(s: Support, budget: int = 10_000_000, seed: int = 0) -> ObliqueResult:
    """Decide whether some reordering of the three index ranges turns the
    support into an antichain.

    Tight supports short-circuit through the weighting-sort construction.
    Otherwise the search enumerates orders of the first two axes with early
    pruning; the third axis order is never searched, because each surviving
    pair forces an orientation of a pair of third-axis values, and a valid
    order exists iff the forced orientation digraph is acyclic.  The search
    is exhaustive, so "not_oblique" is exact; "unknown" occurs only when the
    node budget is exhausted.
    """
    if not is_free(s):
        return ObliqueResult("not_oblique", None, 0)

    witness = decide_tight(s, seed=seed)
    if witness is not None:
        perms = witness.sorting_permutations()
        if not is_antichain(apply_permutations(s, perms)):
            raise AssertionError("internal: weighting sort did not yield an antichain")
        return ObliqueResult("oblique", perms, 0)

    a = s.shape.a
    ts = s.triples
    n = len(ts)
    # pairs bucketed by which coordinate (if any) agrees; freeness rules out
    # agreement in two coordinates, so the buckets are well defined
    eq_a: list[tuple[Triple, Triple]] = []
    eq_b: list[tuple[Triple, Triple]] = []
    eq_c: list[tuple[Triple, Triple]] = []
    diff3: list[tuple[Triple, Triple]] = []
    for x in range(n):
        for y in range(x + 1, n):
            p, q = ts[x], ts[y]
            if p[0] == q[0]:
                eq_a.append((p, q))
            elif p[1] == q[1]:
                eq_b.append((p, q))
            elif p[2] == q[2]:
                eq_c.append((p, q))
            else:
                diff3.append((p, q))

    budget_box = _Budget(budget)
    for perm_a in itertools.permutations(range(a)):
        if not budget_box.spend():
            return ObliqueResult("unknown", None, budget)
        rank_a = [0] * a
        for pos, val in enumerate(perm_a):
            rank_a[val] = pos

        # required b-orientation for pairs agreeing in the third coordinate:
        # (u, v) must be ordered opposite to the a-orientation
        need: dict[tuple[int, int], int] = {}
        consistent = True
        for p, q in eq_c:
            da = _sign(rank_a[p[0]] - rank_a[q[0]])
            u, v = p[1], q[1]
            req = -da  # dir_b(u, v) must equal req
            key = (u, v) if u < v else (v, u)
            req_key = req if u < v else -req
            if need.get(key, req_key) != req_key:
                consistent = False
                break
            need[key] = req_key
        if not consistent:
            continue

        found = _search_b(
            s, rank_a, need, eq_a, eq_b, diff3, budget_box
        )
        if found is not None:
            perms = AxisPermutations(tuple(rank_a), found[0], found[1])
            if not is_antichain(apply_permutations(s, perms)):
                raise AssertionError("internal: oblique search returned a non-antichain")
            return ObliqueResult("oblique", perms, budget - budget_box.left)
        if budget_box.left < 0:
            return ObliqueResult("unknown", None, budget)
    return ObliqueResult("not_oblique", None, budget - budget_box.left)


def _search_b(
    s: Support,
    rank_a: list[int],
    need: dict[tuple[int, int], int],
    eq_a: list[tuple[Triple, Triple]],
    eq_b: list[tuple[Triple, Triple]],
    diff3: list[tuple[Triple, Triple]],
    budget: _Budget,
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    b, c = s.shape.b, s.shape.c
    rank_b = [-1] * b  # -1 = unassigned; assigned values precede unassigned ones

    def dir_b(u: int, v: int) -> int:
        # orientation is known iff at least one endpoint is ranked
        ru, rv = rank_b[u], rank_b[v]
        if ru >= 0 and rv >= 0:
            return _sign(ru - rv)
        if ru >= 0:
            return -1
        if rv >= 0:
            return 1
        return 0  # unknown

    def violates(u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        req = need.get(key)
        if req is None:
            return False
        d = dir_b(key[0], key[1])
        return d != 0 and d != req

    def place(pos: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        if not budget.spend():
            return None
        if pos == b:
            return _solve_c(s, rank_a, rank_b, eq_a, eq_b, diff3, c, budget)
        for val in range(b):
            if rank_b[val] >= 0:
                continue
            rank_b[val] = pos
            ok = True
            for key in need:
                if val in key and violates(*key):
                    ok = False
                    break
            if ok:
                res = place(pos + 1)
                if res is not None or budget.left < 0:
                    rank_b[val] = -1
                    return res
            rank_b[val] = -1
        return None

    return place(0)


def _solve_c(
    s: Support,
    rank_a: list[int],
    rank_b: list[int],
    eq_a: list[tuple[Triple, Triple]],
    eq_b: list[tuple[Triple, Triple]],
    diff3: list[tuple[Triple, Triple]],
    c: int,
    budget: _Budget,
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Collect forced third-axis orientations and topologically order them."""
    if not budget.spend():
        return None
    forced: dict[tuple[int, int], int] = {}

    def force(u: int, v: int, d: int) -> bool:
        # require dir_c(u, v) == d with d in {-1, +1}
        key = (u, v) if u < v else (v, u)
        dk = d if u < v else -d
        old = forced.get(key)
        if old is not None and old != dk:
            return False
        forced[key] = dk
        return True

    for p, q in eq_a:
        db = _sign(rank_b[p[1]] - rank_b[q[1]])
        if not force(p[2], q[2], -db):
            return None
    for p, q in eq_b:
        da = _sign(rank_a[p[0]] - rank_a[q[0]])
        if not force(p[2], q[2], -da):
            return None
    for p, q in diff3:
        da = _sign(rank_a[p[0]] - rank_a[q[0]])
        db = _sign(rank_b[p[1]] - rank_b[q[1]])
        if da == db:
            if not force(p[2], q[2], -da):
                return None

    # build the precedence digraph on third-axis values and topo-sort it
    after: list[set[int]] = [set() for _ in range(c)]
    indeg = [0] * c
    for (u, v), d in forced.items():
        lo, hi = (u, v) if d < 0 else (v, u)
        if hi not in after[lo]:
            after[lo].add(hi)
            indeg[hi] += 1
    avail = sorted(v for v in range(c) if indeg[v] == 0)
    order: list[int] = []
    while avail:
        v = avail.pop(0)
        order.append(v)
        added = []
        for w in after[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                added.append(w)
        if added:
            avail = sorted(avail + added)
    if len(order) != c:
        return None  # cycle: no compatible total order
    rank_c = [0] * c
    for pos, val in enumerate(order):
        rank_c[val] = pos
    return tuple(rank_b), tuple(rank_c)


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


def cube_symmetry_images(s: Support) -> list[tuple[Triple, ...]]:
    """The 12 images of a cube support under factor permutations composed
    with the coordinatewise flip x -> m-1-x."""
    m = s.shape.a
    if tuple(s.shape) != (m, m, m):
        raise ValueError("cube symmetries require a cubical shape")
    images = []
    for perm in itertools.permutations(range(3)):
        for flip in (False, True):
            img = []
            for t in s.triples:
                u = (t[perm[0]], t[perm[1]], t[perm[2]])
                if flip:
                    u = (m - 1 - u[0], m - 1 - u[1], m - 1 - u[2])
                img.append(u)
            images.append(tuple(sorted(img)))
    return images


def cube_canonical_form(s: Support) -> tuple[Triple, ...]:
    """Lexicographically smallest sorted triple list over the 12-element group."""
    return min(cube_symmetry_images(s))


def _maximal_independent_sets(n: int, adj: list[int]) -> list[int]:
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
            cnt = bin(p & inc[v]).count("1")
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


def census_m3(seed: int = 0) -> CensusReport:
    """Classify the maximal antichains of the 3x3x3 grid.

    Enumerates maximal antichains as maximal independent sets of the
    comparability graph on 27 vertices, keeps the concise ones, groups them
    into orbits of the order-12 symmetry group, and runs the tight decider on
    every orbit representative.
    """
    m = 3
    verts = [(i, j, k) for i in range(m) for j in range(m) for k in range(m)]
    n = len(verts)
    adj = [0] * n
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            p, q = verts[x], verts[y]
            if all(p[d] <= q[d] for d in range(3)) or all(q[d] <= p[d] for d in range(3)):
                adj[x] |= 1 << y

    masks = _maximal_independent_sets(n, adj)
    shape = Shape(m, m, m)

    def mask_to_support(mask: int) -> Support:
        triples = []
        while mask:
            bit = mask & -mask
            triples.append(verts[bit.bit_length() - 1])
            mask &= mask - 1
        return Support(shape, tuple(triples))

    antichains = [mask_to_support(mk) for mk in masks]
    concise = [s for s in antichains if is_concise_support(s)]

    orbits: dict[tuple[Triple, ...], int] = {}
    for s in concise:
        canon = cube_canonical_form(s)
        orbits[canon] = orbits.get(canon, 0) + 1

    reps = tuple(Support(shape, canon) for canon in sorted(orbits))
    sizes = tuple(orbits[tuple(r.triples)] for r in reps)
    witnesses = tuple(decide_tight(r, seed=seed) for r in reps)
    return CensusReport(
        maximal_count=len(antichains),
        concise_count=len(concise),
        orbit_count=len(reps),
        representatives=reps,
        witnesses=witnesses,
        orbit_sizes=sizes,
    )
