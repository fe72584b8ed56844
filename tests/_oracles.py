"""Independent brute-force oracles used to validate the fast implementations.

These deliberately avoid the library's algorithms: the tightness oracle is a
complete bounded search over integer weightings, the freeness oracle
compares every pair of triples, the obliqueness oracle tries every triple of
axis orders with its own pairwise comparison, the antichain oracle is a
maximum-independent-set search, the zero-box oracle enumerates every pair of
first- and second-axis index subsets (sharing no code with
trisupport.compress), the incompressibility-set oracle tests every grid
triple against every support triple, the stabilizer and annihilator oracles
rank their full dense systems by plain Fraction elimination (sharing no code
with trisupport.linalg or trisupport.symmetry), the kernel-basis oracle is
dense Fraction Gauss-Jordan elimination from the highest column down, the
injective-combination oracle combines Fractions pairwise where
trisupport.linalg hashes integer columns, the functional oracle is a simplex
grid sweep, the functional's certificate is recomputed from its distribution
in plain Python over the oracle's own dominated set, a perfect matching of
that set is checked point by point against it, and the cube census
oracle reads maximal antichains off plane partitions and groups them by
sorted triple tuples, where trisupport.deciders runs Bron-Kerbosch on
bitmasks.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from trisupport.core import Shape, Support, Tensor, Triple

# Each component's first triple is translated to weight 0 (below), which moves
# a witness with every |tau| <= 12 into |tauA|, |tauB| <= 24 and |tauC| <= 36.
SEARCH_BOUND = 36
_NODE_CAP = 20_000_000


def _domain(bound: int) -> list[int]:
    # small absolute values first so forced sums stay in range early
    vals = [0]
    for v in range(1, bound + 1):
        vals.extend((v, -v))
    return vals


def _components(triples: list[Triple]) -> list[list[Triple]]:
    remaining = list(triples)
    comps: list[list[Triple]] = []
    while remaining:
        comp = [remaining.pop(0)]
        vars_in = {(d, comp[0][d]) for d in range(3)}
        changed = True
        while changed:
            changed = False
            for t in list(remaining):
                if any((d, t[d]) in vars_in for d in range(3)):
                    comp.append(t)
                    remaining.remove(t)
                    vars_in |= {(d, t[d]) for d in range(3)}
                    changed = True
        comps.append(comp)
    return comps


def _search(triples: list[Triple], bound: int) -> bool:
    """Complete DFS for an injective zero-sum weighting with values in
    [-bound, bound] on the variables of the given connected triples, with the
    first triple at weight 0.

    (tauA + x, tauB + y, tauC - x - y) keeps every triple's sum at zero and
    every weighting injective, so fixing the first triple's tauA and tauB at 0
    (and with them its tauC) loses no witness."""
    domain = _domain(bound)
    assign: dict[tuple[int, int], int] = {}
    used: list[set[int]] = [set(), set(), set()]
    nodes = 0

    def place(var: tuple[int, int], val: int) -> bool:
        if abs(val) > bound or val in used[var[0]]:
            return False
        assign[var] = val
        used[var[0]].add(val)
        return True

    def unplace(var: tuple[int, int]) -> None:
        used[var[0]].remove(assign.pop(var))

    def solve(ti: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > _NODE_CAP:
            raise RuntimeError("tightness oracle exceeded its node cap")
        if ti == len(triples):
            return True
        t = triples[ti]
        tvars = [(d, t[d]) for d in range(3)]
        missing = [v for v in tvars if v not in assign]
        have = sum(assign[v] for v in tvars if v in assign)
        if not missing:
            return have == 0 and solve(ti + 1)
        if len(missing) == 1:
            v = missing[0]
            if place(v, -have):
                if solve(ti + 1):
                    return True
                unplace(v)
            return False
        first = missing[0]
        rest = missing[1:]
        for val in domain:
            if not place(first, val):
                continue
            if len(rest) == 1:
                v = rest[0]
                if place(v, -have - val):
                    if solve(ti + 1):
                        return True
                    unplace(v)
            else:
                for val2 in domain:
                    if not place(rest[0], val2):
                        continue
                    if place(rest[1], -have - val - val2):
                        if solve(ti + 1):
                            return True
                        unplace(rest[1])
                    unplace(rest[0])
            unplace(first)
        return False

    for d in range(3):
        place((d, triples[0][d]), 0)
    return solve(1)


def oracle_tight(s: Support, bound: int = SEARCH_BOUND) -> bool:
    """Exhaustive bounded search for a tightness certificate, one component of
    the constraint hypergraph at a time.

    Components share no variable, so a support is tight exactly when every
    component is: a global witness restricts to each component, and component
    witnesses translated far enough apart stay injective together.
    """
    return all(_search(comp, bound) for comp in _components(list(s.triples)))


def oracle_free(s: Support) -> bool:
    """Freeness by comparing every pair of triples: no two share two coordinates."""
    ts = s.triples
    for x in range(len(ts)):
        i1, j1, k1 = ts[x]
        for y in range(x + 1, len(ts)):
            i2, j2, k2 = ts[y]
            if (i1 == i2) + (j1 == j2) + (k1 == k2) >= 2:
                return False
    return True


def _comparable(p: Triple, q: Triple) -> bool:
    return all(x <= y for x, y in zip(p, q)) or all(y <= x for x, y in zip(p, q))


def oracle_oblique(s: Support) -> bool:
    """Obliqueness by trying every triple of axis orders directly."""
    a, b, c = s.shape
    for pa in itertools.permutations(range(a)):
        for pb in itertools.permutations(range(b)):
            for pc in itertools.permutations(range(c)):
                moved = [(pa[i], pb[j], pc[k]) for i, j, k in s.triples]
                if not any(_comparable(p, q) for p, q in itertools.combinations(moved, 2)):
                    return True
    return False


def oracle_max_antichain(shape: Shape) -> int:
    """Size of a maximum antichain by branch-and-bound independent set search."""
    verts = [
        (i, j, k)
        for i in range(shape.a)
        for j in range(shape.b)
        for k in range(shape.c)
    ]
    n = len(verts)
    adj = [0] * n
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            if _comparable(verts[x], verts[y]):
                adj[x] |= 1 << y
    best = 0

    def grow(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if cand == 0 or size + bin(cand).count("1") <= best:
            return
        while cand:
            vbit = cand & -cand
            v = vbit.bit_length() - 1
            grow(cand & ~adj[v] & ~vbit, size + 1)
            cand &= ~vbit
            if size + bin(cand).count("1") <= best:
                return

    grow((1 << n) - 1, 0)
    return best


def oracle_box_sizes(s: Support) -> set[tuple[int, int, int]]:
    """Every (a1, b1, c1) such that some I x J x K of those sizes misses the
    support.  All subsets I and J are enumerated; K can then be any set of
    third-axis indices that no triple on I x J uses."""
    a, b, c = s.shape
    sizes = set()
    for a1 in range(a + 1):
        for i_set in itertools.combinations(range(a), a1):
            for b1 in range(b + 1):
                for j_set in itertools.combinations(range(b), b1):
                    used = {k for (i, j, k) in s.triples if i in i_set and j in j_set}
                    sizes.update((a1, b1, c1) for c1 in range(c - len(used) + 1))
    return sizes


def oracle_total_compressibility(s: Support) -> int:
    """Largest a1 + b1 + c1 of a zero box."""
    return max(sum(dims) for dims in oracle_box_sizes(s))


def oracle_multicompressibility(s: Support) -> int:
    """Largest r such that every in-range (a1, b1, c1) summing to r has a zero box."""
    sizes = oracle_box_sizes(s)
    a, b, c = s.shape
    missing = {
        sum(dims)
        for dims in itertools.product(range(a + 1), range(b + 1), range(c + 1))
        if dims not in sizes
    }
    return min(missing, default=a + b + c + 1) - 1


def oracle_incompr_set(s: Support) -> tuple[Triple, ...]:
    """Every grid triple that some support triple dominates, each one tested
    against the whole support."""
    return tuple(
        (i, j, k)
        for i in range(s.shape.a)
        for j in range(s.shape.b)
        for k in range(s.shape.c)
        if any(t[0] >= i and t[1] >= j and t[2] >= k for t in s.triples)
    )


def oracle_span_stabilizer_dim(s: Support) -> int:
    """Stabilizer dimension by assembling and ranking the full linear system."""
    a, b, c = s.shape
    ncols = a * a + b * b + c * c
    offsets = (0, a * a, a * a + b * b)
    sizes = (a, b, c)
    members = s.as_set()
    rows: list[list[Fraction]] = []
    for t in s.triples:
        for axis in range(3):
            n = sizes[axis]
            for v in range(n):
                moved = list(t)
                moved[axis] = v
                if tuple(moved) not in members:
                    # coefficient of e_moved in L.e_t is the single entry (v, t[axis])
                    row = [Fraction(0)] * ncols
                    row[offsets[axis] + v * n + t[axis]] = Fraction(1)
                    rows.append(row)
    return ncols - _dense_rank(rows, ncols)


def _dense_rank(rows: list[list[Fraction]], ncols: int) -> int:
    """Rank by textbook Gauss elimination over Fractions; reduces rows in place."""
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        live = [c for c in range(col, ncols) if prow[c] != 0]
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            if row[col] != 0:
                factor = row[col] / prow[col]
                for c in live:
                    row[c] -= factor * prow[c]
        rank += 1
    return rank



def oracle_kernel_basis(rows, ncols: int) -> tuple[list[int], list[list[Fraction]]]:
    """The free columns and the reduced kernel basis of the sparse integer rows
    (dicts column -> value): dense Fraction Gauss-Jordan elimination that takes
    the columns from the highest down, so the free columns are those in the
    span of the columns after them, and each basis vector is 1 on its own free
    column, 0 on the others, in ascending free-column order."""
    dense = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    pivots: dict[int, list[Fraction]] = {}
    rank = 0
    for col in reversed(range(ncols)):
        pivot = next((r for r in range(rank, len(dense)) if dense[r][col] != 0), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        prow = dense[rank]
        prow[:] = [v / prow[col] for v in prow]
        live = [c for c in range(ncols) if prow[c] != 0]
        for r, row in enumerate(dense):
            if r != rank and row[col] != 0:
                factor = row[col]
                for c in live:
                    row[c] -= factor * prow[c]
        pivots[col] = prow
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(c == f) for c in range(ncols)]
        for col, prow in pivots.items():
            vec[col] = -prow[f]
        basis.append(vec)
    return free, basis


def oracle_injective_combination(vectors, blocks, seed: int = 0):
    """`linalg.injective_combination` as it was in Fractions: an agreeing
    pair of entries in a block is found by comparing every pair on every
    vector, and each combination is summed in Fractions and then scaled to
    its primitive integer vector.  The same seeded draws and the same
    (1, n, n^2, ...) sweep follow."""
    for lo, hi in blocks:
        for i in range(lo, hi):
            for i2 in range(i + 1, hi):
                if all(vec[i] == vec[i2] for vec in vectors):
                    return None
    width = blocks[-1][1] if blocks else 0

    def combine(coeffs):
        vec = [Fraction(0)] * width
        for c, bvec in zip(coeffs, vectors):
            if c:
                for idx in range(width):
                    vec[idx] += c * bvec[idx]
        for lo, hi in blocks:
            if len(set(vec[lo:hi])) != hi - lo:
                return None
        den = lcm(*(v.denominator for v in vec))
        ints = [v.numerator * (den // v.denominator) for v in vec]
        g = gcd(*ints)
        return [v // g for v in ints] if g > 1 else ints

    d = len(vectors)
    rng = random.Random(seed)
    for _ in range(64):
        found = combine([rng.randint(-16, 16) for _ in range(d)])
        if found is not None:
            return found
    n = sum((hi - lo) * (hi - lo - 1) // 2 for lo, hi in blocks) + 1
    while (found := combine([n**t for t in range(d)])) is None:
        n += 1
    return found

def oracle_annihilator_dim(t: Tensor) -> int:
    """Annihilator dimension from the dense matrix of the Leibniz action.

    Unknowns are the entries of (X, Y, Z), a^2 + b^2 + c^2 columns.  The
    output coordinate (p, q, r) of X.T + Y.T + Z.T is
    sum_i X[p][i] T[i,q,r] + sum_j Y[q][j] T[p,j,r] + sum_k Z[r][k] T[p,q,k];
    there is one row per triple that a single-factor move of the support
    reaches (every other row is zero).  The kernel always holds the
    2-dimensional center, which is subtracted.
    """
    a, b, c = t.shape
    offsets = (0, a * a, a * a + b * b)
    ncols = a * a + b * b + c * c
    coef = t.entries
    zero = Fraction(0)
    reached = set()
    for (i, j, k) in coef:
        reached.update((p, j, k) for p in range(a))
        reached.update((i, q, k) for q in range(b))
        reached.update((i, j, r) for r in range(c))
    rows = []
    for p, q, r in sorted(reached):
        row = [zero] * ncols
        for i in range(a):
            row[offsets[0] + p * a + i] = coef.get((i, q, r), zero)
        for j in range(b):
            row[offsets[1] + q * b + j] = coef.get((p, j, r), zero)
        for k in range(c):
            row[offsets[2] + r * c + k] = coef.get((p, q, k), zero)
        rows.append(row)
    return ncols - _dense_rank(rows, ncols) - 2


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


_GRID_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _simplex_grid(total: int, parts: int) -> np.ndarray:
    key = (total, parts)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = np.array(list(_compositions(total, parts)), dtype=np.float64)
    return _GRID_CACHE[key]


def oracle_zeta_grid(
    points: tuple[Triple, ...],
    theta: tuple[float, float, float],
    coarse: int = 64,
    fine: int = 512,
) -> float:
    """Simplex grid sweep of the weighted marginal-entropy objective: a full
    pass at step 1/coarse, then a local pass at step 1/fine around the best
    coarse cell.  Returns 2**best."""
    n = len(points)
    sizes = tuple(max(t[axis] for t in points) + 1 for axis in range(3))
    proj = [np.zeros((sizes[axis], n)) for axis in range(3)]
    for col, t in enumerate(points):
        for axis in range(3):
            proj[axis][t[axis], col] = 1.0

    def batch_objective(probs: np.ndarray) -> np.ndarray:
        f = np.zeros(probs.shape[0])
        for axis in range(3):
            if theta[axis] <= 0:
                continue
            marg = probs @ proj[axis].T
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.where(marg > 0, marg * np.log2(np.where(marg > 0, marg, 1.0)), 0.0)
            f -= theta[axis] * term.sum(axis=1)
        return f

    grid = _simplex_grid(coarse, n) / coarse
    scores = batch_objective(grid)
    best_idx = int(scores.argmax())
    best_f = float(scores[best_idx])

    ratio = fine // coarse
    base = np.rint(grid[best_idx] * fine).astype(int)
    deltas = [d for d in itertools.product(range(-ratio, ratio + 1), repeat=n) if sum(d) == 0]
    cands = base + np.array(deltas, dtype=int)
    cands = cands[(cands >= 0).all(axis=1)]
    if len(cands):
        refined = batch_objective(cands.astype(np.float64) / fine)
        best_f = max(best_f, float(refined.max()))
    return float(2.0**best_f)


def oracle_zeta_frank_wolfe(
    s: Support, theta: tuple[float, float, float], probs: dict[Triple, float]
) -> tuple[float, float]:
    """The weighted marginal entropy (base 2) of the distribution probs and
    its Frank-Wolfe gap max g - g.p over every grid triple some support
    triple dominates, where g at a triple is minus the weighted sum of the
    base-2 logs of its three marginals.  Plain Python floats throughout."""
    dominated = oracle_incompr_set(s)
    if not set(probs) <= set(dominated):
        raise ValueError("distribution leaves the dominated set")
    marginals: list[dict[int, float]] = [{}, {}, {}]
    for t, p in probs.items():
        for axis in range(3):
            marginals[axis][t[axis]] = marginals[axis].get(t[axis], 0.0) + p
    value = -sum(
        th * q * math.log2(q) for th, marg in zip(theta, marginals) if th > 0 for q in marg.values() if q > 0
    )

    def g(t: Triple) -> float:
        out = 0.0
        for axis in range(3):
            if theta[axis] > 0:
                q = marginals[axis].get(t[axis], 0.0)
                out += (-theta[axis] * math.log2(q)) if q > 0 else math.inf
        return out

    return value, max(map(g, dominated)) - sum(p * g(t) for t, p in probs.items())


def oracle_zeta_certificate(
    s: Support, theta: tuple[float, float, float], probs: dict[Triple, float]
) -> tuple[float, float]:
    """The value of `oracle_zeta_frank_wolfe` and the certificate gap: the
    distance cap - value when it is below 1e-8 and the Frank-Wolfe gap, else
    the Frank-Wolfe gap, floored at 0.  The cap, which no distribution
    exceeds, is the weighted sum of the base-2 logs of the numbers of values
    the dominated triples take on each axis."""
    value, frank_wolfe = oracle_zeta_frank_wolfe(s, theta, probs)
    dominated = oracle_incompr_set(s)
    cap = sum(th * math.log2(len({t[axis] for t in dominated})) for axis, th in enumerate(theta) if th > 0)
    return value, max(0.0, min(frank_wolfe, cap - value) if cap - value < 1e-8 else frank_wolfe)


def oracle_is_perfect_matching(s: Support, probs: dict[Triple, float]) -> bool:
    """Whether the triples of positive probability are a perfect matching of
    the dominated set: members of it, pairwise distinct on every axis, and as
    many as the values the dominated set takes on each axis."""
    dominated = set(oracle_incompr_set(s))
    points = [t for t, p in probs.items() if p > 0]
    rows = [len({t[axis] for t in dominated}) for axis in range(3)]
    return (
        set(points) <= dominated
        and all(len({t[axis] for t in points}) == len(points) for axis in range(3))
        and rows == [len(points)] * 3
    )


def downward_closed_sets(max_size: int) -> list[tuple[Triple, ...]]:
    """All downward-closed triple sets of size <= max_size containing the origin."""
    found: set[frozenset[Triple]] = set()
    frontier = [frozenset({(0, 0, 0)})]
    found.add(frontier[0])
    while frontier:
        nxt = []
        for cur in frontier:
            if len(cur) == max_size:
                continue
            bound = max_size  # coordinates can never exceed the size budget
            for i in range(bound):
                for j in range(bound):
                    for k in range(bound):
                        t = (i, j, k)
                        if t in cur:
                            continue
                        preds = [(i - 1, j, k), (i, j - 1, k), (i, j, k - 1)]
                        if all(p in cur for p in preds if min(p) >= 0):
                            grown = cur | {t}
                            if grown not in found:
                                found.add(grown)
                                nxt.append(grown)
        frontier = nxt
    return [tuple(sorted(fs)) for fs in sorted(found, key=lambda fs: (len(fs), tuple(sorted(fs))))]


def oracle_cube_images(s: Support) -> list[tuple[Triple, ...]]:
    """The 12 images of a cube support, as sorted triple tuples, under the
    axis permutations with or without the coordinatewise flip x -> m-1-x."""
    m = s.shape.a
    return [
        tuple(sorted(tuple(m - 1 - t[d] if flip else t[d] for d in perm) for t in s.triples))
        for perm in itertools.permutations(range(3))
        for flip in (False, True)
    ]


def oracle_cube_canonical_form(s: Support) -> tuple[Triple, ...]:
    """The lexicographically smallest of the 12 images."""
    return min(oracle_cube_images(s))


def oracle_cube_maximal_antichains(m: int) -> list[tuple[Triple, ...]]:
    """The maximal antichains of the m-cube, from its down-sets.  A down-set
    is a plane partition: heights h(i, j) <= m that never increase along a
    row or a column, holding (i, j, k) for k < h(i, j).  Its antichain is its
    set of points none of whose three successors lies in it, and the
    antichain is maximal when every point of the cube is comparable to one of
    its points."""
    cells = list(itertools.product(range(m), repeat=2))
    cube = list(itertools.product(range(m), repeat=3))
    out = []

    def fill(h: dict, n: int) -> None:
        if n < len(cells):
            i, j = cells[n]
            top = min(h.get((i - 1, j), m), h.get((i, j - 1), m))
            for v in range(top + 1):
                fill({**h, (i, j): v}, n + 1)
            return
        down = {(i, j, k) for (i, j), v in h.items() for k in range(v)}
        tops = [p for p in down if all(p[:d] + (p[d] + 1,) + p[d + 1:] not in down for d in range(3))]
        leq = lambda p, q: all(x <= y for x, y in zip(p, q))  # noqa: E731
        if all(any(leq(p, q) or leq(q, p) for q in tops) for p in cube):
            out.append(tuple(sorted(tops)))

    fill({}, 0)
    return sorted(out)
