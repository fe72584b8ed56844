"""Coordinate compressibility, multicompressibility and minimum slice covers.

Only coordinate index subsets are searched.  Every in-scope compressibility
claim is witnessed by coordinate subspaces, so the searches verify all of
them; results are exact for the coordinate notion and lower bounds for the
subspace notion, and outputs are labeled accordingly.

Multicompressibility reads small shapes off one table: for every pair of
index subsets of the two smaller axes, the bitmask of largest-axis values
that some triple joins to them, built by subset doubling over numpy unsigned
integers.  Above TABLE_MAX_BITS that table is too large, and one search
context per support (`_box_finder`) answers the size splits instead,
skipping those with a zero part and settling dominated ones by one lookup in
a reach table.

The minimum slice cover branches over per-axis lists of slice bitmasks and
prunes by a matching bound (slice-disjoint triples need a slice each), which
cuts no subtree holding a smaller cover: the cover returned is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import or_
from typing import Callable, Iterator, Optional

import numpy as np

from .core import Shape, Support

# multicompressibility uses the subset table while the two smaller axes have at
# most this many indices together (the table has 2 ** that many cells) and the
# largest axis fits a uint64 mask; above it, the zero-box search answers
TABLE_MAX_BITS = 18


@dataclass(frozen=True)
class ZeroBox:
    """Index subsets whose product box misses the certified support entirely."""

    i_set: tuple[int, ...]
    j_set: tuple[int, ...]
    k_set: tuple[int, ...]

    def dims(self) -> tuple[int, int, int]:
        return (len(self.i_set), len(self.j_set), len(self.k_set))

    def avoids(self, s: Support) -> bool:
        i_set, j_set, k_set = set(self.i_set), set(self.j_set), set(self.k_set)
        return not [t for t in s.triples if t[0] in i_set and t[1] in j_set and t[2] in k_set]


@dataclass(frozen=True)
class SliceCover:
    """A set of (axis, index) slices that jointly cover a support."""

    slices: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.slices)

    def covers(self, s: Support) -> bool:
        c0, c1, c2 = chosen = (set(), set(), set())
        for axis, v in self.slices:
            chosen[axis].add(v)
        return not [t for t in s.triples if t[0] not in c0 and t[1] not in c1 and t[2] not in c2]


def _first_subset(cands: list[int], w: int, acc, extend: Callable, finish: Callable):
    """First w-subset of cands, in depth-first order of positions, that finish
    accepts.  Picking v turns the accumulated acc into extend(acc, v), or
    prunes the pick when that is None; finish(chosen, acc) returns the answer,
    or None to keep searching."""

    def dfs(start: int, chosen: tuple[int, ...], acc):
        if len(chosen) == w:
            return finish(tuple(sorted(chosen)), acc)
        for pos in range(start, len(cands) - w + len(chosen) + 1):
            nxt = extend(acc, cands[pos])
            if nxt is not None:
                found = dfs(pos + 1, chosen + (cands[pos],), nxt)
                if found is not None:
                    return found
        return None

    return dfs(0, (), acc)


def _cell_masks(s: Support, d0: int, d1: int) -> list[list[int]]:
    """masks[v0][v1] is the bitmask of the third axis's values that a triple
    joins to value v0 on axis d0 and value v1 on axis d1."""
    dims, d2 = tuple(s.shape), 3 - d0 - d1
    masks = [[0] * dims[d1] for _ in range(dims[d0])]
    for t in s.triples:
        masks[t[d0]][t[d1]] |= 1 << t[d2]
    return masks


def find_zero_box(s: Support, a1: int, b1: int, c1: int) -> Optional[ZeroBox]:
    """Exact search for index subsets I, J, K of the requested sizes with
    (I x J x K) disjoint from the support; None proves there are none.

    Axes are processed in increasing target size, as values v0, v1, v2.  One
    subset search picks the v0, accumulating for each v1 the bitmask of v2
    a triple joins to the picks and v1; the same search then picks v1 whose
    masks leave at least w2 values v2 free, and the w2 sparsest free v2
    close the box.  Within an axis, indices are tried in ascending occupancy
    so sparse slices are used first.
    """
    return _box_finder(s)(a1, b1, c1)


def _box_finder(s: Support) -> Callable[[int, int, int], Optional[ZeroBox]]:
    """`find_zero_box` for many size splits of one support: the occupancy orders
    are built once, the mask table of an axis orientation (d0, d1) on first use."""
    dims = tuple(s.shape)
    cols = tuple(zip(*s.triples)) or ((), (), ())
    # indices by ascending occupancy; the sort is stable, so ties keep the smaller index first
    order = [sorted(range(n), key=col.count) for col, n in zip(cols, dims)]
    tables: dict[tuple[int, int], list[list[int]]] = {}

    def find(a1: int, b1: int, c1: int) -> Optional[ZeroBox]:
        targets = (a1, b1, c1)
        for want, have in zip(targets, dims):
            if not 0 <= want <= have:
                raise ValueError(f"box sizes must lie between 0 and the shape {dims}, got {targets}")

        axes = sorted(range(3), key=lambda d: (targets[d], d))
        d0, d1, d2 = axes
        w0, w1, w2 = targets[d0], targets[d1], targets[d2]
        masks = tables.get((d0, d1))
        if masks is None:
            masks = tables[d0, d1] = _cell_masks(s, d0, d1)

        def second_axis(picked0: tuple[int, ...], blocked: tuple[int, ...]):
            def extend(used: int, v1: int) -> Optional[int]:
                used |= blocked[v1]
                return used if used.bit_count() <= dims[d2] - w2 else None

            def finish(picked1: tuple[int, ...], used: int) -> ZeroBox:
                free = tuple(sorted([v for v in order[d2] if not used >> v & 1][:w2]))
                sets = dict(zip(axes, (picked0, picked1, free)))
                return ZeroBox(sets[0], sets[1], sets[2])

            cand1 = [v for v in order[d1] if extend(0, v) is not None]
            return _first_subset(cand1, w1, 0, extend, finish)

        block = lambda blocked, v0: tuple(map(or_, blocked, masks[v0]))  # noqa: E731
        box = _first_subset(order[d0], w0, (0,) * dims[d1], block, second_axis)
        if box is not None and not box.avoids(s):
            raise AssertionError("internal: returned box intersects the support")
        return box

    return find


def size_splits(shape: Shape, total: int) -> Iterator[tuple[int, int, int]]:
    """Every in-range box size (a', b', c') with a' + b' + c' = total."""
    a, b, c = shape
    for a1 in range(min(a, total) + 1):
        for b1 in range(max(0, total - a1 - c), min(b, total - a1) + 1):
            yield a1, b1, total - a1 - b1


def total_compressibility(s: Support) -> tuple[int, ZeroBox]:
    """Largest a'+b'+c' admitting a zero box (coordinate notion).

    A box I x J x K misses the support exactly when the slices outside I, J
    and K cover it, so the complement of a minimum slice cover is a largest
    zero box.
    """
    cover = set(slice_cover(s).slices)
    box = ZeroBox(
        *(tuple(v for v in range(n) if (axis, v) not in cover) for axis, n in enumerate(s.shape))
    )
    if not box.avoids(s):
        raise AssertionError("internal: complement of a cover meets the support")
    return sum(box.dims()), box


def _pair_masks(s: Support) -> list[list[list[int]]]:
    """tables[d][u][v] is the bitmask of the axis-d values that share a triple
    with value u on axis d + 1 and value v on axis d + 2 (axes mod 3)."""
    return [_cell_masks(s, (d + 1) % 3, (d + 2) % 3) for d in range(3)]


def _blocked(tables: list[list[list[int]]], sets: list[tuple[int, ...]], d: int) -> int:
    """The axis-d values that some triple joins to the index sets of the
    other two axes: the OR of tables[d][u][v] over their pairs."""
    out = 0
    for u in sets[(d + 1) % 3]:
        row = tables[d][u]
        for v in sets[(d + 2) % 3]:
            out |= row[v]
    return out


def _grow_zero_box(shape: Shape, tables: list[list[list[int]]], box: ZeroBox, first: int) -> ZeroBox:
    """Enlarge a zero box to an inclusion-maximal one, axis by axis from
    `first`, with the support's `_pair_masks` tables.  Each axis gains every
    index outside its `_blocked` mask.  Growing a later axis only shrinks
    what an earlier one could still gain, so a single pass over the three
    axes is maximal."""
    dims = tuple(shape)
    sets = [box.i_set, box.j_set, box.k_set]
    for d in (first, (first + 1) % 3, (first + 2) % 3):
        mask = _blocked(tables, sets, d)
        sets[d] = tuple(v for v in range(dims[d]) if not mask >> v & 1)
    mask = _blocked(tables, sets, 0)
    if any(mask >> v & 1 for v in sets[0]):
        raise AssertionError("internal: grown box intersects the support")
    return ZeroBox(*sets)


def multicompressibility(s: Support) -> int:
    """Largest r such that every in-range size split (a', b', c') with
    a'+b'+c' = r admits a zero box.  Splits are monotone: every split of
    level r lies inside some split of level r + 1 (below a + b + c), and a
    sub-box of a zero box is a zero box.  So r is the level below the first
    failing split.  A box I x J x {} misses any support, so only splits with
    every part nonzero can fail.

    When the two smaller axes have at most TABLE_MAX_BITS indices together
    and the largest at most 64, `_multicompressibility_table` answers from
    one table of every pair of smaller-axis subsets; otherwise
    `_multicompressibility_search` runs a zero-box search per split."""
    small = sorted(s.shape)
    if small[0] + small[1] <= TABLE_MAX_BITS and small[2] <= 64:
        return _multicompressibility_table(s)
    return _multicompressibility_search(s)


@cache
def _by_popcount(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The subsets 0 .. 2**n - 1 of n indices ordered by size (stably), and
    where each size's run starts in that order."""
    counts = np.bitwise_count(np.arange(1 << n))
    order = np.argsort(counts, kind="stable")
    return order, np.searchsorted(counts[order], np.arange(n + 1))


def _multicompressibility_table(s: Support) -> int:
    """`multicompressibility` from the exact table of blocked values.

    The two smaller axes come first (ties by axis index) and the largest
    axis's values become bits of the narrowest unsigned numpy integer that
    holds them.  A subset doubling over the first axis ORs the per-cell
    masks into rows[I, j]; a second over the second axis gives table[I, J],
    the largest-axis values some triple joins to I x J.  A zero box of sizes
    (x, y, z) exists iff some |I| = x, |J| = y leave z of the n2 largest-axis
    values free, so with least[x][y] the fewest blocked values over such
    pairs, the first failing split with first parts (x, y) has
    z = n2 - least[x][y] + 1, when that is at most n2."""
    dims = tuple(s.shape)
    d0, d1, d2 = sorted(range(3), key=lambda d: (dims[d], d))
    n0, n1, n2 = dims[d0], dims[d1], dims[d2]
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if np.iinfo(t).bits >= n2)
    cells = np.array(_cell_masks(s, d0, d1), dtype)
    rows = np.zeros((1 << n0, n1), dtype)
    for v in range(n0):
        rows[1 << v : 2 << v] = rows[: 1 << v] | cells[v]
    table = np.zeros((1 << n0, 1 << n1), dtype)
    for v in range(n1):
        table[:, 1 << v : 2 << v] = table[:, : 1 << v] | rows[:, v, None]
    (order0, starts0), (order1, starts1) = _by_popcount(n0), _by_popcount(n1)
    least = np.minimum.reduceat(np.bitwise_count(table)[order0], starts0, axis=0)
    least = np.minimum.reduceat(least[:, order1], starts1, axis=1)
    # the level below the failing split (x, y, n2 - least + 1)
    below = np.add.outer(np.arange(n0 + 1), np.arange(n1 + 1)) + n2 - least
    fails = below[1:, 1:][least[1:, 1:] > 0]
    return int(fails.min()) if fails.size else sum(dims)


def _multicompressibility_search(s: Support) -> int:
    """`multicompressibility` by scanning the levels upward, with one
    `_box_finder` for every split.

    A box of dims (u, v, w) witnesses every split componentwise <= (u, v, w):
    reach[x][y] is the largest w of a witness with u >= x and v >= y (-1 if
    none), and a split (x, y, z) with z <= reach[x][y] is skipped.  Every box
    a search returns is grown to a maximal zero box once from each starting
    axis along which it is not maximal already, and the grown dims enter the
    reach table."""
    dims = tuple(s.shape)
    a, b, _ = dims
    reach = [[-1] * (b + 1) for _ in range(a + 1)]
    find = _box_finder(s)
    tables = _pair_masks(s)
    best = 0
    while best < sum(dims):
        for x, y, z in size_splits(s.shape, best + 1):
            if not (x and y and z) or z <= reach[x][y]:
                continue
            box = find(x, y, z)
            if box is None:
                return best
            sets = [box.i_set, box.j_set, box.k_set]
            # growing from an axis along which the box is maximal equals growing from the next one
            starts = [d for d in range(3) if len(sets[d]) + _blocked(tables, sets, d).bit_count() < dims[d]]
            for grown in [_grow_zero_box(s.shape, tables, box, d) for d in starts] or [box]:
                u, v, w = grown.dims()
                # reach only falls as x and y grow, so a covered corner covers the rectangle
                if w > reach[u][v]:
                    for row in reach[: u + 1]:
                        row[: v + 1] = [max(r, w) for r in row[: v + 1]]
        best += 1
    return best


def slice_cover(s: Support) -> SliceCover:
    """Minimum cover of the support by axis slices, by exact branch and bound.

    Sets of triples are bitmasks over their positions in the support, and
    masks[axis][v] is the set that slice (axis, v) covers.  The greedy seed
    takes, at each step, the first slice in (axis, index) order that covers
    the most.  Branching is on the first uncovered triple's three slices; a
    node is pruned once the slices chosen plus a matching of its uncovered
    triples (taken lowest first, each removing its conflict mask) reach the
    best.  That prunes no strictly smaller cover, and only one replaces the
    best, so the bound changes the work and not the cover returned.
    """
    triples = s.triples
    if not triples:
        return SliceCover(())
    masks = m0, m1, m2 = [[0] * n for n in s.shape]
    for idx, (i, j, k) in enumerate(triples):
        bit = 1 << idx
        m0[i] |= bit
        m1[j] |= bit
        m2[k] |= bit
    conflict = [m0[i] | m1[j] | m2[k] for i, j, k in triples]
    nonempty = [((axis, v), m) for axis, row in enumerate(masks) for v, m in enumerate(row) if m]

    uncovered = (1 << len(triples)) - 1
    greedy: list[tuple[int, int]] = []
    while uncovered:
        top = 0
        for key, m in nonempty:
            n = (m & uncovered).bit_count()
            if n > top:
                top, pick, covered = n, key, m
        greedy.append(pick)
        uncovered &= ~covered
    best: list[tuple[int, int]] = sorted(greedy)

    def dfs(uncov: int, chosen: list[tuple[int, int]]) -> None:
        nonlocal best
        if not uncov:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return
        lower, rest = len(chosen), uncov
        while rest and lower < len(best):
            lower += 1
            rest &= ~conflict[(rest & -rest).bit_length() - 1]
        if lower >= len(best):
            return
        t = triples[(uncov & -uncov).bit_length() - 1]
        for axis in range(3):
            chosen.append((axis, t[axis]))
            dfs(uncov & ~masks[axis][t[axis]], chosen)
            chosen.pop()

    dfs((1 << len(triples)) - 1, [])
    cover = SliceCover(tuple(best))
    if not cover.covers(s):
        raise AssertionError("internal: cover search returned a non-cover")
    return cover
