"""Coordinate compressibility, multicompressibility and minimum slice covers.

Only coordinate index subsets are searched.  Every in-scope compressibility
claim is witnessed by coordinate subspaces, so the searches verify all of
them; results are exact for the coordinate notion and lower bounds for the
subspace notion, and outputs are labeled accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import or_
from typing import Callable, Iterator, Optional

from .core import Shape, Support


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
        return not any(i in i_set and j in j_set and k in k_set for i, j, k in s.triples)


@dataclass(frozen=True)
class SliceCover:
    """A set of (axis, index) slices that jointly cover a support."""

    slices: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.slices)

    def covers(self, s: Support) -> bool:
        chosen = set(self.slices)
        return all(
            any((axis, t[axis]) in chosen for axis in range(3)) for t in s.triples
        )


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
    dims = tuple(s.shape)
    targets = (a1, b1, c1)
    for want, have in zip(targets, dims):
        if not 0 <= want <= have:
            raise ValueError(f"box sizes must lie between 0 and the shape {dims}, got {targets}")

    axes = sorted(range(3), key=lambda d: (targets[d], d))
    d0, d1, d2 = axes
    w0, w1, w2 = targets[d0], targets[d1], targets[d2]
    occupancy = [[0] * n for n in dims]
    masks = [[0] * dims[d1] for _ in range(dims[d0])]
    for t in s.triples:
        for d in range(3):
            occupancy[d][t[d]] += 1
        masks[t[d0]][t[d1]] |= 1 << t[d2]
    order = [sorted(range(n), key=lambda v: (occupancy[d][v], v)) for d, n in enumerate(dims)]

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


def _grow_zero_box(s: Support, box: ZeroBox, first: int) -> ZeroBox:
    """Enlarge a zero box to an inclusion-maximal one, axis by axis from
    `first`.  Each axis gains every index that no triple joins to the other
    two index sets.  Growing a later axis only shrinks what an earlier one
    could still gain, so a single pass over the three axes is maximal."""
    dims = tuple(s.shape)
    sets = [set(box.i_set), set(box.j_set), set(box.k_set)]
    for d in (first, (first + 1) % 3, (first + 2) % 3):
        e, f = (d + 1) % 3, (d + 2) % 3
        blocked = {t[d] for t in s.triples if t[e] in sets[e] and t[f] in sets[f]}
        sets[d].update(v for v in range(dims[d]) if v not in blocked)
    grown = ZeroBox(*(tuple(sorted(v)) for v in sets))
    if not grown.avoids(s):
        raise AssertionError("internal: grown box intersects the support")
    return grown


def multicompressibility(s: Support) -> int:
    """Largest r such that every in-range size split (a', b', c') with
    a'+b'+c' = r admits a zero box.  Splits are monotone, so r is scanned
    upward until some split fails.

    A sub-box of a zero box is a zero box, so a box of dims (x, y, z)
    witnesses every split componentwise <= (x, y, z), and skipping such
    splits without a search keeps the answer exact.  Every box a search
    returns is grown to a maximal zero box once from each starting axis,
    and the grown dims join the witnesses."""
    witnesses: list[tuple[int, int, int]] = []
    best = 0
    while best < sum(s.shape):
        for x, y, z in size_splits(s.shape, best + 1):
            if any(x <= u and y <= v and z <= w for u, v, w in witnesses):
                continue
            box = find_zero_box(s, x, y, z)
            if box is None:
                return best
            witnesses.extend(_grow_zero_box(s, box, d).dims() for d in range(3))
        best += 1
    return best


def slice_cover(s: Support) -> SliceCover:
    """Minimum cover of the support by axis slices, by exact branch and bound.

    Every triple lies in exactly three slices, so branching on an uncovered
    triple has factor three; a greedy cover seeds the upper bound.  Sets of
    triples are bitmasks over their positions in the support.
    """
    triples = list(s.triples)
    if not triples:
        return SliceCover(())
    slices: dict[tuple[int, int], int] = {}
    for idx, t in enumerate(triples):
        for axis in range(3):
            slices[axis, t[axis]] = slices.get((axis, t[axis]), 0) | 1 << idx

    # greedy upper bound
    uncovered = (1 << len(triples)) - 1
    greedy: list[tuple[int, int]] = []
    while uncovered:
        sl = max(sorted(slices), key=lambda key: (slices[key] & uncovered).bit_count())
        greedy.append(sl)
        uncovered &= ~slices[sl]
    best: list[tuple[int, int]] = sorted(greedy)
    max_cover = max(v.bit_count() for v in slices.values())

    def dfs(uncov: int, chosen: list[tuple[int, int]]) -> None:
        nonlocal best
        if not uncov:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return
        lower = len(chosen) + -(-uncov.bit_count() // max_cover)
        if lower >= len(best):
            return
        t = triples[(uncov & -uncov).bit_length() - 1]
        for axis in range(3):
            key = (axis, t[axis])
            chosen.append(key)
            dfs(uncov & ~slices[key], chosen)
            chosen.pop()

    dfs((1 << len(triples)) - 1, [])
    cover = SliceCover(tuple(best))
    if not cover.covers(s):
        raise AssertionError("internal: cover search returned a non-cover")
    return cover
