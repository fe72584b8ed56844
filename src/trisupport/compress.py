"""Coordinate compressibility, multicompressibility and minimum slice covers.

Only coordinate index subsets are searched.  Every in-scope compressibility
claim is witnessed by coordinate subspaces, so the searches verify all of
them; results are exact for the coordinate notion and lower bounds for the
subspace notion, and outputs are labeled accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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


def find_zero_box(s: Support, a1: int, b1: int, c1: int) -> Optional[ZeroBox]:
    """Exact search for index subsets I, J, K of the requested sizes with
    (I x J x K) disjoint from the support; None proves there are none.

    Axes are processed in increasing target size; the smallest target is
    enumerated by subset backtracking, the other two by a biclique search on
    the pairs left unblocked.  Within an axis, indices are tried in ascending
    occupancy so sparse slices are used first.
    """
    dims = tuple(s.shape)
    targets = (a1, b1, c1)
    for want, have in zip(targets, dims):
        if not 0 <= want <= have:
            raise ValueError(f"requested box {targets} exceeds shape {dims}")

    order = sorted(range(3), key=lambda d: (targets[d], d))
    d0, d1, d2 = order

    occupancy = [[0] * dims[d] for d in range(3)]
    for t in s.triples:
        for d in range(3):
            occupancy[d][t[d]] += 1

    # triples re-expressed in processing order (v0, v1, v2)
    tris = [(t[d0], t[d1], t[d2]) for t in s.triples]
    n0, n1, n2 = dims[d0], dims[d1], dims[d2]
    w0, w1, w2 = targets[d0], targets[d1], targets[d2]
    by_v0: list[list[tuple[int, int]]] = [[] for _ in range(n0)]
    for v0, v1, v2 in tris:
        by_v0[v0].append((v1, v2))

    cand0 = sorted(range(n0), key=lambda v: (occupancy[d0][v], v))

    def biclique(blocked: set[tuple[int, int]]) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        allowed = [set(range(n2)) for _ in range(n1)]
        for v1, v2 in blocked:
            allowed[v1].discard(v2)
        cand1 = sorted(
            (v for v in range(n1) if len(allowed[v]) >= w2),
            key=lambda v: (occupancy[d1][v], v),
        )

        chosen: list[int] = []

        def grow(start: int, common: set[int]) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
            if len(chosen) == w1:
                picked = sorted(common, key=lambda v: (occupancy[d2][v], v))[:w2]
                return tuple(sorted(chosen)), tuple(sorted(picked))
            for pos in range(start, len(cand1)):
                if len(cand1) - pos < w1 - len(chosen):
                    return None
                v = cand1[pos]
                nxt = common & allowed[v]
                if len(nxt) < w2:
                    continue
                chosen.append(v)
                res = grow(pos + 1, nxt)
                chosen.pop()
                if res is not None:
                    return res
            return None

        return grow(0, set(range(n2)))

    picked0: list[int] = []

    def pick0(start: int, blocked: set[tuple[int, int]]) -> Optional[ZeroBox]:
        if len(picked0) == w0:
            rest = biclique(blocked)
            if rest is None:
                return None
            out = [None, None, None]
            out[d0] = tuple(sorted(picked0))
            out[d1], out[d2] = rest
            return ZeroBox(*out)  # type: ignore[arg-type]
        for pos in range(start, len(cand0)):
            if len(cand0) - pos < w0 - len(picked0):
                return None
            v = cand0[pos]
            added = [p for p in by_v0[v] if p not in blocked]
            picked0.append(v)
            blocked.update(added)
            res = pick0(pos + 1, blocked)
            blocked.difference_update(added)
            picked0.pop()
            if res is not None:
                return res
        return None

    box = pick0(0, set())
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
    triple has factor three; a greedy cover seeds the upper bound.
    """
    triples = list(s.triples)
    if not triples:
        return SliceCover(())
    slices: dict[tuple[int, int], set[int]] = {}
    for idx, t in enumerate(triples):
        for axis in range(3):
            slices.setdefault((axis, t[axis]), set()).add(idx)

    # greedy upper bound
    uncovered = set(range(len(triples)))
    greedy: list[tuple[int, int]] = []
    while uncovered:
        sl = max(sorted(slices), key=lambda key: len(slices[key] & uncovered))
        greedy.append(sl)
        uncovered -= slices[sl]
    best: list[tuple[int, int]] = sorted(greedy)
    max_cover = max(len(v) for v in slices.values())

    def dfs(uncov: set[int], chosen: list[tuple[int, int]]) -> None:
        nonlocal best
        if not uncov:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return
        lower = len(chosen) + -(-len(uncov) // max_cover)
        if lower >= len(best):
            return
        pivot = min(uncov)
        t = triples[pivot]
        for axis in range(3):
            key = (axis, t[axis])
            chosen.append(key)
            dfs(uncov - slices[key], chosen)
            chosen.pop()

    dfs(set(range(len(triples))), [])
    cover = SliceCover(tuple(best))
    if not cover.covers(s):
        raise AssertionError("internal: cover search returned a non-cover")
    return cover
