"""Independent answer checks.

Every check here is short code of the benchmark's own that works on plain
tuples, dicts and Fractions.  None of it calls into trisupport, so a defect in
the library cannot hide behind the library's own self-checks, and none of the
check time is attributed to a library layer in the traced run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd


class WrongAnswer(Exception):
    """An answer that fails its independent check."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def _lcm_of_denominators(values) -> int:
    lcm = 1
    for v in values:
        d = Fraction(v).denominator
        lcm = lcm // gcd(lcm, d) * d
    return lcm


def weighting_certifies(taus, shape, triples) -> bool:
    """Three injective integer weightings summing to zero on every triple."""
    if tuple(len(t) for t in taus) != tuple(shape):
        return False
    if any(len(set(t)) != len(t) for t in taus):
        return False
    ta, tb, tc = taus
    return all(ta[i] + tb[j] + tc[k] == 0 for (i, j, k) in triples)


def is_antichain(triples) -> bool:
    ts = list(triples)
    for x in range(len(ts)):
        p = ts[x]
        for y in range(x + 1, len(ts)):
            q = ts[y]
            if (p[0] <= q[0] and p[1] <= q[1] and p[2] <= q[2]) or (
                q[0] <= p[0] and q[1] <= p[1] and q[2] <= p[2]
            ):
                return False
    return True


def is_free(triples) -> bool:
    seen: set = set()
    for (i, j, k) in triples:
        keys = (("ij", i, j), ("ik", i, k), ("jk", j, k))
        if any(key in seen for key in keys):
            return False
        seen.update(keys)
    return True


def is_concise(shape, triples) -> bool:
    return all(
        len({t[axis] for t in triples}) == shape[axis] for axis in range(3)
    )


def permute(triples, on_a, on_b, on_c):
    """Image of the triples under three index bijections (checked to be bijections)."""
    for perm in (on_a, on_b, on_c):
        expect(sorted(perm) == list(range(len(perm))), "witness is not a permutation")
    return [(on_a[i], on_b[j], on_c[k]) for (i, j, k) in triples]


def box_misses(i_set, j_set, k_set, triples) -> bool:
    si, sj, sk = set(i_set), set(j_set), set(k_set)
    return not any(i in si and j in sj and k in sk for (i, j, k) in triples)


def slices_cover(slices, triples) -> bool:
    chosen = set(slices)
    return all(
        (0, i) in chosen or (1, j) in chosen or (2, k) in chosen for (i, j, k) in triples
    )


def zero_sum_triples(xs, ys, zs) -> list[tuple[int, int, int]]:
    """Index triples of offsets with x + y + z == 0 (the joints of an arrangement)."""
    z_at = {z: k for k, z in enumerate(zs)}
    return [
        (i, j, z_at[-(x + y)])
        for i, x in enumerate(xs)
        for j, y in enumerate(ys)
        if -(x + y) in z_at
    ]


def leibniz_kills(mats, shape, entries) -> bool:
    """True iff the Leibniz action of the matrix triple (X, Y, Z) kills the
    tensor {triple: coefficient}.  X[i2][i] moves index i to i2 on the first
    axis, and likewise for Y and Z.  Everything is scaled to integers first."""
    lcm = _lcm_of_denominators(v for m in mats for row in m for v in row)
    cols = []
    for m, n in zip(mats, shape):
        col: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for r in range(n):
            for c in range(n):
                if m[r][c]:
                    col[c].append((r, int(m[r][c] * lcm)))
        cols.append(col)
    tlcm = _lcm_of_denominators(entries.values())
    cx, cy, cz = cols
    out: dict = {}
    for (i, j, k), v in entries.items():
        v = int(v * tlcm)
        for i2, x in cx[i]:
            key = (i2, j, k)
            out[key] = out.get(key, 0) + x * v
        for j2, y in cy[j]:
            key = (i, j2, k)
            out[key] = out.get(key, 0) + y * v
        for k2, z in cz[k]:
            key = (i, j, k2)
            out[key] = out.get(key, 0) + z * v
    return not any(out.values())


def dominated_points(shape, triples) -> set:
    """The flag triples dominated by some support triple."""
    a, b, c = shape
    return {
        (i, j, k)
        for i in range(a)
        for j in range(b)
        for k in range(c)
        if any(t[0] >= i and t[1] >= j and t[2] >= k for t in triples)
    }


def entropy_cap(shape) -> float:
    """2 ** (sum of theta * log2 n) at uniform weights: the largest possible value."""
    return 2.0 ** sum(math.log2(n) / 3.0 for n in shape)


def span_stabilizer_dim(shape, triples) -> int:
    """Count the matrix entries (axis, v, u) for which moving index u to v on
    one axis maps every support triple back into the support."""
    members = set(triples)
    total = 0
    for axis in range(3):
        for u in range(shape[axis]):
            moved = [t for t in triples if t[axis] == u]
            for v in range(shape[axis]):
                if all(t[:axis] + (v,) + t[axis + 1:] in members for t in moved):
                    total += 1
    return total
