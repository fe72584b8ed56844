"""Exact sparse linear algebra over the rationals.

Rows are dicts column -> integer; `integerize` clears the denominators of a
rational vector and strips its content.

One pivot loop, `_eliminate`, serves both exact paths: it takes the
sparsest column, then its sparsest row, ties to the lower index, over Z
(p = 0) or mod a prime p.  One back-substitution, `_kernel_vector`, reads its
output.

`nullspace` is a certified modular solver:

1. Eliminate mod a fixed 61-bit prime p, the pivot row made monic and no gcd
   stripping.
2. Back-substitute mod p one kernel vector per free column: 1 on that column,
   0 on the other free columns.
3. Combine the residues of successive fixed primes by CRT and rationally
   reconstruct each entry (Wang 1981).  A vector is accepted once its
   integerization satisfies every integer input row exactly (A v = 0); the
   others wait for the next prime.
4. The rank mod p is at most the rank over Q.  So ncols - rank_p accepted
   vectors, independent because they are the identity on the free set, leave
   no room for more: they are exactly the rational kernel basis with that free
   set.

A vector with a given free set is the unique kernel vector that is the
identity on it, so the result equals `Echelon(rows, ncols).nullspace()`
whenever p leaves the pivot sequence unchanged, which fails only if p divides
an intermediate entry of the rational elimination.  `nullspace` falls back to
`Echelon` when a later prime's free set differs from the first one's (an
unlucky prime), or when the fixed primes run out before every vector verifies.

`Echelon` is the same loop with p = 0, fraction-free: new_row = pivot * row -
factor * pivot_row, followed by a gcd strip, so no rounding can ever occur and
entries stay moderate.  It serves `rank` and the fallback.
"""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

SparseRow = dict[int, int]

# the eight largest primes below 2^61; together they reconstruct entries whose
# numerator and denominator have up to about 240 bits each
PRIMES = (
    2305843009213693951,
    2305843009213693921,
    2305843009213693907,
    2305843009213693723,
    2305843009213693693,
    2305843009213693669,
    2305843009213693613,
    2305843009213693561,
)
_ZERO = Fraction(0)


def integerize(values: Iterable[Fraction | int]) -> list[int]:
    """The primitive integer vector on the ray of `values`: scale by the lcm of
    the denominators, then divide by the gcd of the results (signs kept)."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _strip(row: SparseRow) -> SparseRow:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _eliminate(rows: Iterable[SparseRow], p: int = 0) -> tuple[list[SparseRow], list[int]]:
    """The pivot rows and their pivot columns, in elimination order, of `rows`
    over Z (p = 0) or mod the prime p.

    The pivot is the sparsest column, then its sparsest row, ties to the lower
    index; row ids are positions in `rows`.  Over Z a row r hitting the pivot
    column becomes pv r - f prow, gcd-stripped; mod p the pivot row is made
    monic and r becomes r - f prow.  Either way only the pivot row's columns
    of r can appear or vanish, so only those are re-indexed, and only their
    counts are pushed again on the heap that stands in for a min over all
    columns.  Its keys are count * width + column, so the smallest is the
    rule's choice once entries whose count is stale are dropped from the top;
    a column whose rows are all gone keeps an empty set, which no key matches.
    The row chosen at step t holds no pivot column of the steps before, so
    back-substitution in reverse order reads only solved pivots.
    """
    active: dict[int, SparseRow] = {}
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        rp = {c: w for c, v in r.items() if (w := v % p if p else v)}
        if rp:
            active[i] = rp
            for c in rp:
                col_rows.setdefault(c, set()).add(i)
    width = 1 + max(col_rows, default=0)
    heap = [len(hit) * width + c for c, hit in col_rows.items()]
    heapify(heap)
    pivot_rows: list[SparseRow] = []
    pivot_cols: list[int] = []
    while active:
        while True:
            n, pc = divmod(heap[0], width)
            hit = col_rows.get(pc)
            if hit is not None and len(hit) == n:
                break
            heappop(heap)
        cands = col_rows.pop(pc)
        pi = min(cands, key=lambda i: (len(active[i]), i))
        cands.discard(pi)
        prow = active.pop(pi)
        pv = prow[pc]
        if p and pv != 1:
            inv = pow(pv, -1, p)
            prow = {c: v * inv % p for c, v in prow.items()}
        others = [(c, v) for c, v in prow.items() if c != pc]
        for c, _v in others:
            col_rows[c].discard(pi)
        # one update loop per arithmetic, so that no entry tests p
        for i in cands:
            r = active[i]
            f = r.pop(pc)
            if p:
                for c, v in others:
                    old = r.get(c)
                    if old is None:
                        r[c] = -f * v % p
                        col_rows.setdefault(c, set()).add(i)
                    elif w := (old - f * v) % p:
                        r[c] = w
                    else:
                        del r[c]
                        col_rows[c].discard(i)
            else:
                for c in r:
                    r[c] *= pv
                for c, v in others:
                    old = r.get(c)
                    if old is None:
                        r[c] = -f * v
                        col_rows.setdefault(c, set()).add(i)
                    elif w := old - f * v:
                        r[c] = w
                    else:
                        del r[c]
                        col_rows[c].discard(i)
                r = active[i] = _strip(r)
            if not r:
                del active[i]
        for c, _v in others:
            if hit := col_rows[c]:
                heappush(heap, len(hit) * width + c)
        pivot_rows.append(prow)
        pivot_cols.append(pc)
    return pivot_rows, pivot_cols


def _kernel_vector(
    pivot_rows: list[SparseRow], pivot_cols: list[int], free: int, ncols: int, p: int = 0
) -> list:
    """The kernel vector that is 1 on column `free` and 0 on the other free
    columns: residues mod p, or Fractions when p = 0."""
    vec = [0 if p else _ZERO] * ncols
    vec[free] = 1 if p else Fraction(1)
    # vec[pc] is still 0 when its row is reached, so the whole row can be summed
    for row, pc in zip(reversed(pivot_rows), reversed(pivot_cols)):
        s = 0
        for c, v in row.items():
            s += v * vec[c]
        if s:
            vec[pc] = -s % p if p else Fraction(-s, row[pc])
    return vec


class Echelon:
    """Sparse echelon form over Z with recorded pivot columns."""

    def __init__(self, rows: Iterable[SparseRow], ncols: int):
        self.ncols = ncols
        self.pivot_rows, self.pivot_cols = _eliminate(rows)

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def free_cols(self) -> list[int]:
        pivots = set(self.pivot_cols)
        return [c for c in range(self.ncols) if c not in pivots]

    def nullspace(self) -> list[list[Fraction]]:
        """One exact basis vector per free column, in ascending column order."""
        return [_kernel_vector(self.pivot_rows, self.pivot_cols, f, self.ncols) for f in self.free_cols()]


def rank(rows: Iterable[SparseRow], ncols: int) -> int:
    return Echelon(rows, ncols).rank


# ---------------------------------------------------------------------------
# Certified modular nullspace
# ---------------------------------------------------------------------------

def _rational(u: int, m: int, bound: int) -> Optional[Fraction]:
    """The n/d with |n|, d <= bound and n = u d (mod m), or None (Wang 1981)."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _reconstruct(residues: list[int], m: int) -> Optional[list[Fraction]]:
    """Rational candidates for one vector.  The entries share denominators, so
    each residue is first tried against the lcm of those found so far."""
    half = m >> 1
    bound = isqrt(half)
    den = 1
    out: list[Fraction] = []
    for u in residues:
        if not u:
            out.append(_ZERO)
            continue
        t = u * den % m
        if t > half:
            t -= m
        if -bound <= t <= bound:
            out.append(Fraction(t, den))
            continue
        q = _rational(u, m, bound)
        if q is None:
            return None
        den = lcm(den, q.denominator)
        out.append(q)
    return out


def _annihilates(cols: list[list[tuple[int, int]]], vec: list[Fraction]) -> bool:
    """A v = 0 exactly, with A given by columns as (row, value) pairs; only
    the columns in the support of v are read."""
    acc: dict[int, int] = {}
    for c, x in enumerate(integerize(vec)):
        if x:
            for i, v in cols[c]:
                acc[i] = acc.get(i, 0) + v * x
    return not any(acc.values())


def modular_nullspace(rows: Iterable[SparseRow], ncols: int) -> Optional[list[list[Fraction]]]:
    """The certified modular kernel basis, one vector per free column in
    ascending column order, or None when `PRIMES` cannot certify it (an
    unlucky prime, or entries too large for the fixed primes)."""
    rows = [r for r in rows if r]
    cols: Optional[list[list[tuple[int, int]]]] = None
    free: Optional[list[int]] = None
    residues: dict[int, list[int]] = {}
    done: dict[int, list[Fraction]] = {}
    m = 1
    for p in PRIMES:
        pivot_rows, pivot_cols = _eliminate(rows, p)
        pivots = set(pivot_cols)
        free_p = [c for c in range(ncols) if c not in pivots]
        if free is None:
            free = free_p
        elif free_p != free:
            return None
        inv = pow(m, -1, p)
        for f in free:
            if f in done:
                continue
            vec = _kernel_vector(pivot_rows, pivot_cols, f, ncols, p)
            acc = residues.setdefault(f, vec)
            if acc is not vec:
                for c, (a, b) in enumerate(zip(acc, vec)):
                    if a != b:
                        acc[c] = a + m * ((b - a) * inv % p)
        m *= p
        # built once the elimination is released, so the two never coexist
        del pivot_rows
        if cols is None:
            cols = [[] for _ in range(ncols)]
            for i, r in enumerate(rows):
                for c, v in r.items():
                    cols[c].append((i, v))
        for f in list(residues):
            cand = _reconstruct(residues[f], m)
            if cand is not None and _annihilates(cols, cand):
                done[f] = cand
                del residues[f]
        if not residues:
            return [done[f] for f in free]
    return None


def nullspace(rows: Iterable[SparseRow], ncols: int) -> list[list[Fraction]]:
    """Exact kernel basis, one vector per free column in ascending column
    order: certified modular when possible, else `Echelon`."""
    rows = list(rows)
    basis = modular_nullspace(rows, ncols)
    return basis if basis is not None else Echelon(rows, ncols).nullspace()


def injective_combination(
    vectors: Sequence[Sequence[Fraction]], blocks: Sequence[tuple[int, int]], seed: int = 0
) -> Optional[list[int]]:
    """An integer combination of `vectors` whose entries are pairwise distinct
    within each block, as a primitive integer vector, or None when some pair
    of entries in a block agrees on every vector.  The blocks are consecutive
    ranges [lo, hi) that partition the entries.

    The work is in integers: the vectors are scaled once by the lcm D > 0 of
    their denominators, which moves no combination off its ray, and a block
    has an agreeing pair exactly when two of its columns (the tuples of one
    entry over all vectors) hash alike.  Otherwise injectivity is generic on
    the span, so 64 seeded random combinations are tried first.  The
    fallback (1, n, n^2, ...) sweep ends: each entry difference is a nonzero
    polynomial in n of degree below len(vectors), so some n below
    pairs * (len(vectors) - 1) + 2 works.
    """
    den = lcm(*(v.denominator for vec in vectors for v in vec))
    scaled = [[v.numerator * (den // v.denominator) for v in vec] for vec in vectors]
    width = blocks[-1][1] if blocks else 0
    columns = list(zip(*scaled)) if scaled else [()] * width
    for lo, hi in blocks:
        if len(set(columns[lo:hi])) != hi - lo:
            return None

    def combine(coeffs: list[int]) -> Optional[list[int]]:
        vec = [0] * width
        for c, ivec in zip(coeffs, scaled):
            if c:
                vec = [x + c * y for x, y in zip(vec, ivec)]
        for lo, hi in blocks:
            if len(set(vec[lo:hi])) != hi - lo:
                return None
        return integerize(vec)

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
