"""Exact sparse linear algebra over the rationals.

Rows are dicts column -> integer; `integerize` clears denominators and strips
the content on entry.

`nullspace` is a certified modular solver:

1. Eliminate mod a fixed 61-bit prime p with the pivot rule of
   `Echelon._reduce` (sparsest column, then sparsest row, ties to the lower
   index), the pivot row made monic and no gcd stripping.
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

`Echelon` is fraction-free: new_row = pivot * row - factor * pivot_row,
followed by a gcd strip, so no rounding can ever occur and entries stay
moderate.  It serves `rank`, the fallback and the tests' reference.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from typing import Iterable, Mapping, Optional

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


def integerize(values: Iterable[Fraction]) -> list[int]:
    """The primitive integer vector on the ray of `values`: scale by the lcm of
    the denominators, then divide by the gcd of the results (signs kept)."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def row_from_fractions(entries: Mapping[int, Fraction]) -> SparseRow:
    """Clear denominators and strip the content of one row."""
    entries = {c: v for c, v in entries.items() if v}
    return dict(zip(entries, integerize(entries.values())))


def _strip(row: SparseRow) -> SparseRow:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class Echelon:
    """Sparse echelon form with recorded pivot columns."""

    def __init__(self, rows: Iterable[SparseRow], ncols: int):
        self.ncols = ncols
        self.pivot_rows: list[SparseRow] = []
        self.pivot_cols: list[int] = []
        self._reduce([dict(r) for r in rows if r])

    def _reduce(self, active: list[SparseRow]) -> None:
        # col -> set of active row ids currently hitting it
        col_rows: dict[int, set[int]] = {}
        rows: dict[int, SparseRow] = {i: r for i, r in enumerate(active)}
        for i, r in rows.items():
            for c in r:
                col_rows.setdefault(c, set()).add(i)
        while rows:
            pc = min(col_rows, key=lambda c: (len(col_rows[c]), c))
            cands = col_rows[pc]
            pi = min(cands, key=lambda i: (len(rows[i]), i))
            prow = rows.pop(pi)
            for c in prow:
                col_rows[c].discard(pi)
                if not col_rows[c]:
                    del col_rows[c]
            pv = prow[pc]
            for i in list(col_rows.get(pc, ())):
                r = rows[i]
                f = r[pc]
                new: SparseRow = {}
                for c, v in r.items():
                    w = v * pv - f * prow.get(c, 0)
                    if w:
                        new[c] = w
                for c in prow:
                    if c not in r:
                        w = -f * prow[c]
                        if w:
                            new[c] = w
                new = _strip(new)
                for c in r:
                    col_rows[c].discard(i)
                    if not col_rows[c]:
                        del col_rows[c]
                if new:
                    rows[i] = new
                    for c in new:
                        col_rows.setdefault(c, set()).add(i)
                else:
                    del rows[i]
            self.pivot_rows.append(prow)
            self.pivot_cols.append(pc)
        # pivot rows are kept in elimination order: the row chosen at step t
        # contains no pivot column of steps < t, so reverse-order substitution
        # only ever references already-solved pivots.

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def free_cols(self) -> list[int]:
        pivots = set(self.pivot_cols)
        return [c for c in range(self.ncols) if c not in pivots]

    def nullspace(self) -> list[list[Fraction]]:
        """One exact basis vector per free column, in ascending column order."""
        basis: list[list[Fraction]] = []
        for f in self.free_cols():
            vec = [Fraction(0)] * self.ncols
            vec[f] = Fraction(1)
            for r in range(len(self.pivot_cols) - 1, -1, -1):
                row = self.pivot_rows[r]
                pc = self.pivot_cols[r]
                s = Fraction(0)
                for c, v in row.items():
                    if c != pc:
                        s += v * vec[c]
                vec[pc] = -s / row[pc]
            basis.append(vec)
        return basis


def rank(rows: Iterable[SparseRow], ncols: int) -> int:
    return Echelon(rows, ncols).rank


# ---------------------------------------------------------------------------
# Certified modular nullspace
# ---------------------------------------------------------------------------

def _eliminate_mod(rows: list[SparseRow], p: int) -> tuple[list[SparseRow], list[int]]:
    """`Echelon._reduce` mod p with monic pivot rows.

    Row ids are positions in `rows`, which holds no empty row, so ties break
    as in `Echelon`.  Only the pivot row's columns of a reduced row change, so
    only those are re-indexed, and only their counts are pushed again on the
    heap that stands in for Echelon's min over all columns.  Its keys are
    count * width + column, so the smallest is Echelon's choice once entries
    whose count is stale are dropped from the top.
    """
    active: dict[int, SparseRow] = {}
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        rp = {c: w for c, v in r.items() if (w := v % p)}
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
        inv = pow(prow[pc], -1, p)
        if inv != 1:
            prow = {c: v * inv % p for c, v in prow.items()}
        others = [(c, v) for c, v in prow.items() if c != pc]
        for c, _v in others:
            hit = col_rows[c]
            hit.discard(pi)
            if not hit:
                del col_rows[c]
        for i in cands:
            r = active[i]
            f = r.pop(pc)
            for c, v in others:
                old = r.get(c)
                if old is None:
                    r[c] = -f * v % p
                    col_rows.setdefault(c, set()).add(i)
                else:
                    w = (old - f * v) % p
                    if w:
                        r[c] = w
                    else:
                        del r[c]
                        hit = col_rows[c]
                        hit.discard(i)
                        if not hit:
                            del col_rows[c]
            if not r:
                del active[i]
        for c, _v in others:
            hit = col_rows.get(c)
            if hit:
                heappush(heap, len(hit) * width + c)
        pivot_rows.append(prow)
        pivot_cols.append(pc)
    return pivot_rows, pivot_cols


def _kernel_vector_mod(
    pivot_rows: list[SparseRow], pivot_cols: list[int], free: int, ncols: int, p: int
) -> list[int]:
    vec = [0] * ncols
    vec[free] = 1
    # vec[pc] is still 0 and the pivot entry is 1, so the whole row can be summed
    for t in range(len(pivot_cols) - 1, -1, -1):
        s = 0
        for c, v in pivot_rows[t].items():
            s += v * vec[c]
        if s:
            vec[pivot_cols[t]] = -s % p
    return vec


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
        pivot_rows, pivot_cols = _eliminate_mod(rows, p)
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
            vec = _kernel_vector_mod(pivot_rows, pivot_cols, f, ncols, p)
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
