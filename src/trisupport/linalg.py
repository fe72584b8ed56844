"""Exact sparse linear algebra over the rationals.

Rows are dicts column -> integer; `integerize` clears the denominators of a
rational vector and strips its content.

One loop, `_kernel`, serves both exact paths, over Z (p = 0) or mod a prime
p.  It updates a kernel basis row by row, from the identity: a row whose
products with the kernel vectors all vanish is dependent and skipped, and
otherwise the vector of the highest free column the row hits is eliminated
from the others.  The surviving vectors are the identity on the free
columns, so there is no back-substitution.  Because the pivot is always the
highest column hit, the free set is {c : column c lies in the span of the
columns after it}, and each vector is the unique kernel vector that is the
identity on it.  Both depend only on the kernel, not on the row order, on
which rows are dependent, or on any elimination heuristic.

`nullspace` is a certified modular solver:

1. Run `_kernel` mod a fixed 61-bit prime p on every row.  The rows it keeps
   are independent mod p, so independent over Q, and span the rest mod p.
2. Run each later prime on the kept rows only.  A prime whose free set
   differs from the first one's is unlucky: `nullspace` falls back to
   `Echelon`.
3. Combine the residues of successive primes by CRT and rationally
   reconstruct each entry (Wang 1981).  A vector is accepted once it
   satisfies every input row exactly (A v = 0), dependent rows included; the
   others wait for the next prime.
4. The rank of all rows mod p is the number of kept rows, which is at most
   the rank over Q.  So ncols - rank_p accepted vectors, independent because
   they are the identity on the free set, leave no room for more: they are a
   rational kernel basis.  Each is zero off its free column and the columns
   after it, so every free column lies in the span of the columns after it
   over Q, and the free set and the basis are the canonical ones.

So the result equals `Echelon(rows, ncols).nullspace()` by construction.  A
row subset is all the certificate needs, because acceptance is checked
against all rows.  If the first prime drops the rank, the kept rows' kernel
is larger than A's, its vectors never verify, and the fixed primes run out:
`nullspace` falls back to `Echelon` then too.

`Echelon` is the same loop with p = 0, fraction-free: v <- pv v - w pvec,
followed by a gcd strip, so every vector stays the primitive integer vector
on its ray and no rounding can ever occur.  It serves the fallback, and
`rank` counts the rows it keeps on the system or its transpose.
"""

from __future__ import annotations

import random
from fractions import Fraction
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


def _kernel(rows: Sequence[SparseRow], ncols: int, p: int = 0) -> tuple[list[int], dict[int, SparseRow]]:
    """The rows kept, as positions in `rows`, and the canonical kernel basis of
    `rows` over Z (p = 0) or mod the prime p, by ascending free column.

    The basis starts as the identity and takes the rows sparsest first, ties
    to the lower index.  A row's products with the kernel vectors are summed
    through the column -> vectors index; when all vanish the row is skipped,
    else the vector of the highest free column it hits becomes a pivot and is
    eliminated from the others it hits: mod p v <- v - (w / pv) pvec, over Z
    v <- pv v - w pvec with a gcd strip.  Every vector stays the identity on
    the free columns (over Z up to its own scale, v[f]), so the basis is read
    off with no back-substitution.
    """
    # cols[c] holds column c of the basis by free column; supp[f] the columns of v_f
    cols: list[dict[int, int]] = [{c: 1} for c in range(ncols)]
    supp: dict[int, set[int]] = {c: {c} for c in range(ncols)}
    kept: list[int] = []
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        prods: dict[int, int] = {}
        for c, a in rows[i].items():
            for f, x in cols[c].items():
                prods[f] = prods.get(f, 0) + a * x
        prods = {f: w for f, v in prods.items() if (w := v % p if p else v)}
        if not prods:
            continue
        kept.append(i)
        piv = max(prods)
        pv = prods.pop(piv)
        pivot = [(c, cols[c].pop(piv)) for c in supp.pop(piv)]
        if p:
            inv = pow(pv, -1, p)
            facs = [(f, w * inv % p) for f, w in prods.items()]
        else:
            facs = list(prods.items())
            for f, _w in facs:
                for c in supp[f]:
                    cols[c][f] *= pv
        for c, x in pivot:
            col = cols[c]
            for f, w in facs:
                old = col.get(f)
                if old is None:
                    col[f] = -w * x % p if p else -w * x
                    supp[f].add(c)
                elif new := (old - w * x) % p if p else old - w * x:
                    col[f] = new
                else:
                    del col[f]
                    supp[f].discard(c)
        if not p:
            for f, _w in facs:
                g = gcd(*(cols[c][f] for c in supp[f]))
                if g > 1:
                    for c in supp[f]:
                        cols[c][f] //= g
    return kept, {f: {c: cols[c][f] for c in supp[f]} for f in sorted(supp)}


class Echelon:
    """The exact kernel of a row system over Z, with its rank."""

    def __init__(self, rows: Iterable[SparseRow], ncols: int):
        self.ncols = ncols
        self.basis = _kernel(list(rows), ncols)[1]

    @property
    def rank(self) -> int:
        return self.ncols - len(self.basis)

    def nullspace(self) -> list[list[Fraction]]:
        """One exact basis vector per free column, in ascending column order."""
        return [
            [Fraction(vec[c], vec[f]) if c in vec else _ZERO for c in range(self.ncols)]
            for f, vec in self.basis.items()
        ]


def rank(rows: Iterable[SparseRow], ncols: int) -> int:
    """The rank over Q: the number of rows `_kernel` keeps, run on the
    transpose when that has fewer columns, since the basis starts as wide as
    the system."""
    rows = list(rows)
    if len(rows) < ncols:
        cols: list[SparseRow] = [{} for _ in range(ncols)]
        for i, r in enumerate(rows):
            for c, v in r.items():
                cols[c][i] = v
        rows, ncols = cols, len(rows)
    return len(_kernel(rows, ncols)[0])


# ---------------------------------------------------------------------------
# Certified modular nullspace
# ---------------------------------------------------------------------------

def _rational(u: int, m: int, bound: int) -> Optional[tuple[int, int]]:
    """The n/d with |n|, d <= bound and n = u d (mod m), as (n, d > 0), or
    None (Wang 1981)."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstruct(residues: list[int], m: int) -> Optional[tuple[list[int], int]]:
    """A rational candidate for one vector, as integers over one common
    denominator.  The entries share denominators, so each residue is first
    tried against the lcm of those found so far."""
    half = m >> 1
    bound = isqrt(half)
    den = 1
    out: list[int] = []
    for u in residues:
        if not u:
            out.append(0)
            continue
        t = u * den % m
        if t > half:
            t -= m
        if -bound <= t <= bound:
            out.append(t)
            continue
        q = _rational(u, m, bound)
        if q is None:
            return None
        n, d = q
        grown = lcm(den, d)
        if grown != den:
            out = [x * (grown // den) for x in out]
            den = grown
        out.append(n * (den // d))
    return out, den


def _annihilates(cols: list[list[tuple[int, int]]], vec: list[int]) -> bool:
    """A v = 0 exactly, with A given by columns as (row, value) pairs; only
    the columns in the support of v are read."""
    acc: dict[int, int] = {}
    for c, x in enumerate(vec):
        if x:
            for i, v in cols[c]:
                acc[i] = acc.get(i, 0) + v * x
    return not any(acc.values())


def modular_nullspace(rows: Iterable[SparseRow], ncols: int) -> Optional[list[list[Fraction]]]:
    """The certified modular kernel basis, one vector per free column in
    ascending column order, or None when `PRIMES` cannot certify it (an
    unlucky prime, or entries too large for the fixed primes)."""
    rows = list(rows)
    system = rows
    cols: Optional[list[list[tuple[int, int]]]] = None
    free: Optional[list[int]] = None
    residues: dict[int, list[int]] = {}
    done: dict[int, list[Fraction]] = {}
    m = 1
    for p in PRIMES:
        kept, basis = _kernel(system, ncols, p)
        if free is None:
            free = list(basis)
            system = [system[i] for i in kept]
        elif list(basis) != free:
            return None
        inv = pow(m, -1, p)
        for f in free:
            if f in done:
                continue
            vec = [0] * ncols
            for c, v in basis[f].items():
                vec[c] = v
            acc = residues.setdefault(f, vec)
            if acc is not vec:
                for c, (a, b) in enumerate(zip(acc, vec)):
                    if a != b:
                        acc[c] = a + m * ((b - a) * inv % p)
        m *= p
        if cols is None:
            cols = [[] for _ in range(ncols)]
            for i, r in enumerate(rows):
                for c, v in r.items():
                    cols[c].append((i, v))
        for f in list(residues):
            cand = _reconstruct(residues[f], m)
            if cand is not None and _annihilates(cols, cand[0]):
                ints, den = cand
                done[f] = [Fraction(x, den) if x else _ZERO for x in ints]
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
