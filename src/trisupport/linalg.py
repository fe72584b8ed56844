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

1. Run `_kernel` mod the prime `PRIME` = 2^127 - 1 on every row.  The rank
   mod p, the number of rows it keeps, is at most the rank over Q.
2. Each basis vector stays sparse, as its nonzero residues, and its entries
   are rationally reconstructed (Wang 1981) in ascending column order; one
   127-bit prime reconstructs entries whose numerator and denominator fit in
   63 bits.  A vector is accepted only if it satisfies every input row
   exactly (A v = 0), and only then becomes a dense Fraction list.
3. So ncols - rank_p accepted vectors, independent because they are the
   identity on the free set, leave no room for more: they are a rational
   kernel basis.  Each is zero off its free column and the columns after it,
   so every free column lies in the span of the columns after it over Q, and
   the free set and the basis are the canonical ones.

So the result equals `Echelon(rows, ncols).nullspace()` by construction.  If
any vector fails to reconstruct or to verify (the prime drops the rank or
moves a pivot, or an entry is too wide), `nullspace` falls back to `Echelon`.

Mod p, `_kernel` keeps a value as computed while it lies in (-p, p), reduces
it with % p only outside, and takes the pivot inverse in (-p/2, p/2]: on a 0/1
incidence system a -1 stays -1, not the 127-bit p - 1.  Its basis is returned
in [0, p), as the reconstruction reads it.  `Echelon` is the same loop with
p = 0, fraction-free: v <- pv v - w pvec, followed by a gcd strip, so every
vector stays the primitive integer vector on its ray and no rounding can ever
occur.  It serves the fallback, and `rank` counts the rows it keeps on the
system or its transpose.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

SparseRow = dict[int, int]

# a Mersenne prime; it reconstructs entries whose numerator and denominator
# have up to 63 bits
PRIME = 2**127 - 1
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
    v <- pv v - w pvec with a gcd strip, both as v + w' pvec with the factor
    w' negated once.  Every vector stays the identity on the free columns (over
    Z up to its own scale, v[f]), so the basis is read off with no
    back-substitution.  Mod p the values are signed (see above).
    """
    # cols[c] holds column c of the basis by free column; supp[f] the columns of v_f
    cols: list[dict[int, int]] = [{c: 1} for c in range(ncols)]
    supp: dict[int, set[int]] = {c: {c} for c in range(ncols)}
    kept: list[int] = []
    lo = -p  # mod p a value stays as computed while it lies in (lo, p)
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        prods: dict[int, int] = {}
        for c, a in rows[i].items():
            for f, x in cols[c].items():
                prods[f] = prods.get(f, 0) + a * x
        prods = {f: w for f, v in prods.items() if (w := (v if p > v > lo else v % p) if p else v)}
        if not prods:
            continue
        kept.append(i)
        piv = max(prods)
        pv = prods.pop(piv)
        pivot = [(c, cols[c].pop(piv)) for c in supp.pop(piv)]
        if p:
            inv = q - p if (q := pow(pv, -1, p)) > p >> 1 else q  # signed: 1 / -1 is -1
            facs = [(f, d if p > (d := -w * inv) > lo else d % p) for f, w in prods.items()]
        else:
            facs = [(f, -w) for f, w in prods.items()]
            for f, _w in facs:
                for c in supp[f]:
                    cols[c][f] *= pv
        for c, x in pivot:
            col = cols[c]
            for f, w in facs:
                old = col.get(f)
                if old is None:
                    col[f] = (d if p > (d := w * x) > lo else d % p) if p else w * x
                    supp[f].add(c)
                elif new := (d if p > (d := old + w * x) > lo else d % p) if p else old + w * x:
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
    return kept, {f: {c: x + p if (x := cols[c][f]) < 0 < p else x for c in supp[f]} for f in sorted(supp)}


class Echelon:
    """The exact kernel of a row system over Z."""

    def __init__(self, rows: Iterable[SparseRow], ncols: int):
        self.ncols = ncols
        self.basis = _kernel(list(rows), ncols)[1]

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


def _reconstruct(residues: SparseRow) -> Optional[tuple[SparseRow, int]]:
    """A rational candidate for one vector from its nonzero residues mod
    `PRIME`, as integers over one common denominator.  The entries share
    denominators, so each residue, in ascending column order, is first tried
    against the lcm of those found so far."""
    half = PRIME >> 1
    bound = isqrt(half)
    den = 1
    out: SparseRow = {}
    for c in sorted(residues):
        u = residues[c]
        t = u * den % PRIME
        if t > half:
            t -= PRIME
        if -bound <= t <= bound:
            out[c] = t
            continue
        q = _rational(u, PRIME, bound)
        if q is None:
            return None
        n, d = q
        grown = lcm(den, d)
        if grown != den:
            out = {c2: x * (grown // den) for c2, x in out.items()}
            den = grown
        out[c] = n * (den // d)
    return out, den


def _annihilates(cols: list[list[tuple[int, int]]], nrows: int, vec: SparseRow) -> bool:
    """A v = 0 exactly, with A given by columns as (row, value) pairs; only
    the columns in the support of v are read."""
    acc = [0] * nrows
    for c, x in vec.items():
        for i, v in cols[c]:
            acc[i] += v * x
    return not any(acc)


def modular_nullspace(rows: Iterable[SparseRow], ncols: int) -> Optional[list[list[Fraction]]]:
    """The certified modular kernel basis, one vector per free column in
    ascending column order, or None when one pass mod `PRIME` cannot certify
    it (a prime that drops the rank or moves a pivot, or entries too wide)."""
    rows = list(rows)
    basis = _kernel(rows, ncols, PRIME)[1]
    cols: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for i, r in enumerate(rows):
        for c, v in r.items():
            cols[c].append((i, v))
    out = []
    for residues in basis.values():
        cand = _reconstruct(residues)
        if cand is None or not _annihilates(cols, len(rows), cand[0]):
            return None
        ints, den = cand
        vec = [_ZERO] * ncols
        for c, x in ints.items():
            vec[c] = Fraction(x, den) if den > 1 else Fraction(x)  # Fraction(x) skips the gcd
        out.append(vec)
    return out


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
    their denominators, which moves no combination off its ray (each entry's
    numerator and denominator are read once, and when D = 1 the numerators
    are the scaled vectors), and a block has an agreeing pair exactly when
    two of its columns (the tuples of one entry over all vectors) hash
    alike.  Otherwise injectivity is generic on the span, so 64 seeded
    random combinations are tried first.  The fallback (1, n, n^2, ...)
    sweep ends: each entry difference is a nonzero polynomial in n of degree
    below len(vectors), so some n below pairs * (len(vectors) - 1) + 2 works.
    """
    ratios = [[v.as_integer_ratio() for v in vec] for vec in vectors]
    den = lcm(*(d for ratio in ratios for _n, d in ratio))
    scaled = [[n for n, _d in ratio] if den == 1 else [n * (den // d) for n, d in ratio] for ratio in ratios]
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
