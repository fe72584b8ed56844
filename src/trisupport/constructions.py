"""Catalog of the explicit tensors and supports the toolkit is tested against.

Every constructor is pure and exact.  Index conventions: everything is
0-based; matrix-pair indices (i, j) flatten row-major as i * n + j.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .core import Shape, Support, Tensor, Triple
from .deciders import TightWitness

ONE = Fraction(1)


def tight_max_support(m: int) -> tuple[Support, TightWitness]:
    """Largest tight support in the m-cube, with its certifying weights.

    For odd m = 2l+1 the support is the central slice {i+j+k = 3l} and the
    weights are i - l on every axis.  For even m = 2l the weights are
    i - l + 1 on the first axis and j - l on the other two, which selects
    {i+j+k = 3l-1}.  The size is ceil(3 m^2 / 4) in both cases.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    half = m // 2
    if m % 2 == 1:
        tau_a = tuple(i - half for i in range(m))
        tau_b = tau_c = tau_a
    else:
        tau_a = tuple(i - half + 1 for i in range(m))
        tau_b = tau_c = tuple(j - half for j in range(m))
    witness = TightWitness(tau_a, tau_b, tau_c)
    triples = tuple(
        (i, j, k)
        for i in range(m)
        for j in range(m)
        for k in range(m)
        if tau_a[i] + tau_b[j] + tau_c[k] == 0
    )
    return Support(Shape(m, m, m), triples), witness


def free_max_support(m: int) -> Support:
    """Free support of the maximal size m^2: a circulant completion of the
    maximal tight support.

    The set is {(i,j,k) : i+j+k == r (mod m)} where the residue r is the
    coordinate sum of the maximal tight support, so the tight slice sits
    inside it.  Two distinct triples in a fixed residue class mod m can never
    differ in exactly one coordinate, so the set is free for every m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    r = (3 * (m // 2) - (1 if m % 2 == 0 else 0)) % m
    triples = tuple(
        (i, j, (r - i - j) % m) for i in range(m) for j in range(m)
    )
    return Support(Shape(m, m, m), triples)


def m_one_sum(r: int) -> Tensor:
    """Diagonal sum of r rank-one tensors (unit coefficients)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return Tensor(Shape(r, r, r), {(i, i, i): ONE for i in range(r)})


def matmul(n: int) -> Tensor:
    """Matrix multiplication tensor for n x n matrices, standard presentation.

    Support is {((i,j), (j,k), (k,i))} with all coefficients 1, hence n^3
    triples on shape (n^2, n^2, n^2); in terms of the cube size m = n^2 that
    is m^(3/2).  Quoted support counts for this tensor vary with the chosen
    presentation; this constructor pins the one above and no other
    presentation is attempted.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    entries: dict[Triple, Fraction] = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                entries[(i * n + j, j * n + k, k * n + i)] = ONE
    return Tensor(Shape(n * n, n * n, n * n), entries)


def t_std(m: int) -> Tensor:
    """Unit diagonal plus the all-ones rank-one tensor on the m-cube.

    Coefficients: 2 on the diagonal, 1 elsewhere; the support is dense.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    entries: dict[Triple, Fraction] = {}
    for i in range(m):
        for j in range(m):
            for k in range(m):
                entries[(i, j, k)] = Fraction(2) if i == j == k else ONE
    return Tensor(Shape(m, m, m), entries)


def coppersmith_winograd(q: int, big: bool = False) -> Tensor:
    """Coppersmith-Winograd tensors.

    small (big=False): sum over i = 1..q of
        a0 (x) bi (x) ci + ai (x) b0 (x) ci + ai (x) bi (x) c0
    on shape (q+1)^3, support size 3q.
    big (big=True): small plus the three corner terms with index q+1,
    on shape (q+2)^3, support size 3q+3.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    entries: dict[Triple, Fraction] = {}
    for i in range(1, q + 1):
        entries[(0, i, i)] = ONE
        entries[(i, 0, i)] = ONE
        entries[(i, i, 0)] = ONE
    if not big:
        return Tensor(Shape(q + 1, q + 1, q + 1), entries)
    last = q + 1
    entries[(0, 0, last)] = ONE
    entries[(0, last, 0)] = ONE
    entries[(last, 0, 0)] = ONE
    return Tensor(Shape(q + 2, q + 2, q + 2), entries)


OBLIQUE_NOT_TIGHT_4_SUPPORT: tuple[Triple, ...] = (
    (0, 2, 3),
    (0, 3, 2),
    (1, 0, 3),
    (1, 1, 2),
    (1, 2, 1),
    (1, 3, 0),
    (2, 1, 1),
    (2, 2, 0),
    (3, 0, 2),
    (3, 1, 0),
)


def oblique_not_tight_4() -> Tensor:
    """The 10-term 4x4x4 tensor whose support is an antichain but admits no
    injective zero-sum axis weighting."""
    return Tensor(Shape(4, 4, 4), {t: ONE for t in OBLIQUE_NOT_TIGHT_4_SUPPORT})


def not_tight_compressible_4() -> Tensor:
    """A 4x4x4 tensor with trivial symmetry algebra that is nevertheless
    6-multicompressible.  Obtained by exact expansion of a sum of products
    of sums of basis vectors."""
    entries: dict[Triple, Fraction] = {}

    def add(i: int, j: int, k: int) -> None:
        t = (i, j, k)
        entries[t] = entries.get(t, Fraction(0)) + ONE

    for i in range(4):
        add(i, i, i)
    for i in range(4):
        for j in (0, 1):
            for k in (2, 3):
                add(i, j, k)
    for i in (1, 2, 3):
        for k in (2, 3):
            add(i, 2, k)
    for i in (1, 2, 3):
        add(i, 3, 3)
    for i in (2, 3):
        add(i, 3, 2)
    return Tensor(Shape(4, 4, 4), entries)


# --- catalog dispatch used by the CLI -------------------------------------

# id -> (constructor, whether it takes the size parameter), in the order the CLI lists them
CATALOG: dict[str, tuple[Callable, bool]] = {
    "t-max": (tight_max_support, True),
    "f-max": (free_max_support, True),
    "matmul": (matmul, True),
    "m1-sum": (m_one_sum, True),
    "t-std": (t_std, True),
    "cw-small": (coppersmith_winograd, True),
    "cw-big": (lambda q: coppersmith_winograd(q, big=True), True),
    "oblique-not-tight-4": (oblique_not_tight_4, False),
    "not-tight-compressible-4": (not_tight_compressible_4, False),
}
CATALOG_IDS = tuple(CATALOG)


def construct(catalog_id: str, param: Optional[int] = None) -> Tensor | tuple[Support, TightWitness] | Support:
    """Build a catalog entry by name.  Parametrized ids require param >= 1;
    the others take none."""
    if catalog_id not in CATALOG:
        raise ValueError(f"unknown catalog id {catalog_id!r}; known: {', '.join(CATALOG_IDS)}")
    build, sized = CATALOG[catalog_id]
    if not sized:
        if param is not None:
            raise ValueError(f"catalog id {catalog_id!r} takes no parameter")
        return build()
    if param is None:
        raise ValueError(f"catalog id {catalog_id!r} requires a parameter")
    if param < 1:
        raise ValueError("parameter must be a positive integer")
    return build(param)
