"""Symmetry Lie algebras of tensors, computed exactly.

The annihilator of T consists of matrix triples (X, Y, Z) whose Leibniz
action kills T.  The kernel of the action map always contains the
2-dimensional center {(l, m, n) identity triples : l+m+n = 0}, so the
reported annihilator dimension is kernel dimension minus 2; both numbers are
exposed to keep tests unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Literal, Optional

from . import linalg
from .core import Shape, Support, Tensor, Triple, direct_sum, kronecker
from .deciders import TightWitness

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class LieElement:
    """A triple of square rational matrices acting on the three factors."""

    x: Matrix
    y: Matrix
    z: Matrix

    def matrices(self) -> tuple[Matrix, Matrix, Matrix]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class LieSolveReport:
    kernel_dim: int
    annihilator_dim: int
    basis: tuple[LieElement, ...]


def lie_apply(elem: LieElement, t: Tensor) -> Tensor:
    """Leibniz action: sum of the three one-factor actions on every entry."""
    # integers throughout: the matrices are scaled by their common denominator
    # dm and the tensor by dt.  cx[u] lists the nonzero (v, dm * x[v][u]) of
    # column u of x, and likewise cy and cz, so zero entries cost nothing.
    mats = elem.matrices()
    dm = lcm(*(v.denominator for m in mats for row in m for v in row))
    dt = lcm(*(v.denominator for v in t.entries.values()))
    cx, cy, cz = (
        [
            [(v, m[v][u].numerator * (dm // m[v][u].denominator)) for v in range(len(m)) if m[v][u]]
            for u in range(len(m))
        ]
        for m in mats
    )
    out: dict[Triple, int] = {}
    get = out.get
    for (i, j, k), val in t.entries.items():
        n = val.numerator * (dt // val.denominator)
        for i2, w in cx[i]:
            key = (i2, j, k)
            out[key] = get(key, 0) + w * n
        for j2, w in cy[j]:
            key = (i, j2, k)
            out[key] = get(key, 0) + w * n
        for k2, w in cz[k]:
            key = (i, j, k2)
            out[key] = get(key, 0) + w * n
    scale = dm * dt
    return Tensor(t.shape, {key: Fraction(s, scale) for key, s in out.items() if s})


def _action_rows(t: Tensor) -> tuple[list[linalg.SparseRow], int]:
    """One equation per output triple that any single-factor move can reach."""
    a, b, c = t.shape
    na, nb = a * a, b * b
    ncols = na + nb + c * c
    coeffs: dict[Triple, dict[int, Fraction]] = {}

    def touch(key: Triple) -> dict[int, Fraction]:
        row = coeffs.get(key)
        if row is None:
            row = {}
            coeffs[key] = row
        return row

    for (i, j, k), v in t.entries.items():
        for i2 in range(a):
            touch((i2, j, k))[i2 * a + i] = v
        for j2 in range(b):
            touch((i, j2, k))[na + j2 * b + j] = v
        for k2 in range(c):
            touch((i, j, k2))[na + nb + k2 * c + k] = v
    rows = [linalg.row_from_fractions(coeffs[key]) for key in sorted(coeffs)]
    return rows, ncols


def _vec_to_element(vec: list[Fraction], shape: Shape) -> LieElement:
    a, b, c = shape
    na, nb = a * a, b * b
    x = tuple(tuple(vec[i * a + i2] for i2 in range(a)) for i in range(a))
    y = tuple(tuple(vec[na + j * b + j2] for j2 in range(b)) for j in range(b))
    z = tuple(tuple(vec[na + nb + k * c + k2] for k2 in range(c)) for k in range(c))
    return LieElement(x, y, z)


def annihilator(t: Tensor) -> LieSolveReport:
    """Exact kernel of the Leibniz action map, with every basis element
    re-verified against the tensor after solving."""
    rows, ncols = _action_rows(t)
    basis_vecs = linalg.nullspace(rows, ncols)
    basis = tuple(_vec_to_element(v, t.shape) for v in basis_vecs)
    for elem in basis:
        if lie_apply(elem, t).entries:
            raise AssertionError("internal: kernel element does not annihilate the tensor")
    kernel_dim = len(basis)
    ann = kernel_dim - 2
    if ann < 0:
        raise AssertionError("internal: kernel smaller than the center")
    return LieSolveReport(kernel_dim=kernel_dim, annihilator_dim=ann, basis=basis)


# ---------------------------------------------------------------------------
# Regular semisimple elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TightEvidence:
    status: Literal["not_tight", "tight", "inconclusive"]
    witness: Optional[TightWitness]


def _is_diagonal(m: Matrix) -> bool:
    return all(m[i][j] == 0 for i in range(len(m)) for j in range(len(m)) if i != j)


def _diag(m: Matrix) -> tuple[Fraction, ...]:
    return tuple(m[i][i] for i in range(len(m)))


def _distinct(vals: tuple[Fraction, ...]) -> bool:
    return len(set(vals)) == len(vals)


def _scale_to_integers(
    tau: tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]
) -> TightWitness:
    ints = linalg.integerize([v for axis in tau for v in axis])
    a, b = len(tau[0]), len(tau[0]) + len(tau[1])
    return TightWitness(tuple(ints[:a]), tuple(ints[a:b]), tuple(ints[b:]))


def has_regular_semisimple(report: LieSolveReport) -> TightEvidence:
    """Decide tightness of the underlying tensor from its annihilator.

    annihilator_dim == 0 certifies the tensor is not tight in any basis.  A
    kernel element whose three matrices are diagonal with pairwise-distinct
    entries certifies tightness; when the whole kernel is simultaneously
    diagonal, integer-power combinations of the basis are also tried, since
    distinctness is generic on the span.  Everything else is inconclusive.
    """
    if report.annihilator_dim == 0:
        return TightEvidence("not_tight", None)

    def qualify(elem: LieElement) -> Optional[TightWitness]:
        mats = elem.matrices()
        if not all(_is_diagonal(m) for m in mats):
            return None
        diags = tuple(_diag(m) for m in mats)
        if all(_distinct(d) for d in diags):
            return _scale_to_integers(diags)
        return None

    for elem in report.basis:
        w = qualify(elem)
        if w is not None:
            return TightEvidence("tight", w)

    if report.basis and all(
        all(_is_diagonal(m) for m in elem.matrices()) for elem in report.basis
    ):
        d = len(report.basis)
        sizes = [len(m) for m in report.basis[0].matrices()]
        pair_count = sum(n * (n - 1) // 2 for n in sizes)
        for w in range(1, pair_count * max(d - 1, 1) + 2):
            diags = []
            for axis in range(3):
                n = sizes[axis]
                combo = [Fraction(0)] * n
                for tpow, elem in enumerate(report.basis):
                    dg = _diag(elem.matrices()[axis])
                    for i in range(n):
                        combo[i] += (w**tpow) * dg[i]
                diags.append(tuple(combo))
            if all(_distinct(dg) for dg in diags):
                return TightEvidence("tight", _scale_to_integers(tuple(diags)))
    return TightEvidence("inconclusive", None)


# ---------------------------------------------------------------------------
# Support-span stabilizers and class dimensions
# ---------------------------------------------------------------------------

def span_stabilizer_dim(s: Support) -> int:
    """Dimension of {(X, Y, Z) : the coordinate span of S is mapped into itself}.

    The action moves one coordinate at a time, so the constraint system only
    ever kills single matrix entries: entry (v, u) of an axis matrix survives
    iff replacing u by v on that axis maps every support triple back into S.
    """
    members = s.as_set()
    dims = tuple(s.shape)
    total = 0
    for axis in range(3):
        n = dims[axis]
        by_val: dict[int, list[Triple]] = {u: [] for u in range(n)}
        for t in s.triples:
            by_val[t[axis]].append(t)
        for u in range(n):
            for v in range(n):
                ok = True
                for t in by_val[u]:
                    r = list(t)
                    r[axis] = v
                    if tuple(r) not in members:
                        ok = False
                        break
                if ok:
                    total += 1
    return total


def class_dimension(cls: str, m: int) -> int:
    """Closed-form dimensions of the tensor-class varieties in the m-cube.

    Tight, Oblique, Free and Ambient are affine dimensions, subvarieties of
    the m^3-dimensional tensor space: Ambient = m^3, Free = 4m^2 - 3m (so
    Free(3) = Ambient(3) = 27), and Tight = Oblique = 3m^2 - 3m plus the
    size (3m^2 + 3) // 4 of a maximal tight support.

    "MaMu" (m = n^2) returns 3m^2 - 3m, the dimension of the projective
    orbit of the matrix multiplication tensor M<n>.  Its affine orbit
    closure is a cone one dimension larger: (3m^2 - 2) - 3(n^2 - 1) =
    3m^2 - 3m + 1, the effective group dimension minus the annihilator
    dimension.  Neither the paper's abstract nor the README settles whether
    MaMu was meant to be affine like the other four, so the projective
    value is kept.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if cls == "MaMu":
        n = isqrt(m)
        if n * n != m:
            raise ValueError("MaMu requires m to be a perfect square")
        return 3 * m * m - 3 * m
    if cls in ("Tight", "Oblique"):
        return 3 * m * m + (3 * m * m + 3) // 4 - 3 * m
    if cls == "Free":
        return 4 * m * m - 3 * m
    if cls == "Ambient":
        return m**3
    raise ValueError(f"unknown class {cls!r}; expected MaMu, Tight, Oblique, Free or Ambient")


# ---------------------------------------------------------------------------
# Propagation under direct sum and Kronecker product
# ---------------------------------------------------------------------------

def tensor_flattening_rows(t: Tensor, axis: int) -> tuple[list[linalg.SparseRow], int]:
    """Rows of the axis flattening: one row per axis index, columns index the
    complementary pair of coordinates."""
    a, b, c = t.shape
    sizes = (a, b, c)
    others = [d for d in range(3) if d != axis]
    width = sizes[others[0]] * sizes[others[1]]
    rows: list[dict[int, Fraction]] = [dict() for _ in range(sizes[axis])]
    for tr, v in t.entries.items():
        col = tr[others[0]] * sizes[others[1]] + tr[others[1]]
        rows[tr[axis]][col] = v
    return [linalg.row_from_fractions(r) for r in rows], width


def flattening_rank(t: Tensor, axis: int) -> int:
    rows, width = tensor_flattening_rows(t, axis)
    return linalg.rank(rows, width)


def is_concise_tensor(t: Tensor) -> bool:
    return all(flattening_rank(t, axis) == tuple(t.shape)[axis] for axis in range(3))


@dataclass(frozen=True)
class PropagationReport:
    """Annihilator dimensions of two tensors, their direct sum and their
    Kronecker product, with the three blockwise-splitting verdicts.

    A kernel element of the direct sum carries both summands' scalar centers,
    so dim_direct_sum subtracts 4 from the raw kernel (not 2); additivity of
    kernels then reads as dim_direct_sum == dim_first + dim_second.  The
    Kronecker product needs no adjustment: both factor centers collapse onto
    the product's single 2-dimensional center.
    """

    dim_first: int
    dim_second: int
    dim_direct_sum: int
    dim_kronecker: int
    sum_is_additive: bool
    product_contains_factors: bool
    zero_factors_give_zero_product: bool


def check_propagation(t: Tensor, s: Tensor) -> PropagationReport:
    """Compare the annihilator dimensions of two concise tensors with those of
    their direct sum and Kronecker product."""
    for name, tensor in (("first", t), ("second", s)):
        for axis, label in enumerate("ABC"):
            if flattening_rank(tensor, axis) != tuple(tensor.shape)[axis]:
                raise ValueError(
                    f"{name} tensor is not concise: flattening {label} is rank-deficient"
                )
    dim_t = annihilator(t).annihilator_dim
    dim_s = annihilator(s).annihilator_dim
    dim_sum = annihilator(direct_sum(t, s)).kernel_dim - 4
    dim_prod = annihilator(kronecker(t, s)).annihilator_dim
    return PropagationReport(
        dim_first=dim_t,
        dim_second=dim_s,
        dim_direct_sum=dim_sum,
        dim_kronecker=dim_prod,
        sum_is_additive=(dim_sum == dim_t + dim_s),
        product_contains_factors=(dim_prod >= dim_t + dim_s),
        zero_factors_give_zero_product=(dim_prod == 0 if dim_t == 0 and dim_s == 0 else True),
    )
