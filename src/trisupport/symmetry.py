"""Symmetry Lie algebras of tensors, computed exactly.

The annihilator of T consists of matrix triples (X, Y, Z) whose Leibniz
action kills T.  The kernel of the action map always contains the
2-dimensional center {(l, m, n) identity triples : l+m+n = 0}, so the
reported annihilator dimension is kernel dimension minus 2; both numbers are
exposed to keep tests unambiguous.

`annihilator` trusts the solver's exact check of each kernel vector;
`trisupport.certify` checks its reports with code of its own.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Literal, Optional

from . import linalg
from .core import Shape, Support, Tensor, Triple, direct_sum, kronecker
from .deciders import TightWitness, _injective_witness

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


def _integer_entries(t: Tensor) -> tuple[dict[Triple, int], int]:
    """The entries of t times the lcm of their denominators, and that lcm: the
    integer tensor that the action and flattening rows are built from."""
    den = lcm(*(v.denominator for v in t.entries.values()))
    return {key: v.numerator * (den // v.denominator) for key, v in t.entries.items()}, den


def lie_apply(elem: LieElement, t: Tensor) -> Tensor:
    """Leibniz action: sum of the three one-factor actions on every entry.
    Row u of an axis matrix moves an entry's index on that axis to u, by the
    matrix entry in the index's column."""
    out: defaultdict[Triple, Fraction] = defaultdict(Fraction)
    for idx, v in t.entries.items():
        for axis, m in enumerate(elem.matrices()):
            for u, row in enumerate(m):
                if w := row[idx[axis]]:
                    out[idx[:axis] + (u,) + idx[axis + 1 :]] += w * v
    return Tensor(t.shape, out)


def _action_rows(t: Tensor) -> tuple[list[linalg.SparseRow], int]:
    """One equation per output triple that any single-factor move can reach,
    in row-major order of the triples: the row of (i, j, k) is keyed by
    (i*b + j)*c + k while the rows are built."""
    a, b, c = t.shape
    na, nb, bc = a * a, b * b, b * c
    coeffs: defaultdict[int, linalg.SparseRow] = defaultdict(dict)
    for (i, j, k), v in _integer_entries(t)[0].items():
        key = (i * b + j) * c + k
        for i2 in range(a):
            coeffs[key + (i2 - i) * bc][i2 * a + i] = v
        for j2 in range(b):
            coeffs[key + (j2 - j) * c][na + j2 * b + j] = v
        for k2 in range(c):
            coeffs[key + k2 - k][na + nb + k2 * c + k] = v
    return [coeffs[key] for key in sorted(coeffs)], na + nb + c * c


def _vec_to_element(vec: list[Fraction], shape: Shape) -> LieElement:
    a, b, c = shape
    na, nb = a * a, b * b
    x = tuple(tuple(vec[i : i + a]) for i in range(0, na, a))
    y = tuple(tuple(vec[j : j + b]) for j in range(na, na + nb, b))
    z = tuple(tuple(vec[k : k + c]) for k in range(na + nb, na + nb + c * c, c))
    return LieElement(x, y, z)


def annihilator(t: Tensor) -> LieSolveReport:
    """Exact kernel of the Leibniz action map.

    Each basis element is checked once, where it is made: `linalg.nullspace`
    accepts a vector only after an exact A v = 0 on every action row, and its
    `Echelon` fallback is exact by construction.  The basis is the canonical
    one, in reduced echelon form in the row-major (X, Y, Z) flattening;
    `certify.check_annihilator` checks a report against the tensor with code
    of its own.
    """
    rows, ncols = _action_rows(t)
    basis = tuple(_vec_to_element(v, t.shape) for v in linalg.nullspace(rows, ncols))
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


def has_regular_semisimple(report: LieSolveReport) -> TightEvidence:
    """Decide tightness of the underlying tensor from its annihilator.

    annihilator_dim == 0 certifies the tensor is not tight in any basis.  A
    diagonal kernel element (X, Y, Z) puts x_i + y_j + z_k = 0 on every support
    triple, so an integer combination of the diagonal basis elements whose
    three diagonals each have distinct entries certifies tightness
    (`linalg.injective_combination`).  Everything else is inconclusive.
    """
    if report.annihilator_dim == 0:
        return TightEvidence("not_tight", None)
    diagonals = [
        [m[i][i] for m in elem.matrices() for i in range(len(m))]
        for elem in report.basis
        if all(_is_diagonal(m) for m in elem.matrices())
    ]
    witness = _injective_witness(diagonals, [len(m) for m in report.basis[0].matrices()])
    return TightEvidence("inconclusive" if witness is None else "tight", witness)


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
    size (3m^2 + 3) // 4 of a maximal tight support.  At m = 2 those forms
    give 9 and 10, above the ambient 8; there all three classes fill the
    space, since the generic 2x2x2 tensor is equivalent to the unit tensor,
    which is tight, oblique and free, so all three are 8.

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
    if cls in ("Tight", "Oblique", "Free") and m == 2:
        return 8
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
    rows: list[linalg.SparseRow] = [dict() for _ in range(sizes[axis])]
    for tr, v in _integer_entries(t)[0].items():
        col = tr[others[0]] * sizes[others[1]] + tr[others[1]]
        rows[tr[axis]][col] = v
    return rows, width


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
