"""Exact foundational types for 3-tensors: shapes, supports, sparse rational tensors.

All values are immutable after construction and all operations are pure, so
everything here is safe to share across threads.  No floating point is used:
coefficients are `fractions.Fraction` with arbitrary-precision integers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

Triple = tuple[int, int, int]


class ShapeError(ValueError):
    """A shape/domain mismatch between values that are combined."""


@dataclass(frozen=True)
class Shape:
    """Dimensions of the three factors. All must be >= 1."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for n in (self.a, self.b, self.c):
            if not isinstance(n, int) or n < 1:
                raise ShapeError(f"shape entries must be positive integers, got {self}")

    def __iter__(self):
        return iter((self.a, self.b, self.c))

    def contains(self, t: Triple) -> bool:
        return 0 <= t[0] < self.a and 0 <= t[1] < self.b and 0 <= t[2] < self.c


@dataclass(frozen=True)
class Support:
    """A duplicate-free, lexicographically sorted set of index triples in a shape.

    Triples are 0-based.  The canonical sort order makes every derived output
    reproducible byte-for-byte.
    """

    shape: Shape
    triples: tuple[Triple, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted({(int(i), int(j), int(k)) for (i, j, k) in self.triples}))
        for t in canon:
            if not self.shape.contains(t):
                raise ShapeError(f"triple {t} out of range for shape {tuple(self.shape)}")
        object.__setattr__(self, "triples", canon)

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self.as_set()

    def as_set(self) -> frozenset[Triple]:
        return self._members

    @cached_property
    def _members(self) -> frozenset[Triple]:
        return frozenset(self.triples)


@dataclass(frozen=True)
class Tensor:
    """Shape plus a sparse map from triples to nonzero exact rational coefficients."""

    shape: Shape
    entries: Mapping[Triple, Fraction]

    def __post_init__(self) -> None:
        clean: dict[Triple, Fraction] = {}
        for t, v in self.entries.items():
            t = (int(t[0]), int(t[1]), int(t[2]))
            if not self.shape.contains(t):
                raise ShapeError(f"entry {t} out of range for shape {tuple(self.shape)}")
            v = Fraction(v)
            if v != 0:
                clean[t] = v
        object.__setattr__(self, "entries", dict(sorted(clean.items())))

    def support(self) -> Support:
        return Support(self.shape, tuple(self.entries))

    def coefficient(self, t: Triple) -> Fraction:
        return self.entries.get(t, Fraction(0))

    def scaled(self, factor: Fraction) -> "Tensor":
        factor = Fraction(factor)
        if factor == 0:
            return Tensor(self.shape, {})
        return Tensor(self.shape, {t: v * factor for t, v in self.entries.items()})

    def permuted(self, perms: "AxisPermutations") -> "Tensor":
        perms.check_shape(self.shape)
        pa, pb, pc = perms.on_a, perms.on_b, perms.on_c
        return Tensor(
            self.shape,
            {(pa[i], pb[j], pc[k]): v for (i, j, k), v in self.entries.items()},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries


def _check_permutation(p: tuple[int, ...]) -> None:
    if sorted(p) != list(range(len(p))):
        raise ShapeError(f"{p} is not a permutation of 0..{len(p) - 1}")


@dataclass(frozen=True)
class AxisPermutations:
    """Three bijections, one per index range.  on_a[i] is the image of index i."""

    on_a: tuple[int, ...]
    on_b: tuple[int, ...]
    on_c: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "on_a", tuple(int(x) for x in self.on_a))
        object.__setattr__(self, "on_b", tuple(int(x) for x in self.on_b))
        object.__setattr__(self, "on_c", tuple(int(x) for x in self.on_c))
        for p in (self.on_a, self.on_b, self.on_c):
            _check_permutation(p)

    @staticmethod
    def identity(shape: Shape) -> "AxisPermutations":
        return AxisPermutations(
            tuple(range(shape.a)), tuple(range(shape.b)), tuple(range(shape.c))
        )

    def check_shape(self, shape: Shape) -> None:
        if (len(self.on_a), len(self.on_b), len(self.on_c)) != tuple(shape):
            raise ShapeError(
                f"permutation domains {(len(self.on_a), len(self.on_b), len(self.on_c))} "
                f"do not match shape {tuple(shape)}"
            )

    def compose(self, other: "AxisPermutations") -> "AxisPermutations":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        return AxisPermutations(
            tuple(self.on_a[x] for x in other.on_a),
            tuple(self.on_b[x] for x in other.on_b),
            tuple(self.on_c[x] for x in other.on_c),
        )

    def inverse(self) -> "AxisPermutations":
        def inv(p: tuple[int, ...]) -> tuple[int, ...]:
            out = [0] * len(p)
            for x, y in enumerate(p):
                out[y] = x
            return tuple(out)

        return AxisPermutations(inv(self.on_a), inv(self.on_b), inv(self.on_c))


def is_concise_support(s: Support) -> bool:
    """True iff the three coordinate projections of the support are surjective."""
    seen_a = {t[0] for t in s.triples}
    seen_b = {t[1] for t in s.triples}
    seen_c = {t[2] for t in s.triples}
    return (
        len(seen_a) == s.shape.a
        and len(seen_b) == s.shape.b
        and len(seen_c) == s.shape.c
    )


def direct_sum(t1: Tensor, t2: Tensor) -> Tensor:
    """Block-diagonal sum: the second tensor's indices are shifted by the first shape."""
    a1, b1, c1 = t1.shape
    shape = Shape(a1 + t2.shape.a, b1 + t2.shape.b, c1 + t2.shape.c)
    entries: dict[Triple, Fraction] = dict(t1.entries)
    for (i, j, k), v in t2.entries.items():
        entries[(i + a1, j + b1, k + c1)] = v
    return Tensor(shape, entries)


def kronecker(t1: Tensor, t2: Tensor) -> Tensor:
    """Kronecker product as a 3-tensor on the product index ranges.

    Index pairs are flattened row-major: (i1, i2) -> i1 * a2 + i2 on each axis.
    """
    a2, b2, c2 = t2.shape
    shape = Shape(t1.shape.a * a2, t1.shape.b * b2, t1.shape.c * c2)
    entries: dict[Triple, Fraction] = {}
    for (i1, j1, k1), v1 in t1.entries.items():
        for (i2, j2, k2), v2 in t2.entries.items():
            entries[(i1 * a2 + i2, j1 * b2 + j2, k1 * c2 + k2)] = v1 * v2
    return Tensor(shape, entries)


def apply_permutations(s: Support, perms: AxisPermutations) -> Support:
    """Map every triple componentwise through the three bijections."""
    perms.check_shape(s.shape)
    pa, pb, pc = perms.on_a, perms.on_b, perms.on_c
    return Support(s.shape, tuple((pa[i], pb[j], pc[k]) for (i, j, k) in s.triples))


# ---------------------------------------------------------------------------
# JSON interchange.  Schema shared with the CLI:
#   {"shape": [a, b, c], "entries": [{"idx": [i, j, k], "coef": "p/q"}, ...]}
# "coef" is omitted for pure supports; p/q is fully reduced with q > 0.
# ---------------------------------------------------------------------------

def _format_fraction(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def tensor_to_obj(t: Tensor) -> dict:
    return {
        "shape": list(t.shape),
        "entries": [
            {"idx": list(idx), "coef": _format_fraction(v)} for idx, v in t.entries.items()
        ],
    }


def support_to_obj(s: Support) -> dict:
    return {"shape": list(s.shape), "entries": [{"idx": list(t)} for t in s.triples]}


def obj_to_tensor(obj: dict) -> Tensor:
    shape = Shape(*obj["shape"])
    entries = {}
    for e in obj["entries"]:
        i, j, k = e["idx"]
        entries[(i, j, k)] = _parse_fraction(e.get("coef", "1/1"))
    return Tensor(shape, entries)


def obj_to_support(obj: dict) -> Support:
    shape = Shape(*obj["shape"])
    return Support(shape, tuple(tuple(e["idx"]) for e in obj["entries"]))


def tensor_to_json(t: Tensor) -> str:
    return json.dumps(tensor_to_obj(t), indent=2, sort_keys=False)


def support_to_json(s: Support) -> str:
    return json.dumps(support_to_obj(s), indent=2, sort_keys=False)


def tensor_from_json(text: str) -> Tensor:
    return obj_to_tensor(json.loads(text))


def support_from_json(text: str) -> Support:
    """Parse either a tensor or a pure support document as a Support."""
    obj = json.loads(text)
    return obj_to_support(obj)
