"""Exact foundational types for 3-tensors: shapes, supports, sparse rational tensors.

All values are immutable after construction and all operations are pure, so
everything here is safe to share across threads.  No floating point is used:
coefficients are `fractions.Fraction` with arbitrary-precision integers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import index
from typing import Mapping, Optional

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
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
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
        canon = tuple(sorted({(index(i), index(j), index(k)) for (i, j, k) in self.triples}))
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
            t = (index(t[0]), index(t[1]), index(t[2]))
            if not self.shape.contains(t):
                raise ShapeError(f"entry {t} out of range for shape {tuple(self.shape)}")
            if not isinstance(v, Fraction):
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
        object.__setattr__(self, "on_a", tuple(map(index, self.on_a)))
        object.__setattr__(self, "on_b", tuple(map(index, self.on_b)))
        object.__setattr__(self, "on_c", tuple(map(index, self.on_c)))
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


_COEF = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_fraction(text: object) -> Fraction:
    if not isinstance(text, str) or not _COEF.fullmatch(text):
        raise ValueError(f"coefficient must be a string p or p/q, got {text!r}")
    num, _, den = text.partition("/")
    if den and int(den) == 0:
        raise ValueError(f"coefficient {text!r} has a zero denominator")
    return Fraction(int(num), int(den or 1))


def _parse_ints(value: object, what: str, length: Optional[int] = None) -> tuple[int, ...]:
    """A JSON list of plain integers, of the given length if one is given."""
    # bool is an int subclass and float would truncate, so both are refused
    if not (
        isinstance(value, list)
        and (length is None or len(value) == length)
        and all(type(v) is int for v in value)
    ):
        size = "" if length is None else f"{length} "
        raise ValueError(f"{what} must be a list of {size}integers, got {value!r}")
    return tuple(value)


def tensor_to_obj(t: Tensor) -> dict:
    return {
        "shape": list(t.shape),
        "entries": [
            {"idx": list(idx), "coef": _format_fraction(v)} for idx, v in t.entries.items()
        ],
    }


def support_to_obj(s: Support) -> dict:
    return {"shape": list(s.shape), "entries": [{"idx": list(t)} for t in s.triples]}


def _parse_document(obj: object) -> tuple[Shape, dict[Triple, Fraction]]:
    """The shape and the entries of a document, refusing anything outside the
    schema with ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"document must be a JSON object, got {type(obj).__name__}")
    items = obj.get("entries")
    if not isinstance(items, list) or not all(isinstance(e, dict) for e in items):
        raise ValueError("entries must be a list of objects")
    shape = Shape(*_parse_ints(obj.get("shape"), "shape", 3))
    entries: dict[Triple, Fraction] = {}
    one = Fraction(1)  # shared by the entries of a pure support
    for e in items:
        idx = _parse_ints(e.get("idx"), "idx", 3)
        if idx in entries:
            raise ValueError(f"duplicate idx {list(idx)}")
        entries[idx] = _parse_fraction(e["coef"]) if "coef" in e else one
    for idx in entries:
        if not shape.contains(idx):
            raise ShapeError(f"entry {idx} out of range for shape {tuple(shape)}")
    return shape, entries


def obj_to_tensor(obj: object) -> Tensor:
    """Parse a document, refusing anything outside the schema with ValueError."""
    return Tensor(*_parse_document(obj))


def obj_to_support(obj: object) -> Support:
    """The support of the parsed document: entries with coefficient 0 drop out."""
    shape, entries = _parse_document(obj)
    return Support(shape, tuple(idx for idx, v in entries.items() if v))


def tensor_to_json(t: Tensor) -> str:
    return json.dumps(tensor_to_obj(t), indent=2, sort_keys=False)


def support_to_json(s: Support) -> str:
    return json.dumps(support_to_obj(s), indent=2, sort_keys=False)


def tensor_from_json(text: str) -> Tensor:
    return obj_to_tensor(json.loads(text))


def support_from_json(text: str) -> Support:
    """Parse either a tensor or a pure support document as a Support."""
    return obj_to_support(json.loads(text))
