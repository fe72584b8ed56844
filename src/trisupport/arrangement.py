"""Plane line arrangements induced by tight weightings, and their joints.

A weighting triple defines three families of parallel lines in the plane
x + y + z = 0: verticals x = tau_a(i), horizontals y = tau_b(j), and slope -1
lines x + y = -tau_c(k).  Joints (points on three lines) are computed from
integer offset sums, never from floating-point intersections, and the SVG
renderer emits byte-identical output for equal inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index
from pathlib import Path
from typing import Optional, Union

from .compress import find_zero_box
from .core import Shape, Support, Triple
from .deciders import TightWitness

X_COLOR = "#d62728"
Y_COLOR = "#1f77b4"
Z_COLOR = "#2ca02c"
SCALE = 40


def _strictly_increasing(vals: tuple[int, ...]) -> bool:
    return all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


@dataclass(frozen=True)
class Arrangement:
    """Sorted integer line offsets for the three directions."""

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    zs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", tuple(map(index, self.xs)))
        object.__setattr__(self, "ys", tuple(map(index, self.ys)))
        object.__setattr__(self, "zs", tuple(map(index, self.zs)))
        for name, vals in (("x", self.xs), ("y", self.ys), ("z", self.zs)):
            if not vals:
                raise ValueError(f"{name}-direction needs at least one line")
            if not _strictly_increasing(vals):
                raise ValueError(f"{name}-direction offsets must be strictly increasing")

    @cached_property
    def _joints(self) -> tuple[Joint, ...]:
        z_index = {z: k for k, z in enumerate(self.zs)}
        out = []
        for i, x in enumerate(self.xs):
            for j, y in enumerate(self.ys):
                k = z_index.get(-(x + y))
                if k is not None:
                    out.append(Joint(point=(x, y), triple=(i, j, k)))
        return tuple(out)


@dataclass(frozen=True)
class Joint:
    """A point on exactly three lines, tagged with the offset indices."""

    point: tuple[int, int]
    triple: Triple


def build_arrangement(w: TightWitness) -> Arrangement:
    if not w.is_injective():
        raise ValueError("weighting must be injective on every axis")
    return Arrangement(tuple(sorted(w.tau_a)), tuple(sorted(w.tau_b)), tuple(sorted(w.tau_c)))


def joints(arr: Arrangement) -> tuple[Joint, ...]:
    """All zero-sum offset triples; each corresponds to a triple intersection.
    Computed once per arrangement and cached on it."""
    return arr._joints


def joint_support(arr: Arrangement) -> Support:
    """Joints as a support on the index grid of the three offset lists."""
    shape = Shape(len(arr.xs), len(arr.ys), len(arr.zs))
    return Support(shape, tuple(j.triple for j in joints(arr)))


def joint_free_subarrangement(
    arr: Arrangement, a1: int, b1: int, c1: int
) -> Optional[Arrangement]:
    """A sub-arrangement with a1/b1/c1 lines per direction and no joints, or
    None (exactly) if every such choice contains a joint.

    A choice of lines is joint-free iff the corresponding index box misses the
    joint support, so the search delegates to the zero-box decision.
    """
    for want, have in ((a1, len(arr.xs)), (b1, len(arr.ys)), (c1, len(arr.zs))):
        if not 1 <= want <= have:
            raise ValueError("a sub-arrangement needs at least one line per direction")
    box = find_zero_box(joint_support(arr), a1, b1, c1)
    if box is None:
        return None
    return Arrangement(
        tuple(arr.xs[i] for i in box.i_set),
        tuple(arr.ys[j] for j in box.j_set),
        tuple(arr.zs[k] for k in box.k_set),
    )


def render_svg(arr: Arrangement, out: Optional[Union[str, Path]] = None) -> str:
    """Deterministic SVG: one <line> per arrangement line in the three fixed
    direction colors and one black <circle> per joint.  All geometry is
    integer, so output is byte-identical across runs and platforms."""
    xlo, xhi = min(arr.xs) - 1, max(arr.xs) + 1
    ylo, yhi = min(arr.ys) - 1, max(arr.ys) + 1
    csums = [-z for z in arr.zs]
    # widen vertically until every slope -1 line crosses the box
    ylo = min(ylo, min(csums) - xhi)
    yhi = max(yhi, max(csums) - xlo)

    def sx(x: int) -> int:
        return (x - xlo) * SCALE

    def sy(y: int) -> int:
        return (yhi - y) * SCALE

    width = (xhi - xlo) * SCALE
    height = (yhi - ylo) * SCALE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for v in arr.xs:
        parts.append(
            f'<line x1="{sx(v)}" y1="{sy(ylo)}" x2="{sx(v)}" y2="{sy(yhi)}" '
            f'stroke="{X_COLOR}" stroke-width="3"/>'
        )
    for v in arr.ys:
        parts.append(
            f'<line x1="{sx(xlo)}" y1="{sy(v)}" x2="{sx(xhi)}" y2="{sy(v)}" '
            f'stroke="{Y_COLOR}" stroke-width="3"/>'
        )
    for c in csums:
        x1 = max(xlo, c - yhi)
        x2 = min(xhi, c - ylo)
        parts.append(
            f'<line x1="{sx(x1)}" y1="{sy(c - x1)}" x2="{sx(x2)}" y2="{sy(c - x2)}" '
            f'stroke="{Z_COLOR}" stroke-width="3"/>'
        )
    for j in joints(arr):
        parts.append(
            f'<circle cx="{sx(j.point[0])}" cy="{sy(j.point[1])}" r="8" fill="#000000"/>'
        )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if out is not None:
        Path(out).write_bytes(text.encode("ascii"))
    return text
