"""Support-functional evaluation at coordinate flags.

The value is 2 to the maximum of a weighted sum of marginal Shannon entropies
over probability distributions on the incompressibility set of the support.
The maximization is a concave program over a simplex, solved by exponentiated
gradient ascent with a monotonicity safeguard; a linearization gap certifies
closeness to the optimum.  Everything combinatorial stays exact; floats enter
only here.

Values are coordinate-flag evaluations: the outer flag minimization is
restricted to coordinate flags induced by axis reorderings, so minimized
results are upper bounds for the full flag-variety minimum.  That minimum
takes each reordering's incompressibility set as a bitmask over the grid
cells and runs the ascent only on the inclusion-minimal ones (a larger set
never has the smaller maximum), once per class of them under the axis swaps
that keep the shape and the weights, on the class's first-enumerated member.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import AxisPermutations, Shape, Support, Triple, apply_permutations

LOG_FLOOR = 1e-300
# steps zeta_full takes before it gives up with ZetaUnconverged
MAX_ITERATIONS = 100_000
# zeta_full stops once a step improves the objective by less than this and the gap is below 1e-6
TOLERANCE = 1e-9
# largest axis size zeta_min_over_axis_orders searches: (4!)^3 = 13,824 orders
ORDER_MAX_DIM = 4


@dataclass(frozen=True)
class SpectralWeights:
    """Nonnegative rational weights for the three axes, summing to 1."""

    theta_a: Fraction
    theta_b: Fraction
    theta_c: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_a", Fraction(self.theta_a))
        object.__setattr__(self, "theta_b", Fraction(self.theta_b))
        object.__setattr__(self, "theta_c", Fraction(self.theta_c))
        if min(self.theta_a, self.theta_b, self.theta_c) < 0:
            raise ValueError("weights must be nonnegative")
        if self.theta_a + self.theta_b + self.theta_c != 1:
            raise ValueError("weights must sum to 1")

    @staticmethod
    def uniform() -> "SpectralWeights":
        third = Fraction(1, 3)
        return SpectralWeights(third, third, third)

    def as_floats(self) -> tuple[float, float, float]:
        return (float(self.theta_a), float(self.theta_b), float(self.theta_c))


@dataclass(frozen=True)
class IncomprSet:
    """Downward-closed set of flag index triples on which the restricted
    tensor stays nonzero.  Index i on an axis means the first i basis vectors
    are annihilated."""

    shape: Shape
    points: tuple[Triple, ...]

    def __post_init__(self) -> None:
        pts = tuple(sorted(set(self.points)))
        object.__setattr__(self, "points", pts)
        members = set(pts)
        for (i, j, k) in pts:
            for down in ((i - 1, j, k), (i, j - 1, k), (i, j, k - 1)):
                if min(down) >= 0 and down not in members:
                    raise ValueError("incompressibility set must be downward closed")

    def __len__(self) -> int:
        return len(self.points)


def incompr_set(s: Support) -> IncomprSet:
    """All flag triples dominated by some support element.

    One downward sweep: a triple is dominated exactly when it is in the
    support or one of its three successors (i+1, j, k), (i, j+1, k),
    (i, j, k+1) is dominated."""
    a, b, c = s.shape
    members = s.as_set()
    pts: set[Triple] = set()
    for i in range(a - 1, -1, -1):
        for j in range(b - 1, -1, -1):
            for k in range(c - 1, -1, -1):
                t = (i, j, k)
                if (
                    t in members
                    or (i + 1, j, k) in pts
                    or (i, j + 1, k) in pts
                    or (i, j, k + 1) in pts
                ):
                    pts.add(t)
    return IncomprSet(s.shape, tuple(pts))


@dataclass(frozen=True)
class SupportDistribution:
    """Probability distribution on grid triples."""

    shape: Shape
    probs: dict[Triple, float]

    def __post_init__(self) -> None:
        total = 0.0
        for t, p in self.probs.items():
            if not self.shape.contains(t):
                raise ValueError(f"point {t} outside shape {tuple(self.shape)}")
            if p < 0:
                raise ValueError("probabilities must be nonnegative")
            total += p
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def marginal(self, axis: int) -> np.ndarray:
        n = tuple(self.shape)[axis]
        out = np.zeros(n)
        for t, p in self.probs.items():
            out[t[axis]] += p
        return out


def entropy(dist: SupportDistribution, axis: int) -> float:
    """Base-2 Shannon entropy of the requested marginal, with 0 log 0 = 0."""
    q = dist.marginal(axis)
    mask = q > 0
    return float(-(q[mask] * np.log2(q[mask])).sum())


@dataclass(frozen=True)
class ZetaResult:
    value: float
    log2_value: float
    gap: float
    iterations: int
    distribution: SupportDistribution


class ZetaUnconverged(RuntimeError):
    """The ascent reached MAX_ITERATIONS with its gap still at or above 1e-6."""

    def __init__(self, gap: float, iterations: int):
        super().__init__(f"ascent gap {gap} after {iterations} iterations")
        self.gap = gap
        self.iterations = iterations


def zeta_full(s: Support, weights: SpectralWeights) -> ZetaResult:
    """Maximize the weighted marginal entropy over distributions on the
    incompressibility set and return 2**maximum with a certificate gap.

    Raises ZetaUnconverged when MAX_ITERATIONS steps leave the gap at or
    above 1e-6."""
    phi = incompr_set(s)
    if not phi.points:
        raise ValueError("empty support has no incompressibility set")
    theta = weights.as_floats()
    pts = phi.points
    n = len(pts)
    sizes = tuple(s.shape)
    # The a + b + c marginals are one vector: axis d's value i is row
    # offset[d] + i, and rows[d * n + x] is point x's row on axis d.
    offset = (0, sizes[0], sizes[0] + sizes[1])
    rows = np.array([offset[axis] + t[axis] for axis in range(3) for t in pts])
    each_point = np.tile(np.arange(n), 3)
    row_theta = np.repeat(theta, sizes)

    def evaluate(vec: np.ndarray) -> tuple[np.ndarray, float]:
        """Logs of all marginals of vec (floored, so 0 log 0 = 0) and the
        weighted entropy they give."""
        q = np.bincount(rows, weights=vec[each_point], minlength=len(row_theta))
        logq = np.log2(np.maximum(q, LOG_FLOOR))
        return logq, -float(np.dot(row_theta * q, logq))

    p = np.full(n, 1.0 / n)
    logq, f = evaluate(p)
    iterations = 0
    gap = math.inf

    def try_step(shifted: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray, float]:
        cand = p * np.exp(eta * shifted)
        cand /= cand.sum()
        return (cand, *evaluate(cand))

    for t in range(MAX_ITERATIONS):
        iterations = t + 1
        g = -(row_theta * logq)[rows].reshape(3, n).sum(axis=0)
        gap = float(g.max() - g @ p)
        shifted = g - g.max()
        # base schedule, halved until monotone, then doubled while it helps
        step = 1.0 / (1.0 + t / 100.0)
        cand, cand_logq, f_new = try_step(shifted, step)
        while f_new < f - 1e-12 and step > 1e-12:
            step /= 2.0
            cand, cand_logq, f_new = try_step(shifted, step)
        while True:
            cand2, logq2, f2 = try_step(shifted, step * 2.0)
            if f2 <= f_new:
                break
            step *= 2.0
            cand, cand_logq, f_new = cand2, logq2, f2
        if f_new < f - 1e-9:
            raise AssertionError("internal: ascent step decreased the objective")
        improvement = f_new - f
        p, logq, f = cand, cand_logq, max(f, f_new)
        if improvement < TOLERANCE and gap < 1e-6:
            break
    else:
        if gap >= 1e-6:
            raise ZetaUnconverged(gap, iterations)

    cap = sum(th * math.log2(nn) for th, nn in zip(theta, sizes) if th > 0)
    if f > cap + 1e-9:
        raise AssertionError("internal: objective exceeded the entropy cap")
    dist = SupportDistribution(s.shape, {t: float(v) for t, v in zip(pts, p) if v > 0})
    return ZetaResult(
        value=float(2.0**f),
        log2_value=float(f),
        gap=gap,
        iterations=iterations,
        distribution=dist,
    )


def zeta(s: Support, weights: SpectralWeights) -> float:
    return zeta_full(s, weights).value


@dataclass(frozen=True)
class OrderMinResult:
    status: str  # "ok" or "unknown"
    value: Optional[float]
    permutations: Optional[AxisPermutations]


def zeta_min_over_axis_orders(s: Support, weights: SpectralWeights) -> OrderMinResult:
    """Minimum of the functional over all axis reorderings (coordinate flags
    only).

    Each of the a! b! c! orderings gives its closure (its incompressibility
    set) as a bitmask over the cells i*b*c + j*c + k.  The ascent runs only on
    the inclusion-minimal closures, as a distribution on a closure is one on
    every closure containing it, and only once per class of them under the
    axis swaps that keep the shape and the weights (such a swap keeps the
    maximum), on the class's first-enumerated member.  Among equal values the
    first class enumerated wins.  Shapes above ORDER_MAX_DIM per axis report unknown
    instead of an unfinishable search."""
    a, b, c = s.shape
    if max(a, b, c) > ORDER_MAX_DIM:
        return OrderMinResult("unknown", None, None)
    cells = list(itertools.product(range(a), range(b), range(c)))
    # below[i][j][k]: mask of the box under cell (i, j, k), from its predecessors' boxes
    below = [[[0] * c for _ in range(b)] for _ in range(a)]
    for n, (i, j, k) in enumerate(cells):
        below[i][j][k] = (1 << n) | (i and below[i - 1][j][k]) | (j and below[i][j - 1][k]) | (k and below[i][j][k - 1])
    first: dict[int, AxisPermutations] = {}
    for oa, ob, oc in itertools.product(
        itertools.permutations(range(a)), itertools.permutations(range(b)), itertools.permutations(range(c))
    ):
        closure = 0
        for i, j, k in s.triples:
            closure |= below[oa[i]][ob[j]][oc[k]]
        if closure not in first:
            first[closure] = AxisPermutations(oa, ob, oc)
    # a closure with a proper subclosure contains a minimal one with fewer cells
    minimal: set[int] = set()
    for closure in sorted(first, key=int.bit_count):
        if not any(m & ~closure == 0 for m in minimal):
            minimal.add(closure)
    # the axis swaps that keep every axis's size and weight, as exact Fractions
    label = tuple(zip((a, b, c), (weights.theta_a, weights.theta_b, weights.theta_c)))
    swaps = [g for g in itertools.permutations(range(3)) if tuple(label[d] for d in g) == label]
    classes: set[tuple[Triple, ...]] = set()
    best: Optional[float] = None
    best_perms: Optional[AxisPermutations] = None
    for closure, perms in first.items():
        if closure not in minimal:
            continue
        points = [t for n, t in enumerate(cells) if closure >> n & 1]
        key = min(tuple(sorted((t[g[0]], t[g[1]], t[g[2]]) for t in points)) for g in swaps)
        if key not in classes:
            classes.add(key)
            val = zeta(apply_permutations(s, perms), weights)
            if best is None or val < best - 1e-15:
                best, best_perms = val, perms
    return OrderMinResult("ok", best, best_perms)
