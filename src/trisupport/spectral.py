"""Support-functional evaluation at coordinate flags.

The value is 2 to the maximum of a weighted sum of marginal Shannon entropies
over probability distributions on the incompressibility set of the support.
The maximization is a concave program over a simplex, solved by exponentiated
gradient ascent with a monotonicity safeguard, each step starting from the last
accepted one; the linearization (Frank-Wolfe) gap, or the distance to the
entropy cap over the rows the set reaches, certifies closeness to the
optimum.  When the set reaches the same number r of rows on all three axes,
a bounded search first looks for r of its points that are pairwise distinct
on every axis: the uniform distribution on them has uniform marginals, so it
meets the cap, which no distribution exceeds, and answers after no step.
Otherwise the ascent runs at most SWITCH steps; one still
unconverged then, typically one whose optimum lies on the boundary of the
simplex, ends with a log-barrier Newton finish whose linear systems live in
the space of the a+b+c marginals, which stops once the same certificate gap
is below 1e-7.  Its point is the answer when that gap is below 1e-6;
otherwise the value is reported unknown (ZetaUnconverged).  Everything
combinatorial stays exact; floats enter only here.

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
from typing import Callable, Optional

import numpy as np

from .core import AxisPermutations, Shape, Support, Triple, apply_permutations

LOG_FLOOR = 1e-300
# ascent steps zeta_full takes at most before the Newton finish
SWITCH = 20
# below this, the distance to the entropy cap replaces the Frank-Wolfe gap as the certificate
CAP_TOL = 1e-8
# Newton steps the finish takes at most
NEWTON_STEPS = 200
# points the perfect-matching search of zeta_full may try, per point of the set
_MATCH_NODES = 2
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


def incompr_set(s: Support) -> np.ndarray:
    """All flag triples dominated by some support element, as the sorted
    n x 3 array of their coordinates.  Index i on an axis means the first i
    basis vectors are annihilated, so the set is downward closed.

    A suffix OR along each axis of the support's boolean grid marks every
    triple with a support element at or above it."""
    grid = np.zeros(tuple(s.shape), dtype=bool)
    grid[tuple(np.array(s.triples, dtype=np.int64).reshape(-1, 3).T)] = True
    for axis in range(3):
        backwards = (slice(None),) * axis + (slice(None, None, -1),)
        grid = np.logical_or.accumulate(grid[backwards], axis=axis)[backwards]
    return np.argwhere(grid)


@dataclass(frozen=True)
class SupportDistribution:
    """Probability distribution on grid triples: the positive entries of the
    point `zeta_full` returns, keyed by their triples of the shape."""

    shape: Shape
    probs: dict[Triple, float]


@dataclass(frozen=True)
class ZetaResult:
    value: float
    log2_value: float
    gap: float
    iterations: int  # exponentiated-gradient steps plus Newton steps
    distribution: SupportDistribution


class ZetaUnconverged(RuntimeError):
    """The Newton finish after SWITCH ascent steps failed or left its
    certificate gap at or above 1e-6; `gap` is that of the last point reached."""

    def __init__(self, gap: float, iterations: int):
        super().__init__(f"gap {gap} after {iterations} iterations")
        self.gap = gap
        self.iterations = iterations


def zeta_full(s: Support, weights: SpectralWeights) -> ZetaResult:
    """Maximize the weighted marginal entropy over distributions on the
    incompressibility set and return 2**maximum with a certificate gap of the
    returned distribution itself: its Frank-Wolfe gap, or its distance to the
    entropy cap (the weighted log2 of the rows reached on each axis) when that
    is below CAP_TOL and smaller.  When the uniform point's gap is at or
    above 1e-6 and the set reaches r rows on each axis, a perfect matching of
    it (r points pairwise distinct on every axis, found by `_perfect_matching`
    within _MATCH_NODES tries per point) gives mass 1/r to each of its
    points; that point meets the cap and answers after no step when its own
    gap is below 1e-6.  Otherwise, from the uniform point, the
    exponentiated-gradient ascent steps while that gap is at or above 1e-6,
    each step starting at the larger of the base schedule and the last
    accepted step, for at most SWITCH steps; a set that is the whole grid is
    optimal at the start and answers after none.  An ascent still unconverged
    then hands its iterate to `_newton_finish`, once, which stops on the same
    gap below 1e-7, and the Newton point is the answer when that gap is below
    1e-6.  `iterations` counts the ascent steps plus the Newton steps.

    Raises ZetaUnconverged when the finish fails or leaves its gap at or
    above 1e-6."""
    coords = incompr_set(s)
    if not len(coords):
        raise ValueError("empty support has no incompressibility set")
    theta = weights.as_floats()
    n = len(coords)
    sizes = tuple(s.shape)
    # The a + b + c marginals are one vector, axis 0's values first, then
    # axis 1's and axis 2's; marg[d, x] is point x's row on axis d.
    marg = (coords + (0, sizes[0], sizes[0] + sizes[1])).T
    rows = marg.ravel()
    each_point = np.arange(3 * n) % n
    row_theta = np.repeat(theta, sizes)
    # H(q_d) <= log2 of the rows reached on axis d; Phi is downward closed, so those are max + 1
    reached = (coords.max(axis=0) + 1).tolist()
    cap = sum(th * math.log2(r) for th, r in zip(theta, reached) if th > 0)

    def evaluate(vec: np.ndarray) -> tuple[np.ndarray, float]:
        """Logs of all marginals of vec (floored, so 0 log 0 = 0) and the
        weighted entropy they give."""
        q = np.bincount(rows, weights=vec[each_point], minlength=len(row_theta))
        logq = np.log2(np.maximum(q, LOG_FLOOR))
        return logq, -float(np.dot(row_theta * q, logq))

    def gap_at(vec: np.ndarray, logq: np.ndarray, f: float) -> tuple[np.ndarray, float]:
        """The gradient (up to a constant) at vec and the certificate gap, which
        is nonnegative (a rounding below 0 reads 0)."""
        g = -(row_theta * logq)[rows].reshape(3, n).sum(axis=0)
        fw = float(g.max() - g @ vec)
        return g, max(0.0, min(fw, cap - f) if cap - f < CAP_TOL else fw)

    p = np.full(n, 1.0 / n)
    logq, f = evaluate(p)
    g, gap = gap_at(p, logq, f)
    if gap >= 1e-6 and reached[0] == reached[1] == reached[2]:
        matching = _perfect_matching(coords, reached[0], _MATCH_NODES * n)
        if matching is not None:
            # uniform marginals on every axis: the entropy cap itself
            cand = np.zeros(n)
            cand[matching] = 1.0 / reached[0]
            cand_logq, cand_f = evaluate(cand)
            cand_g, cand_gap = gap_at(cand, cand_logq, cand_f)
            if cand_gap < 1e-6:
                p, logq, f, g, gap = cand, cand_logq, cand_f, cand_g, cand_gap
    iterations = 0
    step = 0.0

    def try_step(shifted: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray, float]:
        cand = p * np.exp(eta * shifted)
        cand /= cand.sum()
        return (cand, *evaluate(cand))

    # the gap that stops the ascent, and the one reported, is the current point's own
    while gap >= 1e-6 and iterations < SWITCH:
        shifted = g - g.max()
        # the base schedule or the last accepted step, halved until monotone, then doubled while it helps
        step = max(1.0 / (1.0 + iterations / 100.0), step)
        iterations += 1
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
        p, logq, f = cand, cand_logq, f_new
        g, gap = gap_at(p, logq, f)
    if gap >= 1e-6:
        finish = _newton_finish(p, evaluate, gap_at, marg, row_theta)
        if finish is not None:
            p, f, gap, newton_steps = finish
            iterations += newton_steps
        if finish is None or gap >= 1e-6:
            raise ZetaUnconverged(gap, iterations)

    if f > cap + 1e-9:
        raise AssertionError("internal: objective exceeded the entropy cap")
    if (p < 0).any() or abs(p.sum() - 1.0) > 1e-12:
        raise AssertionError("internal: the returned point is not a distribution")
    dist = SupportDistribution(s.shape, {t: v for t, v in zip(map(tuple, coords.tolist()), p.tolist()) if v > 0})
    return ZetaResult(
        value=float(2.0**f),
        log2_value=float(f),
        gap=gap,
        iterations=iterations,
        distribution=dist,
    )


def _perfect_matching(coords: np.ndarray, r: int, budget: int) -> Optional[list[int]]:
    """Indices of r points of the sorted array coords, whose rows lie below r,
    that are pairwise distinct on every axis.  A depth-first search takes the
    first-axis rows scarcest first and each row's points highest first (a
    downward-closed set keeps its low rows for later), holding the second- and
    third-axis rows taken as bitmasks.  None when there is no such set or the
    search tries more than `budget` points."""
    # coords are sorted, so first-axis row i is the slice bounds[i]:bounds[i + 1]
    bounds = np.searchsorted(coords[:, 0], np.arange(r + 1)).tolist()
    order = sorted(range(r), key=lambda i: bounds[i + 1] - bounds[i])
    chosen: list[int] = []
    tried = 0

    def extend(used_j: int, used_k: int) -> Optional[bool]:
        """Whether the rows from len(chosen) on can be matched; None once the budget is spent."""
        nonlocal tried
        if len(chosen) == r:
            return True
        row = order[len(chosen)]
        lo, hi = bounds[row], bounds[row + 1]
        for x, (j, k) in zip(range(hi - 1, lo - 1, -1), coords[lo:hi, 1:][::-1].tolist()):
            tried += 1
            if tried > budget:
                return None
            if not (used_j >> j & 1 or used_k >> k & 1):
                chosen.append(x)
                found = extend(used_j | 1 << j, used_k | 1 << k)
                if found is not False:
                    return found
                chosen.pop()
        return False

    return chosen if extend(0, 0) else None


def _newton_finish(
    p: np.ndarray, evaluate: Callable, gap_at: Callable, marg: np.ndarray, row_theta: np.ndarray
) -> Optional[tuple[np.ndarray, float, float, int]]:
    """Primal log-barrier Newton method for the same maximum, started from
    the ascent's iterate p with its entries floored at 1e-12.  Each point's
    marginals, objective f, gradient g and certificate gap come from
    `zeta_full`'s own `evaluate` and `gap_at`.

    It maximizes f(p) + mu * sum(ln p) over the simplex, from mu = gap / n,
    dividing mu by 10 (down to 1e-16) each time the Newton decrement is
    small, and stops once the certificate gap the answer reports is below
    1e-7 or after NEWTON_STEPS steps.  An Armijo line search keeps 0.99 of
    the distance to the boundary.  The Hessian of f is -B^T W B, with B the
    0/1 incidence of points (columns) and marginal rows, and W = theta_r /
    (q_r ln 2) on the rows with positive weight; so each step solves
    (D + B^T W B) z = R by Woodbury through a system of one equation per
    such row, refined once by the matrix-free product, and never forms an
    n x n matrix.  Returns the point, its objective, its gap and the number
    of Newton steps, or None on a singular solve or a non-finite value."""
    n = len(p)
    incidence = np.zeros((len(row_theta), n))
    incidence[marg, np.arange(n)] = 1.0
    keep = (row_theta > 0) & incidence.any(axis=1)
    B, theta = incidence[keep], row_theta[keep]
    p = np.maximum(p, 1e-12)
    p /= p.sum()
    mu = 0.0

    def barrier(x: np.ndarray) -> float:
        return evaluate(x)[1] + mu * float(np.log(x).sum())

    for step in range(NEWTON_STEPS + 1):
        logq, f = evaluate(p)
        # gap_at would read a NaN objective as gap 0
        if not math.isfinite(f):
            return None
        g, gap = gap_at(p, logq, f)
        if gap < 1e-7 or step == NEWTON_STEPS:
            return p, f, gap, step
        mu = mu or gap / n
        # M = D + B^T W B, the negated Hessian of the barrier objective
        d = mu / p**2
        w = theta / (np.exp2(logq[keep]) * math.log(2.0))
        rhs = np.stack([g + mu / p, np.ones(n)], axis=1)
        schur = np.diag(1.0 / w) + (B / d) @ B.T

        def solve(r: np.ndarray) -> np.ndarray:
            return (r - B.T @ np.linalg.solve(schur, B @ (r / d[:, None]))) / d[:, None]

        try:
            z = solve(rhs)
            z += solve(rhs - (d[:, None] * z + B.T @ (w[:, None] * (B @ z))))
        except np.linalg.LinAlgError:
            return None
        # the step keeps sum(p) = 1: delta = M^-1 (grad - lam 1) with sum(delta) = 0
        delta = z[:, 0] - z[:, 0].sum() / z[:, 1].sum() * z[:, 1]
        decrement = float(rhs[:, 0] @ delta)
        if not (math.isfinite(decrement) and np.isfinite(delta).all()):
            return None
        shrinking = delta < 0
        t = min(1.0, 0.99 * float(np.min(-p[shrinking] / delta[shrinking]))) if shrinking.any() else 1.0
        base = barrier(p)
        while barrier(p + t * delta) < base + 1e-4 * t * decrement and t > 1e-12:
            t /= 2.0
        p = p + t * delta
        p /= p.sum()
        # centred enough once the decrement is below the barrier's own gap n mu
        if decrement < n * mu:
            mu = max(mu / 10.0, 1e-16)


@dataclass(frozen=True)
class OrderMinResult:
    status: str  # "ok" or "unknown"
    value: Optional[float]
    permutations: Optional[AxisPermutations]
    gap: Optional[float]  # the chosen class's certificate gap (Frank-Wolfe or cap)


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
        return OrderMinResult("unknown", None, None, None)
    cells = list(itertools.product(range(a), range(b), range(c)))
    # below[i][j][k]: mask of the box under cell (i, j, k), from its predecessors' boxes
    below = [[[0] * c for _ in range(b)] for _ in range(a)]
    for n, (i, j, k) in enumerate(cells):
        below[i][j][k] = (1 << n) | (i and below[i - 1][j][k]) | (j and below[i][j - 1][k]) | (k and below[i][j][k - 1])
    # each closure's first-enumerated orders, as raw tuples: only an ascended class's are validated
    first: dict[int, tuple[tuple[int, ...], ...]] = {}
    for oa, ob, oc in itertools.product(
        itertools.permutations(range(a)), itertools.permutations(range(b)), itertools.permutations(range(c))
    ):
        closure = 0
        for i, j, k in s.triples:
            closure |= below[oa[i]][ob[j]][oc[k]]
        if closure not in first:
            first[closure] = (oa, ob, oc)
    # a closure with a proper subclosure contains a minimal one with fewer cells
    minimal: set[int] = set()
    for closure in sorted(first, key=int.bit_count):
        if not any(m & ~closure == 0 for m in minimal):
            minimal.add(closure)
    # the axis swaps that keep every axis's size and weight, as exact Fractions
    label = tuple(zip((a, b, c), (weights.theta_a, weights.theta_b, weights.theta_c)))
    swaps = [g for g in itertools.permutations(range(3)) if tuple(label[d] for d in g) == label]
    classes: set[tuple[Triple, ...]] = set()
    best: Optional[ZetaResult] = None
    best_perms: Optional[AxisPermutations] = None
    for closure, orders in first.items():
        if closure not in minimal:
            continue
        points = [t for n, t in enumerate(cells) if closure >> n & 1]
        key = min(tuple(sorted((t[g[0]], t[g[1]], t[g[2]]) for t in points)) for g in swaps)
        if key not in classes:
            classes.add(key)
            perms = AxisPermutations(*orders)
            res = zeta_full(apply_permutations(s, perms), weights)
            if best is None or res.value < best.value - 1e-15:
                best, best_perms = res, perms
    return OrderMinResult("ok", best.value, best_perms, best.gap)
