"""Support-functional evaluation at coordinate flags.

The value is 2 to the maximum of a weighted sum of marginal Shannon entropies
over probability distributions on the incompressibility set of the support.
The maximization is a concave program over a simplex, solved by exponentiated
gradient ascent with a monotonicity safeguard; a linearization gap certifies
closeness to the optimum.  An ascent still unconverged after SWITCH steps,
typically one whose optimum lies on the boundary of the simplex, tries a
log-barrier Newton finish whose linear systems live in the space of the a+b+c
marginals; its point is kept only with a gap below 1e-6 and no loss in the
objective, and the ascent goes on otherwise.  Everything combinatorial stays
exact; floats enter only here.

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import AxisPermutations, Shape, Support, Triple, apply_permutations

LOG_FLOOR = 1e-300
# steps zeta_full takes before it gives up with ZetaUnconverged
MAX_ITERATIONS = 100_000
# ascent steps before an unconverged ascent tries the Newton finish
SWITCH = 50
# Newton steps the finish takes at most
NEWTON_STEPS = 200
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
    are annihilated.  Any sequence of triples (or an n x 3 array) is accepted
    and stored sorted, as tuples in `points` and as an array in `coords`."""

    shape: Shape
    points: tuple[Triple, ...]
    coords: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        given = np.asarray(self.points, dtype=np.int64).reshape(-1, 3)
        if ((given < 0) | (given >= tuple(self.shape))).any():
            raise ValueError(f"point outside shape {tuple(self.shape)}")
        grid = _grid(self.shape, given)
        # a prefix AND along each axis keeps exactly the cells whose whole lower box is marked
        closed = grid
        for axis in range(3):
            closed = np.logical_and.accumulate(closed, axis=axis)
        if (closed != grid).any():
            raise ValueError("incompressibility set must be downward closed")
        coords = np.argwhere(grid)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "points", tuple(map(tuple, coords.tolist())))

    def __len__(self) -> int:
        return len(self.points)


def _grid(shape: Shape, coords: np.ndarray) -> np.ndarray:
    """The boolean grid of the shape that marks the rows of an n x 3 array."""
    grid = np.zeros(tuple(shape), dtype=bool)
    grid[tuple(coords.T)] = True
    return grid


def incompr_set(s: Support) -> IncomprSet:
    """All flag triples dominated by some support element.

    A suffix OR along each axis of the support's boolean grid marks every
    triple with a support element at or above it."""
    grid = _grid(s.shape, np.array(s.triples, dtype=np.int64).reshape(-1, 3))
    for axis in range(3):
        backwards = (slice(None),) * axis + (slice(None, None, -1),)
        grid = np.logical_or.accumulate(grid[backwards], axis=axis)[backwards]
    return IncomprSet(s.shape, np.argwhere(grid))


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
    iterations: int  # exponentiated-gradient steps plus Newton steps
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

    An ascent still unconverged after SWITCH steps hands its iterate to
    `_newton_finish`.  The Newton point is kept when its objective is at least
    the handoff's less 1e-12 and its gap is below 1e-6; otherwise the ascent
    continues from the handoff exactly as if the finish had not run.
    `iterations` counts the ascent steps plus the Newton steps.

    Raises ZetaUnconverged when MAX_ITERATIONS steps leave the gap at or
    above 1e-6."""
    phi = incompr_set(s)
    if not phi.points:
        raise ValueError("empty support has no incompressibility set")
    theta = weights.as_floats()
    n = len(phi)
    sizes = tuple(s.shape)
    # The a + b + c marginals are one vector, axis 0's values first, then
    # axis 1's and axis 2's; marg[d, x] is point x's row on axis d.
    marg = (phi.coords + (0, sizes[0], sizes[0] + sizes[1])).T
    rows = marg.ravel()
    each_point = np.tile(np.arange(n), 3)
    row_theta = np.repeat(theta, sizes)

    def evaluate(vec: np.ndarray) -> tuple[np.ndarray, float]:
        """Logs of all marginals of vec (floored, so 0 log 0 = 0) and the
        weighted entropy they give."""
        q = np.bincount(rows, weights=vec[each_point], minlength=len(row_theta))
        logq = np.log2(np.maximum(q, LOG_FLOOR))
        return logq, -float(np.dot(row_theta * q, logq))

    def gap_at(vec: np.ndarray, logq: np.ndarray) -> tuple[np.ndarray, float]:
        """The gradient (up to a constant) and the Frank-Wolfe gap at vec."""
        g = -(row_theta * logq)[rows].reshape(3, n).sum(axis=0)
        return g, float(g.max() - g @ vec)

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
        g, gap = gap_at(p, logq)
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
        if iterations == SWITCH:
            finish = _newton_finish(p, marg, row_theta)
            if finish is not None:
                point, newton_steps = finish
                fin_logq, fin_f = evaluate(point)
                fin_gap = gap_at(point, fin_logq)[1]
                if fin_f >= f - 1e-12 and fin_gap < 1e-6:
                    p, f, gap, iterations = point, fin_f, fin_gap, iterations + newton_steps
                    break
    else:
        if gap >= 1e-6:
            raise ZetaUnconverged(gap, iterations)

    cap = sum(th * math.log2(nn) for th, nn in zip(theta, sizes) if th > 0)
    if f > cap + 1e-9:
        raise AssertionError("internal: objective exceeded the entropy cap")
    dist = SupportDistribution(s.shape, {t: float(v) for t, v in zip(phi.points, p) if v > 0})
    return ZetaResult(
        value=float(2.0**f),
        log2_value=float(f),
        gap=gap,
        iterations=iterations,
        distribution=dist,
    )


def _newton_finish(p: np.ndarray, marg: np.ndarray, row_theta: np.ndarray) -> Optional[tuple[np.ndarray, int]]:
    """Primal log-barrier Newton method for the same maximum, started from
    the ascent's iterate p with its entries floored at 1e-12.

    It maximizes f(p) + mu * sum(ln p) over the simplex, from mu = gap / n,
    dividing mu by 10 (down to 1e-16) each time the Newton decrement is
    small, and stops once the Frank-Wolfe gap max g - g.p is below 1e-7 or
    after NEWTON_STEPS steps.  An Armijo line search keeps 0.99 of the
    distance to the boundary.  The Hessian of f is -B^T W B, with B the 0/1
    incidence of points (columns) and marginal rows, and W = theta_r / (q_r
    ln 2) on the rows with positive weight; so each step solves
    (D + B^T W B) z = R by Woodbury through a system of one equation per
    such row, refined once by the matrix-free product, and never forms an
    n x n matrix.  Returns the point and the number of Newton steps, or None
    on a singular solve or a non-finite value."""
    n = len(p)
    incidence = np.zeros((len(row_theta), n))
    incidence[marg, np.arange(n)] = 1.0
    keep = (row_theta > 0) & incidence.any(axis=1)
    B, theta = incidence[keep], row_theta[keep]
    p = np.maximum(p, 1e-12)
    p /= p.sum()
    mu = 0.0

    def barrier(x: np.ndarray) -> float:
        q = B @ x
        return float(-(theta * q) @ np.log2(q) + mu * np.log(x).sum())

    for step in range(NEWTON_STEPS):
        q = B @ p
        g = -(theta * np.log2(q)) @ B
        gap = float(g.max() - g @ p)
        if not math.isfinite(gap):
            return None
        if gap < 1e-7:
            return p, step
        mu = mu or gap / n
        # M = D + B^T W B, the negated Hessian of the barrier objective
        d = mu / p**2
        w = theta / (q * math.log(2.0))
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
    return p, NEWTON_STEPS


def zeta(s: Support, weights: SpectralWeights) -> float:
    return zeta_full(s, weights).value


@dataclass(frozen=True)
class OrderMinResult:
    status: str  # "ok" or "unknown"
    value: Optional[float]
    permutations: Optional[AxisPermutations]
    gap: Optional[float]  # the chosen class's ascent gap


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
    best: Optional[ZetaResult] = None
    best_perms: Optional[AxisPermutations] = None
    for closure, perms in first.items():
        if closure not in minimal:
            continue
        points = [t for n, t in enumerate(cells) if closure >> n & 1]
        key = min(tuple(sorted((t[g[0]], t[g[1]], t[g[2]]) for t in points)) for g in swaps)
        if key not in classes:
            classes.add(key)
            res = zeta_full(apply_permutations(s, perms), weights)
            if best is None or res.value < best.value - 1e-15:
                best, best_perms = res, perms
    return OrderMinResult("ok", best.value, best_perms, best.gap)
