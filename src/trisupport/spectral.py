"""Support-functional evaluation at coordinate flags.

The value is 2 to the maximum of a weighted sum of marginal Shannon entropies
over probability distributions on the incompressibility set of the support.
The maximization is a concave program over a simplex, solved by exponentiated
gradient ascent with a monotonicity safeguard; a linearization gap certifies
closeness to the optimum.  Everything combinatorial stays exact; floats enter
only here.

Values are coordinate-flag evaluations: the outer flag minimization is
restricted to coordinate flags induced by axis reorderings, so minimized
results are upper bounds for the full flag-variety minimum.
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
    """All flag triples dominated by some support element."""
    pts = tuple(
        (i, j, k)
        for i in range(s.shape.a)
        for j in range(s.shape.b)
        for k in range(s.shape.c)
        if any(t[0] >= i and t[1] >= j and t[2] >= k for t in s.triples)
    )
    return IncomprSet(s.shape, pts)


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


def _objective(theta: tuple[float, float, float], marginals: list[np.ndarray]) -> float:
    f = 0.0
    for th, q in zip(theta, marginals):
        if th > 0:
            mask = q > 0
            f += th * float(-(q[mask] * np.log2(q[mask])).sum())
    return f


def zeta_full(s: Support, weights: SpectralWeights, tol: float = 1e-9) -> ZetaResult:
    """Maximize the weighted marginal entropy over distributions on the
    incompressibility set and return 2**maximum with a certificate gap."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    phi = incompr_set(s)
    if not phi.points:
        raise ValueError("empty support has no incompressibility set")
    theta = weights.as_floats()
    pts = phi.points
    n = len(pts)
    idx = [np.array([t[axis] for t in pts]) for axis in range(3)]
    sizes = tuple(s.shape)

    p = np.full(n, 1.0 / n)

    def marginals(vec: np.ndarray) -> list[np.ndarray]:
        return [
            np.bincount(idx[axis], weights=vec, minlength=sizes[axis])
            for axis in range(3)
        ]

    def gradient(margs: list[np.ndarray]) -> np.ndarray:
        g = np.zeros(n)
        for axis in range(3):
            if theta[axis] > 0:
                with np.errstate(divide="ignore"):
                    logm = np.log2(np.maximum(margs[axis], LOG_FLOOR))
                g -= theta[axis] * logm[idx[axis]]
        return g

    f = _objective(theta, marginals(p))
    iterations = 0
    gap = math.inf

    def try_step(g: np.ndarray, eta: float) -> tuple[np.ndarray, float]:
        w = np.exp(eta * (g - g.max()))
        cand = p * w
        cand /= cand.sum()
        return cand, _objective(theta, marginals(cand))

    for t in range(100_000):
        iterations = t + 1
        margs = marginals(p)
        g = gradient(margs)
        gap = float(g.max() - g @ p)
        # base schedule, halved until monotone, then doubled while it helps
        step = 1.0 / (1.0 + t / 100.0)
        cand, f_new = try_step(g, step)
        while f_new < f - 1e-12 and step > 1e-12:
            step /= 2.0
            cand, f_new = try_step(g, step)
        while True:
            cand2, f2 = try_step(g, step * 2.0)
            if f2 <= f_new:
                break
            step *= 2.0
            cand, f_new = cand2, f2
        if f_new < f - 1e-9:
            raise AssertionError("internal: ascent step decreased the objective")
        improvement = f_new - f
        p, f = cand, max(f, f_new)
        if improvement < tol and gap < 1e-6:
            break

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


def zeta(s: Support, weights: SpectralWeights, tol: float = 1e-9) -> float:
    return zeta_full(s, weights, tol).value


@dataclass(frozen=True)
class OrderMinResult:
    status: str  # "ok" or "unknown"
    value: Optional[float]
    permutations: Optional[AxisPermutations]


def zeta_min_over_axis_orders(s: Support, weights: SpectralWeights, tol: float = 1e-9) -> OrderMinResult:
    """Minimum of the functional over all axis reorderings (coordinate flags
    only).  Exhaustive over a! b! c! orderings; shapes above ORDER_MAX_DIM per
    axis report unknown instead of an unfinishable search."""
    a, b, c = s.shape
    if max(a, b, c) > ORDER_MAX_DIM:
        return OrderMinResult("unknown", None, None)
    best: Optional[float] = None
    best_perms: Optional[AxisPermutations] = None
    cache: dict[tuple[Triple, ...], float] = {}
    for pa in itertools.permutations(range(a)):
        for pb in itertools.permutations(range(b)):
            for pc in itertools.permutations(range(c)):
                perms = AxisPermutations(pa, pb, pc)
                moved = apply_permutations(s, perms)
                key = incompr_set(moved).points
                val = cache.get(key)
                if val is None:
                    val = zeta(moved, weights, tol)
                    cache[key] = val
                if best is None or val < best - 1e-15:
                    best, best_perms = val, perms
    return OrderMinResult("ok", best, best_perms)
