import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from _oracles import downward_closed_sets, oracle_incompr_set, oracle_zeta_certificate, oracle_zeta_grid
from trisupport import spectral
from trisupport.cli import EXIT_UNKNOWN, main
from trisupport.constructions import (
    coppersmith_winograd,
    free_max_support,
    m_one_sum,
    oblique_not_tight_4,
    tight_max_support,
)
from trisupport.core import AxisPermutations, Shape, Support, apply_permutations, support_to_obj
from trisupport.sampling import random_support
from trisupport.spectral import (
    IncomprSet,
    SpectralWeights,
    SupportDistribution,
    ZetaUnconverged,
    entropy,
    incompr_set,
    zeta,
    zeta_full,
    zeta_min_over_axis_orders,
)

UNIFORM = SpectralWeights.uniform()
SKEWED = SpectralWeights(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
POINTED = SpectralWeights(Fraction(1), Fraction(0), Fraction(0))
HALVES = SpectralWeights(Fraction(1, 2), Fraction(1, 2), Fraction(0))


def test_spectral_weights_validation():
    with pytest.raises(ValueError):
        SpectralWeights(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        SpectralWeights(Fraction(-1, 2), Fraction(1), Fraction(1, 2))


def test_incompr_set_examples():
    d = m_one_sum(3).support()
    assert len(incompr_set(d)) == 27  # full cube: diagonal dominates everything
    single = Support(Shape(1, 1, 1), ((0, 0, 0),))
    assert incompr_set(single).points == ((0, 0, 0),)
    s = Support(Shape(2, 2, 2), ((0, 0, 0), (1, 1, 0)))
    assert incompr_set(s).points == ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))


def test_incompr_set_downward_closed():
    rng = random.Random(41)
    for _ in range(30):
        shp = Shape(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        s = random_support(rng, shp, rng.uniform(0.2, 0.8))
        phi = incompr_set(s)
        members = set(phi.points)
        for (i, j, k) in phi.points:
            for down in ((i - 1, j, k), (i, j - 1, k), (i, j, k - 1)):
                if min(down) >= 0:
                    assert down in members
    with pytest.raises(ValueError):
        IncomprSet(Shape(2, 2, 2), ((1, 0, 0),))


def test_incompr_set_sweep_matches_oracle():
    rng = random.Random(42)
    shapes = [Shape(rng.randint(1, 6), rng.randint(1, 8), rng.randint(1, 10)) for _ in range(40)]
    shapes += [Shape(6, 8, 10), Shape(10, 1, 3), Shape(1, 1, 1)]
    for shp in shapes:
        s = random_support(rng, shp, rng.uniform(0.02, 0.4))
        assert incompr_set(s).points == oracle_incompr_set(s), s


def test_entropy_examples():
    point = SupportDistribution(Shape(2, 2, 2), {(0, 1, 0): 1.0})
    assert entropy(point, 0) == 0.0
    uniform = SupportDistribution(Shape(4, 4, 4), {(i, i, i): 0.25 for i in range(4)})
    assert abs(entropy(uniform, 1) - 2.0) < 1e-12
    skew = SupportDistribution(Shape(2, 1, 1), {(0, 0, 0): 0.25, (1, 0, 0): 0.75})
    assert abs(entropy(skew, 0) - 0.8112781244591328) < 1e-9


@pytest.mark.parametrize("theta", [UNIFORM, SKEWED, POINTED])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_zeta_diagonal_normalization(r, theta):
    assert abs(zeta(m_one_sum(r).support(), theta) - r) <= 1e-6


def test_zeta_two_point_value():
    s = Support(Shape(2, 2, 2), ((0, 0, 0), (1, 1, 0)))
    assert abs(zeta(s, UNIFORM) - 2 ** (2 / 3)) <= 1e-4


def test_zeta_upper_bounds_on_seeded_supports():
    rng = random.Random(42)
    for _ in range(50):
        m = rng.randint(1, 4)
        s = random_support(rng, Shape(m, m, m), rng.uniform(0.2, 0.9))
        res = zeta_full(s, UNIFORM)
        assert res.value <= m + 1e-9
        cap = 2 ** sum(float(th) * math.log2(n) for th, n in zip(UNIFORM.as_floats(), (m, m, m)))
        assert res.value <= cap + 1e-6


def test_zeta_rejects_empty_and_bad_tol():
    s = Support(Shape(2, 2, 2), ())
    with pytest.raises(ValueError):
        zeta(s, UNIFORM)


def test_zeta_agrees_with_grid_oracle_on_small_incompr_sets():
    # every downward-closed set of at most 5 points, realized by its maximal
    # elements; the oracle sweeps the simplex at 1/64 then 1/512 locally
    for points in downward_closed_sets(5):
        members = set(points)
        maximal = tuple(
            t
            for t in points
            if not any(
                u != t and all(u[d] >= t[d] for d in range(3)) for u in members
            )
        )
        shape = Shape(*(max(t[d] for t in points) + 1 for d in range(3)))
        s = Support(shape, maximal)
        assert incompr_set(s).points == points
        res = zeta_full(s, UNIFORM)
        assert res.gap < 1e-6, (points, res.gap)
        slow = oracle_zeta_grid(points, UNIFORM.as_floats())
        assert abs(res.value - slow) <= 1e-4, (points, res.value, slow)


def test_zeta_result_distribution_is_consistent():
    s, _ = tight_max_support(3)
    res = zeta_full(s, UNIFORM)
    dist = res.distribution
    total = sum(dist.probs.values())
    assert abs(total - 1.0) <= 1e-9
    achieved = sum(float(th) * entropy(dist, axis) for axis, th in enumerate(UNIFORM.as_floats()))
    assert abs(achieved - res.log2_value) <= 1e-9
    phi = set(incompr_set(s).points)
    assert set(dist.probs) <= phi


def test_zeta_invariant_under_weight_and_axis_swap():
    s = Support(Shape(2, 3, 2), ((0, 0, 0), (1, 2, 0), (0, 1, 1)))
    swapped = Support(Shape(3, 2, 2), tuple((j, i, k) for (i, j, k) in s.triples))
    w = SpectralWeights(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    w_swapped = SpectralWeights(Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))
    assert abs(zeta(s, w) - zeta(swapped, w_swapped)) <= 1e-7


def test_zeta_min_over_axis_orders():
    diag = m_one_sum(3).support()
    res = zeta_min_over_axis_orders(diag, UNIFORM)
    assert res.status == "ok" and abs(res.value - 3) <= 1e-6
    s3, _ = tight_max_support(3)
    res = zeta_min_over_axis_orders(s3, UNIFORM)
    direct = zeta(s3, UNIFORM)
    assert res.status == "ok" and abs(res.value - direct) <= 1e-6
    s5, _ = tight_max_support(5)
    assert zeta_min_over_axis_orders(s5, UNIFORM).status == "unknown"


def _closure(triples):
    return frozenset(
        (x, y, z) for (i, j, k) in triples for x in range(i + 1) for y in range(j + 1) for z in range(k + 1)
    )


def _moved(s):
    """The support's triples under each of the a! b! c! axis orders."""
    a, b, c = s.shape
    for pa, pb, pc in itertools.product(
        itertools.permutations(range(a)), itertools.permutations(range(b)), itertools.permutations(range(c))
    ):
        yield tuple((pa[i], pb[j], pc[k]) for (i, j, k) in s.triples)


def _exhaustive_order_min(s, weights):
    """Every a! b! c! order, every distinct closure, then zeta: the minimum
    and the set of all distinct closures."""
    values = {}
    for moved in _moved(s):
        key = _closure(moved)
        if key not in values:
            values[key] = zeta(Support(s.shape, moved), weights)
    return min(values.values()), set(values)


def test_zeta_min_over_axis_orders_matches_exhaustive_minimum():
    catalog = [
        m_one_sum(3).support(),
        tight_max_support(3)[0],
        coppersmith_winograd(2).support(),
        m_one_sum(2).support(),
        free_max_support(3),
        tight_max_support(2)[0],
    ]
    rng = random.Random(43)
    drawn = [random_support(rng, Shape(m, m, m), rng.uniform(0.15, 0.6)) for m in [2] * 20 + [3] * 12]
    drawn = [s for s in drawn if s.triples]
    assert len(drawn) >= 30
    for n, s in enumerate(catalog + drawn):
        weights = SKEWED if n % 3 == 2 else UNIFORM
        res = zeta_min_over_axis_orders(s, weights)
        expected, closures = _exhaustive_order_min(s, weights)
        assert res.status == "ok" and abs(res.value - expected) <= 1e-6, (s.triples, res.value, expected)
        moved = apply_permutations(s, res.permutations)
        chosen = _closure(moved.triples)
        assert chosen in closures and not any(other < chosen for other in closures), s.triples
        assert abs(zeta(moved, weights) - res.value) <= 1e-9


@pytest.mark.parametrize(
    "s, weights, swaps, n_minimal, n_classes",
    [
        (m_one_sum(3).support(), UNIFORM, list(itertools.permutations(range(3))), 17, 4),
        (coppersmith_winograd(2).support(), UNIFORM, list(itertools.permutations(range(3))), 6, 2),
        # theta_a differs from the others, so only b <-> c may merge closures
        (tight_max_support(3)[0], SKEWED, [(0, 1, 2), (0, 2, 1)], 1, 1),
        (coppersmith_winograd(2).support(), SKEWED, [(0, 1, 2), (0, 2, 1)], 6, 4),
    ],
    ids=["m1-sum(3)", "cw-small(2)", "t-max(3)-skewed", "cw-small(2)-skewed"],
)
def test_zeta_min_runs_one_ascent_per_axis_swap_class(monkeypatch, s, weights, swaps, n_minimal, n_classes):
    closures = {_closure(moved) for moved in _moved(s)}
    minimal = [m for m in closures if not any(other < m for other in closures)]
    classes = {frozenset(frozenset((t[g[0]], t[g[1]], t[g[2]]) for t in m) for g in swaps) for m in minimal}
    assert (len(minimal), len(classes)) == (n_minimal, n_classes)
    calls = []
    real = spectral.zeta_full
    monkeypatch.setattr(spectral, "zeta_full", lambda *args: calls.append(args) or real(*args))
    res = zeta_min_over_axis_orders(s, weights)
    assert res.status == "ok" and len(calls) == len(classes)


@pytest.mark.parametrize(
    "s",
    [tight_max_support(3)[0], tight_max_support(4)[0], random_support(random.Random(48), Shape(4, 4, 4), 0.3)],
    ids=["t-max(3)", "t-max(4)", "random-4x4x4"],
)
@pytest.mark.parametrize(
    "weights", [UNIFORM, SpectralWeights(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))], ids=["uniform", "distinct"]
)
def test_zeta_min_invariant_under_relabelling_and_axis_swap(s, weights):
    base = zeta_min_over_axis_orders(s, weights).value
    rng = random.Random(49)
    relabel = AxisPermutations(*(tuple(rng.sample(range(n), n)) for n in s.shape))
    assert abs(zeta_min_over_axis_orders(apply_permutations(s, relabel), weights).value - base) <= 1e-6
    a, b, c = s.shape
    swapped = Support(Shape(b, a, c), tuple((j, i, k) for (i, j, k) in s.triples))
    swapped_weights = SpectralWeights(weights.theta_b, weights.theta_a, weights.theta_c)
    assert abs(zeta_min_over_axis_orders(swapped, swapped_weights).value - base) <= 1e-6


def test_zeta_full_raises_at_the_iteration_cap(monkeypatch, tmp_path, capsys):
    s, _ = tight_max_support(3)
    assert zeta_full(s, UNIFORM).iterations > 1
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 1)
    with pytest.raises(ZetaUnconverged) as caught:
        zeta_full(s, UNIFORM)
    assert caught.value.iterations == 1 and caught.value.gap >= 1e-6
    path = tmp_path / "tmax3.json"
    path.write_text(json.dumps(support_to_obj(s)))
    for extra in ([], ["--min-orders"]):
        code = main(["zeta", "--in", str(path), "--theta", "1/3", "1/3", "1/3", *extra])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_UNKNOWN and report["result"]["status"] == "unknown"


def _without_finish(monkeypatch, call, *args):
    """The same call with the Newton finish failing, so the ascent alone answers."""
    with monkeypatch.context() as patched:
        patched.setattr(spectral, "_newton_finish", lambda *_: None)
        return call(*args)


def test_newton_finish_sweep_agrees_with_the_ascent_alone(monkeypatch):
    rng = random.Random(50)
    drawn = [random_support(rng, Shape(m, m, m), rng.uniform(0.2, 0.5)) for m in [3] * 6 + [4] * 3]
    finished = 0
    for s in (s for s in drawn if s.triples):
        for weights in (UNIFORM, SKEWED, POINTED, HALVES):
            res = zeta_full(s, weights)
            plain = _without_finish(monkeypatch, zeta_full, s, weights)
            assert res.gap < 1e-6 and plain.gap < 1e-6
            assert abs(res.log2_value - plain.log2_value) <= res.gap + plain.gap, (s.triples, weights)
            value, gap = oracle_zeta_certificate(s, weights.as_floats(), res.distribution.probs)
            assert abs(value - res.log2_value) <= 1e-9
            if res != plain:
                # the Newton point's gap is its own, so the oracle reproduces it
                finished += 1
                assert res.iterations > spectral.SWITCH and abs(gap - res.gap) <= 1e-9, (s.triples, weights)
            low = zeta_min_over_axis_orders(s, weights)
            low_plain = _without_finish(monkeypatch, zeta_min_over_axis_orders, s, weights)
            assert low.gap < 1e-6 and low_plain.gap < 1e-6
            assert abs(math.log2(low.value) - math.log2(low_plain.value)) <= low.gap + low_plain.gap + 1e-12
    assert finished >= 3


@pytest.mark.parametrize("weights", [UNIFORM, SKEWED], ids=["uniform", "skewed"])
def test_newton_finish_cuts_the_slow_order_minimum(monkeypatch, weights):
    # the exponentiated-gradient ascent alone takes 43,207 (uniform) and
    # 46,555 (skewed) steps over these 30 class ascents
    results = []
    real = spectral.zeta_full
    monkeypatch.setattr(spectral, "zeta_full", lambda *args: results.append(real(*args)) or results[-1])
    res = zeta_min_over_axis_orders(oblique_not_tight_4().support(), weights)
    assert res.status == "ok" and res.gap < 1e-6
    assert len(results) == 30 and sum(r.iterations for r in results) < 5000


@pytest.mark.parametrize(
    "s, weights",
    [(oblique_not_tight_4().support(), UNIFORM), (tight_max_support(3)[0], SKEWED), (m_one_sum(3).support(), UNIFORM)],
    ids=["not-tight-4", "t-max(3)", "m1-sum(3)"],
)
def test_newton_finish_falls_back_to_the_ascent_bit_for_bit(monkeypatch, s, weights):
    with monkeypatch.context() as patched:
        patched.setattr(spectral, "SWITCH", spectral.MAX_ITERATIONS + 1)
        ascent_only = zeta_full(s, weights)

    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "solve", singular)
        assert zeta_full(s, weights) == ascent_only
    if ascent_only.iterations <= spectral.SWITCH:
        assert zeta_full(s, weights) == ascent_only
    else:
        assert zeta_full(s, weights).iterations < ascent_only.iterations
