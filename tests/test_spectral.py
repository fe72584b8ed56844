import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from _oracles import (
    downward_closed_sets,
    oracle_incompr_set,
    oracle_is_perfect_matching,
    oracle_zeta_certificate,
    oracle_zeta_frank_wolfe,
    oracle_zeta_grid,
)
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
    SpectralWeights,
    ZetaUnconverged,
    incompr_set,
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
    assert incompr_set(single).tolist() == [[0, 0, 0]]
    s = Support(Shape(2, 2, 2), ((0, 0, 0), (1, 1, 0)))
    assert incompr_set(s).tolist() == [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]]


def test_incompr_set_downward_closed():
    rng = random.Random(41)
    for _ in range(30):
        shp = Shape(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        s = random_support(rng, shp, rng.uniform(0.2, 0.8))
        points = incompr_set(s).tolist()
        members = set(map(tuple, points))
        for (i, j, k) in points:
            for down in ((i - 1, j, k), (i, j - 1, k), (i, j, k - 1)):
                if min(down) >= 0:
                    assert down in members


def test_incompr_set_sweep_matches_oracle():
    rng = random.Random(42)
    shapes = [Shape(rng.randint(1, 6), rng.randint(1, 8), rng.randint(1, 10)) for _ in range(40)]
    shapes += [Shape(6, 8, 10), Shape(10, 1, 3), Shape(1, 1, 1)]
    for shp in shapes:
        s = random_support(rng, shp, rng.uniform(0.02, 0.4))
        assert incompr_set(s).tolist() == [list(t) for t in oracle_incompr_set(s)], s


@pytest.mark.parametrize("theta", [UNIFORM, SKEWED, POINTED])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_zeta_diagonal_normalization(r, theta):
    # the diagonal dominates the whole grid, where the uniform point is optimal: no step is taken
    s = m_one_sum(r).support()
    assert len(incompr_set(s)) == r**3
    res = zeta_full(s, theta)
    assert abs(res.value - r) <= 1e-6 and res.iterations == 0 and 0 <= res.gap < 1e-6


def test_zeta_gap_is_not_negative_where_rounding_gives_below_zero():
    # the top corner dominates the whole 2x3x4 grid, where the uniform point's
    # Frank-Wolfe gap g.max() - g.p evaluates to -6.7e-16 in floats
    s = Support(Shape(2, 3, 4), ((1, 2, 3),))
    res = zeta_full(s, UNIFORM)
    assert res.gap == 0.0 and res.iterations == 0
    assert abs(res.log2_value - math.log2(24) / 3) <= 1e-12


@pytest.mark.parametrize("shape", [Shape(2, 2, 2), Shape(3, 3, 3), Shape(2, 3, 4)], ids=["2x2x2", "3x3x3", "2x3x4"])
def test_zeta_stops_at_the_entropy_cap_over_the_rows_reached(monkeypatch, shape):
    # the optimum, log2 = 1, meets the cap over the two rows reached on each
    # axis, whatever the shape; a perfect matching of the set reaches it before any step
    s = Support(shape, ((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    res = zeta_full(s, UNIFORM)
    assert res.iterations == 0 and res.gap == 0.0 and abs(res.log2_value - 1) <= 1e-12
    assert oracle_is_perfect_matching(s, res.distribution.probs)
    assert set(res.distribution.probs.values()) == {0.5}
    # without the matching search, the distance to the cap is below 1e-8
    # after two steps, while the Frank-Wolfe gap is still above 1e-4
    monkeypatch.setattr(spectral, "_MATCH_NODES", 0)
    res = zeta_full(s, UNIFORM)
    assert res.iterations <= 2 and res.gap == 1 - res.log2_value < 1e-8
    value, frank_wolfe = oracle_zeta_frank_wolfe(s, UNIFORM.as_floats(), res.distribution.probs)
    assert abs(value - res.log2_value) <= 1e-12 and frank_wolfe > 1e-4
    assert abs(oracle_zeta_certificate(s, UNIFORM.as_floats(), res.distribution.probs)[1] - res.gap) <= 1e-12


@pytest.mark.parametrize("theta", [UNIFORM, SKEWED, POINTED, HALVES], ids=["uniform", "skewed", "pointed", "halves"])
def test_zeta_of_a_reordered_unit_tensor_is_its_rank_after_no_step(theta):
    # the unit tensor <r> has zeta r at every theta; under axis orders that
    # leave its set short of the whole grid, a perfect matching of the set
    # certifies the cap log2 r before any ascent step
    rng = random.Random(53)
    checked = 0
    for r in (2, 3, 4, 5, 6, 8):
        for _ in range(4):
            orders = AxisPermutations(*(tuple(rng.sample(range(r), r)) for _ in range(3)))
            s = apply_permutations(m_one_sum(r).support(), orders)
            if len(incompr_set(s)) == r**3:
                continue
            checked += 1
            res = zeta_full(s, theta)
            assert res.iterations == 0 and abs(res.log2_value - math.log2(r)) <= 1e-12, (s.triples, res)
            assert 0 <= res.gap < 1e-6 and oracle_is_perfect_matching(s, res.distribution.probs), s.triples
    assert checked >= 20


def test_zeta_without_the_matching_search_is_the_ascent(monkeypatch):
    # a budget of 0 gives up at the first point tried, so every answer is the
    # ascent's, as with no search at all; these 16 ascents take 192 steps
    rng = random.Random(54)
    drawn = [random_support(rng, Shape(m, m, m), rng.uniform(0.2, 0.5)) for m in (2, 3, 3, 4, 4, 5)]
    reordered = apply_permutations(m_one_sum(3).support(), AxisPermutations((2, 1, 0), (0, 1, 2), (1, 0, 2)))
    drawn += [tight_max_support(3)[0], reordered]
    matched, steps = 0, 0
    for s in drawn:
        for weights in (UNIFORM, SKEWED):
            res = zeta_full(s, weights)
            with monkeypatch.context() as patched:
                patched.setattr(spectral, "_MATCH_NODES", 0)
                ascent = zeta_full(s, weights)
                patched.setattr(spectral, "_perfect_matching", lambda *_: None)
                assert zeta_full(s, weights) == ascent
            matched += res != ascent
            steps += ascent.iterations
            assert abs(res.log2_value - ascent.log2_value) <= res.gap + ascent.gap + 1e-12, s.triples
    assert steps == 192 and matched >= 4


def test_zeta_two_point_value():
    s = Support(Shape(2, 2, 2), ((0, 0, 0), (1, 1, 0)))
    assert abs(zeta_full(s, UNIFORM).value - 2 ** (2 / 3)) <= 1e-4


def test_zeta_upper_bounds_on_seeded_supports():
    rng = random.Random(42)
    for _ in range(50):
        m = rng.randint(1, 4)
        s = random_support(rng, Shape(m, m, m), rng.uniform(0.2, 0.9))
        res = zeta_full(s, UNIFORM)
        assert res.value <= m + 1e-9
        cap = 2 ** sum(float(th) * math.log2(n) for th, n in zip(UNIFORM.as_floats(), (m, m, m)))
        assert res.value <= cap + 1e-6
        probs = res.distribution.probs
        assert all(p > 0 for p in probs.values())
        assert abs(sum(probs.values()) - 1.0) <= 1e-12
        assert set(probs) <= set(oracle_incompr_set(s))


def test_zeta_rejects_empty_and_bad_tol():
    s = Support(Shape(2, 2, 2), ())
    with pytest.raises(ValueError):
        zeta_full(s, UNIFORM)


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
        assert incompr_set(s).tolist() == [list(t) for t in points]
        res = zeta_full(s, UNIFORM)
        assert res.gap < 1e-6, (points, res.gap)
        slow = oracle_zeta_grid(points, UNIFORM.as_floats())
        assert abs(res.value - slow) <= 1e-4, (points, res.value, slow)


def test_zeta_result_distribution_is_consistent():
    s, _ = tight_max_support(3)
    res = zeta_full(s, UNIFORM)
    probs = res.distribution.probs
    assert abs(sum(probs.values()) - 1.0) <= 1e-9
    # the oracle recomputes the value and the gap from the distribution alone,
    # and rejects one that leaves the incompressibility set
    achieved, gap = oracle_zeta_certificate(s, UNIFORM.as_floats(), probs)
    assert abs(achieved - res.log2_value) <= 1e-9
    assert abs(gap - res.gap) <= 1e-9


def test_zeta_invariant_under_weight_and_axis_swap():
    s = Support(Shape(2, 3, 2), ((0, 0, 0), (1, 2, 0), (0, 1, 1)))
    swapped = Support(Shape(3, 2, 2), tuple((j, i, k) for (i, j, k) in s.triples))
    w = SpectralWeights(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    w_swapped = SpectralWeights(Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))
    assert abs(zeta_full(s, w).value - zeta_full(swapped, w_swapped).value) <= 1e-7


def test_zeta_min_over_axis_orders():
    diag = m_one_sum(3).support()
    res = zeta_min_over_axis_orders(diag, UNIFORM)
    assert res.status == "ok" and abs(res.value - 3) <= 1e-6
    s3, _ = tight_max_support(3)
    res = zeta_min_over_axis_orders(s3, UNIFORM)
    direct = zeta_full(s3, UNIFORM).value
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


def _orders_by_closure(s):
    """Every a! b! c! order, keyed by its closure: the first order's triples
    for each distinct closure."""
    found = {}
    for moved in _moved(s):
        found.setdefault(_closure(moved), moved)
    return found


def _exhaustive_order_min(s, weights, orders=None):
    """Zeta on every distinct closure of `orders` (by default
    _orders_by_closure(s)): the minimum and the set of all distinct closures."""
    orders = orders or _orders_by_closure(s)
    return min(zeta_full(Support(s.shape, moved), weights).value for moved in orders.values()), set(orders)


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
        assert abs(zeta_full(moved, weights).value - res.value) <= 1e-9


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


# an ascent that reaches SWITCH steps at uniform weights; the finish certifies it
SLOW = Support(Shape(3, 3, 3), ((0, 0, 2), (1, 0, 0), (1, 2, 0), (2, 0, 1)))


def test_zeta_with_equal_rows_reached_but_no_matching_runs_the_ascent():
    # SLOW reaches three rows on every axis, but its first-axis rows 0 and 2
    # both lie on second-axis row 0, so no three of its points are distinct on every axis
    assert (incompr_set(SLOW).max(axis=0) + 1).tolist() == [3, 3, 3]
    triples = itertools.combinations(map(tuple, incompr_set(SLOW).tolist()), 3)
    assert not any(oracle_is_perfect_matching(SLOW, dict.fromkeys(three, 1 / 3)) for three in triples)
    res = zeta_full(SLOW, UNIFORM)
    assert res.iterations > spectral.SWITCH and res.gap < 1e-6


def test_zeta_full_raises_when_the_finish_is_refused(monkeypatch, tmp_path, capsys):
    assert zeta_full(SLOW, UNIFORM).iterations > spectral.SWITCH
    with monkeypatch.context() as patched:
        patched.setattr(spectral, "_newton_finish", lambda *_: None)
        with pytest.raises(ZetaUnconverged) as caught:
            zeta_full(SLOW, UNIFORM)
        assert caught.value.iterations == spectral.SWITCH and caught.value.gap >= 1e-6
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(support_to_obj(SLOW)))
        for extra in ([], ["--min-orders"]):
            code = main(["zeta", "--in", str(path), "--theta", "1/3", "1/3", "1/3", *extra])
            report = json.loads(capsys.readouterr().out)["result"]
            assert code == EXIT_UNKNOWN and report["status"] == "unknown", extra
            assert report["reason"] == "unconverged zeta solve" and report["gap"] >= 1e-6
            assert report["iterations"] == spectral.SWITCH
    with monkeypatch.context() as patched:
        patched.setattr(spectral, "NEWTON_STEPS", 1)
        with pytest.raises(ZetaUnconverged) as caught:
            zeta_full(SLOW, UNIFORM)
        assert caught.value.iterations == spectral.SWITCH + 1 and caught.value.gap >= 1e-6


def test_zeta_full_keeps_a_certified_newton_point_with_a_lower_objective(monkeypatch):
    # the exponentiated-gradient ascent run on until its own gap is below 1e-6
    # takes about 160 steps; the Newton point's objective is about 5e-8 lower,
    # but its own gap certifies it, so it is the answer
    s = Support(Shape(3, 3, 3), ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 2, 0), (2, 1, 0)))
    res = zeta_full(s, UNIFORM)
    with monkeypatch.context() as patched:
        patched.setattr(spectral, "SWITCH", 10**6)
        ascent = zeta_full(s, UNIFORM)
    assert spectral.SWITCH < res.iterations < ascent.iterations and res.gap < 1e-7 and ascent.gap < 1e-6
    assert res.log2_value < ascent.log2_value
    assert abs(res.log2_value - ascent.log2_value) <= res.gap + ascent.gap


def test_newton_finish_sweep_is_certified():
    rng = random.Random(50)
    drawn = [random_support(rng, Shape(m, m, m), rng.uniform(0.2, 0.5)) for m in [3] * 6 + [4] * 3]
    # a perfect matching answers most cubic draws at the cap, so the sweep also
    # takes 2x3x4 draws, whose axes as a rule reach different numbers of rows
    drawn += [random_support(rng, Shape(2, 3, 4), rng.uniform(0.2, 0.5)) for _ in range(4)]
    finished = 0
    for s in (s for s in drawn if s.triples):
        # a distribution on a closure is one on every closure containing it, so
        # the exhaustive minimum lies on an inclusion-minimal closure (every
        # closure is evaluated in test_zeta_min_over_axis_orders_matches_exhaustive_minimum)
        orders = _orders_by_closure(s)
        minimal = {key: moved for key, moved in orders.items() if not any(other < key for other in orders)}
        for weights in (UNIFORM, SKEWED, POINTED, HALVES):
            res = zeta_full(s, weights)
            # by concavity the returned point's own gap bounds its distance to the maximum
            value, gap = oracle_zeta_certificate(s, weights.as_floats(), res.distribution.probs)
            assert abs(value - res.log2_value) <= 1e-9 and abs(gap - res.gap) <= 1e-9, (s.triples, weights)
            assert res.gap < 1e-6
            finished += res.iterations > spectral.SWITCH
            low = zeta_min_over_axis_orders(s, weights)
            expected, closures = _exhaustive_order_min(s, weights, minimal)
            assert low.status == "ok" and low.gap < 1e-6
            assert abs(low.value - expected) <= 1e-6, (s.triples, weights, low.value, expected)
            assert _closure(apply_permutations(s, low.permutations).triples) in closures, s.triples
    assert finished >= 3


def test_fast_ascents_report_the_gap_of_the_returned_distribution():
    # the ascent stops on the gap of the point it returns, not on that of the
    # iterate before its last step
    rng = random.Random(7)
    fast = 0
    for m in (2, 3, 4):
        for _ in range(50):
            s = random_support(rng, Shape(m, m, m), rng.uniform(0.2, 0.6))
            if not s.triples:
                continue
            res = zeta_full(s, UNIFORM)
            if res.iterations > spectral.SWITCH:
                continue
            fast += 1
            gap = oracle_zeta_certificate(s, UNIFORM.as_floats(), res.distribution.probs)[1]
            assert abs(gap - res.gap) <= 1e-9 and gap < 1e-6, (s.triples, res.gap, gap)
    assert fast >= 100


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
    [
        (oblique_not_tight_4().support(), UNIFORM),
        (tight_max_support(3)[0], SKEWED),
        (m_one_sum(3).support(), UNIFORM),
        (SLOW, UNIFORM),
    ],
    ids=["not-tight-4", "t-max(3)", "m1-sum(3)", "slow"],
)
def test_singular_newton_solve_is_unknown_only_after_a_slow_ascent(monkeypatch, s, weights):
    plain = zeta_full(s, weights)

    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "solve", singular)
        if plain.iterations <= spectral.SWITCH:
            assert zeta_full(s, weights) == plain
        else:
            with pytest.raises(ZetaUnconverged) as caught:
                zeta_full(s, weights)
            assert caught.value.iterations == spectral.SWITCH and caught.value.gap >= 1e-6
