import gc
import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from _oracles import (
    oracle_cube_canonical_form,
    oracle_cube_images,
    oracle_cube_maximal_antichains,
    oracle_free,
    oracle_max_antichain,
    oracle_oblique,
    oracle_tight,
)
from _reference import M3_ORBIT_REPRESENTATIVES
from trisupport import deciders, linalg
from trisupport.constructions import matmul, oblique_not_tight_4, tight_max_support, free_max_support
from trisupport.core import Shape, Support, apply_permutations, is_concise_support
from trisupport.deciders import (
    TightWitness,
    census,
    census_m3,
    decide_oblique,
    decide_tight,
    is_antichain,
    is_free,
    max_oblique_size,
    not_tight_certificate,
)
from trisupport.sampling import random_support


def _free_support(rng, shape, size):
    """Greedy pass over the cells in random order, keeping a cell that shares
    no coordinate pair with a kept one, cut at `size` cells."""
    cells = list(itertools.product(range(shape.a), range(shape.b), range(shape.c)))
    rng.shuffle(cells)
    used, kept = set(), []
    for i, j, k in cells:
        keys = {(0, i, j), (1, i, k), (2, j, k)}
        if len(kept) < size and used.isdisjoint(keys):
            used |= keys
            kept.append((i, j, k))
    return Support(shape, tuple(kept))


def test_is_free_examples():
    assert is_free(free_max_support(3))
    assert not is_free(Support(Shape(2, 2, 2), ((0, 0, 0), (0, 0, 1))))
    assert is_free(matmul(2).support())


def test_is_free_agrees_with_pairwise_oracle():
    rng = random.Random(37)
    verdicts = []
    for _ in range(200):
        shp = Shape(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6))
        s = random_support(rng, shp, rng.uniform(0.02, 0.3))
        verdicts.append(is_free(s))
        assert verdicts[-1] == oracle_free(s), s
    assert 40 <= sum(verdicts) <= 160, sum(verdicts)


def test_is_antichain_examples():
    assert is_antichain(tight_max_support(5)[0])
    assert not is_antichain(Support(Shape(2, 2, 2), ((0, 0, 0), (1, 1, 1))))
    assert is_antichain(oblique_not_tight_4().support())


def test_decide_tight_examples():
    diag = Support(Shape(2, 2, 2), ((0, 0, 0), (1, 1, 1)))
    w = decide_tight(diag)
    assert w is not None and w.certifies(diag)
    s5, _ = tight_max_support(5)
    w = decide_tight(s5)
    assert w is not None and w.certifies(s5)
    assert decide_tight(oblique_not_tight_4().support()) is None


def test_decide_tight_witness_always_verifies():
    rng = random.Random(10)
    for _ in range(100):
        m = rng.randint(1, 4)
        s = random_support(rng, Shape(m, m, m), rng.uniform(0.1, 0.7))
        w = decide_tight(s)
        if w is not None:
            assert w.certifies(s)


def test_decide_tight_agrees_with_bounded_oracle():
    shape = Shape(3, 3, 3)
    verts = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    for t in verts:
        s = Support(shape, (t,))
        assert oracle_tight(s) == (decide_tight(s) is not None)
    rng = random.Random(12)
    for _ in range(60):
        s = Support(shape, tuple(rng.sample(verts, rng.randint(2, 5))))
        assert oracle_tight(s) == (decide_tight(s) is not None)


def _refutation_draws(rng, count):
    """Seeded supports on non-cubical shapes up to 9x9x9: random ones, which
    are mostly not free, and greedy free ones."""
    for n in range(count):
        shape = Shape(rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9))
        if n % 2:
            yield random_support(rng, shape, rng.uniform(0.02, 0.3))
        else:
            yield _free_support(rng, shape, rng.randint(1, shape.a * shape.b))


def _assert_refutes(s, cert):
    """The certifying triples lie in the support, and their dense incidence
    rows with signs + - (two triples) or + - - + (four) sum to c (e_u - e_v)
    for c != 0 and two values u != v of one axis."""
    assert len(set(cert)) == len(cert) in (2, 4) and set(cert) <= set(s.triples), cert
    a, b, c = s.shape
    total = [0] * (a + b + c)
    for sign, (i, j, k) in zip((1, -1, -1, 1) if len(cert) == 4 else (1, -1), cert):
        for col in (i, a + j, a + b + k):
            total[col] += sign
    nonzero = [col for col, v in enumerate(total) if v]
    assert len(nonzero) == 2 and total[nonzero[0]] == -total[nonzero[1]], (cert, total)
    axis = [0 if col < a else 1 if col < a + b else 2 for col in nonzero]
    assert axis[0] == axis[1], (cert, total)


def test_not_tight_certificates_verify_and_agree_with_the_exact_path(monkeypatch):
    draws = list(_refutation_draws(random.Random(17), 600))
    certs = [not_tight_certificate(s) for s in draws]
    got = [decide_tight(s) for s in draws]
    monkeypatch.setattr(deciders, "not_tight_certificate", lambda s: None)
    assert got == [decide_tight(s) for s in draws]
    kinds = Counter()
    for s, cert in zip(draws, certs):
        if cert is not None:
            _assert_refutes(s, cert)
            kinds[len(cert), is_free(s)] += 1
        else:
            kinds[0, is_free(s)] += 1
    # both refutations occur, and so do inputs left to the exact path
    assert set(kinds) == {(2, False), (4, True), (0, True)}, kinds
    assert min(kinds.values()) >= 50, kinds


def test_tight_and_intercalate_free_supports_are_not_refuted(monkeypatch):
    for m in range(2, 13):
        assert not_tight_certificate(tight_max_support(m)[0]) is None
    # no intercalate, yet not tight: the exact path still answers None
    calls = []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda rows, ncols: calls.append(ncols) or nullspace(rows, ncols))
    supports = [oblique_not_tight_4().support()] + [free_max_support(m) for m in (3, 5, 7)]
    for s in supports:
        assert not_tight_certificate(s) is None
        assert decide_tight(s) is None
    assert len(calls) == len(supports)


TIGHT_GOLDEN = Path(__file__).parent / "golden" / "tight_witnesses.json"


def _tight_golden_supports():
    out = [(f"t-max({m})", tight_max_support(m)[0]) for m in range(2, 25)]
    out += [(f"f-max({m})", free_max_support(m)) for m in range(2, 10)]
    out += [(f"census(3)[{n}]", rep) for n, rep in enumerate(census(3).representatives)]
    out.append(("oblique-not-tight-4", oblique_not_tight_4().support()))
    rng = random.Random(24)
    out += [(f"draw-{n}", s) for n, s in enumerate(_refutation_draws(rng, 270))]
    for n in range(30):
        m = (8, 12, 16, 20, 24)[n % 5]
        out.append((f"cube-{n}", _free_support(rng, Shape(m, m, m), round(rng.uniform(0.15, 0.6) * m * m))))
    return out


def _tight_golden_record(name, s):
    w = decide_tight(s)
    cert = not_tight_certificate(s)
    return {
        "name": name,
        "size": len(s),
        "witness": None if w is None else [list(w.tau_a), list(w.tau_b), list(w.tau_c)],
        "certificate": None if cert is None else [list(t) for t in cert],
    }


def test_tight_witnesses_and_certificates_match_golden():
    # recorded before the integer-keyed certificate scan and the signed
    # residues of `linalg._kernel`: every witness and certificate, exactly
    golden = json.loads(TIGHT_GOLDEN.read_text())
    for (name, s), want in zip(_tight_golden_supports(), golden, strict=True):
        assert _tight_golden_record(name, s) == want, name


def test_tight_implies_oblique_implies_free():
    rng = random.Random(13)
    for _ in range(200):
        m = rng.randint(2, 4)
        s = random_support(rng, Shape(m, m, m), rng.uniform(0.1, 0.6))
        w = decide_tight(s)
        if w is None:
            continue
        res = decide_oblique(s)
        assert res.status == "oblique"
        moved = apply_permutations(s, res.witness)
        assert is_antichain(moved)
        assert is_free(moved)


def test_accepted_cube_supports_respect_size_bound():
    rng = random.Random(14)
    for _ in range(150):
        m = rng.randint(2, 4)
        s = random_support(rng, Shape(m, m, m), rng.uniform(0.1, 0.6))
        if decide_tight(s) is not None:
            assert len(s) <= (3 * m * m + 3) // 4


def test_decide_oblique_examples():
    s5, _ = tight_max_support(5)
    res = decide_oblique(s5)
    assert res.status == "oblique"
    res = decide_oblique(oblique_not_tight_4().support())
    assert res.status == "oblique"
    assert is_antichain(apply_permutations(oblique_not_tight_4().support(), res.witness))
    full = Support(Shape(2, 2, 2), tuple(itertools.product(range(2), repeat=3)))
    assert decide_oblique(full).status == "not_oblique"


def test_decide_oblique_agrees_with_exhaustive_order_oracle(monkeypatch):
    # free draws with the tight fast path off, so that every draw reaches the
    # search instead of being settled by is_free or decide_tight
    monkeypatch.setattr(deciders, "decide_tight", lambda s, seed=0: None)
    rng = random.Random(15)
    verdicts = set()
    for _ in range(120):
        m = rng.randint(2, 3)
        s = _free_support(rng, Shape(m, m, m), rng.randint(2, m * m))
        res = decide_oblique(s)
        assert res.status != "unknown" and res.nodes > 0
        assert (res.status == "oblique") == oracle_oblique(s), s.triples
        verdicts.add(res.status)
    assert verdicts == {"oblique", "not_oblique"}


def test_decide_oblique_agrees_with_oracle_on_non_cubical_shapes(monkeypatch):
    # on cubes a mix-up between the second and third axis cannot show; the
    # tight fast path is switched off so that every draw reaches the search
    monkeypatch.setattr(deciders, "decide_tight", lambda s, seed=0: None)
    rng = random.Random(16)
    for dims in ((2, 3, 4), (4, 3, 2), (3, 2, 4), (3, 4, 2), (2, 4, 3), (4, 2, 3)):
        shape = Shape(*dims)
        for _ in range(10):
            s = _free_support(rng, shape, rng.randint(3, 8))
            res = decide_oblique(s)
            assert res.status != "unknown"
            assert (res.status == "oblique") == oracle_oblique(s), (dims, s.triples)


def test_decide_oblique_refutes_free_non_antichain_supports():
    # free supports larger than the maximum antichain force the search to
    # exhaust every first-axis order, each refuted before a second-axis node;
    # a refuted prefix counts its orders in one step, so m = 10 is fast
    for m in range(2, 11):
        f = free_max_support(m)
        assert is_free(f)
        assert len(f) > max_oblique_size(m, m, m)[0]
        res = decide_oblique(f)
        assert res.status == "not_oblique"
        assert res.nodes == math.factorial(m)


# (m, size) -> ((status, nodes) at the default budget and at budgets 1, 17 and
# 1000, the default budget's witness) for the seeded draws of the test below.
# Recorded from the search before it was rewritten around one forcing rule,
# and the m = 8 rows from the search before refuted first-axis prefixes were
# counted in bulk; the CLI's --budget and the benchmark rely on the node
# counts, not only on the verdicts.
OBLIQUE_GOLDEN = {
    (5, 9): ([("oblique", 8), ("unknown", 1), ("oblique", 8), ("oblique", 8)],
             ((0, 1, 2, 3, 4), (0, 2, 1, 4, 3), (3, 2, 1, 0, 4))),
    (5, 10): ([("oblique", 0), ("oblique", 0), ("oblique", 0), ("oblique", 0)],
              ((2, 3, 0, 4, 1), (3, 2, 1, 0, 4), (4, 3, 2, 0, 1))),
    (5, 11): ([("oblique", 0), ("oblique", 0), ("oblique", 0), ("oblique", 0)],
              ((2, 3, 0, 1, 4), (1, 2, 3, 0, 4), (4, 2, 0, 3, 1))),
    (5, 12): ([("oblique", 18), ("unknown", 1), ("unknown", 17), ("oblique", 18)],
              ((0, 3, 1, 4, 2), (3, 0, 4, 2, 1), (3, 4, 0, 1, 2))),
    (6, 13): ([("oblique", 156), ("unknown", 1), ("unknown", 17), ("oblique", 156)],
              ((2, 0, 1, 5, 3, 4), (5, 2, 0, 4, 1, 3), (3, 5, 4, 0, 2, 1))),
    (6, 14): ([("not_oblique", 720), ("unknown", 1), ("unknown", 17), ("not_oblique", 720)], None),
    (6, 16): ([("not_oblique", 793), ("unknown", 1), ("unknown", 17), ("not_oblique", 793)], None),
    (6, 18): ([("not_oblique", 746), ("unknown", 1), ("unknown", 17), ("not_oblique", 746)], None),
    (7, 17): ([("oblique", 18), ("unknown", 1), ("unknown", 17), ("oblique", 18)],
              ((0, 1, 2, 5, 3, 4, 6), (5, 3, 6, 0, 4, 1, 2), (0, 1, 4, 3, 2, 6, 5))),
    (7, 20): ([("not_oblique", 5617), ("unknown", 1), ("unknown", 17), ("unknown", 1000)], None),
    (7, 22): ([("not_oblique", 5077), ("unknown", 1), ("unknown", 17), ("unknown", 1000)], None),
    (7, 24): ([("not_oblique", 5040), ("unknown", 1), ("unknown", 17), ("unknown", 1000)], None),
    (8, 22): ([("not_oblique", 46672), ("unknown", 1), ("unknown", 17), ("unknown", 1000)], None),
    (8, 26): ([("not_oblique", 40320), ("unknown", 1), ("unknown", 17), ("unknown", 1000)], None),
    (8, 29): ([("not_oblique", 40320), ("unknown", 1), ("unknown", 17), ("unknown", 1000)], None),
    (8, 32): ([("not_oblique", 40320), ("unknown", 1), ("unknown", 17), ("unknown", 1000)], None),
}


def _golden_draws():
    rng = random.Random(79)
    for m in (5, 6, 7, 8):
        for frac in (0.35, 0.4, 0.45, 0.5):
            yield m, _free_support(rng, Shape(m, m, m), round(frac * m * m))


def test_decide_oblique_verdicts_nodes_and_witnesses_are_pinned():
    for m, s in _golden_draws():
        rows, witness = OBLIQUE_GOLDEN[(m, len(s))]
        results = [decide_oblique(s)] + [decide_oblique(s, budget=k) for k in (1, 17, 1000)]
        assert [(r.status, r.nodes) for r in results] == rows, (m, len(s))
        w = results[0].witness
        assert (None if w is None else (w.on_a, w.on_b, w.on_c)) == witness, (m, len(s))
        if w is not None:
            assert is_antichain(apply_permutations(s, w)), (m, len(s))


def test_decide_oblique_budget_exhaustion_is_unknown():
    s = free_max_support(5)
    for k in (0, 1, 5, 100):
        res = decide_oblique(s, budget=k)
        assert (res.status, res.witness, res.nodes) == ("unknown", None, k)
    # a budget is exceeded, not met, by the last node: refuted prefixes
    # count their orders in bulk, and the boundary stays where it was
    f6 = free_max_support(6)
    res = decide_oblique(f6, budget=719)
    assert (res.status, res.witness, res.nodes) == ("unknown", None, 719)
    res = decide_oblique(f6, budget=720)
    assert (res.status, res.witness, res.nodes) == ("not_oblique", None, 720)
    s7 = next(s for m, s in _golden_draws() if (m, len(s)) == (7, 20))
    nodes = OBLIQUE_GOLDEN[(7, 20)][0][0][1]
    assert decide_oblique(s7, budget=nodes - 1) == deciders.ObliqueResult("unknown", None, nodes - 1)
    assert decide_oblique(s7, budget=nodes) == deciders.ObliqueResult("not_oblique", None, nodes)
    # every budget below a search's node count N answers unknown with that
    # budget, and N and N + 1 give the default answer, witness included, so
    # that no batch of node counts can carry the search past its budget
    draws = {(m, len(s)): s for m, s in _golden_draws()}
    for t in [s, f6] + [draws[key] for key in ((5, 12), (6, 13), (7, 17))]:
        full = decide_oblique(t)
        for k in range(full.nodes):
            assert decide_oblique(t, budget=k) == deciders.ObliqueResult("unknown", None, k), (t.shape, len(t), k)
        for k in (full.nodes, full.nodes + 1):
            assert decide_oblique(t, budget=k) == full, (t.shape, len(t), k)
    # not-free inputs are refuted without search regardless of budget
    bad = Support(Shape(2, 2, 2), ((0, 0, 0), (0, 0, 1)))
    assert decide_oblique(bad, budget=0).status == "not_oblique"
    with pytest.raises(ValueError):
        decide_oblique(s, budget=-1)


def test_oblique_search_leaves_no_cyclic_garbage():
    # a reference cycle left by each call (a recursive closure, a suspended
    # generator) lives until the next collection and raises the peak memory
    # of a long run of searches
    supports = [s for _, s in _golden_draws()] + [free_max_support(m) for m in range(2, 9)]
    gc.collect()
    gc.disable()
    try:
        for s in supports:
            decide_oblique(s)
            decide_oblique(s, budget=17)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_max_oblique_size_formulas():
    for m in range(1, 7):
        bound, achieving = max_oblique_size(m, m, m)
        assert bound == (3 * m * m + 3) // 4
        assert len(achieving) == bound
        assert is_antichain(achieving)
    assert max_oblique_size(2, 2, 4)[0] == 4
    assert max_oblique_size(2, 3, 3)[0] == 5


def test_max_oblique_size_matches_exhaustive_search():
    for a in range(1, 4):
        for b in range(a, 4):
            for c in range(b, 4):
                assert max_oblique_size(a, b, c)[0] == oracle_max_antichain(Shape(a, b, c))
    assert max_oblique_size(2, 2, 4)[0] == oracle_max_antichain(Shape(2, 2, 4))
    assert max_oblique_size(2, 3, 3)[0] == oracle_max_antichain(Shape(2, 3, 3))


@pytest.fixture(scope="module")
def report():
    return census_m3()


class TestCensus:
    def test_counts(self, report):
        assert report.maximal_count == 144
        assert report.concise_count == 80
        assert report.orbit_count == 13

    def test_orbits_partition(self, report):
        assert sum(report.orbit_sizes) == 80
        assert len(report.representatives) == 13

    def test_every_representative_tight(self, report):
        for rep, w in zip(report.representatives, report.witnesses):
            assert w is not None
            assert w.certifies(rep)

    def test_canonical_form_is_group_invariant(self, report):
        for rep in report.representatives:
            canon = oracle_cube_canonical_form(rep)
            assert rep.triples == canon
            for img in oracle_cube_images(rep):
                assert oracle_cube_canonical_form(Support(rep.shape, img)) == canon

    def test_reference_representatives_match_bijectively(self, report):
        shape = Shape(3, 3, 3)
        computed = {tuple(r.triples) for r in report.representatives}
        seen = set()
        for triples, _taus, _ok in M3_ORBIT_REPRESENTATIVES:
            canon = oracle_cube_canonical_form(Support(shape, triples))
            assert canon in computed
            seen.add(canon)
        assert len(seen) == 13

    def test_reference_weight_rows(self, report):
        shape = Shape(3, 3, 3)
        for triples, taus, printed_ok in M3_ORBIT_REPRESENTATIVES:
            s = Support(shape, triples)
            assert is_concise_support(s)
            assert is_antichain(s)
            w = TightWitness(*taus)
            assert w.certifies(s) == printed_ok
            assert decide_tight(s) is not None


@pytest.mark.parametrize("m", [1, 2, 3])
def test_census_matches_the_oracle_grouping(m):
    # representatives in order, with their orbit sizes, from down-set enumeration and tuple canonical forms
    shape = Shape(m, m, m)
    maximal = oracle_cube_maximal_antichains(m)
    concise = [a for a in maximal if all(len({t[d] for t in a}) == m for d in range(3))]
    orbits = Counter(oracle_cube_canonical_form(Support(shape, a)) for a in concise)
    rep = census(m)
    assert (rep.maximal_count, rep.concise_count, rep.orbit_count) == (len(maximal), len(concise), len(orbits))
    assert [r.triples for r in rep.representatives] == sorted(orbits)
    assert list(rep.orbit_sizes) == [orbits[c] for c in sorted(orbits)]


def test_census_m3_is_census_3():
    assert census_m3(seed=1) == census(3, seed=1)
    with pytest.raises(ValueError):
        census(0)


def test_census_m4_counts():
    rep = census(4)
    assert (rep.maximal_count, rep.concise_count, rep.orbit_count) == (10_631, 6_278, 591)
    assert sum(w is None for w in rep.witnesses) == 87
    assert all(w.certifies(r) for r, w in zip(rep.representatives, rep.witnesses) if w is not None)
    # each representative is its orbit's smallest image, and its orbit is its set of images
    for r, size in zip(rep.representatives, rep.orbit_sizes):
        images = oracle_cube_images(r)
        assert r.triples == min(images) and size == len(set(images))
    assert sum(rep.orbit_sizes) == 6_278
