import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from _oracles import oracle_box_sizes, oracle_multicompressibility, oracle_total_compressibility
from trisupport import compress
from trisupport.compress import (
    find_zero_box,
    multicompressibility,
    slice_cover,
    total_compressibility,
)
from trisupport.constructions import (
    CATALOG,
    construct,
    coppersmith_winograd,
    m_one_sum,
    not_tight_compressible_4,
    t_std,
    tight_max_support,
)
from trisupport.core import Shape, Support, Tensor, apply_permutations
from trisupport.sampling import random_support

GOLDEN = Path(__file__).parent / "golden" / "zero_boxes.json"


def full_support(a, b, c):
    return Support(Shape(a, b, c), tuple(itertools.product(range(a), range(b), range(c))))


def test_find_zero_box_examples():
    s5, _ = tight_max_support(5)
    box = find_zero_box(s5, 3, 3, 2)
    assert box is not None and box.dims() == (3, 3, 2) and box.avoids(s5)
    assert find_zero_box(full_support(2, 2, 2), 1, 1, 1) is None
    cw = coppersmith_winograd(2).support()
    box = find_zero_box(cw, 1, 2, 1)
    assert box is not None and box.avoids(cw)
    # dense supports admit no positive coordinate box at all
    assert find_zero_box(t_std(4).support(), 1, 1, 1) is None


def test_find_zero_box_zero_dims_and_validation():
    s = full_support(2, 2, 2)
    assert find_zero_box(s, 0, 2, 2) is not None
    with pytest.raises(ValueError):
        find_zero_box(s, 3, 0, 0)


def test_find_zero_box_monotone():
    rng = random.Random(31)
    for _ in range(40):
        shp = Shape(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        s = random_support(rng, shp, rng.uniform(0.2, 0.7))
        a1 = rng.randint(0, shp.a)
        b1 = rng.randint(0, shp.b)
        c1 = rng.randint(0, shp.c)
        if find_zero_box(s, a1, b1, c1) is not None:
            smaller = (max(a1 - 1, 0), b1, max(c1 - 1, 0))
            assert find_zero_box(s, *smaller) is not None


@pytest.mark.parametrize("m", range(3, 8))
def test_tight_supports_admit_half_boxes_after_sorting(m):
    s, w = tight_max_support(m)
    sorted_s = apply_permutations(s, w.sorting_permutations())
    hi, lo = (m + 1) // 2, m // 2
    splits = {(hi, hi, lo), (hi, lo, hi), (lo, hi, hi)}
    assert any(find_zero_box(sorted_s, *sp) is not None for sp in splits)


def test_census_representatives_admit_half_boxes():
    from trisupport.deciders import census_m3

    rep = census_m3()
    for support, w in zip(rep.representatives, rep.witnesses):
        sorted_s = apply_permutations(support, w.sorting_permutations())
        assert any(
            find_zero_box(sorted_s, *sp) is not None for sp in {(2, 2, 1), (2, 1, 2), (1, 2, 2)}
        )


def test_multicompressibility_bounds():
    for m in (3, 4, 5):
        s, _ = tight_max_support(m)
        assert multicompressibility(s) >= 3 * (m // 2) + 1
    for q in (1, 2):
        assert multicompressibility(coppersmith_winograd(q).support()) >= 2 * q + 1
        assert multicompressibility(coppersmith_winograd(q, big=True).support()) >= 2 * q + 3
    assert multicompressibility(not_tight_compressible_4().support()) >= 6


def test_slice_cover_examples():
    assert slice_cover(m_one_sum(4).support()).size == 4
    assert slice_cover(Support(Shape(1, 1, 1), ((0, 0, 0),))).size == 1
    s3, _ = tight_max_support(3)
    cov = slice_cover(s3)
    kappa, box = total_compressibility(s3)
    assert cov.covers(s3)
    assert box.avoids(s3)
    assert cov.size + kappa == 9
    assert cov.size == 9 - kappa


def test_cover_compressibility_duality_on_seeded_supports():
    rng = random.Random(32)
    for _ in range(100):
        shp = Shape(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        s = random_support(rng, shp, rng.uniform(0.15, 0.8))
        kappa, box = total_compressibility(s)
        cov = slice_cover(s)
        assert kappa == oracle_total_compressibility(s)
        assert cov.size + kappa == shp.a + shp.b + shp.c
        assert box.avoids(s)
        assert cov.covers(s)


@pytest.mark.parametrize("n, density, size", [(14, 0.03, 14), (18, 0.03, 18), (24, 0.03, 24), (24, 0.08, 24)])
def test_slice_cover_on_sparse_cubes(n, density, size):
    # the depth-first search alone took 0.25 s, 1.9 s, over 60 s and 5 s on these
    s = random_support(random.Random(1811), Shape(n, n, n), density)
    cov = slice_cover(s)
    assert cov.covers(s)
    assert cov.size == size


def _root_matching(s: Support) -> list[tuple[int, int, int]]:
    """The search's root lower bound: triples taken lowest first, each one
    dropping every later triple that shares a slice with it."""
    matched: list[tuple[int, int, int]] = []
    for t in s.triples:
        if all(t[axis] != u[axis] for u in matched for axis in range(3)):
            matched.append(t)
    return matched


def test_root_matching_bounds_the_minimum_cover():
    rng = random.Random(43)
    certified = 0
    for _ in range(200):
        shp = Shape(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        s = random_support(rng, shp, rng.uniform(0.1, 0.8))
        minimum = shp.a + shp.b + shp.c - oracle_total_compressibility(s)
        matched = len(_root_matching(s))
        assert matched <= minimum, s
        certified += matched == minimum
    # the root matching alone equals the minimum on 190 of these
    assert certified >= 180


def test_zero_box_searches_match_brute_force_oracle():
    rng = random.Random(33)
    supports = [not_tight_compressible_4().support(), coppersmith_winograd(1).support()]
    for _ in range(150):
        shp = Shape(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        supports.append(random_support(rng, shp, rng.uniform(0.15, 0.8)))
    for s in supports:
        sizes = oracle_box_sizes(s)
        a, b, c = s.shape
        for dims in itertools.product(range(a + 1), range(b + 1), range(c + 1)):
            box = find_zero_box(s, *dims)
            assert (box is not None) == (dims in sizes), (s, dims)
            assert box is None or (box.dims() == dims and box.avoids(s))
        kappa, box = total_compressibility(s)
        assert kappa == oracle_total_compressibility(s) == sum(box.dims())
        _assert_multicompressibility_matches_oracle(s)


def _assert_multicompressibility_matches_oracle(s: Support) -> None:
    want = oracle_multicompressibility(s)
    for path in (multicompressibility, compress._multicompressibility_table, compress._multicompressibility_search):
        assert path(s) == want, (path.__name__, s)


def test_multicompressibility_matches_oracle_past_4x4x4():
    rng = random.Random(34)
    for _ in range(30):
        shp = Shape(rng.randint(4, 6), rng.randint(4, 6), rng.randint(4, 6))
        s = random_support(rng, shp, rng.uniform(0.1, 0.5))
        _assert_multicompressibility_matches_oracle(s)


def test_grown_zero_boxes_are_maximal():
    rng = random.Random(35)
    found = 0
    for _ in range(60):
        shp = Shape(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
        s = random_support(rng, shp, rng.uniform(0.1, 0.6))
        box = find_zero_box(s, 1, 1, 1)
        if box is None:
            continue
        found += 1
        for first in range(3):
            grown = compress._grow_zero_box(s.shape, compress._pair_masks(s), box, first)
            sets = [grown.i_set, grown.j_set, grown.k_set]
            assert all(set(old) <= set(new) for old, new in zip((box.i_set, box.j_set, box.k_set), sets))
            for axis, n in enumerate(shp):
                for v in set(range(n)) - set(sets[axis]):
                    bigger = list(sets)
                    bigger[axis] = sets[axis] + (v,)
                    assert not compress.ZeroBox(*bigger).avoids(s)
    assert found >= 40


def test_growing_from_a_maximal_axis_equals_growing_from_the_next():
    # the multicompressibility search skips a starting axis along which its box is maximal already
    skipped = 0
    for s in _seeded_supports(36, 40, 4):
        tables = compress._pair_masks(s)
        find = compress._box_finder(s)
        for dims in itertools.product(*(range(1, n + 1) for n in s.shape)):
            box = find(*dims)
            if box is None:
                continue
            sets = [box.i_set, box.j_set, box.k_set]
            grown = [compress._grow_zero_box(s.shape, tables, box, d) for d in range(3)]
            for d, n in enumerate(s.shape):
                if len(sets[d]) + compress._blocked(tables, sets, d).bit_count() == n:
                    skipped += 1
                    assert grown[d] == grown[(d + 1) % 3], (s, box, d)
    assert skipped >= 100


def _counted_searches(monkeypatch) -> list[tuple[int, int, int]]:
    """Record the split of every search a `_box_finder` runs from now on."""
    calls: list[tuple[int, int, int]] = []
    real = compress._box_finder

    def counted_finder(s):
        find = real(s)

        def counted(*dims):
            calls.append(dims)
            return find(*dims)

        return counted

    monkeypatch.setattr(compress, "_box_finder", counted_finder)
    return calls


@pytest.mark.parametrize(
    "s, value, plain_scan_calls",
    [
        (tight_max_support(7)[0], 11, 307),
        (coppersmith_winograd(3, big=True).support(), 10, 181),
    ],
)
def test_multicompressibility_skips_dominated_splits(monkeypatch, s, value, plain_scan_calls):
    # a search per split of every level costs plain_scan_calls; grown witnesses
    # must settle all but a tenth of them
    calls = _counted_searches(monkeypatch)
    assert compress._multicompressibility_search(s) == value
    assert 0 < len(calls) <= plain_scan_calls // 10, calls


def _seeded_supports(seed: int, count: int, max_dim: int) -> list[Support]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        shp = Shape(rng.randint(1, max_dim), rng.randint(1, max_dim), rng.randint(1, max_dim))
        out.append(random_support(rng, shp, rng.uniform(0.1, 0.7)))
    return out


def _catalog_supports(max_dim: int) -> list[Support]:
    out = []
    for cid, (_, sized) in CATALOG.items():
        for param in range(1, max_dim + 1) if sized else (None,):
            built = construct(cid, param)
            s = built[0] if isinstance(built, tuple) else built
            s = s.support() if isinstance(s, Tensor) else s
            if max(s.shape) <= max_dim:
                out.append(s)
    return out


def test_shared_finder_matches_fresh_searches():
    # every split of a support, in a shuffled order, through one finder: a
    # mask table cached for one axis orientation must not answer another
    rng = random.Random(37)
    supports = _seeded_supports(38, 60, 5)
    assert any(len(set(s.shape)) == 3 for s in supports)
    for s in supports:
        find = compress._box_finder(s)
        splits = list(itertools.product(*(range(n + 1) for n in s.shape)))
        rng.shuffle(splits)
        for dims in splits:
            assert find(*dims) == find_zero_box(s, *dims), (s, dims)
        with pytest.raises(ValueError, match="box sizes must lie between 0 and the shape"):
            find(s.shape.a + 1, 0, 0)


def test_multicompressibility_matches_oracle_on_non_cubic_shapes_and_catalog():
    rng = random.Random(39)
    shapes = [shp for shp in itertools.product(range(2, 6), repeat=3) if len(set(shp)) == 3]
    supports = [random_support(rng, Shape(*shp), rng.uniform(0.1, 0.6)) for shp in shapes for _ in range(2)]
    for s in supports + _catalog_supports(7):
        _assert_multicompressibility_matches_oracle(s)


def test_multicompressibility_table_and_search_agree(monkeypatch):
    rng = random.Random(41)
    cubes = [random_support(rng, Shape(9, 9, 9), density) for density in (0.05, 0.1, 0.2, 0.4)]
    for s in _seeded_supports(42, 150, 9) + cubes + _catalog_supports(9):
        assert compress._multicompressibility_table(s) == compress._multicompressibility_search(s), s
    # 8 + 8 smaller-axis indices fit the table; 10 + 10 do not
    calls = _counted_searches(monkeypatch)
    multicompressibility(random_support(rng, Shape(8, 8, 8), 0.2))
    assert calls == []
    multicompressibility(tight_max_support(10)[0])
    assert calls


def test_multicompressibility_search_count(monkeypatch):
    # no split with a zero part is searched; the total is pinned so that a
    # weaker dominance test shows as more searches (536 when each search
    # rebuilt its set-up and zero-part splits were searched too)
    calls = _counted_searches(monkeypatch)
    for s in _seeded_supports(40, 40, 6) + _catalog_supports(7):
        compress._multicompressibility_search(s)
    assert all(all(dims) for dims in calls)
    assert len(calls) == 441


def test_slice_cover_bounds_slice_decomposition():
    # a cover of the support is a valid slice decomposition certificate
    t = t_std(3)
    assert slice_cover(t.support()).size <= 3


def _golden_supports():
    rng = random.Random(36)
    out = []
    for n in range(40):
        shp = Shape(rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7))
        out.append((f"random-{n}", random_support(rng, shp, rng.uniform(0.1, 0.6))))
    out += [(f"t-max({m})", tight_max_support(m)[0]) for m in (4, 5, 6, 7)]
    out += [(f"cw-small({q})", coppersmith_winograd(q).support()) for q in (2, 3)]
    out += [(f"cw-big({q})", coppersmith_winograd(q, big=True).support()) for q in (2, 3)]
    out.append(("not-tight-compressible-4", not_tight_compressible_4().support()))
    return out


def test_zero_boxes_and_covers_match_golden():
    # recorded from the set-based searches: the exact box, or None, at every
    # size split (as a digest of the JSON list) and the minimum cover's slices
    golden = json.loads(GOLDEN.read_text())
    for (name, s), want in zip(_golden_supports(), golden, strict=True):
        boxes = [
            None if box is None else [list(box.i_set), list(box.j_set), list(box.k_set)]
            for box in (find_zero_box(s, *dims) for dims in itertools.product(*(range(n + 1) for n in s.shape)))
        ]
        got = {
            "name": name,
            "size": len(s),
            "found": sum(box is not None for box in boxes),
            "boxes_sha256": hashlib.sha256(json.dumps(boxes).encode()).hexdigest(),
            "cover": [list(sl) for sl in slice_cover(s).slices],
        }
        assert got == want, name
