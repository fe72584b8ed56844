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
    coppersmith_winograd,
    m_one_sum,
    not_tight_compressible_4,
    t_std,
    tight_max_support,
)
from trisupport.core import Shape, Support, apply_permutations
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
        assert multicompressibility(s) == oracle_multicompressibility(s)


def test_multicompressibility_matches_oracle_past_4x4x4():
    rng = random.Random(34)
    for _ in range(30):
        shp = Shape(rng.randint(4, 6), rng.randint(4, 6), rng.randint(4, 6))
        s = random_support(rng, shp, rng.uniform(0.1, 0.5))
        assert multicompressibility(s) == oracle_multicompressibility(s), s


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
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return find_zero_box(*args)

    monkeypatch.setattr(compress, "find_zero_box", counted)
    assert multicompressibility(s) == value
    assert len(calls) <= plain_scan_calls // 10, calls


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
