import random
from pathlib import Path

import pytest

from trisupport.arrangement import (
    build_arrangement,
    joint_free_subarrangement,
    joint_support,
    joints,
    render_svg,
)
from trisupport.constructions import tight_max_support
from trisupport.core import Shape
from trisupport.deciders import TightWitness, decide_tight
from trisupport.sampling import random_support

GOLDEN = Path(__file__).parent / "golden" / "arrangement_tmax3.svg"

W3 = TightWitness((-1, 0, 1), (-1, 0, 1), (-1, 0, 1))


def test_build_arrangement_counts():
    arr = build_arrangement(W3)
    assert (len(arr.xs), len(arr.ys), len(arr.zs)) == (3, 3, 3)
    with pytest.raises(ValueError):
        build_arrangement(TightWitness((0, 0), (0, 1), (0, 1)))


def test_single_line_arrangements():
    one = build_arrangement(TightWitness((2,), (3,), (-5,)))
    assert len(joints(one)) == 1  # offsets sum to zero
    none = build_arrangement(TightWitness((2,), (3,), (4,)))
    assert len(joints(none)) == 0


def test_joints_of_symmetric_witness():
    arr = build_arrangement(W3)
    js = joints(arr)
    assert len(js) == 7
    for j in js:
        assert arr.xs[j.triple[0]] + arr.ys[j.triple[1]] + arr.zs[j.triple[2]] == 0
    # the weighting maps the certified support onto exactly these joints
    s13 = tight_max_support(3)[0]
    assert joint_support(arr).triples == s13.triples


def test_joints_are_computed_once_per_arrangement():
    arr = build_arrangement(W3)
    assert joints(arr) is joints(arr)
    # the cached joints take no part in equality or hashing
    fresh = build_arrangement(W3)
    assert arr == fresh and hash(arr) == hash(fresh) and len({arr, fresh}) == 1
    assert repr(arr) == repr(fresh)
    assert joint_support(fresh).triples == tuple(sorted(j.triple for j in joints(arr)))


def test_tight_support_maps_injectively_into_joints():
    rng = random.Random(51)
    hits = 0
    while hits < 12:
        m = rng.randint(2, 4)
        s = random_support(rng, Shape(m, m, m), rng.uniform(0.1, 0.5))
        w = decide_tight(s)
        if w is None:
            continue
        hits += 1
        arr = build_arrangement(w)
        jset = {j.point for j in joints(arr)}
        images = {
            (w.tau_a[i], w.tau_b[j]) for (i, j, k) in s.triples
        }
        assert len(images) == len(s)  # injective
        assert images <= jset


def test_joint_free_subarrangement():
    s5, w5 = tight_max_support(5)
    arr = build_arrangement(w5)
    sub = joint_free_subarrangement(arr, 3, 3, 2)
    assert sub is not None
    assert len(joints(sub)) == 0
    one = build_arrangement(TightWitness((2,), (3,), (-5,)))
    assert joint_free_subarrangement(one, 1, 1, 1) is None
    full = build_arrangement(W3)
    assert joint_free_subarrangement(full, 3, 3, 3) is None
    with pytest.raises(ValueError):
        joint_free_subarrangement(full, 0, 1, 1)


def test_render_svg_counts():
    text = render_svg(build_arrangement(W3))
    assert text.count("<line") == 9
    assert text.count("<circle") == 7
    empty = render_svg(build_arrangement(TightWitness((2,), (3,), (4,))))
    assert empty.count("<circle") == 0


def test_render_svg_golden_bytes(tmp_path):
    out = tmp_path / "arr.svg"
    text = render_svg(build_arrangement(W3), out)
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert text.encode("ascii") == GOLDEN.read_bytes()
    # repeated renders are byte-identical
    assert render_svg(build_arrangement(W3)) == text
