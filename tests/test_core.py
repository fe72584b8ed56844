import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from trisupport.core import (
    AxisPermutations,
    Shape,
    ShapeError,
    Support,
    Tensor,
    apply_permutations,
    direct_sum,
    is_concise_support,
    kronecker,
    support_from_json,
    support_to_json,
    tensor_from_json,
    tensor_to_json,
)
from trisupport.arrangement import Arrangement
from trisupport.constructions import matmul, m_one_sum, tight_max_support
from trisupport.deciders import TightWitness
from trisupport.sampling import generic_tensor_on, random_support


def test_shape_rejects_nonpositive():
    with pytest.raises(ShapeError):
        Shape(0, 1, 1)
    with pytest.raises(ShapeError):
        Shape(2, -1, 2)


def test_index_constructors_take_integers_and_refuse_floats():
    shape = Shape(2, 2, 2)
    # each returns the first index it stored, given v
    builders = (
        lambda v: Support(shape, ((v, 1, 1),)).triples[0][0],
        lambda v: next(iter(Tensor(shape, {(v, 1, 1): 1}).entries))[0],
        lambda v: AxisPermutations((v, 0), (0, 1), (0, 1)).on_a[0],
        lambda v: TightWitness((v, 0), (0, 1), (2, 3)).tau_a[0],
        lambda v: Arrangement((v, 2), (0, 1), (0, 1)).xs[0],
    )
    for build in builders:
        for good in (1, np.int64(1)):
            assert build(good) == 1 and type(build(good)) is int
        # a float is refused, not truncated to an index
        for bad in (0.9, 1.0, np.float64(1.0)):
            with pytest.raises(TypeError):
                build(bad)


def test_support_canonicalizes_and_validates():
    s = Support(Shape(2, 2, 2), ((1, 1, 1), (0, 0, 0), (1, 1, 1)))
    assert s.triples == ((0, 0, 0), (1, 1, 1))
    assert (1, 1, 1) in s and (0, 1, 1) not in s
    # the member set is built once, and caching it leaves equality and hashing alone
    assert s.as_set() is s.as_set() == frozenset(s.triples)
    twin = Support(Shape(2, 2, 2), ((0, 0, 0), (1, 1, 1)))
    assert s == twin and hash(s) == hash(twin)
    with pytest.raises(ShapeError):
        Support(Shape(2, 2, 2), ((0, 0, 2),))


def test_tensor_drops_zero_coefficients():
    t = Tensor(Shape(2, 2, 2), {(0, 0, 0): Fraction(1), (1, 1, 1): Fraction(0)})
    assert t.support().triples == ((0, 0, 0),)
    assert t.support().triples == t.support().triples  # extraction is idempotent


def test_tensor_keeps_fraction_coefficients_and_converts_the_rest():
    shape = Shape(2, 2, 2)
    half, two = Fraction(1, 2), Fraction(2)
    t = Tensor(shape, {(1, 0, 0): half, (0, 0, 0): two, (1, 1, 1): Fraction(0)})
    assert list(t.entries) == [(0, 0, 0), (1, 0, 0)]
    assert t.entries[(0, 0, 0)] is two and t.entries[(1, 0, 0)] is half
    coefs = {(0, 0, 0): 3, (0, 0, 1): True, (0, 1, 0): "-2/4", (0, 1, 1): 0, (1, 0, 0): False, (1, 0, 1): "0/5"}
    t = Tensor(shape, coefs)
    assert t.entries == {(0, 0, 0): Fraction(3), (0, 0, 1): Fraction(1), (0, 1, 0): Fraction(-1, 2)}
    assert all(type(v) is Fraction for v in t.entries.values())
    for bad, error, message in [
        ("abc", ValueError, "Invalid literal for Fraction: 'abc'"),
        (None, TypeError, "argument should be a string or a Rational instance"),
        ("1/0", ZeroDivisionError, "Fraction(1, 0)"),
    ]:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Tensor(shape, {(0, 0, 0): bad})
    with pytest.raises(ShapeError, match=r"^entry \(2, 0, 0\) out of range for shape \(2, 2, 2\)$"):
        Tensor(shape, {(2, 0, 0): half})


def test_is_concise_support():
    assert is_concise_support(Support(Shape(2, 2, 2), ((0, 0, 0), (1, 1, 1))))
    assert not is_concise_support(Support(Shape(2, 2, 2), ((0, 0, 0),)))
    s, _ = tight_max_support(3)
    assert is_concise_support(s)


def test_direct_sum_blocks():
    two = direct_sum(m_one_sum(1), m_one_sum(1))
    assert two == m_one_sum(2)
    a = generic_tensor_on(tight_max_support(3)[0], random.Random(0))
    b = generic_tensor_on(Support(Shape(2, 2, 2), ((0, 0, 0), (1, 1, 0), (0, 1, 1))), random.Random(1))
    s = direct_sum(a, b)
    assert tuple(s.shape) == (5, 5, 5)
    assert len(s.support()) == len(a.support()) + len(b.support())


def test_kronecker_sizes_and_coefficients():
    t = Tensor(Shape(1, 1, 1), {(0, 0, 0): Fraction(1, 2)})
    u = Tensor(Shape(1, 1, 1), {(0, 0, 0): Fraction(2, 3)})
    assert kronecker(t, u).coefficient((0, 0, 0)) == Fraction(1, 3)
    one = m_one_sum(1)
    a = generic_tensor_on(tight_max_support(3)[0], random.Random(2))
    assert kronecker(one, a) == a
    m = matmul(2)
    assert len(kronecker(m, m).support()) == 64


def test_kronecker_of_matmul_is_matmul_up_to_axis_bijection():
    # interleaved-pair flattening differs from the product flattening by the
    # fixed bit swap x -> (bit3, bit1, bit2, bit0) on every axis
    prod = kronecker(matmul(2), matmul(2)).support()
    target = matmul(4).support()

    def shuffle(x: int) -> int:
        b3, b2, b1, b0 = (x >> 3) & 1, (x >> 2) & 1, (x >> 1) & 1, x & 1
        return (b3 << 3) | (b1 << 2) | (b2 << 1) | b0

    perm = tuple(shuffle(x) for x in range(16))
    moved = apply_permutations(prod, AxisPermutations(perm, perm, perm))
    assert moved.triples == target.triples


def test_kronecker_support_is_product_set():
    rng = random.Random(3)
    for _ in range(20):
        s1 = random_support(rng, Shape(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)))
        s2 = random_support(rng, Shape(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)))
        t1 = generic_tensor_on(s1, rng)
        t2 = generic_tensor_on(s2, rng)
        prod = kronecker(t1, t2)
        a2, b2, c2 = t2.shape
        expect = {
            (i1 * a2 + i2, j1 * b2 + j2, k1 * c2 + k2)
            for (i1, j1, k1) in s1.triples
            for (i2, j2, k2) in s2.triples
        }
        assert set(prod.support().triples) == expect


def test_sum_and_product_preserve_conciseness():
    rng = random.Random(4)
    for _ in range(10):
        shp = Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3))
        s1 = random_support(rng, shp)
        s2 = random_support(rng, shp)
        if not (is_concise_support(s1) and is_concise_support(s2)):
            continue
        t1, t2 = generic_tensor_on(s1, rng), generic_tensor_on(s2, rng)
        assert is_concise_support(direct_sum(t1, t2).support())
        assert is_concise_support(kronecker(t1, t2).support())


def test_apply_permutations_examples():
    s, _ = tight_max_support(3)
    ident = AxisPermutations.identity(s.shape)
    assert apply_permutations(s, ident) == s
    rev = AxisPermutations((2, 1, 0), (2, 1, 0), (2, 1, 0))
    assert apply_permutations(s, rev) == s  # sum-3 triples map to sum-3 triples
    single = Support(Shape(2, 2, 2), ((0, 0, 0),))
    swap = AxisPermutations((1, 0), (0, 1), (0, 1))
    assert apply_permutations(single, swap).triples == ((1, 0, 0),)
    with pytest.raises(ShapeError):
        apply_permutations(single, AxisPermutations((0, 1, 2), (0, 1), (0, 1)))


def test_apply_permutations_is_group_action():
    rng = random.Random(5)
    shp = Shape(3, 4, 2)
    s = random_support(rng, shp)
    for _ in range(10):
        p = AxisPermutations(
            tuple(rng.sample(range(3), 3)), tuple(rng.sample(range(4), 4)), tuple(rng.sample(range(2), 2))
        )
        q = AxisPermutations(
            tuple(rng.sample(range(3), 3)), tuple(rng.sample(range(4), 4)), tuple(rng.sample(range(2), 2))
        )
        assert apply_permutations(apply_permutations(s, q), p) == apply_permutations(s, p.compose(q))
        inverse = AxisPermutations(*(tuple(map(x.index, range(len(x)))) for x in (p.on_a, p.on_b, p.on_c)))
        assert apply_permutations(apply_permutations(s, p), inverse) == s


def test_json_round_trip():
    t = Tensor(Shape(2, 3, 2), {(0, 1, 1): Fraction(-3, 7), (1, 2, 0): Fraction(5)})
    back = tensor_from_json(tensor_to_json(t))
    assert back == t
    obj = json.loads(tensor_to_json(t))
    assert all("/" in e["coef"] for e in obj["entries"])
    s = t.support()
    assert support_from_json(support_to_json(s)) == s
    # tensor documents parse as supports too
    assert support_from_json(tensor_to_json(t)) == s


def test_json_boundary_drops_zero_coefficients_like_tensor():
    doc = {"shape": [2, 2, 2], "entries": [{"idx": [0, 0, 0], "coef": "0/1"}, {"idx": [1, 1, 1]}]}
    assert support_from_json(json.dumps(doc)).triples == ((1, 1, 1),)
    assert tensor_from_json(json.dumps(doc)).support().triples == ((1, 1, 1),)


def test_json_boundary_refuses_out_of_range_entries_alike_even_with_coefficient_0():
    doc = {"shape": [2, 2, 2], "entries": [{"idx": [1, 1, 1]}, {"idx": [2, 0, 0], "coef": "0"}]}
    for parse in (support_from_json, tensor_from_json):
        with pytest.raises(ShapeError, match=r"^entry \(2, 0, 0\) out of range for shape \(2, 2, 2\)$"):
            parse(json.dumps(doc))


def test_json_boundary_coefficient_defaults_to_one_only_when_absent():
    doc = {"shape": [2, 2, 2], "entries": [{"idx": [0, 0, 0]}, {"idx": [1, 1, 1], "coef": "2"}]}
    assert tensor_from_json(json.dumps(doc)).entries == {(0, 0, 0): Fraction(1), (1, 1, 1): Fraction(2)}
    doc["entries"][0]["coef"] = None
    with pytest.raises(ValueError, match=r"^coefficient must be a string p or p/q, got None$"):
        tensor_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"shape": [2, 2, 2], "entries": [{"idx": [0, 0, 0]}, {"idx": [0, 0, 0]}]},
        {"shape": [2, 2, 2], "entries": [{"idx": [0.9, 0, 0]}]},
        {"shape": [2, 2, 2], "entries": [{"idx": [True, 0, 0]}]},
        {"shape": [2, 2], "entries": []},
        {"shape": [True, 1, 1], "entries": []},
        {"shape": [2, 2, 2], "entries": [{"idx": [0, 0, 0], "coef": "1e2"}]},
        {"shape": [2, 2, 2], "entries": [{"idx": [0, 0, 0], "coef": 1}]},
        {"shape": [2, 2, 2], "entries": [{"idx": [0, 0, 0], "coef": "1/0"}]},
        {"shape": [2, 2, 2], "entries": {}},
        {"shape": [2, 2, 2], "entries": [[0, 0, 0]]},
    ],
)
def test_json_boundary_rejects_malformed_documents(doc):
    for parse in (support_from_json, tensor_from_json):
        with pytest.raises(ValueError):
            parse(json.dumps(doc))


def test_shape_rejects_bool():
    with pytest.raises(ShapeError):
        Shape(True, 1, 1)
