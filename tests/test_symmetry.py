import random
from fractions import Fraction

import pytest

from _oracles import oracle_annihilator_dim, oracle_span_stabilizer_dim
from trisupport.constructions import (
    free_max_support,
    m_one_sum,
    matmul,
    not_tight_compressible_4,
    oblique_not_tight_4,
    t_std,
    tight_max_support,
)
from trisupport.core import AxisPermutations, Shape, Support, Tensor, direct_sum, kronecker
from trisupport.sampling import (
    generic_tensor_on,
    random_concise_support,
    random_concise_tensor,
    random_support,
)
from trisupport.symmetry import (
    LieElement,
    LieSolveReport,
    annihilator,
    check_propagation,
    class_dimension,
    flattening_rank,
    has_regular_semisimple,
    is_concise_tensor,
    lie_apply,
    span_stabilizer_dim,
)


def test_annihilator_of_rank_one():
    rep = annihilator(m_one_sum(1))
    assert rep.kernel_dim == 2
    assert rep.annihilator_dim == 0


@pytest.mark.parametrize("m", [3, 4, 5])
def test_annihilator_generic_on_max_tight_support(m):
    rng = random.Random(100 + m)
    s, w = tight_max_support(m)
    rep = annihilator(generic_tensor_on(s, rng))
    assert rep.annihilator_dim == 1
    ev = has_regular_semisimple(rep)
    assert ev.status == "tight"
    # the regular element is the affine weighting, up to scale and center shift:
    # each axis is an arithmetic progression and all three share the same step
    slopes = set()
    for tau in (ev.witness.tau_a, ev.witness.tau_b, ev.witness.tau_c):
        diffs = {tau[i + 1] - tau[i] for i in range(len(tau) - 1)}
        assert len(diffs) == 1 and 0 not in diffs
        slopes |= diffs
    assert len(slopes) == 1
    assert ev.witness.certifies(s)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_annihilator_t_std_trivial(m):
    assert annihilator(t_std(m)).annihilator_dim == 0


def test_annihilator_explicit_4x4x4_tensors():
    assert annihilator(oblique_not_tight_4()).annihilator_dim == 0
    assert annihilator(not_tight_compressible_4()).annihilator_dim == 0


def test_annihilator_matmul2():
    # 9 = 3(n^2 - 1): row, column and middle actions modulo joint scaling
    rep = annihilator(matmul(2))
    assert rep.kernel_dim == 11
    assert rep.annihilator_dim == 9
    # the dense oracle shares no code with the library's elimination
    for n in (2, 3):
        want = 3 * (n * n - 1)
        assert oracle_annihilator_dim(matmul(n)) == want
        assert annihilator(matmul(n)).annihilator_dim == want


def _small_concise_tensor(rng, shape):
    # coefficients in +-1..3 keep the dense oracle's Fractions small
    while True:
        s = random_concise_support(rng, Shape(*shape), 0.6)
        t = Tensor(s.shape, {tr: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for tr in s.triples})
        if is_concise_tensor(t):
            return t


@pytest.mark.parametrize("shapes", [((2, 3, 3), (2, 3, 3)), ((2, 3, 3), (3, 3, 3)), ((3, 3, 3), (3, 3, 3))])
def test_annihilator_matches_oracle_on_sums_and_products(shapes):
    rng = random.Random(29)
    t1, t2 = (_small_concise_tensor(rng, shape) for shape in shapes)
    for t in (direct_sum(t1, t2), kronecker(t1, t2)):
        assert annihilator(t).annihilator_dim == oracle_annihilator_dim(t)


def test_annihilator_invariances():
    rng = random.Random(21)
    s, _ = tight_max_support(3)
    t = generic_tensor_on(s, rng)
    base = annihilator(t).annihilator_dim
    assert annihilator(t.scaled(Fraction(7, 3))).annihilator_dim == base
    perms = AxisPermutations((2, 0, 1), (1, 2, 0), (0, 2, 1))
    assert annihilator(t.permuted(perms)).annihilator_dim == base


def test_kernel_elements_annihilate_exactly():
    rng = random.Random(22)
    for _ in range(5):
        s = random_support(rng, Shape(3, 3, 3), 0.4)
        t = generic_tensor_on(s, rng)
        rep = annihilator(t)
        for elem in rep.basis:
            assert not lie_apply(elem, t).entries


def test_has_regular_semisimple_not_tight():
    rep = annihilator(oblique_not_tight_4())
    assert has_regular_semisimple(rep).status == "not_tight"


def test_has_regular_semisimple_on_direct_sum_of_tight_tensors():
    # both kernels are simultaneously diagonal, but single basis elements of
    # the combined kernel can repeat eigenvalues across the two blocks, so
    # this exercises the combination sweep
    rng = random.Random(28)
    s, _ = tight_max_support(3)
    t = direct_sum(generic_tensor_on(s, rng), generic_tensor_on(s, rng))
    rep = annihilator(t)
    assert rep.annihilator_dim >= 2
    ev = has_regular_semisimple(rep)
    assert ev.status == "tight"
    assert ev.witness.certifies(t.support())


def test_has_regular_semisimple_inconclusive_on_nilpotent():
    zero2 = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    nil = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    report = LieSolveReport(kernel_dim=3, annihilator_dim=1, basis=(LieElement(nil, zero2, zero2),))
    assert has_regular_semisimple(report).status == "inconclusive"


def test_census_representatives_have_symmetry():
    from trisupport.deciders import census_m3

    rng = random.Random(23)
    rep = census_m3()
    for support in rep.representatives:
        t = generic_tensor_on(support, rng)
        assert annihilator(t).annihilator_dim >= 1


@pytest.mark.parametrize("m", [3, 4, 5])
def test_span_stabilizer_dim_on_catalog_supports(m):
    s, _ = tight_max_support(m)
    assert span_stabilizer_dim(s) == 3 * m
    assert span_stabilizer_dim(free_max_support(m)) == 3 * m


def test_span_stabilizer_dim_examples():
    full = Support(Shape(2, 2, 2), tuple((i, j, k) for i in range(2) for j in range(2) for k in range(2)))
    assert span_stabilizer_dim(full) == 12
    single = Support(Shape(2, 2, 2), ((0, 0, 0),))
    assert span_stabilizer_dim(single) == oracle_span_stabilizer_dim(single) == 9


def test_span_stabilizer_dim_matches_linear_solve():
    rng = random.Random(24)
    for _ in range(25):
        shp = Shape(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        s = random_support(rng, shp, rng.uniform(0.2, 0.8))
        assert span_stabilizer_dim(s) == oracle_span_stabilizer_dim(s)


def test_class_dimension_closed_forms():
    assert class_dimension("Tight", 4) == 48
    assert class_dimension("Oblique", 4) == 48
    assert class_dimension("MaMu", 4) == 36
    assert class_dimension("Free", 3) == 27 == class_dimension("Ambient", 3)
    assert class_dimension("Tight", 3) == 25
    with pytest.raises(ValueError):
        class_dimension("MaMu", 5)
    with pytest.raises(ValueError):
        class_dimension("Huge", 3)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_incidence_dimension_identity(m):
    # acting-orbit dimension plus support size reproduces the closed forms
    s, _ = tight_max_support(m)
    assert 3 * m * m - 3 * m + len(s) == class_dimension("Tight", m)
    assert 3 * m * m - 3 * m + len(free_max_support(m)) == class_dimension("Free", m)


def test_flattening_rank_and_conciseness():
    t = t_std(3)
    assert all(flattening_rank(t, axis) == 3 for axis in range(3))
    assert is_concise_tensor(t)
    thin = m_one_sum(2)
    assert is_concise_tensor(thin)


def test_check_propagation_t_std():
    rep = check_propagation(t_std(3), t_std(3))
    assert (rep.dim_first, rep.dim_second, rep.dim_direct_sum, rep.dim_kronecker) == (0, 0, 0, 0)
    assert rep.sum_is_additive and rep.product_contains_factors and rep.zero_factors_give_zero_product


def test_check_propagation_max_tight_pair():
    rng = random.Random(25)
    s, _ = tight_max_support(3)
    t1 = generic_tensor_on(s, rng)
    t2 = generic_tensor_on(s, rng)
    rep = check_propagation(t1, t2)
    assert rep.dim_first == rep.dim_second == 1
    assert rep.dim_direct_sum == 2
    assert rep.sum_is_additive
    assert rep.product_contains_factors


def test_check_propagation_rejects_non_concise():
    thin = Support(Shape(2, 2, 2), ((0, 0, 0), (0, 1, 1)))
    bad = generic_tensor_on(thin, random.Random(26))
    with pytest.raises(ValueError, match="flattening"):
        check_propagation(bad, t_std(2))


def test_check_propagation_matmul_pair_is_strict():
    rep = check_propagation(matmul(2), matmul(2))
    assert rep.dim_kronecker >= 20
    assert rep.dim_kronecker > rep.dim_first + rep.dim_second


def test_additivity_over_seeded_concise_pairs():
    rng = random.Random(27)
    for _ in range(8):
        t1 = random_concise_tensor(rng, Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)))
        t2 = random_concise_tensor(rng, Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)))
        rep = check_propagation(t1, t2)
        assert rep.sum_is_additive
        assert rep.product_contains_factors
        assert rep.zero_factors_give_zero_product
