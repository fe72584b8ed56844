"""Consolidated acceptance suite: one test per criterion, each printing a
single PASS line on success (run with -s to see them; a pytest FAILED line is
the failure report)."""

import itertools
import random
import time
from fractions import Fraction

from _oracles import (
    downward_closed_sets,
    oracle_annihilator_dim,
    oracle_max_antichain,
    oracle_tight,
    oracle_total_compressibility,
    oracle_zeta_grid,
)
from _reference import M3_ORBIT_REPRESENTATIVES
from trisupport.compress import find_zero_box, multicompressibility, slice_cover, total_compressibility
from trisupport.constructions import (
    coppersmith_winograd,
    free_max_support,
    m_one_sum,
    matmul,
    not_tight_compressible_4,
    oblique_not_tight_4,
    t_std,
    tight_max_support,
)
from trisupport.core import Shape, Support, apply_permutations, direct_sum, kronecker
from trisupport.deciders import census_m3, cube_canonical_form, decide_oblique, decide_tight, is_free, max_oblique_size
from trisupport.sampling import generic_tensor_on, random_concise_tensor, random_support
from trisupport.spectral import SpectralWeights, incompr_set, zeta, zeta_full
from trisupport.symmetry import annihilator, check_propagation, class_dimension, span_stabilizer_dim


def _passed(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_census():
    started = time.time()
    rep = census_m3()
    elapsed = time.time() - started
    assert rep.maximal_count == 144
    assert rep.concise_count == 80
    assert rep.orbit_count == 13
    assert sum(rep.orbit_sizes) == 80
    for support, witness in zip(rep.representatives, rep.witnesses):
        assert witness is not None and witness.certifies(support)
    computed = {tuple(r.triples) for r in rep.representatives}
    matched = set()
    for triples, _taus, _ok in M3_ORBIT_REPRESENTATIVES:
        canon = cube_canonical_form(Support(Shape(3, 3, 3), triples))
        assert canon in computed
        matched.add(canon)
    assert len(matched) == 13
    assert elapsed < 30.0
    _passed(1, f"census 144/80/13, all 13 orbits tight and matched, {elapsed:.2f}s")


def test_criterion_2_maximal_supports():
    for m in range(2, 9):
        s, w = tight_max_support(m)
        assert len(s) == (3 * m * m + 3) // 4
        assert w.certifies(s)
        found = decide_tight(s)
        assert found is not None and found.certifies(s)
        f = free_max_support(m)
        assert len(f) == m * m
        assert is_free(f)
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                assert max_oblique_size(a, b, c)[0] == oracle_max_antichain(Shape(a, b, c))
    for dims in ((2, 2, 4), (2, 3, 3)):
        assert max_oblique_size(*dims)[0] == oracle_max_antichain(Shape(*dims))
    _passed(2, "maximal tight/free sizes and exhaustive antichain bounds, m=2..8")


def test_criterion_3_annihilator_dimensions():
    rng = random.Random(0)
    for m in (3, 4, 5):
        s, _ = tight_max_support(m)
        assert annihilator(generic_tensor_on(s, rng)).annihilator_dim == 1
        assert annihilator(t_std(m)).annihilator_dim == 0
    assert annihilator(oblique_not_tight_4()).annihilator_dim == 0
    assert annihilator(not_tight_compressible_4()).annihilator_dim == 0
    # matmul(n) has 3(n^2 - 1) symmetries, 9 at n = 2 (m = n^2 = 4).  The
    # effective group (gl_m)^3 modulo the 2-dimensional center has dimension
    # 3m^2 - 2 = 46, so the affine orbit of M<2> has dimension 46 - 9 = 37: a
    # cone one dimension above the projective orbit, 3m^2 - 3m = 36, that
    # class_dimension("MaMu", m) counts.
    m = 4
    matmul_dim = annihilator(matmul(2)).annihilator_dim
    oracle_dim = oracle_annihilator_dim(matmul(2))
    assert matmul_dim == 9 and oracle_dim == 9, (
        f"annihilator of matmul(2): library {matmul_dim}, dense oracle {oracle_dim}, expected 9"
    )
    assert (3 * m * m - 2) - matmul_dim == class_dimension("MaMu", m) + 1
    _passed(3, "annihilator dimensions of all catalog tensors")


def test_criterion_4_stabilizer_and_dimension_formulas():
    for m in (3, 4, 5):
        assert span_stabilizer_dim(tight_max_support(m)[0]) == 3 * m
        assert span_stabilizer_dim(free_max_support(m)) == 3 * m
    assert class_dimension("MaMu", 4) == 36
    # At m = 2 the unit tensor's affine orbit, the effective group dimension
    # 3m^2 - 2 = 10 minus its annihilator, already has the ambient dimension
    # 8, so every class holding it fills the space; the closed forms below
    # would give 9 and 10.
    unit_orbit = (3 * 2 * 2 - 2) - oracle_annihilator_dim(m_one_sum(2))
    assert unit_orbit == 8 == class_dimension("Ambient", 2)
    for cls in ("Tight", "Oblique", "Free"):
        assert class_dimension(cls, 2) == unit_orbit
    for m in range(3, 7):
        tight_val = class_dimension("Tight", m)
        assert class_dimension("Oblique", m) == tight_val
        assert tight_val == 3 * m * m + (3 * m * m + 3) // 4 - 3 * m
        assert class_dimension("Free", m) == 4 * m * m - 3 * m
        assert 3 * m * m - 3 * m + len(tight_max_support(m)[0]) == tight_val
        assert 3 * m * m - 3 * m + len(free_max_support(m)) == class_dimension("Free", m)
    _passed(4, "span stabilizer 3m and all four closed dimension forms")


def test_criterion_5_compressibility():
    for m in range(3, 8):
        s, w = tight_max_support(m)
        sorted_s = apply_permutations(s, w.sorting_permutations())
        hi, lo = (m + 1) // 2, m // 2
        assert any(
            find_zero_box(sorted_s, *split) is not None
            for split in {(hi, hi, lo), (hi, lo, hi), (lo, hi, hi)}
        )
    rep = census_m3()
    for support, w in zip(rep.representatives, rep.witnesses):
        sorted_s = apply_permutations(support, w.sorting_permutations())
        assert any(
            find_zero_box(sorted_s, *split) is not None
            for split in {(2, 2, 1), (2, 1, 2), (1, 2, 2)}
        )
    for m in range(3, 7):
        assert multicompressibility(tight_max_support(m)[0]) >= 3 * (m // 2) + 1
    for q in (1, 2):
        assert multicompressibility(coppersmith_winograd(q).support()) >= 2 * q + 1
        assert multicompressibility(coppersmith_winograd(q, big=True).support()) >= 2 * q + 3
    assert multicompressibility(not_tight_compressible_4().support()) >= 6
    rng = random.Random(0)
    for _ in range(100):
        shp = Shape(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        s = random_support(rng, shp, rng.uniform(0.15, 0.8))
        kappa, _box = total_compressibility(s)
        assert kappa == oracle_total_compressibility(s)
        assert slice_cover(s).size + kappa == shp.a + shp.b + shp.c
    _passed(5, "zero boxes, multicompressibility bounds and cover duality")


def test_criterion_6_support_functional():
    uniform = SpectralWeights.uniform()
    thetas = (
        uniform,
        SpectralWeights(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        SpectralWeights(Fraction(1), Fraction(0), Fraction(0)),
    )
    for r in range(1, 6):
        diag = m_one_sum(r).support()
        for theta in thetas:
            assert abs(zeta(diag, theta) - r) <= 1e-6
    rng = random.Random(0)
    for _ in range(50):
        m = rng.randint(1, 4)
        s = random_support(rng, Shape(m, m, m), rng.uniform(0.2, 0.9))
        assert zeta_full(s, uniform).value <= m + 1e-9
    for points in downward_closed_sets(5):
        members = set(points)
        maximal = tuple(
            t for t in points
            if not any(u != t and all(u[d] >= t[d] for d in range(3)) for u in members)
        )
        shape = Shape(*(max(t[d] for t in points) + 1 for d in range(3)))
        s = Support(shape, maximal)
        assert incompr_set(s).points == points
        assert abs(zeta(s, uniform) - oracle_zeta_grid(points, uniform.as_floats())) <= 1e-4
    two = Support(Shape(2, 2, 2), ((0, 0, 0), (1, 1, 0)))
    assert abs(zeta(two, uniform) - 2 ** (2 / 3)) <= 1e-4
    _passed(6, "functional normalization, upper bounds and grid-oracle agreement")


def test_criterion_7_propagation():
    rng = random.Random(0)
    additive_pairs = 0
    while additive_pairs < 20:
        t1 = random_concise_tensor(rng, Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)))
        t2 = random_concise_tensor(rng, Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)))
        k1, k2 = annihilator(t1), annihilator(t2)
        ks = annihilator(direct_sum(t1, t2))
        assert ks.kernel_dim == k1.kernel_dim + k2.kernel_dim
        additive_pairs += 1

    for _ in range(10):
        t1 = random_concise_tensor(rng, Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)))
        t2 = random_concise_tensor(rng, Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)))
        d1 = annihilator(t1).annihilator_dim
        d2 = annihilator(t2).annihilator_dim
        assert annihilator(kronecker(t1, t2)).annihilator_dim >= d1 + d2

    zero_checked = 0
    while zero_checked < 9:
        t1 = random_concise_tensor(rng, Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)), density=0.85)
        t2 = random_concise_tensor(rng, Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)), density=0.85)
        if annihilator(t1).annihilator_dim != 0 or annihilator(t2).annihilator_dim != 0:
            continue
        assert annihilator(kronecker(t1, t2)).annihilator_dim == 0
        zero_checked += 1

    rep = check_propagation(t_std(3), t_std(3))
    assert rep.dim_first == rep.dim_second == 0
    assert rep.dim_kronecker == 0 and rep.dim_direct_sum == 0
    assert rep.sum_is_additive and rep.zero_factors_give_zero_product
    _passed(7, "kernel additivity under sums; containment and triviality under products")


def test_criterion_8_deciders_vs_oracles():
    shape = Shape(3, 3, 3)
    verts = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    family = [Support(shape, (v,)) for v in verts]
    family += [Support(shape, pair) for pair in itertools.combinations(verts, 2)]
    rng = random.Random(0)
    for _ in range(200):
        family.append(Support(shape, tuple(rng.sample(verts, rng.randint(3, 5)))))
    assert len(family) >= 500
    for s in family:
        assert oracle_tight(s) == (decide_tight(s) is not None)

    for _ in range(60):
        m = rng.randint(2, 4)
        s = random_support(rng, Shape(m, m, m), rng.uniform(0.1, 0.7))
        assert decide_oblique(s).status != "unknown"
    _passed(8, f"decider/oracle agreement on {len(family)} supports; no unknowns at m<=4")
