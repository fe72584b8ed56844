"""Consolidated acceptance suite.  `test_criteria_table` runs every entry of
`trisupport.cli.CRITERIA`, the checks `trisupport reproduce` runs, at seed 0
and prints one PASS line per criterion (run with -s to see them).  The tests
after it add what needs an independent oracle from `_oracles` or `_reference`,
or costs too much for reproduce; criterion 8 is checked only here."""

import itertools
import random
import time

import pytest

from _oracles import (
    oracle_annihilator_dim,
    oracle_cube_canonical_form,
    oracle_max_antichain,
    oracle_tight,
    oracle_total_compressibility,
)
from _reference import M3_ORBIT_REPRESENTATIVES
from trisupport.cli import CRITERIA
from trisupport.compress import total_compressibility
from trisupport.constructions import m_one_sum, matmul
from trisupport.core import Shape, Support, direct_sum, kronecker
from trisupport.deciders import census_m3, decide_oblique, decide_tight, max_oblique_size
from trisupport.sampling import random_concise_tensor, random_support
from trisupport.spectral import SpectralWeights, zeta_full
from trisupport.symmetry import annihilator, class_dimension


@pytest.mark.parametrize("n", range(1, len(CRITERIA) + 1))
def test_criteria_table(n):
    name, run = CRITERIA[n - 1]
    run(0)
    print(f"ACCEPTANCE {n} PASS: {name}")


def test_criterion_1_census():
    started = time.time()
    rep = census_m3()
    elapsed = time.time() - started
    computed = {tuple(r.triples) for r in rep.representatives}
    shape = Shape(3, 3, 3)
    matched = {oracle_cube_canonical_form(Support(shape, triples)) for triples, _, _ in M3_ORBIT_REPRESENTATIVES}
    assert matched <= computed and len(matched) == 13
    assert elapsed < 30.0


def test_criterion_2_maximal_supports():
    shapes = [Shape(*dims) for dims in itertools.product(range(1, 4), repeat=3)]
    for shape in shapes + [Shape(2, 2, 4), Shape(2, 3, 3)]:
        assert max_oblique_size(shape.a, shape.b, shape.c)[0] == oracle_max_antichain(shape)


def test_criterion_3_annihilator_dimensions():
    # matmul(n) has 3(n^2 - 1) symmetries; criterion 3 of the table checks the
    # library's 9 and the orbit identity it gives
    assert oracle_annihilator_dim(matmul(2)) == 9


def test_criterion_4_stabilizer_and_dimension_formulas():
    # at m = 2 the unit tensor's affine orbit, 3m^2 - 2 = 10 minus its annihilator, fills the ambient space
    assert (3 * 2 * 2 - 2) - oracle_annihilator_dim(m_one_sum(2)) == class_dimension("Ambient", 2) == 8


def test_criterion_5_compressibility():
    rng = random.Random(0)
    for _ in range(100):
        shp = Shape(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        s = random_support(rng, shp, rng.uniform(0.15, 0.8))
        assert total_compressibility(s)[0] == oracle_total_compressibility(s)


def test_criterion_6_support_functional():
    # the grid oracle on every downward-closed set of at most 5 points is
    # test_spectral.py::test_zeta_agrees_with_grid_oracle_on_small_incompr_sets
    rng = random.Random(0)
    for _ in range(50):
        m = rng.randint(1, 4)
        s = random_support(rng, Shape(m, m, m), rng.uniform(0.2, 0.9))
        assert zeta_full(s, SpectralWeights.uniform()).value <= m + 1e-9


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
    print(f"ACCEPTANCE 8 PASS: decider/oracle agreement on {len(family)} supports; no unknowns at m<=4")
