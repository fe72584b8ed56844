"""`certify.check_annihilator` and `certify.check_oblique` accept the
library's reports and reject each kind of corrupted one; the conftest hooks
run them on every annihilator and every oblique verdict."""

import itertools
import random
from dataclasses import replace

import pytest

from trisupport import deciders
from trisupport.certify import CertificateError, check_annihilator, check_oblique
from trisupport.constructions import free_max_support, m_one_sum, matmul, t_std, tight_max_support
from trisupport.core import AxisPermutations, Shape, Support, apply_permutations
from trisupport.deciders import ObliqueResult, decide_oblique, is_antichain
from trisupport.sampling import generic_tensor_on
from trisupport.symmetry import LieElement, annihilator, check_propagation


def _generic_tmax3():
    return generic_tensor_on(tight_max_support(3)[0], random.Random(7))


CASES = {"matmul(2)": lambda: matmul(2), "t_std(3)": lambda: t_std(3), "generic t-max(3)": _generic_tmax3}
ACCEPTED = {**CASES, "matmul(3)": lambda: matmul(3)}


def _with_entry(elem: LieElement, axis: int, row: int, col: int, value) -> LieElement:
    mats = [list(map(list, m)) for m in elem.matrices()]
    mats[axis][row][col] = value
    return LieElement(*(tuple(map(tuple, m)) for m in mats))


def _add(m, n):
    return tuple(tuple(u + v for u, v in zip(r, q)) for r, q in zip(m, n))


def _rejected(t, report) -> bool:
    try:
        check_annihilator(t, report)
    except CertificateError:
        return True
    return False


@pytest.mark.parametrize("name", ACCEPTED)
def test_accepts_the_library_reports(name):
    # the canonical basis is in reduced echelon form, which the check requires
    t = ACCEPTED[name]()
    check_annihilator(t, annihilator(t))


@pytest.mark.parametrize("name", CASES)
def test_rejects_every_single_entry_change(name):
    t = CASES[name]()
    rep = annihilator(t)
    for n, elem in enumerate(rep.basis):
        for axis, m in enumerate(elem.matrices()):
            for i in range(len(m)):
                for j in range(len(m)):
                    basis = list(rep.basis)
                    basis[n] = _with_entry(elem, axis, i, j, m[i][j] + 1)
                    assert _rejected(t, replace(rep, basis=tuple(basis))), (n, axis, i, j)


@pytest.mark.parametrize("name", CASES)
def test_rejects_a_repeated_element(name):
    t = CASES[name]()
    rep = annihilator(t)
    for n in (0, len(rep.basis) - 1):
        basis = rep.basis[: n + 1] + rep.basis[n:]
        assert _rejected(t, replace(rep, basis=basis))
        counted = replace(rep, basis=basis, kernel_dim=rep.kernel_dim + 1, annihilator_dim=rep.annihilator_dim + 1)
        assert _rejected(t, counted)


@pytest.mark.parametrize("name", CASES)
def test_rejects_a_basis_that_is_not_reduced(name):
    # e0 + e1 still annihilates and is independent of e1, but is nonzero in e1's leading column
    t = CASES[name]()
    rep = annihilator(t)
    e0, e1 = rep.basis[:2]
    summed = LieElement(*(_add(m, n) for m, n in zip(e0.matrices(), e1.matrices())))
    assert _rejected(t, replace(rep, basis=(summed,) + rep.basis[1:]))


@pytest.mark.parametrize("name", CASES)
def test_rejects_wrong_dimensions(name):
    t = CASES[name]()
    rep = annihilator(t)
    for dk, da in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)):
        assert _rejected(t, replace(rep, kernel_dim=rep.kernel_dim + dk, annihilator_dim=rep.annihilator_dim + da))


@pytest.mark.parametrize("name", CASES)
def test_rejects_a_matrix_of_the_wrong_size(name):
    t = CASES[name]()
    rep = annihilator(t)
    elem = rep.basis[0]
    for bad in (
        replace(elem, x=elem.x[:-1]),
        replace(elem, y=elem.y + elem.y[:1]),
        replace(elem, z=tuple(row[:-1] for row in elem.z)),
    ):
        assert _rejected(t, replace(rep, basis=(bad,) + rep.basis[1:]))


def test_conftest_hook_certifies_every_annihilator(certified_annihilators):
    # a rename of `annihilator` that the hook no longer rebinds fails here
    before = len(certified_annihilators)
    check_propagation(t_std(2), m_one_sum(2))
    assert len(certified_annihilators) - before == 4


# the seeded (5, 12) draw of tests/test_deciders.py's OBLIQUE_GOLDEN and its
# pinned witness, found by the search (18 nodes)
DRAW_5_12 = Support(Shape(5, 5, 5), (
    (0, 4, 1), (1, 0, 2), (1, 1, 1), (1, 3, 3), (1, 4, 4), (2, 0, 4),
    (2, 2, 2), (2, 3, 0), (3, 1, 3), (3, 3, 2), (4, 0, 3), (4, 3, 4),
))
WITNESS_5_12 = ((0, 3, 1, 4, 2), (3, 0, 4, 2, 1), (3, 4, 0, 1, 2))


def _oblique_rejected(s, result) -> bool:
    try:
        check_oblique(s, result)
    except CertificateError:
        return True
    return False


def test_check_oblique_accepts_the_library_verdicts():
    res = decide_oblique(DRAW_5_12)
    assert res == ObliqueResult("oblique", AxisPermutations(*WITNESS_5_12), 18)
    check_oblique(DRAW_5_12, res)
    for s in (tight_max_support(5)[0], free_max_support(5)):
        check_oblique(s, decide_oblique(s))
    check_oblique(DRAW_5_12, decide_oblique(DRAW_5_12, budget=17))


def test_check_oblique_rejects_a_witness_with_two_entries_swapped():
    w = [list(p) for p in WITNESS_5_12]
    w[0][0], w[0][1] = w[0][1], w[0][0]
    assert _oblique_rejected(DRAW_5_12, ObliqueResult("oblique", AxisPermutations(*w), 18))
    # every swap within one permutation is rejected exactly when it breaks the antichain
    rejected = 0
    for axis in range(3):
        for x, y in itertools.combinations(range(5), 2):
            w = [list(p) for p in WITNESS_5_12]
            w[axis][x], w[axis][y] = w[axis][y], w[axis][x]
            perms = AxisPermutations(*w)
            bad = _oblique_rejected(DRAW_5_12, ObliqueResult("oblique", perms, 18))
            assert bad == (not is_antichain(apply_permutations(DRAW_5_12, perms))), (axis, x, y)
            rejected += bad
    assert rejected == 29


def test_check_oblique_rejects_a_witness_that_does_not_fit_the_verdict():
    w = AxisPermutations(*WITNESS_5_12)
    assert _oblique_rejected(DRAW_5_12, ObliqueResult("oblique", None, 18))
    assert _oblique_rejected(DRAW_5_12, ObliqueResult("not_oblique", w, 18))
    assert _oblique_rejected(DRAW_5_12, ObliqueResult("unknown", w, 17))
    short = AxisPermutations((0, 3, 1, 2), *WITNESS_5_12[1:])
    assert _oblique_rejected(DRAW_5_12, ObliqueResult("oblique", short, 18))


def test_conftest_hook_certifies_every_oblique_result(certified_oblique_results):
    # a rename of `decide_oblique` that the hook no longer rebinds fails here
    before = len(certified_oblique_results)
    decide_oblique(DRAW_5_12)
    deciders.decide_oblique(DRAW_5_12, budget=1)
    assert len(certified_oblique_results) - before == 2
