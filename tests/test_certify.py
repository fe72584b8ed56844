"""`certify.check_annihilator` accepts the library's reports and rejects each
kind of corrupted one; the conftest hook runs it on every annihilator."""

import random
from dataclasses import replace

import pytest

from trisupport.certify import CertificateError, check_annihilator
from trisupport.constructions import m_one_sum, matmul, t_std, tight_max_support
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
