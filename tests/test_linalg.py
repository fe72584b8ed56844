import random
from fractions import Fraction

import pytest

from trisupport import linalg
from trisupport.constructions import (
    coppersmith_winograd,
    matmul,
    not_tight_compressible_4,
    oblique_not_tight_4,
    t_std,
    tight_max_support,
)
from trisupport.core import Shape, direct_sum, kronecker
from trisupport.deciders import decide_tight
from trisupport.linalg import PRIMES, Echelon, modular_nullspace, nullspace
from trisupport.sampling import generic_tensor_on, random_concise_tensor, random_support
from trisupport.symmetry import LieElement, _action_rows, annihilator, lie_apply


def _random_system(rng, nrows, ncols, bound):
    rows = []
    for _ in range(nrows):
        cols = rng.sample(range(ncols), rng.randint(0, ncols))
        rows.append({c: v for c in cols if (v := rng.randint(-bound, bound))})
    # a few dependent rows, so that kernels are not always trivial
    for _ in range(rng.randint(0, 2)):
        if rows:
            a, b = rng.choice(rows), rng.choice(rows)
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append({c: v for c in set(a) | set(b) if (v := x * a.get(c, 0) + y * b.get(c, 0))})
    return rows


def _assert_certified(rows, ncols, basis):
    """What `modular_nullspace` claims, checked with Fractions: there are
    ncols - rank vectors, they are the identity on the free columns, and each
    is an exact kernel vector."""
    ech = Echelon(rows, ncols)
    assert len(basis) == ncols - ech.rank
    free = ech.free_cols()
    for f, vec in zip(free, basis):
        assert [vec[g] for g in free] == [Fraction(f == g) for g in free]
        for r in rows:
            assert sum(v * vec[c] for c, v in r.items()) == 0


def _max_bits(basis):
    return max(
        (max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for vec in basis for v in vec),
        default=0,
    )


def test_integerize():
    assert linalg.integerize([Fraction(1, 2), Fraction(-1, 3), Fraction(0)]) == [3, -2, 0]
    assert linalg.integerize([Fraction(4), Fraction(-6)]) == [2, -3]
    assert linalg.integerize([Fraction(0), Fraction(0)]) == [0, 0]
    assert linalg.integerize([]) == []
    assert linalg.row_from_fractions({3: Fraction(2, 3), 5: Fraction(0), 7: Fraction(-4, 3)}) == {3: 1, 7: -2}


def test_random_systems_match_echelon():
    rng = random.Random(31)
    for _ in range(200):
        ncols = rng.randint(1, 14)
        rows = _random_system(rng, rng.randint(0, 14), ncols, rng.choice((1, 9, 1000)))
        basis = modular_nullspace(rows, ncols)
        assert basis is not None
        assert basis == Echelon(rows, ncols).nullspace()
        assert nullspace(rows, ncols) == basis
        _assert_certified(rows, ncols, basis)


def test_large_kernel_entries_need_several_primes():
    rng = random.Random(32)
    widest = 0
    for _ in range(10):
        ncols = rng.randint(5, 7)
        rows = [{c: rng.randint(-(2**30), 2**30) for c in range(ncols)} for _ in range(ncols - 2)]
        basis = modular_nullspace(rows, ncols)
        assert basis is not None
        assert basis == Echelon(rows, ncols).nullspace()
        _assert_certified(rows, ncols, basis)
        widest = max(widest, _max_bits(basis))
    # one 61-bit prime reconstructs only numerators and denominators below 2^30;
    # entries this wide take at least four
    assert widest > 90


def test_prime_dividing_the_pivot_falls_back(monkeypatch):
    # over Q column 0 is the first pivot; mod PRIMES[0] the entry vanishes,
    # column 1 becomes the pivot and the free set changes
    p = PRIMES[0]
    rows = [{0: 2 * p, 1: 3, 2: 5}, {1: 1, 2: 1}]
    primes_used = []
    eliminate = linalg._eliminate_mod
    monkeypatch.setattr(linalg, "_eliminate_mod", lambda rows, q: primes_used.append(q) or eliminate(rows, q))
    assert modular_nullspace(rows, 3) is None
    # the second prime's free set differs, so the remaining primes are not tried
    assert primes_used == list(PRIMES[:2])
    assert nullspace(rows, 3) == Echelon(rows, 3).nullspace() == [[Fraction(-1, p), Fraction(-1), Fraction(1)]]


def test_prime_dividing_an_entry_but_not_a_pivot():
    # the free set is unchanged mod PRIMES[0], whose residues stay correct;
    # the kernel entry -p needs more primes before it reconstructs
    p = PRIMES[0]
    rows = [{0: 1, 1: p}]
    assert modular_nullspace(rows, 2) == Echelon(rows, 2).nullspace() == [[Fraction(-p), Fraction(1)]]


def test_entries_beyond_the_fixed_primes_fall_back():
    a, b = 3**200, 2**300 + 1  # coprime, each well over 240 bits
    rows = [{0: a, 1: -b}]
    assert modular_nullspace(rows, 2) is None
    assert nullspace(rows, 2) == Echelon(rows, 2).nullspace() == [[Fraction(b, a), Fraction(1)]]


def test_degenerate_systems():
    assert nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([{}, {1: 5}], 2) == [[1, 0]]
    assert nullspace([{0: 1}], 1) == []
    assert nullspace([], 0) == []


def _tensor_corpus():
    rng = random.Random(33)
    s3, _ = tight_max_support(3)
    s4, _ = tight_max_support(4)
    a, b = generic_tensor_on(s3, rng), random_concise_tensor(rng, Shape(2, 3, 3))
    corpus = [
        matmul(2),
        matmul(3),
        t_std(3),
        oblique_not_tight_4(),
        not_tight_compressible_4(),
        coppersmith_winograd(2),
        coppersmith_winograd(1, big=True),
        generic_tensor_on(s4, rng),
        direct_sum(a, b),
        kronecker(a, b),
    ]
    corpus += [generic_tensor_on(random_support(rng, Shape(3, 3, 3), 0.4), rng) for _ in range(5)]
    return corpus


def test_annihilator_bases_match_echelon():
    for t in _tensor_corpus():
        rows, ncols = _action_rows(t)
        basis = modular_nullspace(rows, ncols)
        assert basis is not None
        assert basis == Echelon(rows, ncols).nullspace()
        rep = annihilator(t)
        assert rep.kernel_dim == len(basis)


def test_decide_tight_witnesses_match_echelon(monkeypatch):
    rng = random.Random(34)
    supports = [tight_max_support(m)[0] for m in (3, 4, 5, 6)]
    supports += [random_support(rng, Shape(4, 4, 4), rng.uniform(0.15, 0.5)) for _ in range(40)]
    got = [decide_tight(s, seed=3) for s in supports]
    monkeypatch.setattr(linalg, "nullspace", lambda rows, ncols: Echelon(rows, ncols).nullspace())
    want = [decide_tight(s, seed=3) for s in supports]
    assert got == want
    assert any(w is not None for w in got) and any(w is None for w in got)


def _dense_lie_apply(elem, t):
    """The Leibniz action looping over every matrix entry."""
    out = {}
    for (i, j, k), v in t.entries.items():
        for axis, m in enumerate(elem.matrices()):
            idx = (i, j, k)
            for u in range(len(m)):
                key = idx[:axis] + (u,) + idx[axis + 1 :]
                out[key] = out.get(key, Fraction(0)) + m[u][idx[axis]] * v
    return {key: v for key, v in out.items() if v}


def _random_matrix(rng, n):
    return tuple(
        tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.5 else Fraction(0) for _ in range(n))
        for _ in range(n)
    )


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (3, 3, 3), (4, 2, 3)])
def test_lie_apply_matches_dense_reference(shape):
    rng = random.Random(35)
    for _ in range(10):
        t = generic_tensor_on(random_support(rng, Shape(*shape), 0.5), rng).scaled(Fraction(1, rng.randint(1, 6)))
        elem = LieElement(*(_random_matrix(rng, n) for n in shape))
        assert lie_apply(elem, t).entries == _dense_lie_apply(elem, t)
