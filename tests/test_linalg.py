import random
from fractions import Fraction

import pytest

from _oracles import _dense_rank, oracle_injective_combination, oracle_kernel_basis
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
from trisupport.linalg import PRIME, Echelon, modular_nullspace, nullspace
from trisupport.sampling import generic_tensor_on, random_concise_tensor, random_support
from trisupport.symmetry import LieElement, _action_rows, _integer_entries, annihilator, lie_apply, tensor_flattening_rows


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


def _oracle_rank(rows, ncols):
    """The rank by dense Fraction elimination, which shares no code with `linalg`."""
    return _dense_rank([[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows], ncols)


def _assert_certified(rows, ncols, basis):
    """What `modular_nullspace` claims, checked with Fractions: there are
    ncols - rank vectors (the rank from the dense oracle), they are the
    identity on the oracle's free columns, and each is an exact kernel vector."""
    assert len(basis) == ncols - _oracle_rank(rows, ncols)
    free = oracle_kernel_basis(rows, ncols)[0]
    assert len(free) == len(basis)
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


def _count_kernel_calls(monkeypatch):
    """The (p, number of rows) of every `_kernel` call from here on."""
    calls = []
    kernel = linalg._kernel
    monkeypatch.setattr(linalg, "_kernel", lambda rows, ncols, p=0: calls.append((p, len(rows))) or kernel(rows, ncols, p))
    return calls


def test_random_systems_match_echelon(monkeypatch):
    # every modular_nullspace is one pass mod PRIME on all rows; the 8 systems
    # it cannot certify have kernel entries wider than 63 bits, and Echelon
    # answers them
    rng = random.Random(31)
    calls = _count_kernel_calls(monkeypatch)
    certified = 0
    for _ in range(200):
        ncols = rng.randint(1, 14)
        rows = _random_system(rng, rng.randint(0, 14), ncols, rng.choice((1, 9, 1000)))
        calls.clear()
        basis = modular_nullspace(rows, ncols)
        assert calls == [(PRIME, len(rows))]
        want = nullspace(rows, ncols)
        assert want == oracle_kernel_basis(rows, ncols)[1] == Echelon(rows, ncols).nullspace()
        if basis is not None:
            assert basis == want
            certified += 1
        else:
            assert _max_bits(want) > 63
        _assert_certified(rows, ncols, want)
    assert certified == 192


def test_large_kernel_entries_need_several_primes():
    # one 127-bit prime reconstructs only numerators and denominators below
    # 2^63; every kernel here has wider entries, so Echelon answers
    rng = random.Random(32)
    for _ in range(10):
        ncols = rng.randint(5, 7)
        rows = [{c: rng.randint(-(2**30), 2**30) for c in range(ncols)} for _ in range(ncols - 2)]
        want = nullspace(rows, ncols)
        assert want == oracle_kernel_basis(rows, ncols)[1] == Echelon(rows, ncols).nullspace()
        _assert_certified(rows, ncols, want)
        assert _max_bits(want) > 63 and modular_nullspace(rows, ncols) is None


def _lucas_lehmer(q):
    """Whether 2^q - 1 is prime, for an odd prime q (Lucas-Lehmer): s_0 = 4,
    s_{i+1} = s_i^2 - 2, and 2^q - 1 is prime iff it divides s_{q-2}."""
    m, x = 2**q - 1, 4
    for _ in range(q - 2):
        x = (x * x - 2) % m
    return x == 0


def test_prime_is_the_mersenne_prime_2_127_minus_1():
    assert PRIME == 2**127 - 1 and _lucas_lehmer(127)
    # the residue test also runs mod 2^61 - 1; 2^11 - 1 = 23 * 89 is refused
    assert _lucas_lehmer(61) and not _lucas_lehmer(11)


@pytest.mark.parametrize(
    "a, b",
    [(2**63 - 1, 2**63 - 2), (-(2**62 + 1), 3), (2**63, 2**63 + 1), (2**126 - 1, 2**126 - 3)],
    ids=["63-bit", "63-bit-over-3", "64-bit", "126-bit"],
)
def test_one_prime_reconstructs_entries_below_2_63(monkeypatch, a, b):
    # the kernel vector of a x0 - b x1 = 0 is (1, a/b); one 127-bit prime
    # reconstructs numerators and denominators below 2^63, and wider ones
    # fall back to Echelon
    rows = [{0: a, 1: -b}]
    want = [[Fraction(1), Fraction(a, b)]]
    calls = _count_kernel_calls(monkeypatch)
    basis = modular_nullspace(rows, 2)
    assert calls == [(PRIME, 1)]
    if max(abs(a), abs(b)).bit_length() <= 63:
        assert basis == want
    else:
        assert basis is None
        assert nullspace(rows, 2) == Echelon(rows, 2).nullspace() == want


def test_prime_dividing_the_pivot_falls_back(monkeypatch):
    # over Q column 0 lies in the span of column 1 and is free; mod PRIME the
    # entry p that decides the pivot vanishes, so column 1 is free instead and
    # its vector fails the check against the input row
    p = PRIME
    rows = [{0: 1, 1: p}]
    calls = _count_kernel_calls(monkeypatch)
    want = oracle_kernel_basis(rows, 2)
    assert want == ([0], [[Fraction(1), Fraction(-1, p)]])
    assert nullspace(rows, 2) == want[1]
    assert calls == [(p, 1), (0, 1)]
    assert Echelon(rows, 2).nullspace() == want[1]


def test_prime_dividing_an_entry_but_not_a_pivot():
    # p divides the entry of column 0, but the pivot is column 1 over Q and
    # mod PRIME alike, so the free set is unchanged; the kernel entry -p is
    # 0 mod p, so the vector fails the check and Echelon answers
    p = PRIME
    rows = [{0: p, 1: 1}]
    want = oracle_kernel_basis(rows, 2)
    assert want == ([0], [[Fraction(1), Fraction(-p)]])
    assert modular_nullspace(rows, 2) is None
    assert nullspace(rows, 2) == Echelon(rows, 2).nullspace() == want[1]


def test_prime_dropping_the_rank_falls_back(monkeypatch):
    # mod PRIME the only row vanishes, so no row is kept and both columns are
    # free; only the check against the input row refuses their vectors
    p = PRIME
    rows = [{0: p, 1: 2 * p}]
    calls = _count_kernel_calls(monkeypatch)
    assert nullspace(rows, 2) == oracle_kernel_basis(rows, 2)[1] == [[Fraction(1), Fraction(-1, 2)]]
    assert calls == [(p, 1), (0, 1)]


def test_entries_beyond_the_fixed_primes_fall_back():
    a, b = 3**200, 2**300 + 1  # coprime, each well over 63 bits
    rows = [{0: a, 1: -b}]
    assert modular_nullspace(rows, 2) is None
    want = oracle_kernel_basis(rows, 2)[1]
    assert want == [[Fraction(1), Fraction(a, b)]]
    assert nullspace(rows, 2) == Echelon(rows, 2).nullspace() == want


def test_degenerate_systems():
    assert nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([{}, {1: 5}], 2) == [[1, 0]]
    assert nullspace([{0: 1}], 1) == []
    assert nullspace([], 0) == []


def _residue_systems():
    """Systems with negative entries, of three kinds: incidence rows of random
    supports with a random sign on each entry; the action rows of generic
    tensors (coefficients in [-100, 100]); and dense rows with entries in
    [-9, 9], whose kernels have small denominators, so that their residues,
    the elimination factors and the products of the two are wide and the
    kernel updates leave (-p, p)."""
    rng = random.Random(43)
    out = []
    for _ in range(30):
        shape = Shape(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6))
        a, b, _c = shape
        rows = [
            {i: rng.choice((-1, 1)), a + j: rng.choice((-1, 1)), a + b + k: rng.choice((-1, 1))}
            for i, j, k in random_support(rng, shape, rng.uniform(0.05, 0.4)).triples
        ]
        out.append(("signed incidence", rows, sum(shape)))
    for n in range(6):
        s = random_support(rng, Shape(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)), 0.5)
        out.append(("generic annihilator", *_action_rows(generic_tensor_on(s, rng))))
    for _ in range(30):
        ncols = rng.randint(6, 12)
        rows = [{c: v for c in range(ncols) if (v := rng.randint(-9, 9))} for _ in range(ncols - 3)]
        out.append(("wide updates", rows, ncols))
    return out


def test_kernel_mod_p_returns_residues_in_range():
    # `_kernel` keeps signed values while it eliminates; the basis it returns
    # is the oracle's, reduced into [0, p); PRIME runs last, for the width check
    kinds = set()
    for kind, rows, ncols in _residue_systems():
        for p in (2**61 - 1, PRIME):
            free, oracle = oracle_kernel_basis(rows, ncols)
            want = {
                f: {c: v.numerator * pow(v.denominator, -1, p) % p for c, v in enumerate(vec) if v}
                for f, vec in zip(free, oracle)
            }
            basis = linalg._kernel(rows, ncols, p)[1]
            assert all(0 <= x < p for vec in basis.values() for x in vec.values()), kind
            assert basis == want, kind
        kinds.add(kind)
        if kind != "signed incidence":
            # the residues are wide: not every entry is a small signed integer
            assert any(min(x, p - x).bit_length() > 100 for vec in basis.values() for x in vec.values()), kind
    assert len(kinds) == 3


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


def _row_variants(rng, rows):
    """The rows shuffled, and shuffled again after appending dependent,
    duplicated and empty rows."""
    yield rng.sample(rows, len(rows))
    extra = [{}] * rng.randint(1, 2)
    if rows:
        extra += [dict(rng.choice(rows)) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            x, y = rng.randint(-5, 5), rng.randint(-5, 5)
            extra.append({c: v for c in set(a) | set(b) if (v := x * a.get(c, 0) + y * b.get(c, 0))})
    grown = rows + extra
    yield rng.sample(grown, len(grown))


def test_nullspace_basis_is_canonical():
    # the basis depends only on the kernel: no row order, no dependent or
    # repeated rows change it, and it is the oracle's reduced basis on the
    # highest free columns
    rng = random.Random(39)
    systems = []
    for _ in range(200):
        ncols = rng.randint(1, 14)
        systems.append((_random_system(rng, rng.randint(0, 14), ncols, rng.choice((1, 9, 1000))), ncols))
    systems += [_action_rows(t) for t in _tensor_corpus()]
    for rows, ncols in systems:
        basis = nullspace(rows, ncols)
        for variant in _row_variants(rng, rows):
            assert nullspace(variant, ncols) == basis
        assert basis == oracle_kernel_basis(rows, ncols)[1]


def test_rank_matches_dense_oracle():
    rng = random.Random(36)
    for _ in range(200):
        ncols = rng.randint(1, 14)
        rows = _random_system(rng, rng.randint(0, 14), ncols, rng.choice((1, 9, 1000)))
        assert linalg.rank(rows, ncols) == _oracle_rank(rows, ncols)
    for t in _tensor_corpus():
        for axis in range(3):
            rows, ncols = tensor_flattening_rows(t, axis)
            assert linalg.rank(rows, ncols) == _oracle_rank(rows, ncols)


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


def _combination_draws(rng, count):
    """(vectors, blocks, seed) with mixed denominators: empty vector lists,
    size-1 blocks, and blocks where a copied entry makes the answer None."""
    for _ in range(count):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(0, 3))]
        blocks, lo = [], 0
        for size in sizes:
            blocks.append((lo, lo + size))
            lo += size
        vectors = [
            [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 7))) for _ in range(lo)]
            for _ in range(rng.randint(0, 4))
        ]
        if vectors and lo >= 2 and rng.random() < 0.25:
            src, dst = rng.sample(range(lo), 2)
            for vec in vectors:
                vec[dst] = vec[src]
        yield vectors, blocks, rng.randint(0, 1000)


def test_injective_combination_matches_fraction_oracle():
    answers = []
    for vectors, blocks, seed in _combination_draws(random.Random(37), 600):
        got = linalg.injective_combination(vectors, blocks, seed)
        assert got == oracle_injective_combination(vectors, blocks, seed), (vectors, blocks, seed)
        answers.append(got)
    assert sum(a is None for a in answers) >= 100 and sum(a is not None for a in answers) >= 300
    assert linalg.injective_combination([], [(0, 1), (1, 2)]) == [0, 0]
    assert linalg.injective_combination([], [(0, 2)]) is None


def test_injective_combination_sweep_matches_fraction_oracle(monkeypatch):
    # every seeded draw is the zero combination, so each answer that is not
    # None comes from the (1, n, n^2, ...) sweep
    class ZeroDraws(random.Random):
        def randint(self, a, b):
            return 0

    draws = list(_combination_draws(random.Random(38), 200))
    monkeypatch.setattr(random, "Random", ZeroDraws)
    swept = 0
    for vectors, blocks, seed in draws:
        got = linalg.injective_combination(vectors, blocks, seed)
        assert got == oracle_injective_combination(vectors, blocks, seed), (vectors, blocks, seed)
        swept += got is not None and any(hi - lo > 1 for lo, hi in blocks)
    assert swept >= 50


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
        # the solver's rows, one per reachable triple in lexicographic order,
        # applied to the element flattened row-major (X, Y, Z)
        rows, ncols = _action_rows(t)
        vec = [v for m in elem.matrices() for row in m for v in row]
        reached = sorted({idx[:d] + (u,) + idx[d + 1 :] for idx in t.entries for d in range(3) for u in range(shape[d])})
        assert len(vec) == ncols and len(rows) == len(reached)
        den = _integer_entries(t)[1]
        applied = {key: sum(c * vec[col] for col, c in row.items()) / den for key, row in zip(reached, rows)}
        assert lie_apply(elem, t).entries == {key: v for key, v in applied.items() if v}
