"""Independent checks of the toolkit's reports against their inputs.

This module imports only `core`, so a check shares no code with the
elimination, the deciders or the symmetry module whose answers it checks.
A check returns None on a valid report and raises `CertificateError`, with
the first fault it finds, on an invalid one.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .core import Support, Tensor, Triple


class CertificateError(ValueError):
    """A report that its certificate does not support."""


def _kills(mats, entries: dict[Triple, int]) -> bool:
    """Whether X.T + Y.T + Z.T = 0, where (X.T)[u, j, k] is the sum over i of
    X[u][i] T[i, j, k], and alike on the other two axes.  `entries` is T
    scaled to integers, and the matrices are scaled by the lcm of their
    denominators, which moves no entry of the image off zero."""
    den = lcm(*(v.denominator for m in mats for row in m for v in row))
    out: dict[Triple, int] = {}
    for axis, m in enumerate(mats):
        columns = [[(u, int(row[i] * den)) for u, row in enumerate(m) if row[i]] for i in range(len(m))]
        for key, v in entries.items():
            for u, w in columns[key[axis]]:
                moved = key[:axis] + (u,) + key[axis + 1 :]
                out[moved] = out.get(moved, 0) + w * v
    return not any(out.values())


def check_annihilator(t: Tensor, report) -> None:
    """Check a `symmetry.LieSolveReport` of `t`:

    - every basis element is a triple of square matrices of sizes a, b and c
      whose Leibniz action kills t;
    - the basis is in reduced echelon form in the row-major (X, Y, Z)
      flattening: leading columns strictly increase, each leading entry is 1
      and every other element is 0 there, which proves the elements
      independent in O(k n) for k elements of length n;
    - kernel_dim == len(basis) == annihilator_dim + 2.

    Whether the basis spans the whole kernel is the solver's rank and is not
    checked here.
    """
    sizes = tuple(t.shape)
    if not report.kernel_dim == len(report.basis) == report.annihilator_dim + 2:
        raise CertificateError(
            f"kernel_dim {report.kernel_dim}, {len(report.basis)} basis elements and "
            f"annihilator_dim {report.annihilator_dim} do not satisfy kernel_dim = basis size = annihilator_dim + 2"
        )
    den = lcm(*(v.denominator for v in t.entries.values()))
    entries = {key: int(v * den) for key, v in t.entries.items()}
    leads: list[int] = []
    flats: list[list[Fraction]] = []
    for n, elem in enumerate(report.basis):
        mats = (elem.x, elem.y, elem.z)
        if any(len(m) != d or any(len(row) != d for row in m) for m, d in zip(mats, sizes)):
            raise CertificateError(f"element {n} is not a triple of square matrices of sizes {sizes}")
        if not _kills(mats, entries):
            raise CertificateError(f"element {n} does not annihilate the tensor")
        flat = [v for m in mats for row in m for v in row]
        lead = next((c for c, v in enumerate(flat) if v), None)
        if lead is None or flat[lead] != 1 or (leads and lead <= leads[-1]):
            raise CertificateError(f"element {n} breaks the reduced echelon form: leading entry not a 1 right of the last")
        leads.append(lead)
        flats.append(flat)
    for n, flat in enumerate(flats):
        if any(flat[c] for c in leads if c != leads[n]):
            raise CertificateError(f"element {n} breaks the reduced echelon form: nonzero in another's leading column")


def check_oblique(s: Support, result) -> None:
    """Check a `deciders.ObliqueResult` of `s`: an "oblique" verdict carries
    three permutations, of the sizes of the shape, under which no two
    triples of the support are comparable coordinatewise; any other verdict
    carries no witness.  "not_oblique" has no certificate to check.

    Sorted lexicographically, each reordered triple is at most every later
    one on the first axis, so a pair is comparable exactly when the earlier
    one is also at most the later one on the other two.
    """
    w = result.witness
    if result.status != "oblique":
        if w is not None:
            raise CertificateError(f"a {result.status} verdict carries a witness")
        return
    if w is None:
        raise CertificateError("an oblique verdict carries no witness")
    perms = (w.on_a, w.on_b, w.on_c)
    for axis, (p, n) in enumerate(zip(perms, s.shape)):
        if sorted(p) != list(range(n)):
            raise CertificateError(f"the witness's map on axis {axis} is not a permutation of 0..{n - 1}")
    moved = sorted(tuple(p[x] for p, x in zip(perms, t)) for t in s.triples)
    for n, p in enumerate(moved):
        for q in moved[n + 1 :]:
            if p[1] <= q[1] and p[2] <= q[2]:
                raise CertificateError(f"reordered triples {p} and {q} are comparable")
