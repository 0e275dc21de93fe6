"""The Jacobi-sum fast path for diagonal quartics against a naive route.

The naive route below shares nothing with the package: its fields are
F_p or F_p[x]/(x^2 - n) for a non-residue n, its quartic character is read
off its own generator, and each three-character Jacobi sum is the O(q^2)
double sum over x + y + z = 1.  The multiset of the 21 eigenvalues does not
depend on which generator fixes the character (replacing chi by chi^3 maps
the tuple j to -j, and the tuple set is closed under negation), so it can
be compared with the package's sorted list as it stands.
"""

import itertools

import pytest

from k3arith.count import (DiagonalQuartic, count_diagonal_quartic_jacobi,
                           count_tower, fermat_quartic)
from k3arith.ff import FieldCtx

# q -> (p, n): F_q = F_p[x]/(x^2 - n), or F_p itself when n is None
FIELDS = {5: (5, None), 13: (13, None), 9: (3, -1), 25: (5, 2), 49: (7, -1)}
SURFACES = ((1, 1, 1, 1), (1, 2, 4, 8), (-1, 2, 11, -4))


def _naive_field(q):
    """Elements (a, b) = a + b x, multiplication and the discrete log of
    every nonzero element to a generator found by counting orders."""
    p, n = FIELDS[q]
    elems = ([(a, 0) for a in range(p)] if n is None
             else list(itertools.product(range(p), repeat=2)))

    def mul(u, v):
        return ((u[0] * v[0] + (n or 0) * u[1] * v[1]) % p,
                (u[0] * v[1] + u[1] * v[0]) % p)

    for h in elems:
        if h == (0, 0):
            continue
        log, acc = {}, (1, 0)
        for k in range(q - 1):
            if acc in log:
                break
            log[acc] = k
            acc = mul(acc, h)
        if len(log) == q - 1:
            return p, elems, log
    raise AssertionError("no generator")  # pragma: no cover


def _gauss(acc):
    """sum of acc[e] i^e as a Gaussian integer (re, im)."""
    return (acc[0] - acc[2], acc[1] - acc[3])


def _gmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _naive_eigenvalues(coeffs, q):
    p, elems, log = _naive_field(q)
    triples = []  # logs of (x, y, z) with x + y + z = 1, all nonzero
    for x, y in itertools.product(elems, repeat=2):
        z = ((1 - x[0] - y[0]) % p, (-x[1] - y[1]) % p)
        if x in log and y in log and z in log:
            triples.append((log[x], log[y], log[z]))
    l_minus1 = log[(p - 1, 0)]
    l_a = [log[(a % p, 0)] for a in coeffs]
    eigs = []
    for j in itertools.product(range(1, 4), repeat=4):
        if sum(j) % 4:
            continue
        acc = [0] * 4
        for lx, ly, lz in triples:
            acc[(j[0] * lx + j[1] * ly + j[2] * lz) % 4] += 1
        # chi^j3(-1) prod_k chi^(-j_k)(a_k) J(chi^j0, chi^j1, chi^j2)
        twist = (j[3] * l_minus1 - sum(jk * la for jk, la in zip(j, l_a))) % 4
        eigs.append(_gmul(_gauss([int(e == twist) for e in range(4)]),
                          _gauss(acc)))
    return sorted(eigs)


@pytest.mark.parametrize("q", sorted(FIELDS))
@pytest.mark.parametrize("coeffs", SURFACES)
def test_eigenvalues_match_naive_three_character_sums(q, coeffs):
    p, r = FIELDS[q][0], 1 if FIELDS[q][1] is None else 2
    count, eigs = count_diagonal_quartic_jacobi(DiagonalQuartic(coeffs),
                                                FieldCtx(p, r))
    assert eigs[0] == q and len(eigs) == 22
    got = sorted((e.coeffs[0], e.coeffs[1]) for e in eigs[1:])
    want = _naive_eigenvalues(coeffs, q)
    assert got == want
    assert count == q * q + q + 1 + sum(re for re, _ in want)


def test_tower_needs_no_operation_tables(monkeypatch):
    def refuse(self):
        raise AssertionError(f"q x q tables built for F_{self.q}")

    monkeypatch.setattr(FieldCtx, "packed_tables", refuse)
    counts = [rec.count for rec in count_tower(fermat_quartic(), 5, 4)]
    assert counts == [0, 1112, 15360, 402072]
