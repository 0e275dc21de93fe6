"""Light's associativity test must check every generator, the first too.

class_group checks (xs)y = x(sy) for every x, y and every s of a greedy
generating set whose first member is the first non-identity index.  In
Cl(-420), isomorphic to (Z/2)^3, write each class as u h with u in
{e, g1} (g1 that first generator) and h in a Klein four-group H = {e, p,
q, r} that avoids g1.  The perturbed table multiplies the H parts by a
commutative non-associative law (pq = q and pr = r instead of r and q)
and the u parts as before.  Every triple that contains g1 still
associates, and so do the identity row and every inverse (x x = e), so
only a later generator can find the fault.

Conversely, in Cl(-47), cyclic of order 5, a perturbation away from the
row of g1 leaves g1 a generator on its own, so only g1 can find that one.
"""

import pytest

from k3arith import bqf
from k3arith.errors import InconsistencyError

def _patch(monkeypatch, grp, table):
    idx = {f.astuple(): i for i, f in enumerate(grp.forms)}
    monkeypatch.setattr(
        bqf, "_compose_abc",
        lambda *t: grp.forms[table[idx[t[:3]]][idx[t[3:]]]].astuple())


def _faults(table):
    h = len(table)
    return [(x, y, z) for x in range(h) for y in range(h) for z in range(h)
            if table[table[x][y]][z] != table[x][table[y][z]]]


def test_associativity_fault_that_avoids_the_first_generator(monkeypatch):
    grp = bqf.class_group(-420)
    t, e, h = grp.table, grp.identity_index, grp.h
    assert (h, grp.exponent) == (8, 2)
    g1 = next(i for i in range(h) if i != e)
    p = next(i for i in range(h) if i not in (e, g1))
    q = next(i for i in range(h) if i not in (e, g1, p, t[g1][p]))
    r = t[p][q]
    part = {t[u][k]: k for u in (e, g1) for k in (e, p, q, r)}  # x -> h
    assert len(part) == h

    def product(x, y):
        if {part[x], part[y]} in ({p, q}, {p, r}):
            return t[t[x][y]][p]
        return t[x][y]

    table = [[product(x, y) for y in range(h)] for x in range(h)]
    assert table == [list(col) for col in zip(*table)]
    assert table[e] == list(range(h))
    assert all(table[x][x] == e for x in range(h))
    bad = _faults(table)
    assert bad and all(g1 not in triple for triple in bad)
    _patch(monkeypatch, grp, table)
    with pytest.raises(InconsistencyError, match="not associative"):
        bqf.class_group(-420)


def test_associativity_fault_only_the_first_generator_sees(monkeypatch):
    # with a = g1^2 and c = g1^-1, swap a a = g1^4 and a c = g1: the row of
    # g1 stays true, so its powers reach every class and S = {g1}
    grp = bqf.class_group(-47)
    t, e, h = grp.table, grp.identity_index, grp.h
    assert h == 5
    g1 = next(i for i in range(h) if i != e)
    a, c = t[g1][g1], t[g1].index(e)
    table = [list(row) for row in t]
    table[a][a], table[a][c] = t[a][c], t[a][a]
    table[c][a] = table[a][c]
    assert table[e] == list(range(h)) and table[g1] == list(t[g1])
    assert all(table[x][t[x].index(e)] == e for x in range(h))
    powers, x = {e}, g1
    while x not in powers:
        powers.add(x)
        x = table[x][g1]
    assert len(powers) == h and _faults(table)
    _patch(monkeypatch, grp, table)
    with pytest.raises(InconsistencyError, match="not associative"):
        bqf.class_group(-47)
