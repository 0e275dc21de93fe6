"""class_group checks the group axioms of the table it builds.

Composition is a theorem, so these checks never fire on the real
composition kernel `_compose_abc`.  Each test swaps in a kernel that
reads a perturbed copy of the true table of Cl(-47), a cyclic group of
order 5, so every product is still a reduced form of discriminant -47,
and expects the check for the one axiom the perturbation breaks.
"""

import pytest

from k3arith import bqf
from k3arith.errors import InconsistencyError

D = -47


def _patch(monkeypatch, edit):
    """Make bqf._compose_abc read Cl(D)'s table after edit(table, group)."""
    grp = bqf.class_group(D)
    table = [list(row) for row in grp.table]
    edit(table, grp)
    idx = {f.astuple(): i for i, f in enumerate(grp.forms)}
    monkeypatch.setattr(
        bqf, "_compose_abc",
        lambda *t: grp.forms[table[idx[t[:3]]][idx[t[3:]]]].astuple())


def _set(table, i, j, k):
    table[i][j] = table[j][i] = k


def _inverse(grp, i):
    return grp.table[i].index(grp.identity_index)


def test_the_true_table_passes(monkeypatch):
    _patch(monkeypatch, lambda table, grp: None)
    assert bqf.class_group(D).h == 5


def test_closure(monkeypatch):
    monkeypatch.setattr(bqf, "_compose_abc", lambda *t: (1, 1, 1))
    with pytest.raises(InconsistencyError, match="left the reduced set"):
        bqf.class_group(D)


def test_identity(monkeypatch):
    def edit(table, grp):
        e = grp.identity_index
        x, y = [i for i in range(grp.h) if i != e][:2]
        _set(table, e, x, y)
    _patch(monkeypatch, edit)
    with pytest.raises(InconsistencyError, match="failed as identity"):
        bqf.class_group(D)


def test_inverse(monkeypatch):
    def edit(table, grp):
        a = 1 if grp.identity_index != 1 else 2
        _set(table, a, _inverse(grp, a), a)
    _patch(monkeypatch, edit)
    with pytest.raises(InconsistencyError,
                       match="not the composition inverse"):
        bqf.class_group(D)


def test_associativity_with_identity_and_inverses_intact(monkeypatch):
    # for non-identity a, b, c with b, c != a^-1 and b != c, swapping ab
    # and ac keeps the identity row and every x x^-1 = e, but not (ab)c
    def edit(table, grp):
        e = grp.identity_index
        a = next(i for i in range(grp.h) if i != e)
        b, c = [i for i in range(grp.h) if i not in (e, _inverse(grp, a))][:2]
        ab, ac = table[a][b], table[a][c]
        _set(table, a, b, ac)
        _set(table, a, c, ab)
        assert table[e] == list(range(grp.h))
        assert all(table[i][_inverse(grp, i)] == e for i in range(grp.h))
    _patch(monkeypatch, edit)
    with pytest.raises(InconsistencyError, match="not associative"):
        bqf.class_group(D)
