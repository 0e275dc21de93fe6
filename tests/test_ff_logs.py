"""Primitive roots and discrete logs built without q x q operation tables.

The least primitive root is re-found by brute force: the multiplicative
order of each element in packed order, by repeated multiplication in
sympy's galoistools (`gf_reference`).  The
discrete-log table is checked against the packed multiplication table,
which is the one place a q x q table is still built.
"""

import tracemalloc

import pytest

import gf_reference as gf
from k3arith.ff import FieldCtx


def _order(ctx, a):
    k, acc = 1, a
    while acc != 1:
        acc = gf.mul(ctx, acc, a)
        k += 1
    return k


@pytest.mark.parametrize("p, r", [(3, 2), (5, 2), (3, 3), (7, 2), (11, 2),
                                  (5, 3)])
def test_primitive_root_is_least_in_packed_order(p, r):
    ctx = FieldCtx(p, r)
    least = next(n for n in range(1, ctx.q)
                 if _order(ctx, n) == ctx.q - 1)
    assert ctx.primitive_root() == least


@pytest.mark.parametrize("p, r", [(7, 1), (3, 4), (5, 3)])
def test_dlog_table_inverts_powers_of_the_root(p, r):
    ctx = FieldCtx(p, r)
    table = ctx.dlog_table()
    assert table[0] is None
    assert sorted(table[1:]) == list(range(ctx.q - 1))
    mul = ctx.packed_tables()[1]
    g, acc = ctx.primitive_root(), 1
    for k in range(ctx.q - 1):
        assert table[acc] == k
        acc = mul[acc][g]


def test_dlog_table_at_5_6_is_small_and_table_free(monkeypatch):
    def refuse(self):
        raise AssertionError(f"q x q tables built for F_{self.q}")

    monkeypatch.setattr(FieldCtx, "packed_tables", refuse)
    tracemalloc.start()
    try:
        ctx = FieldCtx(5, 6)
        table = ctx.dlog_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20
    assert ctx._tables is None
    assert len(table) == 5 ** 6 and table[1] == 0
    g = ctx.primitive_root()
    for k in (1, 2, 1000, 5 ** 6 - 2):
        assert table[gf.power(ctx, g, k)] == k
