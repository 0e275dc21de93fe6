"""The log-derived operation tables against element arithmetic.

`FieldCtx.packed_tables` reads multiplication off the discrete logs and
addition off the base-p digits of the packed index.  Here both tables are
rebuilt entry by entry from sympy's galoistools (`gf_reference`), whose
sums and products mod the field's modulus share no code with `ff`.  Also pinned: the table budget refuses F_{5^6} before
allocating, yet admits every field a feasible `count_tower` call scans.
"""

import tracemalloc

import numpy as np
import pytest
import sympy

import gf_reference as gf
from k3arith.count import (FEASIBILITY_CAP, DoubleSextic, Quartic, _route,
                           count_double_sextic)
from k3arith.errors import UsageError
from k3arith.ff import TABLE_BYTES, FieldCtx


@pytest.mark.parametrize("p, r", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3),
                                  (7, 2), (11, 2)])
def test_packed_tables_match_element_arithmetic(p, r):
    ctx = FieldCtx(p, r)
    add, mul = ctx.packed_tables()
    assert add.shape == mul.shape == (ctx.q, ctx.q)
    assert add.dtype == mul.dtype == np.int32  # 8 q^2 bytes, as budgeted
    assert (add.tolist(), mul.tolist()) == gf.tables(ctx)
    assert ctx.packed_tables() is ctx.packed_tables()  # built once


def test_packed_tables_refused_at_5_6_before_allocating():
    ctx = FieldCtx(5, 6)
    tracemalloc.start()
    try:
        with pytest.raises(UsageError):
            ctx.packed_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20
    assert ctx._tables is None


def test_table_budget_admits_every_feasible_tower():
    # the cost model is increasing in q, so the last admitted level decides
    models = (Quartic((1,) * 35), DoubleSextic((1,) * 28))
    largest = 0
    for p in sympy.primerange(2, 6000):
        for r in range(1, 13):
            if p ** r > 6000:
                break
            for model in models:
                if sum(_route(model, p, k)[1]
                       for k in range(1, r + 1)) <= FEASIBILITY_CAP:
                    largest = max(largest, p ** r)
    assert largest > 5000  # sextics over prime fields reach past 5000
    assert 8 * largest ** 2 <= TABLE_BYTES


def test_sextic_parallel_matches_serial():
    # the workers share the character table and the field's tables
    f = DoubleSextic.from_dict({(6, 0, 0): 1, (0, 6, 0): 2, (0, 0, 6): 1,
                                (2, 2, 2): 1, (5, 1, 0): 2})
    ctx = FieldCtx(3, 2)
    assert count_double_sextic(f, ctx, jobs=2) == count_double_sextic(f, ctx)
