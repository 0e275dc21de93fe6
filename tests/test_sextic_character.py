"""The double sextic's character table, read off the squares
`FieldCtx.horner` computes and handed to the scan as the tally
`partial(_chi_sum, chi)`, against `ff.quadratic_character` at each packed
index."""

import pytest

from k3arith import count
from k3arith.count import DoubleSextic, count_double_sextic
from k3arith.ff import FieldCtx, quadratic_character


@pytest.mark.parametrize("p, r", [(3, 1), (13, 1), (3, 2), (5, 2), (3, 3),
                                  (11, 2)])
def test_sextic_table_is_the_quadratic_character(monkeypatch, p, r):
    tables = []
    scan = count._affine_scan

    def recording_scan(polys, k, ctx, tally, jobs=1):
        assert tally.func is count._chi_sum
        tables.append(tally.args[0])
        return scan(polys, k, ctx, tally, jobs)

    monkeypatch.setattr(count, "_affine_scan", recording_scan)
    ctx = FieldCtx(p, r)
    surface = DoubleSextic(tuple(range(1, 29)))
    count_double_sextic(surface, ctx)
    want = [quadratic_character(ctx, a) for a in range(ctx.q)]
    assert len(tables) == 3
    for chi in tables:
        assert chi.tolist() == want
