"""`count._route` reads a quartic's monomials mod p, never its integer
coefficients.

A `DiagonalQuartic` and the same quartic plus p x0^2 x1 x2 are one surface
over F_p, so each level F_{p^r} must give them the same count function,
the same price and the same count, p | a_i included; the scan agrees where
it is cheap.  No level r = 1 takes Jacobi sums: the closed form or the
fibre count is there first.
"""

import pytest

from k3arith import count
from k3arith.count import DiagonalQuartic, Quartic, _route
from k3arith.ff import FieldCtx

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example = hypothesis.given, hypothesis.example

COUNTED_UP_TO = 12_000_000  # the prices this test counts at, a few ms each


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 3),
       st.lists(st.tuples(st.integers(-20, 20), st.booleans()),
                min_size=4, max_size=4))
@example(5, 2, [(1, False), (2, False), (3, False), (1, True)])
@example(3, 2, [(1, False)] * 4)
@example(13, 2, [(1, False)] * 4)
@example(2, 3, [(1, True)] * 4)
@example(3, 3, [(1, True), (1, False), (2, False), (0, False)])
def test_both_classes_take_one_route_and_count(p, r, coeffs):
    """a_i = c p where the flag is set."""
    a = tuple(c * p if by_p else c for c, by_p in coeffs)
    diagonal = DiagonalQuartic(a)
    plain = Quartic.from_dict({(4, 0, 0, 0): a[0], (0, 4, 0, 0): a[1],
                               (0, 0, 4, 0): a[2], (0, 0, 0, 4): a[3],
                               (2, 1, 1, 0): p})
    route = _route(diagonal, p, r)
    assert route == _route(plain, p, r)
    fn, price = route
    assert r > 1 or fn is not count._count_by_jacobi
    if price <= COUNTED_UP_TO:
        ctx = FieldCtx(p, r)
        n = fn(diagonal, ctx, 1)
        assert fn(plain, ctx, 1) == n
        if count._scan_price(p ** r, r) <= COUNTED_UP_TO:
            assert count.count_quartic(plain, ctx) == n
