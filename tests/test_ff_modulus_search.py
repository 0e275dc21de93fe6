"""The modulus search of `ff.FieldCtx` skips only polynomials that cannot be
irreducible, so it picks the modulus of the full walk over the packed order;
and where no binomial x^r + c is irreducible (here r = 3, p = 2 mod 3) it
no longer tests all p of them first."""

import time

import pytest

from k3arith import ff
from k3arith.ff import FieldCtx, isprime


def _full_walk(p, r):
    """The least monic irreducible of degree r, every candidate tested."""
    for n in range(p ** r):
        f = tuple(n // p ** i % p for i in range(r)) + (1,)
        if ff._is_irreducible(f, p):
            return f


@pytest.mark.parametrize("r", range(1, 7))
def test_same_modulus_as_the_full_walk(r):
    for p in filter(isprime, range(80)):
        if p ** r <= 10 ** 6:
            assert ff._least_irreducible(p, r) == _full_walk(p, r), (p, r)


def test_binomial_free_degree_takes_no_walk_through_p():
    start = time.perf_counter()
    ctx = FieldCtx(100019, 3)
    assert time.perf_counter() - start < 0.1
    assert ctx.modulus[1:] == (1, 0, 1)  # x^3 + x + c, every x^3 + c reducible
    assert ff._is_irreducible(ctx.modulus, 100019)
