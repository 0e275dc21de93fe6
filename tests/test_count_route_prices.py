"""The route and price of each tower level, and the Legendre symbols of
`hecke_h`.

`count._route` picks the count for one level F_{p^r} and prices it;
`count_tower`'s one `count_many` walk sums those prices against
FEASIBILITY_CAP.  The table below
was frozen from the if-chain `_route` replaced, so the set of refused
towers cannot move unnoticed.  `hecke_h` reads chi_{-1}(p) and chi_2(p)
off p mod 8; `ff.quadratic_character` is the reference.
"""

import pytest

from k3arith import count
from k3arith.cmmod import cm_sieve, eta4_pow6_expansion, hecke_h
from k3arith.count import (FEASIBILITY_CAP, QUARTIC_EXPONENTS,
                           SEXTIC_EXPONENTS, DiagonalQuartic, DoubleSextic,
                           Quartic, _route, count_diagonal_quartic_jacobi,
                           count_tower,
                           fermat_quartic)
from k3arith.errors import DomainError, UnsupportedError, UsageError
from k3arith.ff import FieldCtx, isprime, quadratic_character

SEXTIC = DoubleSextic((1,) * len(SEXTIC_EXPONENTS))
QUARTIC = Quartic((1,) * len(QUARTIC_EXPONENTS))
FERMAT = fermat_quartic()
DIAG5 = DiagonalQuartic((1, 1, 1, 5))  # 5 | a coefficient: no fast path at 5

# (surface, p, r_max, tower cost) as the if-chain priced them
FROZEN_COSTS = [
    (SEXTIC, 3, 4, 73800),
    (SEXTIC, 7, 4, 58849000),
    (SEXTIC, 7, 5, 2883601490),
    (SEXTIC, 5, 7, 63578287750),
    (FERMAT, 5, 3, 439425),  # Jacobi at every level
    (FERMAT, 3, 4, 207334),  # closed form at odd r, Jacobi at even r
    (FERMAT, 13, 2, 775710),
    (FERMAT, 2, 8, 1296000),  # closed form: characteristic 2
    (FERMAT, 5, 7, 171661376925),
    (DIAG5, 5, 3, 5939175),
    (DIAG5, 3, 5, 332334),
    (QUARTIC, 101, 1, 3111305),
    (QUARTIC, 2, 8, 57696640),
    (QUARTIC, 2, 9, 460874112),
    (QUARTIC, 3, 5, 44835219),
    (QUARTIC, 3, 6, 1208159568),
    # diagonal towers the closed form admits, and the first it refuses
    (FERMAT, 3, 7, 15024241),  # refused at 31448379213 by the scan
    (FERMAT, 3, 8, 1177285708),
    (FERMAT, 2, 32, 278784000),  # 1000 r^3 a level
    (FERMAT, 2, 33, 314721000),
    (FERMAT, 2, 1000, 250500250000000),
    (FERMAT, 3, 10, 333370000),  # the first refused once Jacobi is O(q)
    # quartic towers at r > 1 once a scan there is priced at 10 q^3
    (QUARTIC, 17, 2, 241557471),
    (QUARTIC, 7, 3, 404953689),  # refused: 0.5 s of scan at 1 job
    # more Fermat towers, at the prices of the rows above
    (FERMAT, 5, 4, 3876500),
    (FERMAT, 3, 8, 37396000),
    (FERMAT, 2, 32, 278784000),
]

# The price each row above was first frozen at is part of its test id, so
# a row whose price has moved keeps it there and takes its current price
# from here, keyed by tower.  The Jacobi levels are priced at 5000 q (the
# sums are O(q)); a scan at r = 1 no longer pays 2 q^2 for operation tables
# it never builds, and one at r > 1 pays 10 q^3, its measured cost, not
# 3 q^3.  (FERMAT, 3, 8) is admitted now; (FERMAT, 5, 7) stays refused.
# DIAG5's level F_5 takes the fibre count, 300 p, not a 3 q^3 scan, and so
# does every level r = 1 of FERMAT at p = 1 mod 4, not Jacobi sums at 5000 p.
REPRICED = {
    (FERMAT, 5, 3): 751500,
    (FERMAT, 3, 4): 478000,
    (FERMAT, 13, 2): 848900,
    (FERMAT, 5, 7): 488251500,
    (DIAG5, 5, 3): 19721500,
    (DIAG5, 3, 5): 603000,
    (QUARTIC, 101, 1): 3090903,
    (QUARTIC, 2, 8): 191914296,
    (QUARTIC, 2, 9): 1534615864,
    (QUARTIC, 3, 5): 149140521,
    (QUARTIC, 3, 6): 4024408293,
    (FERMAT, 3, 7): 4591000,
    (FERMAT, 3, 8): 37396000,
}


def _tower_cost(surface, p, r_max):
    """The sum of the level prices a tower's walk adds up."""
    return sum(_route(surface, p, r)[1] for r in range(1, r_max + 1))


@pytest.mark.parametrize("surface, p, r_max, cost", FROZEN_COSTS)
def test_tower_cost_frozen(surface, p, r_max, cost):
    cost = REPRICED.get((surface, p, r_max), cost)
    assert _tower_cost(surface, p, r_max) == cost
    if cost > FEASIBILITY_CAP:
        with pytest.raises(UsageError, match="price units"):
            count_tower(surface, p, r_max)


def test_route_picks_each_count():
    assert _route(SEXTIC, 3, 1) == (count.count_double_sextic, 90)
    assert _route(QUARTIC, 3, 1) == (count.count_quartic, 81)  # no tables
    assert _route(FERMAT, 3, 1) == (count.count_diagonal_quartic_quadric, 1000)
    # the levels r = 1 of diagonal shape left over: p | a_i, or p = 1 mod 4
    fibres = count.count_diagonal_quartic_fibres
    assert _route(DIAG5, 5, 1) == (fibres, 300 * 5)
    assert _route(FERMAT, 13, 1) == (fibres, 300 * 13)
    jacobi, price = _route(FERMAT, 3, 2)
    assert price == 5000 * 9
    assert _route(FERMAT, 13, 2) == (jacobi, 5000 * 169)
    assert _route(count.dwork_pencil.member(13), 13, 1)[0] is fibres
    assert _route(count.dwork_pencil.member(1), 13, 2) == (
        count.count_quartic, 10 * 169 ** 3 + 2 * 169 ** 2)
    ctx = FieldCtx(3, 2)
    assert jacobi(FERMAT, ctx, 1) == count_diagonal_quartic_jacobi(FERMAT, ctx)[0]


def test_route_reads_the_counts_at_call_time(monkeypatch):
    """A count rebound on the module by name is the one a tower calls."""
    calls = []

    def fake(surface, ctx, jobs):
        calls.append((ctx.q, jobs))
        return 7

    monkeypatch.setattr(count, "count_quartic", fake)
    monkeypatch.setattr(count, "count_double_sextic", fake)
    assert [rec.count for rec in count_tower(QUARTIC, 3, 2, jobs=2)] == [7, 7]
    assert [rec.count for rec in count_tower(SEXTIC, 3, 1)] == [7]
    assert calls == [(3, 1), (9, 1), (3, 1)]  # below the gate: one job


@pytest.mark.parametrize("surface, p, r", [
    (FERMAT, 3, 1),  # q = 3 mod 4
    (FERMAT, 2, 2),  # characteristic 2
    (DIAG5, 5, 2),  # p divides a coefficient
])
def test_jacobi_refuses_exactly_off_the_fast_path(surface, p, r):
    assert not count._fast_path_ok(surface, p, r)
    with pytest.raises(UnsupportedError, match="q = 1 mod 4"):
        count_diagonal_quartic_jacobi(surface, FieldCtx(p, r))


def test_hecke_h_matches_quadratic_character():
    for p in range(3, 3000, 2):
        if not isprime(p):
            continue
        ctx = FieldCtx(p)
        chi_m1 = quadratic_character(ctx.element(-1))
        chi_2 = quadratic_character(ctx.element(2))
        assert hecke_h(p) == 5 + 3 * chi_m1 + 6 * (chi_2 + chi_m1 * chi_2), p


def test_cm_sieve_refuses_bad_reduction_at_an_odd_prime():
    class BadAtFive:
        def good_reduction(self, p):
            return p != 5

    with pytest.raises(DomainError, match="bad reduction at 5"):
        cm_sieve(BadAtFive(), eta4_pow6_expansion(13), [13, 5])
