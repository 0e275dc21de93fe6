"""The torus count: a quartic whose only monomials mod p are a_i x_i^4 and
e x0 x1 x2 x3, e nonzero mod p (the shape of the Dwork pencil), counted
over F_p, at every p, by the fibres of x -> x^4 on the torus.

It must equal the scan kernel on every such quartic over F_p, p < 40
(p | a_i and a_i = 0 for every i among them).  `_route` takes it at every
p with r = 1; over extensions the Dwork members keep the scan and its
price.  The CM sieve never scans and builds one tally per prime, with the
candidates the pencil scan of earlier versions gave; a batch that
interleaves primes pays for every tally it builds.  A tower priced by
the tally can be refused where the scan's price admitted it (F_463).  Past
the byte guard `ff.check_bytes` it refuses before it builds anything.
"""

import tracemalloc

import pytest

from k3arith import count
from k3arith.cmmod import cm_sieve, eta4_pow6_expansion
from k3arith.count import (FEASIBILITY_CAP, DiagonalQuartic, Quartic,
                           _route, _torus_shape, count_many, count_quartic,
                           count_torus_fibres, count_tower, dwork_pencil)
from k3arith.errors import UnsupportedError, UsageError
from k3arith.ff import TABLE_BYTES, FieldCtx, isprime

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example = hypothesis.given, hypothesis.example
assume = hypothesis.assume

PRIMES = [p for p in range(2, 40) if isprime(p)]
DIAGONAL = ((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4))


def _torus_quartic(a, e):
    d = dict(zip(DIAGONAL, a))
    d[(1, 1, 1, 1)] = e
    return Quartic.from_dict(d)


@given(st.sampled_from(PRIMES),
       st.lists(st.integers(-40, 40), min_size=4, max_size=4),
       st.integers(-200, 200))
@example(5, [0, 0, 0, 0], 1)
@example(2, [1, 0, 1, 1], 1)
@example(3, [3, 1, -1, 6], 2)
@example(31, [1, 1, 1, 1], 7)
@example(13, [13, -26, 0, 39], -1)
@example(37, [1, 1, 1, 1], 41)
@example(29, [1, 2, 3, 4], -87)
def test_torus_count_equals_the_scan(p, a, e):
    assume(e % p)
    surface, ctx = _torus_quartic(a, e), FieldCtx(p)
    assert count_torus_fibres(surface, ctx) == count_quartic(surface, ctx)


def test_route_takes_the_torus_count_at_every_p_with_r_1():
    # m = (p - 1)/gcd(4, p - 1) fourth powers: 3 at 13, 5 at 11, 1 at 2
    assert _route(dwork_pencil.member(1), 2, 1) == (count_torus_fibres,
                                                    25 + 10 * 2 ** 2)
    for lam in (1, 2, 5):
        member = dwork_pencil.member(lam)
        assert _route(member, 13, 1) == (count_torus_fibres,
                                         25 * 3 ** 3 + 10 * 13 ** 2)
        assert _route(member, 11, 1) == (count_torus_fibres,
                                         25 * 5 ** 3 + 10 * 11 ** 2)
        assert _route(member, 13, 2) == (count_quartic,
                                         10 * 169 ** 3 + 2 * 169 ** 2)
        assert _route(member, 3, 2) == (count_quartic,
                                        10 * 9 ** 3 + 2 * 9 ** 2)
    # the price stays below the scan's at every p = 1 mod 4
    for p in (p for p in range(5, 6000, 4) if isprime(p)):
        assert _route(dwork_pencil.member(1), p, 1)[1] < 3 * p ** 3


def test_torus_shape_reads_monomials_mod_p():
    assert _torus_shape(dwork_pencil.member(3), 13) == ([1, 1, 1, 1], 10)
    assert _torus_shape(dwork_pencil.member(13), 13) == ([1, 1, 1, 1], 0)
    assert _torus_shape(DiagonalQuartic((1, 2, 16, 4)), 13) == (
        [1, 2, 3, 4], 0)
    assert _torus_shape(Quartic(tuple(range(1, 36))), 13) is None
    assert _torus_shape(count.DoubleSextic((1,) * 28), 13) is None


def test_torus_count_refuses_off_its_domain():
    member = dwork_pencil.member(3)
    for ctx in (FieldCtx(13, 2), FieldCtx(11, 2), FieldCtx(2, 3)):
        with pytest.raises(UnsupportedError, match="torus count"):
            count_torus_fibres(member, ctx)
    for surface in (dwork_pencil.member(13), Quartic(tuple(range(1, 36)))):
        with pytest.raises(UnsupportedError, match="torus count"):
            count_torus_fibres(surface, FieldCtx(13))


# cm_sieve(dwork_pencil, eta4_pow6_expansion(101), [13, 17, 101]) as the
# pencil scan of earlier versions gave it: (p, lam, h, count)
SIEVE_13_17_101 = [
    (13, 0, -4, 128), (17, 0, 20, 600), (101, 0, -4, 9600),
    (101, 13, -4, 9600), (101, 29, -4, 9600), (101, 72, -4, 9600),
    (101, 88, -4, 9600)]


def test_cm_sieve_builds_one_tally_per_prime_and_never_scans(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the sieve scanned")

    monkeypatch.setattr(count, "_projective_scan", boom)
    count._torus_tally.cache_clear()
    got = cm_sieve(dwork_pencil, eta4_pow6_expansion(101), [13, 17, 101])
    assert [(c.p, c.lam, c.h, c.count) for c in got] == SIEVE_13_17_101
    assert count._torus_tally.cache_info().misses == 3


def test_interleaved_primes_pay_for_every_tally_they_build(monkeypatch):
    """Dwork members lam = 1..3 over five primes, the primes interleaved:
    each key's (a, p) differs from the last, so each builds its tally, and
    the walk charges each one."""
    built, totals = [], []
    fibres, check_price = (count.count_diagonal_quartic_fibres,
                           count.check_price)

    def fibres_spy(surface, ctx, jobs=1):  # one call a tally built
        built.append(ctx.p)
        return fibres(surface, ctx, jobs)

    def price_spy(what, total, cap, unit):
        totals.append(total)
        check_price(what, total, cap, unit)

    monkeypatch.setattr(count, "count_diagonal_quartic_fibres", fibres_spy)
    monkeypatch.setattr(count, "check_price", price_spy)
    primes = (101, 103, 107, 109, 113)
    keys = [(dwork_pencil.member(lam), p, 1) for lam in (1, 2, 3)
            for p in primes]
    count._torus_tally.cache_clear()
    assert count_many(keys) == [count_quartic(s, FieldCtx(p))
                                for s, p, _ in keys]
    assert built == list(primes) * 3
    assert totals[-1] == sum(_route(keys[0][0], p, 1)[1] for p in built)


def test_count_many_scans_only_what_routes_to_the_scan(monkeypatch):
    """A pencil over F_13 whose members change shape with mu: the Dwork
    members count by the torus, the Fermat member by fibres, and each of
    the 6 members with an x0^3 x1 term by its own scan."""
    base = _torus_quartic((1, 1, 1, 1), 0).coeffs
    g = _torus_quartic((0, 0, 0, 0), 1).coeffs
    x0x1 = Quartic.from_dict({(3, 1, 0, 0): 1}).coeffs
    members = [Quartic(tuple(f + mu * b for f, b in zip(base, g)))
               for mu in range(7)]
    members += [Quartic(tuple(f + mu * b for f, b in zip(base, x0x1)))
                for mu in range(1, 7)]
    ctx = FieldCtx(13)
    want = [count_quartic(s, ctx) for s in members]
    scans = []
    scan = count._projective_scan

    def spy(*args, **kwargs):
        scans.append(len(args[0]))
        return scan(*args, **kwargs)

    monkeypatch.setattr(count, "_projective_scan", spy)
    assert count_many([(s, 13, 1) for s in members]) == want
    assert scans == [1] * 6  # one scan of one polynomial a member


def test_a_tower_over_f_463_is_refused_at_the_tally_price():
    """463 = 3 mod 4: the tally's price, 25 m^3 + 10 p^2 with m = 231,
    passes FEASIBILITY_CAP where the pencil scan's 3 p^3 did not."""
    member = dwork_pencil.member(3)
    assert 3 * 463 ** 3 <= FEASIBILITY_CAP < _route(member, 463, 1)[1] == (
        25 * 231 ** 3 + 10 * 463 ** 2)
    with pytest.raises(UsageError, match="3.1e"):
        count_tower(member, 463, 1)
    [rec] = count_tower(member, 463, 1, force=True)
    assert rec.count == count_torus_fibres(member, FieldCtx(463))


def test_a_count_past_the_byte_guard_is_refused_before_any_table():
    """16 B a p m, m = (p - 1)/d: d = 4 at p = 1 mod 4, 2 at p = 3 mod 4."""
    for d, past in ((4, 8209), (2, 5807)):
        assert past == next(p for p in range(d + 1, 10 ** 5, 4) if isprime(p)
                            and 16 * p * (p - 1) // d > TABLE_BYTES)
        count._torus_tally.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match=f"torus over F_{past} need"):
                count_torus_fibres(dwork_pencil.member(3), FieldCtx(past))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, d
        assert count._torus_tally.cache_info().misses == 0
