"""`count.count_many` over the members of a pencil F + mu G: each pending
member counts alone, by its own `_route`, and every count equals
`count_quartic`'s, member by member.  The CM sieve hands `count_many` the
smooth members of the Dwork pencil; at every odd p they count by the torus
route (`count_torus_fibres`), one tally for the whole prime, never by a
scan."""

import pytest

from k3arith import count
from k3arith.cmmod import H_BOUND, cm_sieve, eta4_pow6_expansion
from k3arith.count import (QUARTIC_EXPONENTS, Quartic, count_many,
                           count_quartic, dwork_pencil)
from k3arith.ff import FieldCtx

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example = hypothesis.given, hypothesis.example

N = len(QUARTIC_EXPONENTS)
PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]
DWORK_F = dwork_pencil.member(0).coeffs
DWORK_G = tuple(a - b for a, b in zip(dwork_pencil.member(-1).coeffs,
                                      DWORK_F))
# vanishes on the whole stratum x_0 = 0: every monomial holds x_0
X0_ONLY = tuple(3 * (e[0] > 0) + e[1] for e in QUARTIC_EXPONENTS)


def _members(f, g, mus):
    return [Quartic(tuple(a + mu * b for a, b in zip(f, g))) for mu in mus]


def _each(surfaces, ctx):
    return [count_quartic(s, ctx) for s in surfaces]


def _coeffs(density):
    return st.lists(st.integers(-40, 40), min_size=N, max_size=N).map(
        lambda c: tuple(x * (i % density == 0) for i, x in enumerate(c)))


@given(p=st.sampled_from(PRIMES), f=_coeffs(1), g=_coeffs(3),
       data=st.data())
@example(p=13, f=DWORK_F, g=DWORK_G, data=None)
@example(p=11, f=DWORK_F, g=X0_ONLY, data=None)
@example(p=7, f=X0_ONLY, g=DWORK_G, data=None)
def test_pencil_counts_equal_member_counts(p, f, g, data):
    if data is None:  # the explicit examples: every mu, in order
        mus = list(range(p))
    else:  # repeats and integer lifts outside 0..p-1 allowed
        mus = data.draw(st.lists(st.integers(-2 * p, 2 * p),
                                 min_size=5, max_size=p))
    members = _members(f, g, mus)
    assert count_many([(m, p, 1) for m in members]) == _each(members,
                                                              FieldCtx(p))


def test_one_and_two_jobs_give_equal_counts():
    members = _members(DWORK_F, X0_ONLY, range(11))
    keys = [(m, 11, 1) for m in members]
    assert count_many(keys, jobs=2) == count_many(keys) == (
        _each(members, FieldCtx(11)))


@pytest.mark.parametrize("p", [11, 13, 17, 19])
def test_cm_sieve_never_counts_member_by_member(monkeypatch, p):
    """At p = 1 and 3 mod 4 alike the sieve never scans: its Dwork members
    count by the torus route, which builds one tally for the whole
    prime."""
    target = eta4_pow6_expansion(p)
    want = []
    for lam in range(p):
        if dwork_pencil.is_smooth_member(lam, p):
            n = count_quartic(dwork_pencil.member(lam), FieldCtx(p))
            t = n - 1 - p * p - target.b(p)
            if t % p == 0 and abs(t // p) <= H_BOUND:
                want.append((p, lam, t // p, n))

    def boom(*args, **kwargs):
        raise AssertionError("the sieve scanned")

    monkeypatch.setattr(count, "_projective_scan", boom)
    count._torus_tally.cache_clear()
    got = cm_sieve(dwork_pencil, target, [p])
    assert [(c.p, c.lam, c.h, c.count) for c in got] == want
    assert count._torus_tally.cache_info().misses == 1
