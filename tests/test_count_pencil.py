"""The pencil route of `count.count_many`: at least 5 pending quartics over
F_p that `_route` sends to the scan, and whose coefficient vectors mod p
lie on one line F + mu G, count by one scan of the pair (F, G), tallied as
a histogram over mu.  The Dwork pencil scans only at p = 3 mod 4: at p = 1
mod 4 its members count by the torus route (`count_torus_fibres`), so the
tests that need a Dwork pencil that scans take p = 11 or 19.  Every count
here is checked against `count_quartic`, member by member; the cache, the
record order and the sieve's candidates against the per-member route."""

import json

import pytest

from k3arith import count
from k3arith.cache import CountCache
from k3arith.cmmod import H_BOUND, cm_sieve, eta4_pow6_expansion
from k3arith.count import (QUARTIC_EXPONENTS, DiagonalQuartic, Quartic,
                           count_many, count_quartic, dwork_pencil)
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


@pytest.fixture
def per_member(monkeypatch):
    """Switches the pencil route off, so count_many counts member by
    member."""
    def off():
        monkeypatch.setattr(count, "_count_pencil", lambda *args: None)
    return off


@pytest.fixture
def no_pencil_scan(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("counted by a pencil scan")
    monkeypatch.setattr(count, "_pencil_tally", boom)


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
    ctx = FieldCtx(p)
    assert count_many(members, ctx) == _each(members, ctx)


def test_pending_members_of_a_pencil_take_one_scan(monkeypatch):
    # the Fermat member mu = 0 counts in closed form, the other 10 by a scan
    members = _members(DWORK_F, DWORK_G, range(11))
    want = _each(members, FieldCtx(11))
    scans = []
    scan = count._projective_scan

    def spy(*args, **kwargs):
        scans.append(args[1])
        return scan(*args, **kwargs)

    monkeypatch.setattr(count, "_projective_scan", spy)
    assert count_many(members, FieldCtx(11)) == want
    assert scans == [3]


@pytest.mark.parametrize("warm", [0, 2])
def test_cache_through_equals_the_per_member_route(tmp_path, per_member,
                                                   warm):
    """Same counts, file bytes, record order and stats, from a cold cache
    (warm = 0) and from one holding every other member (warm = 2).  At
    p = 19 = 3 mod 4 the members scan, all but the Fermat member mu = 19,
    which counts in closed form, so the pencil's counts are recorded among
    one made by another route."""
    p = 19
    members = _members(DWORK_F, DWORK_G, range(2, p + 2))
    ctx = FieldCtx(p)
    runs = []
    for route in ("pencil", "per member"):
        if route == "per member":
            per_member()
        path = tmp_path / f"{route}.jsonl"
        cache = CountCache(path)
        for m in members[::warm] if warm else []:
            cache.record(m.surface_hash(), p, 1, count_quartic(m, ctx))
        cache = CountCache(path)
        counts = count_many(members, ctx, cache)
        runs.append((counts, path.read_bytes(), cache.stats))
    assert runs[0] == runs[1]
    counts, blob, stats = runs[0]
    assert counts == _each(members, ctx)
    cached = len(members[::warm]) if warm else 0
    assert (stats["hits"], stats["misses"]) == (cached,
                                                len(members) - cached)
    appended = [json.loads(line)["surface"]
                for line in blob.decode().splitlines()[cached:]]
    todo = [m for i, m in enumerate(members) if not warm or i % warm]
    assert appended == [m.surface_hash() for m in todo]


def test_one_and_two_jobs_give_equal_counts():
    members = _members(DWORK_F, X0_ONLY, range(11))
    ctx = FieldCtx(11)
    assert count_many(members, ctx, jobs=2) == count_many(members, ctx) == (
        _each(members, ctx))


@pytest.mark.parametrize("p", [13, 17])
def test_cm_sieve_never_counts_member_by_member(monkeypatch, p):
    """At p = 1 mod 4 the sieve never scans: its Dwork members count by
    the torus route, which builds one tally for the whole prime."""
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


def test_no_pencil_scan_off_a_line(no_pencil_scan):
    f, g = DWORK_F, X0_ONLY
    members = _members(f, g, range(5))
    members[2] = Quartic(tuple(a + 1 for a in members[2].coeffs))
    assert count_many(members, FieldCtx(7)) == _each(members, FieldCtx(7))


def test_no_pencil_scan_below_five_pending(tmp_path, no_pencil_scan):
    members = _members(DWORK_F, DWORK_G, range(9))
    ctx = FieldCtx(13)
    assert count_many(members[:4], ctx) == _each(members[:4], ctx)
    cache = CountCache(tmp_path / "counts.jsonl")
    for m in members[:5]:  # 5 cached, 4 pending
        cache.record(m.surface_hash(), 13, 1, count_quartic(m, ctx))
    assert count_many(members, ctx, cache) == _each(members, ctx)


def test_no_pencil_scan_of_diagonal_quartics(no_pencil_scan):
    # the Jacobi route at 13 = 1 mod 4, the closed form at 11 = 3 mod 4
    for p in (13, 11):
        members = [DiagonalQuartic((1, 2, 3, c)) for c in range(1, 7)]
        want = _each(members, FieldCtx(p))
        assert count_many(members, FieldCtx(p)) == want


def test_no_pencil_scan_over_extensions(no_pencil_scan):
    members = _members(DWORK_F, DWORK_G, range(6))
    ctx = FieldCtx(3, 2)
    assert count_many(members, ctx) == _each(members, ctx)


def test_identical_members_count_one_by_one(no_pencil_scan):
    members = [dwork_pencil.member(3)] * 5
    assert count_many(members, FieldCtx(7)) == _each(members, FieldCtx(7))
