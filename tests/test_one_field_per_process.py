"""One field per (p, r) in a process.

`ff._field(p, r)` is the one source of every field `count` counts on: a
run of `count_many` misses over one (p, r) takes its field from there, and
so does a torus tally.  A pooled scan runs its chunks on threads of the
one process, whatever the start method of `multiprocessing`: its small
strata come first, so over F_{p^r} the calling thread builds the discrete
logs and q x q tables before the s = 0 chunks start, and the chunks share
them with the stratum's grids.  A field is built on coefficient vectors
alone (`_poly_powmod`, `_poly_mulmod`), making no `FieldElement`, which
stays as the reference arithmetic here.
"""

import multiprocessing
import sys
import threading

import pytest

from k3arith import count as count_mod
from k3arith import ff
from k3arith._intpoly import is_prime_power
from k3arith.count import DoubleSextic, Quartic, count_many, dwork_pencil
from k3arith.ff import FieldCtx

DENSE_QUARTIC = Quartic(tuple(range(1, 36)))
DENSE_SEXTIC = DoubleSextic(tuple(range(1, 29)))


def _log_builds(log, tag, fn, attr):
    """fn, appending tag to log on the calls that find self.attr None."""
    def spy(self):
        if getattr(self, attr) is None:
            log.append(tag)
        return fn(self)
    return spy


@pytest.mark.parametrize("surface, p, r", [
    (DENSE_QUARTIC, 5, 3), (DENSE_QUARTIC, 2, 7),
    (DENSE_SEXTIC, 7, 4), (DENSE_SEXTIC, 3, 7)],
    ids=["quartic-5^3", "quartic-2^7", "sextic-7^4", "sextic-3^7"])
def test_a_pooled_scan_builds_its_tables_once(monkeypatch, surface, p, r):
    """Under every start method in turn, four workers on fewer cores,
    switching threads every microsecond: no child process, every s = 0
    chunk on a worker thread, the serial count, and the logs and tables
    built once in all.  When the workers were processes, each built its
    own unless it was forked after the parent had built them."""
    builds, tallies = [], []
    monkeypatch.setattr(count_mod.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(FieldCtx, "dlog_table", _log_builds(
        builds, "logs", FieldCtx.dlog_table, "_dlog"))
    monkeypatch.setattr(FieldCtx, "packed_tables", _log_builds(
        builds, "tables", FieldCtx.packed_tables, "_tables"))
    scan = count_mod._affine_scan

    def spy_scan(polys, k, ctx, tally, jobs):
        def spy_tally(vals, shape):
            tallies.append((k, threading.get_ident(),
                            multiprocessing.active_children()))
            return tally(vals, shape)
        return scan(polys, k, ctx, spy_tally, jobs)
    monkeypatch.setattr(count_mod, "_affine_scan", spy_scan)
    ff._field.cache_clear()
    method = multiprocessing.get_start_method(allow_none=True)
    interval = sys.getswitchinterval()
    counts = []
    for start in multiprocessing.get_all_start_methods():
        multiprocessing.set_start_method(start, force=True)
        sys.setswitchinterval(1e-6)
        try:
            counts.append(count_many([(surface, p, r)], jobs=4))
        finally:
            sys.setswitchinterval(interval)
            multiprocessing.set_start_method(method, force=True)
    top = max(k for k, _, _ in tallies)
    workers = {ident for k, ident, _ in tallies if k == top}
    assert workers and threading.get_ident() not in workers
    assert not any(children for _, _, children in tallies)
    assert multiprocessing.active_children() == []
    assert sorted(builds) == ["logs", "tables"]
    assert counts == [count_many([(surface, p, r)])] * len(counts)


def test_count_many_takes_every_field_from_field(monkeypatch):
    made = []

    def spy(p, r):
        made.append((p, r))
        return ff._field(p, r)
    monkeypatch.setattr(count_mod, "_field", spy)
    members = [dwork_pencil.member(lam) for lam in range(1, 4)]
    count_mod._torus_tally.cache_clear()
    count_many([(DENSE_QUARTIC, 3, 1), (DENSE_QUARTIC, 3, 2)]
               + [(m, 13, 1) for m in members])
    # one call a miss, and one more for the torus tally's #D
    assert made == [(3, 1), (3, 2)] + [(13, 1)] * (len(members) + 1)


def test_a_torus_tally_builds_no_field_of_its_own(monkeypatch):
    """The tally used to build a second F_101 of its own."""
    built = []
    init = FieldCtx.__init__

    def spy(self, p, r=1):
        built.append((p, r))
        init(self, p, r)
    monkeypatch.setattr(FieldCtx, "__init__", spy)
    ff._field.cache_clear()
    count_mod._torus_tally.cache_clear()
    count_many([(dwork_pencil.member(lam), 101, 1) for lam in (1, 2, 3)])
    assert built == [(101, 1)]
    assert ff._field.cache_parameters()["maxsize"] == 1


def _reference(ctx):
    """The least primitive root and the logs by FieldElement arithmetic."""
    one, q = ctx.one, ctx.q
    ells = [ell for ell in range(2, q) if (q - 1) % ell == 0
            and all(ell % d for d in range(2, ell))]
    g = next(g for g in range(1, q) if all(
        ctx.from_packed(g) ** ((q - 1) // ell) != one for ell in ells))
    logs, acc = [None] * q, one
    for k in range(q - 1):
        logs[acc.packed] = k
        acc = acc * ctx.from_packed(g)
    return g, logs


def _fields(top):
    for q in range(2, top + 1):
        if is_prime_power(q):
            p = next(d for d in range(2, q + 1) if q % d == 0)
            r = 1
            while p ** r < q:
                r += 1
            yield p, r


def _refuse_elements(*args, **kwargs):
    raise AssertionError("a FieldElement was made")


def test_a_field_is_built_without_elements(monkeypatch):
    built = {}
    with monkeypatch.context() as m:
        m.setattr(ff, "FieldElement", _refuse_elements)
        for p, r in _fields(1000):
            ctx = FieldCtx(p, r)
            built[p, r] = ctx, ctx.primitive_root(), ctx.dlog_table()
        for p, r in ((3, 3), (2, 5), (5, 2)):
            FieldCtx(p, r).packed_tables()
    assert len(built) == 193  # every prime power q <= 1000
    for ctx, g, logs in built.values():
        assert (g, logs) == _reference(ctx)
