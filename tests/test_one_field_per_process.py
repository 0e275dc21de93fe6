"""One field per (p, r) in a process tree.

`ff._field(p, r)` is the one source of every field `count` counts on: a
run of `count_many` misses over one (p, r) takes its field from there, and
so does a torus tally.  A pickled `FieldCtx` unpickles through `_field`
too, and a pooled scan counts its small strata first, so over F_{p^r} the
parent builds the discrete logs and q x q tables before the s = 0 pool
forks: every forked worker inherits them, built, and the logs and tables
are built once across all processes.  A field is built on coefficient
vectors alone (`_poly_powmod`, `_poly_mulmod`), making no `FieldElement`,
which stays as the reference arithmetic here.
"""

import multiprocessing
import os

import pytest

from k3arith import count as count_mod
from k3arith import ff
from k3arith._intpoly import is_prime_power
from k3arith.count import DoubleSextic, Quartic, count_many, dwork_pencil
from k3arith.ff import FieldCtx

DENSE_QUARTIC = Quartic(tuple(range(1, 36)))
DENSE_SEXTIC = DoubleSextic(tuple(range(1, 29)))


def _log_to(path, tag, fn, attr=None):
    """fn, appending "tag pid" to path on each call (with attr, only on
    the calls that find self.attr None, that is the ones that build)."""
    def spy(*args, **kwargs):
        building = attr is None or getattr(args[0], attr) is None
        out = fn(*args, **kwargs)
        if building:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{tag} {os.getpid()}\n")
        return out
    return spy


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers inherit the parent's field only by fork")
@pytest.mark.parametrize("surface, p, r", [
    (DENSE_QUARTIC, 5, 3), (DENSE_QUARTIC, 2, 7),
    (DENSE_SEXTIC, 7, 4), (DENSE_SEXTIC, 3, 7)],
    ids=["quartic-5^3", "quartic-2^7", "sextic-7^4", "sextic-3^7"])
def test_a_pooled_scan_builds_its_tables_once(tmp_path, monkeypatch, surface,
                                              p, r):
    """When `count_many` built its fields outside `_field`, the parent and
    each of the two workers built the logs and the tables: three builds of
    each."""
    log = tmp_path / "builds.log"
    monkeypatch.setattr(count_mod.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(FieldCtx, "dlog_table", _log_to(
        log, "logs", FieldCtx.dlog_table, "_dlog"))
    monkeypatch.setattr(FieldCtx, "packed_tables", _log_to(
        log, "tables", FieldCtx.packed_tables, "_tables"))
    monkeypatch.setattr(count_mod, "_affine_scan", _log_to(
        log, "chunk", count_mod._affine_scan))
    ff._field.cache_clear()
    count_many([(surface, p, r)], jobs=2)
    lines = [line.split() for line in log.read_text().splitlines()]
    parent = str(os.getpid())
    assert {pid for tag, pid in lines if tag == "chunk"} - {parent}
    builds = [(tag, pid) for tag, pid in lines if tag != "chunk"]
    assert sorted(builds) == [("logs", parent), ("tables", parent)]


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
