"""Count routes through the tower and the CM sieve that other tests skip:
`count_tower` on a double sextic and on a quartic that is not diagonal,
each against the direct count, and a `cm_sieve` pass served from its
cache alone."""

import pytest

from k3arith import cmmod
from k3arith.cache import CountCache
from k3arith.cmmod import cm_sieve, eta4_pow6_expansion
from k3arith.count import (QUARTIC_EXPONENTS, SEXTIC_EXPONENTS, DoubleSextic,
                           Quartic, count_double_sextic, count_quartic,
                           count_tower, dwork_pencil)
from k3arith.ff import FieldCtx

# every coefficient nonzero mod 3, so no monomial drops out over F_3
DENSE_SEXTIC = DoubleSextic(tuple(1 + i % 2
                                  for i in range(len(SEXTIC_EXPONENTS))))
DENSE_QUARTIC = Quartic(tuple(2 - i % 2
                              for i in range(len(QUARTIC_EXPONENTS))))


@pytest.mark.parametrize("surface, direct", [
    (DENSE_SEXTIC, count_double_sextic),
    (DENSE_QUARTIC, count_quartic),
])
def test_count_tower_matches_direct_counts(tmp_path, surface, direct):
    path = tmp_path / "counts.jsonl"
    records = count_tower(surface, 3, 2, cache=CountCache(path))
    assert [(rec.p, rec.r) for rec in records] == [(3, 1), (3, 2)]
    h = surface.surface_hash()
    reloaded = CountCache(path)
    for rec in records:
        assert rec.surface == h
        assert rec.count == direct(surface, FieldCtx(3, rec.r))
        assert reloaded.lookup(h, 3, rec.r) == rec.count


def test_cm_sieve_second_pass_reads_only_the_cache(tmp_path, monkeypatch):
    target = eta4_pow6_expansion(13)
    path = tmp_path / "counts.jsonl"
    first = cm_sieve(dwork_pencil, target, [5, 13], cache=CountCache(path))
    assert first

    def boom(*args, **kwargs):
        raise AssertionError("recount attempted despite a warm cache")

    monkeypatch.setattr("k3arith.count.count_quartic", boom)
    cache = CountCache(path)
    again = cm_sieve(dwork_pencil, target, [5, 13], cache=cache)
    assert again == first
    assert cache.stats["misses"] == 0 and cache.stats["hits"] > 0
