"""`count.count_many`, the one walk that routes, prices and counts the
(surface, p, r) keys of towers, the modularity check and the CM sieve:
equal counts, appended records and cache statistics at one and two
workers from a half-warm cache; a batch past the cap refused before any
count or record; each key routed once, priced or forced; the `jobs`
contract and the worker ceiling of `pool_map`; and a CLI pass whose cache
file and `cache` blocks are frozen from the earlier implementation, which
wrote the lookup, count and record steps out three times."""

import concurrent.futures
import hashlib
import json

import pytest

from k3arith import count
from k3arith.cache import CountCache
from k3arith.cli import main
from k3arith.cmmod import cm_sieve, verify_modularity
from k3arith.count import (Quartic, count_many, count_quartic, count_tower,
                           dwork_pencil, fermat_quartic)
from k3arith.errors import UsageError
from k3arith.ff import FieldCtx

P = 13
MEMBERS = [dwork_pencil.member(lam) for lam in range(P)
           if dwork_pencil.is_smooth_member(lam, P)]
KEYS = [(member, P, 1) for member in MEMBERS]
DENSE = Quartic(tuple(range(1, 36)))


def _half_warm(path):
    """A cache holding the counts of every other member, on file."""
    cache = CountCache(path)
    for member in MEMBERS[::2]:
        cache.record(member.surface_hash(), P, 1,
                     count_quartic(member, FieldCtx(P)))
    return CountCache(path)


def test_equal_at_one_and_two_jobs_from_a_half_warm_cache(tmp_path):
    runs = []
    for jobs in (1, 2):
        path = tmp_path / f"jobs{jobs}.jsonl"
        cache = _half_warm(path)
        counts = count_many(KEYS, cache, jobs)
        runs.append((counts, path.read_bytes(), cache.stats))
    assert runs[0] == runs[1]
    counts, _, stats = runs[0]
    assert counts == [count_quartic(m, FieldCtx(P)) for m in MEMBERS]
    half = (len(MEMBERS) + 1) // 2
    assert (stats["hits"], stats["misses"]) == (half, len(MEMBERS) - half)
    appended = [json.loads(line)["surface"]
                for line in runs[0][1].decode().splitlines()[half:]]
    assert appended == [m.surface_hash() for m in MEMBERS[1::2]]


def test_without_a_cache_every_count_is_made():
    assert count_many([]) == []
    assert count_many(KEYS[:3]) == [
        count_quartic(m, FieldCtx(P)) for m in MEMBERS[:3]]


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refuse


def test_a_batch_past_the_cap_is_refused_before_any_count(tmp_path,
                                                          monkeypatch):
    # one dense quartic over F_1009 is priced at 3 * 1009^3, about 3.1e9
    for name in ("count_quartic", "count_torus_fibres", "_torus_tally"):
        monkeypatch.setattr(count, name, _refuse(name))
    monkeypatch.setattr(CountCache, "record", _refuse("record"))
    path = tmp_path / "counts.jsonl"
    cache = CountCache(path)
    with pytest.raises(UsageError, match=r"^the counts need about 3\.1e\+9 "
                                         r"price units \(cap 2\.0e\+9\)$"):
        count_many(KEYS + [(DENSE, 1009, 1)], cache)
    assert len(cache) == 0 and not path.exists()
    assert (cache.hits, cache.misses) == (0, 0)  # nor any lookup


def test_every_key_is_routed_once_priced_or_forced(monkeypatch):
    routed = []
    route = count._route

    def spy(surface, p, r):
        routed.append((p, r))
        return route(surface, p, r)

    monkeypatch.setattr(count, "_route", spy)
    for cap in (count.BATCH_CAP, None):  # towers: test_tower_refusal_sizes
        routed.clear()
        count_many(KEYS + [(DENSE, 7, 2)], cap=cap)
        assert routed == [(P, 1)] * len(MEMBERS) + [(7, 2)]
    routed.clear()
    cm_sieve(dwork_pencil, None, [5, P])
    assert routed == [(p, 1) for p in (5, P) for lam in range(p)
                      if dwork_pencil.is_smooth_member(lam, p)]
    routed.clear()
    verify_modularity([3, 5, P])
    assert routed == [(3, 1), (5, 1), (P, 1)]


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_are_refused(jobs):
    with pytest.raises(UsageError):
        count_many(KEYS, jobs=jobs)
    with pytest.raises(UsageError):
        count_tower(fermat_quartic(), 5, 1, jobs=jobs)


@pytest.mark.parametrize("argv", [  # only `count` takes --jobs
    ("count", "--model", "diagonal", "--coeffs", "1,1,1,1", "--p", "5"),
])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_refuses_jobs_below_one(capsys, argv, jobs):
    assert main(list(argv) + ["--jobs", jobs]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


class _SerialPool:
    """Stands in for ThreadPoolExecutor: records max_workers, maps in
    this thread."""
    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def shutdown(self, cancel_futures=False):
        pass

    def map(self, fn, payloads):
        return map(fn, payloads)


@pytest.fixture
def fake_pool(monkeypatch):
    _SerialPool.made = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        _SerialPool)
    return _SerialPool.made


def test_pool_never_exceeds_the_cpus(monkeypatch, fake_pool):
    monkeypatch.setattr(count.os, "cpu_count", lambda: 3)
    huge = 10 ** 6  # only ever handed to the fake pool
    quartic = dwork_pencil.member(1)  # not diagonal: F_169 is scanned
    tower = count_tower(quartic, 13, 2, jobs=huge)
    assert fake_pool == [3]  # the dominant stratum over F_169 (F_13 is small)
    assert tower == count_tower(quartic, 13, 2)
    fake_pool.clear()
    # dense quartics over F_167, each priced past the gate: one pool each
    dense = [(Quartic(tuple(range(c, c + 35))), 167, 1) for c in (1, 2)]
    assert count_many(dense, jobs=huge) == count_many(dense)
    assert fake_pool == [3, 3]


@pytest.mark.parametrize("cpus", [None, 1])
def test_pool_runs_serially_below_two_workers(monkeypatch, fake_pool, cpus):
    monkeypatch.setattr(count.os, "cpu_count", lambda: cpus)
    assert count_many(KEYS, jobs=4) == count_many(KEYS)
    assert count.pool_map(abs, [-1, -2, -3], 8) == [1, 2, 3]
    assert fake_pool == []


def test_modularity_never_counts_by_jacobi_sums(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("modularity check took the Jacobi route")

    monkeypatch.setattr(count, "count_diagonal_quartic_jacobi", boom)
    report = verify_modularity([5, 13, 17, 3, 7, 11])  # 1 and 3 mod 4
    assert report.all_agree and len(report.entries) == 6


def test_sieve_and_modularity_reuse_one_cache_file(tmp_path, capsys):
    path = tmp_path / "f"
    blocks = []
    for argv in (["sieve", "--primes", "5,13,17", "--lift"],
                 ["modularity", "--primes", "3..37"]):
        assert main(argv + ["--cache", str(path)]) == 0
        blocks.append(json.loads(capsys.readouterr().out)["cache"])
    # the Fermat quartic is the member lam = 0: 3 hits at 5, 13 and 17
    assert blocks == [
        {"entries": 23, "hits": 0, "misses": 23},
        {"entries": 31, "hits": 3, "misses": 8}]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "4b4b2c0dd8d3cf0c8f062cbc518eb834c5891f6fcc2bd71af33531d397aa6195")

