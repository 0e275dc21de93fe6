"""`count.pool_map` is the one place that chooses between running in this
thread and starting worker threads: the dominant stratum is cut for the
workers the pool will start, not for the `jobs` asked for; a scan starts
no more workers than the byte cap holds three Horner blocks each for
beside its one copy of the grids, and its peak stays within that price; a
chunk
that raises cancels the chunks not yet started; and counts agree at one,
two and a thousand jobs through real worker threads."""

import concurrent.futures
import threading
import time
import tracemalloc

import pytest

from k3arith import count
from k3arith.cmmod import cm_sieve, eta4_pow6_expansion
from k3arith.count import (Quartic, count_many, count_quartic, count_tower,
                           dwork_pencil)
from k3arith.ff import FieldCtx

P = 13
MEMBERS = [dwork_pencil.member(lam) for lam in range(P)
           if dwork_pencil.is_smooth_member(lam, P)]
DENSE = Quartic(tuple(range(1, 36)))


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records its max_workers and the
    payloads it is handed, maps in this thread."""
    handed = []
    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def shutdown(self, cancel_futures=False):
        pass

    def map(self, fn, payloads):
        payloads = list(payloads)
        self.handed.append(len(payloads))
        return map(fn, payloads)


def test_chunks_follow_the_workers_not_jobs(monkeypatch):
    _RecordingPool.handed = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(count.os, "cpu_count", lambda: 2)
    n = count_quartic(DENSE, FieldCtx(P), jobs=1000)
    assert _RecordingPool.handed == [8]  # 4 chunks for each of 2 workers
    assert n == count_quartic(DENSE, FieldCtx(P))


@pytest.mark.parametrize("p, r, workers", [
    (401, 1, 8), (1009, 1, 8), (2179, 1, 0),
    # the shared q x q tables are not charged to each worker either
    (31, 2, 8)])
def test_a_pooled_scan_starts_the_workers_its_bytes_hold(monkeypatch, p, r,
                                                         workers):
    """The cap counts the s = 0 stratum's grids once, as the workers share
    them, and Horner's three blocks once a worker: for a dense quartic
    40 q^2 bytes and 64 KiB, then 24 q^2 a worker, so F_1009 (38.9 MiB,
    then 23.3 a worker) and F_{31^2} start all 8 workers asked for, and
    F_2179 (181.2 MiB of grids), admitted serially at two blocks, starts
    none, as a worker's 108.7 MiB of blocks does not fit beside them."""
    _RecordingPool.handed, _RecordingPool.workers = [], []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(count.os, "cpu_count", lambda: 8)
    scan = count._affine_scan
    monkeypatch.setattr(  # each stratum's chunks, cheap: tallies of 0
        count, "_affine_scan", lambda polys, k, ctx, tally, jobs: scan(
            [[]], k, ctx, lambda vals, shape: 0, jobs))
    assert count_quartic(DENSE, FieldCtx(p, r), jobs=8) == 0
    assert _RecordingPool.workers == ([workers] if workers else [])
    assert _RecordingPool.handed == ([4 * workers] if workers else [])


def test_a_pooled_scan_peaks_within_its_price(monkeypatch):
    """A dense quartic over F_401 on 4 real worker threads: the peak that
    tracemalloc reads (numpy reports its arrays to it) stays within the
    price of the s = 0 stratum at 4 workers, 40 q^2 + 2^16 bytes of grids
    and 24 q^2 of blocks a worker.  It read 0.94 of that price; at two
    blocks a worker, 16 q^2, it read 1.23."""
    monkeypatch.setattr(count.os, "cpu_count", lambda: 4)
    count_quartic(DENSE, FieldCtx(P), jobs=4)  # numpy and the pool loaded
    ctx, q = FieldCtx(401), 401
    started = []
    pool_map = count.pool_map
    monkeypatch.setattr(count, "pool_map", lambda fn, payloads, jobs: (
        started.append(jobs) or pool_map(fn, payloads, jobs)))
    tracemalloc.start()
    try:
        n = count_quartic(DENSE, ctx, jobs=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 161235  # as counted serially
    assert started == [1, 1, 4]  # the s = 0 stratum ran on 4 workers
    assert peak <= 2 ** 16 + 40 * q * q + 4 * 24 * q * q


def test_a_raising_chunk_cancels_the_chunks_not_started(monkeypatch):
    monkeypatch.setattr(count.os, "cpu_count", lambda: 2)
    started = []

    def chunk(i):
        started.append(i)
        if i == 0:
            raise ValueError("chunk 0 failed")
        time.sleep(0.05)  # keeps both workers busy while the error is read
        return i
    threads = threading.active_count()
    with pytest.raises(ValueError, match="chunk 0 failed"):
        count.pool_map(chunk, list(range(40)), 2)
    assert 0 in started and len(started) < 40
    # every worker has exited, so no chunk left can start later
    assert threading.active_count() == threads


def test_counts_agree_at_one_two_and_many_jobs(monkeypatch):
    monkeypatch.setattr(count.os, "cpu_count", lambda: 2)  # real threads
    target = eta4_pow6_expansion(13)
    runs = [(count_tower(DENSE, 3, 2, jobs=jobs),
             count_many([(m, P, 1) for m in MEMBERS], jobs=jobs),
             count_many([(DENSE, P, 1)], jobs=jobs),
             cm_sieve(dwork_pencil, target, [5, 13], jobs=jobs))
            for jobs in (1, 2, 1000)]
    assert runs[0] == runs[1] == runs[2]
