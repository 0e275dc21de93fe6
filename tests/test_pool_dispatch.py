"""`count.pool_map` is the one place that chooses between running in this
thread and starting worker threads: the dominant stratum is cut for the
workers the pool will start, not for the `jobs` asked for; a scan starts
no more workers than the byte cap would hold copies of its grids; a chunk
that raises cancels the chunks not yet started; and counts agree at one,
two and a thousand jobs through real worker threads."""

import concurrent.futures
import threading
import time

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
    (401, 1, 8), (1009, 1, 4), (2179, 1, 0),
    # the shared q x q tables are not charged to each worker any more
    (31, 2, 5)])
def test_a_pooled_scan_starts_the_workers_its_bytes_hold(monkeypatch, p, r,
                                                         workers):
    """The cap counts the s = 0 stratum's grids once a worker, though the
    workers share them: 56 q^2 bytes and 64 KiB for a dense quartic, so
    F_1009 (54.4 MiB) starts 4 of 8 workers asked for, and F_2179,
    admitted serially, starts none."""
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
