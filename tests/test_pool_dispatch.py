"""`count.pool_map` is the one place that chooses between running in this
process and starting workers: the dominant stratum is cut for the workers
the pool will start, not for the `jobs` asked for; a scan starts no more
workers than the byte cap holds copies of its grids (and, over F_{p^r},
of its q x q tables); numpy is loaded before any worker forks; a
`FieldCtx` travels to workers as (p, r), built once in each process that
unpickles it; and counts agree at one, two and a thousand jobs through
real worker processes."""

import concurrent.futures
import os
import pickle
import subprocess
import sys

import pytest

import k3arith
from k3arith import count
from k3arith.cmmod import cm_sieve, eta4_pow6_expansion
from k3arith.count import (Quartic, count_many, count_quartic, count_tower,
                           dwork_pencil)
from k3arith.ff import FieldCtx

SRC = os.path.dirname(os.path.dirname(os.path.abspath(k3arith.__file__)))
P = 13
MEMBERS = [dwork_pencil.member(lam) for lam in range(P)
           if dwork_pencil.is_smooth_member(lam, P)]
DENSE = Quartic(tuple(range(1, 36)))


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its max_workers and the
    payloads it is handed, maps in this process."""
    handed = []
    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        payloads = list(payloads)
        self.handed.append(len(payloads))
        return map(fn, payloads)


def test_chunks_follow_the_workers_not_jobs(monkeypatch):
    _RecordingPool.handed = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(count.os, "cpu_count", lambda: 2)
    n = count_quartic(DENSE, FieldCtx(P), jobs=1000)
    assert _RecordingPool.handed == [8]  # 4 chunks for each of 2 workers
    assert n == count_quartic(DENSE, FieldCtx(P))


@pytest.mark.parametrize("p, r, workers", [
    (401, 1, 8), (1009, 1, 4), (2179, 1, 0),
    # 56 q^2 of grids alone would let 5 start; the tables' 8 q^2 make it 4
    (31, 2, 4)])
def test_a_pooled_scan_starts_the_workers_its_bytes_hold(monkeypatch, p, r,
                                                         workers):
    """Each worker holds the s = 0 stratum's grids, priced once: 56 q^2
    bytes and 64 KiB for a dense quartic, so F_1009 (54.4 MiB) starts 4 of
    8 workers asked for, and F_2179, admitted serially, starts none."""
    _RecordingPool.handed, _RecordingPool.workers = [], []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(count.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(count, "_affine_scan", lambda *args: 0)
    assert count_quartic(DENSE, FieldCtx(p, r), jobs=8) == 0
    assert _RecordingPool.workers == ([workers] if workers else [])
    assert _RecordingPool.handed == ([4 * workers] if workers else [])


def test_numpy_is_loaded_before_the_pool_starts():
    # a fresh interpreter, because this session has long since loaded numpy
    script = (
        "import concurrent.futures, os, sys\n"
        "from k3arith import count\n"
        "from k3arith.ff import FieldCtx\n"
        "seen = []\n"
        "class Pool:\n"
        "    def __init__(self, max_workers):\n"
        "        seen.append('numpy' in sys.modules)\n"
        "    def __enter__(self):\n"
        "        return self\n"
        "    def __exit__(self, *exc):\n"
        "        return False\n"
        "    def map(self, fn, payloads):\n"
        "        return map(fn, payloads)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        "os.cpu_count = lambda: 2\n"
        "count.count_quartic(count.fermat_quartic(), FieldCtx(13), jobs=2)\n"
        "print(seen)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[True]"


@pytest.mark.parametrize("p, r", [(13, 1), (3, 2), (5, 3)])
def test_field_ctx_pickles_as_p_and_r(p, r):
    ctx = FieldCtx(p, r)
    bare = len(pickle.dumps(ctx))
    ctx.dlog_table()
    ctx.packed_tables()
    blob = pickle.dumps(ctx)
    assert len(blob) == bare  # neither logs nor tables are shipped
    copy = pickle.loads(blob)
    assert copy == ctx and copy.modulus == ctx.modulus
    assert copy.dlog_table() == ctx.dlog_table()


def test_a_process_unpickles_each_field_once():
    """A worker sent many chunks over one field builds its logs and tables
    once: the unpickled field is the one it already holds."""
    blob = pickle.dumps(FieldCtx(7, 2))
    first = pickle.loads(blob)
    logs = first.dlog_table()
    again = pickle.loads(blob)
    assert again is first and again.dlog_table() is logs


def test_counts_agree_at_one_two_and_many_jobs(monkeypatch):
    monkeypatch.setattr(count.os, "cpu_count", lambda: 2)  # real processes
    target = eta4_pow6_expansion(13)
    runs = [(count_tower(DENSE, 3, 2, jobs=jobs),
             count_many([(m, P, 1) for m in MEMBERS], jobs=jobs),
             count_many([(DENSE, P, 1)], jobs=jobs),
             cm_sieve(dwork_pencil, target, [5, 13], jobs=jobs))
            for jobs in (1, 2, 1000)]
    assert runs[0] == runs[1] == runs[2]
