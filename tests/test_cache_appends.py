"""Concurrent appends to one count file: each record is a single
os.write on an O_APPEND descriptor, so writer processes that record
distinct keys lose and tear none of them."""

import os
import subprocess
import sys
import time

from k3arith.cache import CountCache

WRITERS = 4
KEYS = 200

# each writer signals that it is ready, then waits for the start file
WRITER = """
import os, sys, time
from k3arith.cache import CountCache
path, start, i = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = CountCache(path)
open(f"{start}.ready{i}", "w").close()
while not os.path.exists(start):
    time.sleep(0.001)
for k in range(%d):
    cache.record(f"writer{i}", 5, k + 1, 10 ** 20 + k)
""" % KEYS


def test_concurrent_writers_keep_every_record(tmp_path):
    path, start = tmp_path / "sub" / "counts.jsonl", tmp_path / "start"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    procs = [subprocess.Popen([sys.executable, "-c", WRITER, str(path),
                               str(start), str(i)], env=env)
             for i in range(WRITERS)]
    try:
        deadline = time.monotonic() + 60
        while not all(os.path.exists(f"{start}.ready{i}")
                      for i in range(WRITERS)):
            assert time.monotonic() < deadline, "writers did not start"
            assert all(proc.poll() is None for proc in procs)
            time.sleep(0.01)
        start.touch()
        assert [proc.wait(timeout=60) for proc in procs] == [0] * WRITERS
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    reloaded = CountCache(path)
    assert len(reloaded) == WRITERS * KEYS
    assert len(path.read_text().splitlines()) == WRITERS * KEYS
    for i in range(WRITERS):
        for k in range(KEYS):
            assert reloaded.lookup(f"writer{i}", 5, k + 1) == 10 ** 20 + k


def test_directory_is_made_at_the_first_append_only(tmp_path):
    path = tmp_path / "a" / "b" / "counts.jsonl"
    cache = CountCache(path)
    assert not path.parent.exists()  # opening never writes
    cache.record("s", 3, 1, 16)
    cache.record("s", 3, 2, 100)
    assert CountCache(path).stats["entries"] == 2
