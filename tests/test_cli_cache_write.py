"""A count cache that cannot be written is a usage error, not a crash.

The cache opens its file at the first append, after the count's work.  A
`--cache` path under a regular file (`FILE/x`) fails there in
`os.makedirs`; the OSError becomes a DataError that names the path, and
`k3` exits 2 with a one-line usage error, no traceback.  The library
raises the same DataError.
"""

import os
import subprocess
import sys

import pytest

import k3arith
from k3arith.cache import CountCache
from k3arith.cli import main
from k3arith.errors import DataError

COUNT = ["count", "--model", "diagonal", "--coeffs", "1,1,1,1", "--p", "5",
         "--cache"]


def test_cache_under_a_regular_file_exits_2_without_traceback(tmp_path):
    (tmp_path / "FILE").write_text("")
    path = tmp_path / "FILE" / "x"
    src = os.path.dirname(os.path.dirname(os.path.abspath(k3arith.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "k3arith.cli", *COUNT,
                           str(path)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (f"k3: usage error: cannot write "
                           f"{path}: File exists\n")


def test_modularity_cache_under_a_regular_file_exits_2(tmp_path, capsys):
    (tmp_path / "FILE").write_text("")
    path = tmp_path / "FILE" / "x"
    assert main(["modularity", "--primes", "5", "--cache", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"k3: usage error: cannot write {path}: File exists\n")


def test_library_raises_data_error_naming_the_path(tmp_path):
    (tmp_path / "FILE").write_text("")
    cache = CountCache(tmp_path / "FILE" / "x")
    with pytest.raises(DataError, match=r"FILE/x: File exists") as info:
        cache.record("abc", 5, 1, 0)
    assert isinstance(info.value.__cause__, OSError)
