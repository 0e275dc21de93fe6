"""`k3` writing into a pipe whose reader has already gone.

`k3 picard ... | head -1` must not end in a BrokenPipeError traceback:
the report is lost, which the reader chose, and the exit code stays the
one the results imply.
"""

import os
import subprocess
import sys

import k3arith


def test_closed_pipe_is_silent_and_exits_zero():
    src = os.path.dirname(os.path.dirname(os.path.abspath(k3arith.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.Popen(
        [sys.executable, "-m", "k3arith.cli", "picard", "--p2", "1,-6,25",
         "--q", "5"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader leaves before the report is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
