"""`k3` runs as a process with cyclic garbage collection off.

`cli.run()`, the process entry, disables the collector, runs `main()` and
freezes every object left, so the interpreter's collections at exit have
nothing to walk.  That is safe only because a `k3` run makes no cyclic
garbage that grows with its work: each `main()` call leaves the same few
hundred unreachable objects (the argparse parser), for a small input and a
large one alike.  `main(argv)` itself, for in-process callers, never
touches the collector.
"""

import gc
import json
import os
import re
import subprocess
import sys

import k3arith
from k3arith import cli
from k3arith.count import monomial_exponents

SRC = os.path.dirname(os.path.dirname(os.path.abspath(k3arith.__file__)))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DENSE = ",".join(str(1 + i % 3)
                 for i, _ in enumerate(monomial_exponents(4, 4)))


def _python(script, *argv):
    env = {k: v for k, v in os.environ.items() if k != "K3_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# (small, large) inputs of each subcommand whose work grows with its input
PAIRS = [
    (["count", "--model", "quartic", "--coeffs", DENSE, "--p", "7"],
     ["count", "--model", "quartic", "--coeffs", DENSE, "--p", "101"]),
    (["count", "--model", "diagonal", "--coeffs", "1,1,1,1", "--p", "5"],
     ["count", "--model", "diagonal", "--coeffs", "1,2,3,5", "--p", "7",
      "--r", "4"]),
    (["modularity", "--primes", "3..37"],
     ["modularity", "--primes", "3..151"]),
    (["sieve", "--primes", "5,13", "--lift"],
     ["sieve", "--primes", "5,13,17,29,37,41", "--lift"]),
    (["bqf", "classgroup", "--d", "-84"],
     ["bqf", "classgroup", "--d", "-99999"]),
]

_GARBAGE = """
import contextlib, gc, io, json, sys
gc.disable()
from k3arith.cli import main

def k3(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            raise SystemExit(f"exit {argv}")

pairs = json.loads(sys.argv[1])
k3(["--version"])
found = []
for small, large in pairs:
    k3(small)  # loads the layers and fills their caches
    gc.collect()
    k3(small)
    after_small = gc.collect()
    k3(large)
    found.append([after_small, gc.collect()])
print(json.dumps(found))
"""


def test_garbage_does_not_grow_with_the_work():
    found = _python(_GARBAGE, json.dumps(PAIRS))
    for (small, _), (after_small, after_large) in zip(PAIRS, found):
        assert after_large <= after_small, (small[:2], after_small,
                                            after_large)


_RUN = """
import gc, json, sys
from k3arith import cli
sys.argv = ["k3", *sys.argv[1:]]
code = cli.run()
print()
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count() > 0]))
"""


# `python -m k3arith.cli`: the module run as __main__ exits with run()'s code
_MODULE = """
import gc, json, runpy, sys
sys.argv = ["k3", *sys.argv[1:]]
try:
    runpy.run_module("k3arith.cli", run_name="__main__")
    code = None
except SystemExit as exc:
    code = exc.code
print()
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count() > 0]))
"""

CODES = [(["bqf", "reduce", "--form", "3,2,5"], 0),
         (["bqf", "reduce", "--form", "3,2"], 2),
         (["bqf", "classgroup", "--nope", "1"], 2),
         (["--version"], 0)]


def test_run_returns_main_code_with_collector_off_and_heap_frozen():
    for argv, code in CODES:
        assert _python(_RUN, *argv) == [code, False, True], argv


def test_module_entry_goes_through_run():
    for argv, code in CODES:
        assert _python(_MODULE, *argv) == [code, False, True], argv


def test_in_process_main_leaves_the_collector_alone(monkeypatch, capsys):
    class Untouchable:
        def __getattr__(self, name):
            raise AssertionError(f"main() touched gc.{name}")

    frozen = gc.get_freeze_count()
    monkeypatch.setattr(cli, "gc", Untouchable())
    assert cli.main(["bqf", "reduce", "--form", "3,2,5"]) == 0
    assert cli.main(["bqf", "reduce", "--form", "3,2"]) == 2
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def test_installed_script_is_the_process_entry():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    assert re.search(r'^k3 = "k3arith\.cli:run"$', text, re.M)
