"""What `k3` loads: sympy and numpy stay out of start-up.

Each check runs in a fresh interpreter, because the test session itself
has long since imported both.  `import k3arith.cli` must load neither,
nor the process-pool machinery; jobs that do no point counting must not
load them either, and a count loads numpy (its scan kernel) but not sympy.
"""

import json
import os
import subprocess
import sys

import pytest

import k3arith
from k3arith import _intpoly
from k3arith.count import monomial_exponents

SRC = os.path.dirname(os.path.dirname(os.path.abspath(k3arith.__file__)))
HEAVY = ("sympy", "numpy", "concurrent.futures.process")
# P2 of the Fermat quartic over F_5: (1 - 5T)^8 (1 + 5T)^12 (1 + 6T + 25T^2)
_P2 = [1, 6, 25]
for _lin in [[1, -5]] * 8 + [[1, 5]] * 12:
    _P2 = _intpoly.mul(_P2, _lin)
FERMAT_F5_P2 = ",".join(map(str, _P2))


def _loaded_after(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    script = code + (
        "\nimport json, sys\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_k3(*argv):
    return ("import contextlib, io\n"
            "from k3arith.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({list(argv)!r})\n"
            "assert code == 0, code\n")


def test_import_loads_no_heavy_module():
    assert _loaded_after("import k3arith.cli") == []


@pytest.mark.parametrize("argv", [
    ("bqf", "reduce", "--form", "3,2,5"),
    ("bqf", "classgroup", "--d", "-84"),
    ("inose", "--form", "2,1,3"),
    ("kuwata", "--n", "3", "--relation", "not-isogenous"),
    ("picard", "--p2", "1,-6,25", "--q", "5"),
    ("picard", "--p2", FERMAT_F5_P2, "--q", "5", "--artin-tate", "--rho", "8"),
])
def test_small_jobs_load_no_heavy_module(argv):
    assert _loaded_after(_run_k3(*argv)) == []


def test_zeta_from_counts_loads_no_heavy_module(tmp_path):
    counts = tmp_path / "counts.jsonl"
    counts.write_text(
        '{"surface": "fermat", "p": 5, "r": 1, "count": 0}\n'
        '{"surface": "fermat", "p": 5, "r": 2, "count": 1112}\n')
    known = [1]  # (1 - 5T)^8 (1 + 5T)^12, the lines of the Fermat quartic
    for lin in [[1, -5]] * 8 + [[1, 5]] * 12:
        known = _intpoly.mul(known, lin)
    argv = ("zeta", "--counts", str(counts),
            "--known-factor", ",".join(map(str, known)))
    assert _loaded_after(_run_k3(*argv)) == []


def test_count_loads_numpy_but_not_sympy():
    # the Fermat quartic as a dense quartic, so the scan kernel counts it
    fermat = [int(max(e) == 4) for e in monomial_exponents(4, 4)]
    argv = ("count", "--model", "quartic", "--coeffs",
            ",".join(map(str, fermat)), "--p", "7")
    assert _loaded_after(_run_k3(*argv)) == ["numpy"]
