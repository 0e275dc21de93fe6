"""What `k3` loads: sympy and numpy stay out of start-up, and each job
loads only the layers of k3arith its subcommand calls.

Each check runs in a fresh interpreter, because the test session itself
has long since imported both.  `import k3arith.cli` must load neither,
nor the process-pool machinery; jobs that do no point counting must not
load them either, nor must the modularity check or the CM sieve, and a
count by the scan kernel loads numpy but not sympy.  `import k3arith`
loads no submodule, building the parser loads no layer,
and a job loads the layer it runs: a class-group job never loads the
counting layer, a count never loads the class-group layer, and `zeta` and
`picard` load `_intpoly` and `zeta` alone, no finite-field layer.
"""

import json
import os
import subprocess
import sys

import pytest

import k3arith
from k3arith import _intpoly
from k3arith.count import dwork_pencil, monomial_exponents

SRC = os.path.dirname(os.path.dirname(os.path.abspath(k3arith.__file__)))
HEAVY = ("sympy", "numpy", "concurrent.futures.process")
LAYERS = tuple(f"k3arith.{m}" for m in (
    "_intpoly", "bqf", "cmmod", "count", "ellsurf", "ff", "singk3", "zeta"))
# P2 of the Fermat quartic over F_5: (1 - 5T)^8 (1 + 5T)^12 (1 + 6T + 25T^2)
_LINES = [1]
for _lin in [[1, -5]] * 8 + [[1, 5]] * 12:
    _LINES = _intpoly.mul(_LINES, _lin)
FERMAT_F5_LINES = ",".join(map(str, _LINES))
FERMAT_F5_P2 = ",".join(map(str, _intpoly.mul(_LINES, [1, 6, 25])))


def _loaded_after(code, watch=HEAVY):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    script = code + (
        "\nimport json, sys\n"
        f"print(json.dumps([m for m in {watch!r} if m in sys.modules]))\n")
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
    # the Dwork members count by the torus, unscanned, at p = 1 and 3 mod 4
    ("sieve", "--primes", "5,13,17", "--lift"),
    ("sieve", "--primes", "211,223,227"),
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
    # the Dwork member lam = 1 plus x0^3 x1 has neither the diagonal nor
    # the torus shape, so the scan kernel counts it
    coeffs = list(dwork_pencil.member(1).coeffs)
    coeffs[monomial_exponents(4, 4).index((3, 1, 0, 0))] += 1
    argv = ("count", "--model", "quartic", "--coeffs",
            ",".join(map(str, coeffs)), "--p", "7")
    assert _loaded_after(_run_k3(*argv)) == ["numpy"]


def test_modularity_loads_no_heavy_module():
    # the Fermat quartic counts by the fibres of x -> x^4, without numpy
    assert _loaded_after(_run_k3("modularity", "--primes", "3..37")) == []


def _layers_after(code):
    return _loaded_after(code, LAYERS)


def test_package_import_loads_no_submodule():
    every = LAYERS + ("k3arith.cache", "k3arith.cli", "k3arith.errors")
    assert _loaded_after("import k3arith", every) == []


def test_building_the_parser_loads_no_layer():
    assert _layers_after("from k3arith.cli import build_parser\n"
                         "build_parser()\n") == []


@pytest.mark.parametrize("argv", [
    ("bqf", "reduce", "--form", "3,2,5"),
    ("bqf", "classgroup", "--d", "-84"),
    ("bqf", "compose", "--f", "2,1,3", "--g", "2,-1,3"),
    ("bqf", "h1list", "--bound", "200"),
])
def test_bqf_jobs_load_only_bqf(argv):
    assert _layers_after(_run_k3(*argv)) == ["k3arith.bqf"]


def test_kuwata_loads_only_ellsurf():
    argv = ("kuwata", "--n", "3", "--relation", "not-isogenous")
    assert _layers_after(_run_k3(*argv)) == ["k3arith.ellsurf"]


def test_picard_and_zeta_load_no_counting_layer(tmp_path):
    counts = tmp_path / "counts.jsonl"
    counts.write_text(
        '{"surface": "fermat", "p": 5, "r": 1, "count": 0}\n'
        '{"surface": "fermat", "p": 5, "r": 2, "count": 1112}\n')
    for argv in [("picard", "--p2", FERMAT_F5_P2, "--q", "5"),
                 ("zeta", "--counts", str(counts),
                  "--known-factor", FERMAT_F5_LINES)]:
        assert _layers_after(_run_k3(*argv)) == ["k3arith._intpoly",
                                                 "k3arith.zeta"]


def test_count_loads_no_class_group_or_modularity_layer():
    argv = ("count", "--model", "diagonal", "--coeffs", "1,1,1,1",
            "--p", "5", "--r", "2")
    assert _layers_after(_run_k3(*argv)) == [
        "k3arith._intpoly", "k3arith.count", "k3arith.ff"]


FRACTIONS = ("fractions", "decimal")


@pytest.mark.parametrize("argv", [
    ("count", "--model", "quartic", "--coeffs",
     ",".join(str(int(max(e) == 4)) for e in monomial_exponents(4, 4)),
     "--p", "7"),
    ("count", "--model", "diagonal", "--coeffs", "1,1,1,1", "--p", "5",
     "--r", "2"),
    ("modularity", "--primes", "3..37"),
])
def test_counting_jobs_load_no_fractions(argv):
    # counting makes no Fraction, so neither module loads
    assert _loaded_after(_run_k3(*argv), FRACTIONS) == []


def test_sieve_lift_loads_fractions():
    argv = ("sieve", "--primes", "5,13,17", "--lift")
    assert _loaded_after(_run_k3(*argv), FRACTIONS) == list(FRACTIONS)
