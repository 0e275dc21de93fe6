"""The closed form for diagonal quartics where gcd(4, q - 1) < 4.

At q = 3 mod 4 with p prime to every coefficient, and at p = 2, `_route`
counts a diagonal quartic by `count_diagonal_quartic_quadric`, with no
scan and no numpy.  The scan (`count_quartic`) is the reference over F_p
for p = 3 mod 4 below 60, over F_27 and F_343, and over F_2 .. F_16, where
all-even coefficients give all of P^3; a tower to F_{3^7} agrees with the scan
at its small odd levels and with the Jacobi sums at its even ones.
"""

import json
import os
import subprocess
import sys

import pytest

import k3arith
from k3arith import count
from k3arith.cli import main
from k3arith.count import (DiagonalQuartic, _route,
                           count_diagonal_quartic_jacobi,
                           count_diagonal_quartic_quadric, count_quartic,
                           count_tower, fermat_quartic)
from k3arith.errors import UnsupportedError
from k3arith.ff import FieldCtx

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example = hypothesis.given, hypothesis.example

SRC = os.path.dirname(os.path.dirname(os.path.abspath(k3arith.__file__)))
FIELDS = ([(p, 1) for p in (3, 7, 11, 19, 23, 31, 43, 47, 59)]
          + [(3, 3), (7, 3)] + [(2, r) for r in (1, 2, 3, 4)])


@given(st.sampled_from(FIELDS),
       st.lists(st.integers(-60, 60), min_size=4, max_size=4))
@example((2, 3), [2, -4, 0, 6])  # every coefficient even: all of P^3
@example((2, 4), [0, 0, 0, 0])
def test_closed_form_equals_the_scan(field, coeffs):
    p, r = field
    ctx = FieldCtx(p, r)
    if p != 2:  # keep off the cone case p | a_i, which still scans
        coeffs = [c if c % p else c + 1 for c in coeffs]
    surface = DiagonalQuartic(tuple(coeffs))
    route, _ = _route(surface, p, r)
    assert route is count.count_diagonal_quartic_quadric
    assert route(surface, ctx, 1) == count_quartic(surface, ctx)


@pytest.mark.parametrize("a, p, r", [
    ((1, 1, 1, 1), 5, 1),  # q = 1 mod 4: the Jacobi sums' level
    ((1, 1, 1, 3), 3, 1),  # p divides a coefficient: the cone scans
    ((1, 1, 1, 1), 3, 2),
])
def test_closed_form_refuses_the_other_levels(a, p, r):
    assert _route(DiagonalQuartic(a), p, r)[0] is not \
        count.count_diagonal_quartic_quadric
    with pytest.raises(UnsupportedError, match="closed form"):
        count_diagonal_quartic_quadric(DiagonalQuartic(a), FieldCtx(p, r))


def test_tower_to_f_3_7_agrees_with_scan_and_jacobi():
    fermat = fermat_quartic()
    counts = [rec.count for rec in count_tower(fermat, 3, 7)]
    for r, n in enumerate(counts, start=1):
        ctx = FieldCtx(3, r)
        if r <= 3:
            assert n == count_quartic(fermat, ctx)
        if r % 2 == 0:
            assert n == count_diagonal_quartic_jacobi(fermat, ctx)[0]
    assert counts[6] == 3 ** 14 + 3 ** 7 + 1 + 3 ** 7  # (1 / 3) = 1


def test_cli_refuses_a_tower_to_f_2_1000_naming_force(capsys):
    argv = ["count", "--model", "diagonal", "--coeffs", "1,1,1,1",
            "--p", "2", "--r", "1000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "price units" in err and "--force" in err


def test_diagonal_tower_at_q_3_mod_4_leaves_numpy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    script = (
        "import contextlib, io, json, sys\n"
        "from k3arith.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['count', '--model', 'diagonal', "
        "'--coeffs=20,-28,25,25', '--p', '3', '--r', '4'])\n"
        "print(json.dumps([code, 'numpy' in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0, False]
