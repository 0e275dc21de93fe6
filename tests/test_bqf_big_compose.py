"""Composition of forms with coefficients of hundreds of digits.

a1 = F1500 and a2 = F1501 are consecutive Fibonacci numbers, about 314
digits each.  They are coprime, so the composition kernel inverts a2 mod
a1 by `pow` and takes no Bezout step.  A Bezout step on such a pair,
whose Euclidean walk has about 1500 steps, is checked in
tests/test_bqf_kernel.py::test_egcd_step_of_1500_euclidean_steps.
"""

import json

from k3arith.bqf import BinaryQuadraticForm, compose, principal_form
from k3arith.cli import main


def _fib_pair(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a, b


F1500, F1501 = _fib_pair(1500)
F = BinaryQuadraticForm(F1500, 1, F1501)
G = BinaryQuadraticForm(F1501, 1, F1500)


def test_composite_keeps_the_discriminant():
    assert len(str(F1500)) == 314
    assert compose(F, G).disc == F.disc == G.disc


def test_form_times_conjugate_is_principal():
    assert compose(F, F.conjugate()) == principal_form(F.disc)
    assert compose(G, G.conjugate()) == principal_form(G.disc)


def test_cli_compose_exits_0(capsys):
    code = main(["bqf", "compose", f"--f={F1500},1,{F1501}",
                 f"--g={F1501},1,{F1500}"])
    assert code == 0
    product = json.loads(capsys.readouterr().out)["results"]["product"]
    assert product == [str(v) if abs(v) >= 2 ** 53 else v
                       for v in compose(F, G).astuple()]
