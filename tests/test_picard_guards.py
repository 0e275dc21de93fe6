"""`k3 picard` refuses a q that is not a prime power and an Artin-Tate
value that no Weil polynomial can have.

q = p^r is decided in integers (`_intpoly.is_prime_power`), so `--q 0` is a
usage error (exit 2) rather than a division by zero.  Reciprocal roots on
|alpha| = q force |q P'(1/q)| <= q 2^deg P' for P' = P2 / (1 - qT)^rho;
a larger value is a data error (exit 1) raised before the value is
factored, so a 60-digit semiprime never reaches sympy.  A value inside
the bound whose cofactor past trial division is composite, not a square
and longer than FACTOR_DIGITS is a usage error (exit 2), also before
sympy's factorint.
"""

import os
import subprocess
import sys

import pytest

import k3arith
from k3arith import _intpoly
from k3arith._intpoly import is_prime_power
from k3arith.cli import main
from k3arith.errors import UsageError
from k3arith.zeta import FrobeniusPoly, TraceVector, square_class

SRC = os.path.dirname(os.path.dirname(os.path.abspath(k3arith.__file__)))


def test_is_prime_power_against_factorisation():
    for q in range(-20, 3000):
        want = q > 1 and len(_intpoly.factor(q)) == 1
        assert is_prime_power(q) == want, q
    for q in (5 ** 9, 1000003, 2 ** 10, 3 ** 40, (2 ** 61 - 1) ** 2):
        assert is_prime_power(q)
    for q in (6 ** 9, 2 ** 10 * 3, (2 ** 61 - 1) * (2 ** 31 - 1)):
        assert not is_prime_power(q)


@pytest.mark.parametrize("q", [0, 1, -7, 6, 12])
def test_constructors_refuse_non_prime_powers(q):
    with pytest.raises(UsageError):
        FrobeniusPoly(q=q, coeffs=(1,))
    with pytest.raises(UsageError):
        TraceVector(q=q, traces=())


@pytest.mark.parametrize("q", ["0", "1", "-7", "6", "12"])
def test_picard_non_prime_power_q_exits_2(capsys, q):
    assert main(["picard", "--p2", "1,-5", "--q", q, "--artin-tate",
                 "--rho", "1"]) == 2
    assert "is not a prime power" in capsys.readouterr().err


@pytest.mark.parametrize("q", [5 ** 9, 1000003, 2 ** 10])
def test_picard_accepts_prime_powers(capsys, q):
    assert main(["picard", "--p2", f"1,{-q}", "--q", str(q)]) == 0


def test_options_no_handler_reads_are_gone(capsys):
    assert main(["picard", "--p2", "1,-5", "--q", "5", "--jobs", "2"]) == 2
    assert main(["bqf", "reduce", "--form", "3,2,5", "--cache", "x"]) == 2
    assert main(["sieve", "--primes", "5", "--family", "dwork"]) == 2


def test_oversized_artin_tate_value_exits_1_without_sympy():
    # P2 = (1 - 5T)(1 + (N - 5)T): the special value is N, a 60-digit
    # product of two 30-digit primes, far above the bound 5 * 2
    n = 400000000000000000000000000069 * 700000000000000000000000000033
    p2 = _intpoly.mul([1, -5], [1, n - 5])
    script = (
        "import contextlib, io, sys\n"
        "from k3arith.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['picard', '--p2', '{','.join(map(str, p2))}', "
        "'--q', '5', '--artin-tate', '--rho', '1'])\n"
        "assert 'sympy' not in sys.modules\n"
        "sys.exit(code)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "too large" in proc.stderr


def _never(*args):
    raise AssertionError("factorint was called")


def test_a_long_cofactor_exits_2_before_factorint(capsys, monkeypatch):
    # P2 = (1 - qT)(1 - 186T), q a 59-digit prime: the special value
    # q - 186 passes the bound, and is the product of two primes near 10^29
    # and 3 10^29, which factorint did not split within 30 s
    sympy = pytest.importorskip("sympy")
    monkeypatch.setattr(sympy, "factorint", _never)
    q = 30000000000000000000000000096400000000000000000000000002419
    p2 = ",".join(map(str, _intpoly.mul([1, -q], [1, -186])))
    assert main(["picard", f"--p2={p2}", "--q", str(q), "--artin-tate",
                 "--rho", "1"]) == 2
    assert capsys.readouterr().err == (
        f"k3: usage error: the factors of {q - 186} need about 5.9e+1 "
        "digits (cap 4.0e+1)\n")


def test_a_square_cofactor_drops_out_unfactored(monkeypatch):
    sympy = pytest.importorskip("sympy")
    monkeypatch.setattr(sympy, "factorint", _never)
    big = 2 ** 89 - 1
    assert square_class(big * big * 5) == 5
    semi = 400000000000000000000000000069 * 700000000000000000000000000033
    assert square_class(-7 * semi ** 2) == -7
