"""Exit codes of the `k3` front end by error class.

UsageError, DomainError and UnsupportedError mean the input is at fault
and exit 2; any other K3ArithError is a failed verification and exits 1,
the library's self-checks included.  Options the subcommand does not know
are reported under that subcommand's own usage line, and options given
before the subcommand under the top-level one.
"""

import pytest

from k3arith import bqf
from k3arith.cli import main

SEXTIC_ONES = ",".join(["1"] * 28)


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("count", "--model", "sextic", "--coeffs", SEXTIC_ONES, "--p", "2"),
     "double covers need odd characteristic"),
    (("modularity", "--primes", "2,3"), "bad reduction at 2"),
    (("sieve", "--primes", "3,2"), "bad reduction at 2"),
    (("bqf", "compose", "--f", "1,0,1", "--g", "1,1,1"),
     "forms must share a discriminant"),
    (("bqf", "classgroup", "--d", "5"), "5 is not a negative discriminant"),
    (("picard", "--p2", "1,-10,25", "--q", "5", "--artin-tate", "--rho", "30"),
     "rho must lie in 1..22"),
    (("count", "--model", "quartic", "--coeffs", "1,x", "--p", "3"),
     "expected comma-separated integers, got '1,x'"),
    (("bqf", "reduce", "--form", "1,2"),
     "a form needs exactly three integers a,b,c"),
    (("modularity", "--primes", "a..b"), "bad prime range 'a..b'"),
    (("picard", "--p2", "1,-10,25", "--q", "5", "--rho", "3"),
     "--rho needs --artin-tate"),
])
def test_input_faults_exit_2(capsys, argv, message):
    code, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"k3: usage error: {message}")


def test_factor_that_does_not_divide_is_a_verification_failure(capsys):
    code, err = _run(capsys, "picard", "--p2", "1,-10,25", "--q", "5",
                     "--artin-tate", "--rho", "3")
    assert code == 1
    assert err == ("k3: verification failure: (1 - 5T)^3 does not divide "
                   "the supplied factor\n")


@pytest.mark.parametrize("argv, usage, leftover", [
    (("count", "--model", "diagonal", "--coeffs", "1,1,1,1", "--p", "5",
      "--o", "x"), "usage: k3 count ", "--o x"),
    (("bqf", "reduce", "--form", "2,1,3", "extra"),
     "usage: k3 bqf reduce ", "extra"),
])
def test_leftover_options_under_the_subcommand_usage(capsys, argv, usage,
                                                     leftover):
    code, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith(usage)
    assert err.endswith(f"error: unrecognized arguments: {leftover}\n")


def test_leftover_options_before_the_subcommand_under_the_top_usage(capsys):
    code, err = _run(capsys, "--bogus", "bqf", "reduce", "--form", "2,1,3")
    assert code == 2
    assert err.startswith("usage: k3 [-h] [--version]")
    assert err.endswith("k3: error: unrecognized arguments: --bogus\n")


def test_class_group_self_check_is_a_verification_failure(capsys,
                                                          monkeypatch):
    monkeypatch.setattr(bqf, "_compose_abc", lambda *t: (1, 1, 1))
    code, err = _run(capsys, "bqf", "classgroup", "--d", "-47")
    assert code == 1
    assert err == ("k3: verification failure: composition left the "
                   "reduced set\n")
