"""Every enumeration of reduced forms is priced before it starts.

`reduced_forms` and `class_number` price about |d|/6 enumeration steps,
and `class_number_one_discriminants` 4 steps per unit of its bound (it
takes about 3.4 with its early exits at 3 x 10^5).  Past
CLASS_GROUP_STEPS each is a UsageError, so `k3 bqf h1list` exits 2 at
once instead of running until killed.
"""

import pytest

from k3arith import bqf
from k3arith.cli import main
from k3arith.errors import UsageError

HUGE = -10 ** 23


def _never(d):
    pytest.fail("enumeration started past the price check")


@pytest.mark.parametrize("fn", [bqf.reduced_forms, bqf.class_number])
def test_enumeration_is_priced_before_it_starts(monkeypatch, fn):
    monkeypatch.setattr(bqf, "_reduced_triples", _never)
    with pytest.raises(UsageError, match=r"^the forms of Cl\(-10+\) need "
                       r"about 1\.7e\+22 enumeration steps \(cap 1\.0e\+7\)$"):
        fn(HUGE)


def test_h1list_is_priced_linearly_in_its_bound(monkeypatch):
    monkeypatch.setattr(bqf, "_reduced_triples", _never)
    with pytest.raises(UsageError, match=r"need about 4\.0e\+12 "
                                         r"enumeration steps"):
        bqf.class_number_one_discriminants(10 ** 12)


def test_h1list_admits_the_largest_bound_in_use(monkeypatch):
    # the benchmark's bound is 3000; 4 x 3000 steps pass a cap of 12000
    monkeypatch.setattr(bqf, "CLASS_GROUP_STEPS", 12_000)
    assert len(bqf.class_number_one_discriminants(3000)) == 13
    with pytest.raises(UsageError):
        bqf.class_number_one_discriminants(3001)


def test_cli_h1list_refuses_at_once_with_exit_2(capsys):
    assert main(["bqf", "h1list", "--bound", "1000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("k3: usage error: the class numbers to "
                          "d = -1000000000000 need about ")
