"""class_group prices its work before doing it.

About |d|/6 enumeration steps are priced (by `reduced_forms`, which
`class_group` calls first) before the reduced forms are enumerated, and
h(h+1)/2 compositions plus h^2 table cells before the table is built;
either past CLASS_GROUP_STEPS is a UsageError (exit 2) that names the
price.
"""

import pytest

from k3arith import bqf
from k3arith.cli import main
from k3arith.errors import UsageError

HUGE = -10 ** 23


def _never(*args):
    pytest.fail("work done past the price check")


def test_enumeration_is_priced_before_it_starts(monkeypatch):
    monkeypatch.setattr(bqf, "_reduced_triples", _never)
    with pytest.raises(UsageError, match=r"need about 1\.7e\+22 "
                                         r"enumeration steps"):
        bqf.class_group(HUGE)


def test_table_is_priced_before_any_composition(monkeypatch):
    # h(-299999) = 780: 50k enumeration steps pass a cap of 50k, while
    # 780 * 781 / 2 + 780^2 = 912990 do not
    monkeypatch.setattr(bqf, "CLASS_GROUP_STEPS", 50_000)
    monkeypatch.setattr(bqf, "_compose_abc", _never)
    with pytest.raises(UsageError, match=r"need about 9\.1e\+5 "
                                         r"compositions and table cells"):
        bqf.class_group(-299999)


def test_largest_benchmark_discriminant_is_admitted(monkeypatch):
    # the benchmark draws |d| up to 3 * 10^5; reaching the composition
    # kernel means both prices passed
    class Admitted(Exception):
        pass

    def stop(*abc):
        raise Admitted

    monkeypatch.setattr(bqf, "_compose_abc", stop)
    with pytest.raises(Admitted):
        bqf.class_group(-299999)


def test_cli_refuses_at_once_with_exit_2(capsys):
    assert main(["bqf", "classgroup", "--d", str(HUGE)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"k3: usage error: the forms of Cl({HUGE}) need "
                          "about ")
