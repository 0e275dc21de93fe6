"""Every refusal by size goes through `errors.check_price`, and no refusal
reads as its cap.

Each layer keeps its cap in its own units: the batch price and
FEASIBILITY_CAP of `count` (`_route` price units), CLASS_GROUP_STEPS of
`bqf` (enumeration steps, compositions and table cells), LIFT_BUDGET of
`cmmod` (residue combinations), TABLE_BYTES of `ff` (bytes) and
FACTOR_DIGITS of `zeta` (digits).  At cap + 1 each refusal writes amount
and cap at the fewest decimals, at least one, at which they differ.
"""

import re
from decimal import Decimal

import pytest

from k3arith import bqf, cmmod
from k3arith.cmmod import LIFT_BUDGET, SieveCandidate, sieve_survivors
from k3arith.count import (BATCH_CAP, FEASIBILITY_CAP, _route, count_many,
                           fermat_quartic)
from k3arith.errors import UsageError
from k3arith.ff import TABLE_BYTES, check_bytes, isprime
from k3arith.zeta import FACTOR_DIGITS, square_class

KEY = (fermat_quartic(), 5, 1)


def _never(*args):
    raise AssertionError("work started past the guard")


def _batch(monkeypatch):
    count_many([KEY], total=BATCH_CAP + 1 - _route(*KEY)[1])


def _feasibility(monkeypatch):
    count_many([KEY], cap=FEASIBILITY_CAP,
               total=FEASIBILITY_CAP + 1 - _route(*KEY)[1])


def _class_group_steps(monkeypatch):
    d = -6 * (bqf.CLASS_GROUP_STEPS + 1) - 1  # 1 mod 4, |d|/6 = cap + 1
    monkeypatch.setattr(bqf, "_reduced_triples", _never)
    bqf.reduced_forms(d)


def _class_group_table(monkeypatch):
    # h(-23) = 3: 3 * 4 / 2 + 3^2 = 15 compositions and table cells
    monkeypatch.setattr(bqf, "CLASS_GROUP_STEPS", 14)
    monkeypatch.setattr(bqf, "_compose_abc", _never)
    bqf.class_group(-23)


def _lifts(monkeypatch):
    per_prime = {17: range(17), 241: range(241)}  # 17 * 241 = 4097
    assert 17 * 241 == LIFT_BUDGET + 1
    monkeypatch.setattr(cmmod, "lift_parameter", _never)
    sieve_survivors([SieveCandidate(p, lam, 0, 0)
                     for p, lams in per_prime.items() for lam in lams],
                    list(per_prime), 20)


def _bytes(monkeypatch):
    check_bytes("x", TABLE_BYTES + 1)


def _digits(monkeypatch):
    sympy = pytest.importorskip("sympy")
    monkeypatch.setattr(sympy, "factorint", _never)
    p1 = next(n for n in range(10 ** 20, 2 * 10 ** 20) if isprime(n))
    p2 = next(n for n in range(2 * 10 ** 20, 3 * 10 ** 20) if isprime(n))
    assert len(str(p1 * p2)) == FACTOR_DIGITS + 1
    square_class(p1 * p2)


GUARDS = [(_batch, "price units"), (_feasibility, "price units"),
          (_class_group_steps, "enumeration steps"),
          (_class_group_table, "compositions and table cells"),
          (_lifts, "residue combinations"), (_bytes, "bytes"),
          (_digits, "digits")]


@pytest.mark.parametrize("guard, unit", GUARDS,
                         ids=[g.__name__.strip("_") for g, _ in GUARDS])
def test_at_cap_plus_one_the_amount_reads_apart_from_the_cap(monkeypatch,
                                                             guard, unit):
    with pytest.raises(UsageError) as err:
        guard(monkeypatch)
    m = re.fullmatch(r".* need about (\S+) (.+) \(cap (\S+)\)",
                     str(err.value))
    assert m, str(err.value)
    amount, written_unit, cap = m.groups()
    assert written_unit == unit
    assert amount != cap and Decimal(amount) > Decimal(cap)
    assert len(amount.partition("e")[0]) == len(cap.partition("e")[0])
