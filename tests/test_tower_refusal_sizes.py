"""Towers past the cap are refused as usage errors at any size.

`count_tower` hands its levels to one `count_many` walk, which routes each
level once, sums `_route` prices only up to the first level past
FEASIBILITY_CAP, checks none under force, and formats the price without a
float, so a tall tower or a level over a 111-digit prime exits 2 at once
instead of overflowing a float (exit 1).  Under force the levels are
counted as they are drawn, so a tall forced tower ends at its first count
that refuses, not after routing every level.
"""

import time

import pytest

from k3arith import count
from k3arith.cli import main
from k3arith.count import (QUARTIC_EXPONENTS, SEXTIC_EXPONENTS, Quartic,
                           count_tower, fermat_quartic)
from k3arith.errors import UsageError
from k3arith.ff import isprime

ONES = ",".join(["1"] * len(QUARTIC_EXPONENTS))
SEXTIC_ONES = ",".join(["1"] * len(SEXTIC_EXPONENTS))
BIG_PRIME = next(n for n in range(10 ** 110 + 1, 10 ** 110 + 10 ** 4, 2)
                 if isprime(n))


@pytest.mark.parametrize("argv", [
    ["--model", "quartic", f"--coeffs={ONES}", "--p", "3", "--r", "216"],
    ["--model", "diagonal", "--coeffs", "1,1,1,1", "--p", "5", "--r", "221"],
    ["--model", "sextic", f"--coeffs={SEXTIC_ONES}", "--p", "3",
     "--r", "400"],
    ["--model", "quartic", f"--coeffs={ONES}", "--p", str(BIG_PRIME)],
    ["--model", "quartic", f"--coeffs={ONES}", "--p", "3", "--r", "100000"],
])
def test_cli_refuses_at_once_with_exit_2(capsys, argv):
    start = time.perf_counter()
    assert main(["count"] + argv) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "price units" in err and "--force" in err


def test_the_price_is_written_past_float_range():
    with pytest.raises(UsageError, match=r"about 3\.0e\+330 price units "
                                         r"\(cap 3\.0e\+8\)"):
        count_tower(Quartic((1,) * 35), BIG_PRIME, 1)


def _route_spy(monkeypatch):
    routed = []
    route = count._route

    def spy(surface, p, r):
        routed.append(r)
        return route(surface, p, r)

    monkeypatch.setattr(count, "_route", spy)
    return routed


def test_summing_stops_at_the_first_level_past_the_cap(monkeypatch):
    routed = _route_spy(monkeypatch)
    with pytest.raises(UsageError, match=r"about 4\.0e\+9 price units "):
        count_tower(Quartic((1,) * 35), 3, 10 ** 9)
    assert routed == [1, 2, 3, 4, 5, 6]


def test_force_prices_no_level(monkeypatch):
    # each level is routed once, priced or forced; force checks no price
    routed, priced = _route_spy(monkeypatch), []
    check = count.check_price

    def spy(what, units, cap, unit):
        priced.append(units)
        return check(what, units, cap, unit)

    monkeypatch.setattr(count, "check_price", spy)
    count_tower(fermat_quartic(), 5, 2)
    assert routed == [1, 2] and len(priced) == 2
    routed.clear()
    priced.clear()
    count_tower(fermat_quartic(), 5, 2, force=True)
    assert routed == [1, 2] and priced == []


def test_a_forced_tower_ends_at_its_first_refused_count(capsys, monkeypatch):
    # F_79 is scanned, F_{79^2} refused by the scan's byte guard; the
    # levels above it are never routed
    start = time.perf_counter()
    assert main(["count", "--model", "quartic", f"--coeffs={ONES}", "--p",
                 "79", "--r", "10000000", "--force"]) == 2
    assert time.perf_counter() - start < 1
    assert "F_6241" in capsys.readouterr().err
    routed = _route_spy(monkeypatch)
    with pytest.raises(UsageError, match="F_6241"):
        count_tower(Quartic((1,) * 35), 79, 10 ** 7, force=True)
    assert routed == [1, 2]
