"""Towers past the cap are refused as usage errors at any size.

`count_tower` sums `_route` prices only up to the first level past
FEASIBILITY_CAP, sums none under force, and formats the price without a
float, so a tall tower or a level over a 111-digit prime exits 2 at once
instead of overflowing a float (exit 1); `_tower_cost` is still the full
sum.
"""

import time

import pytest

from k3arith import count
from k3arith.cli import main
from k3arith.count import (QUARTIC_EXPONENTS, SEXTIC_EXPONENTS, Quartic,
                           _tower_cost, count_tower, fermat_quartic)
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
    assert "field operations" in err and "--force" in err


def test_the_price_is_written_past_float_range():
    with pytest.raises(UsageError, match=r"about 3\.0e\+330 field operations"
                                         r" by r = 1 \(cap 3\.0e\+8\)"):
        count_tower(Quartic((1,) * 35), BIG_PRIME, 1)


def test_summing_stops_at_the_first_level_past_the_cap():
    with pytest.raises(UsageError, match=r"about 4\.0e\+9 field operations "
                                         r"by r = 6 "):
        count_tower(Quartic((1,) * 35), 3, 10 ** 9)
    assert _tower_cost(fermat_quartic(), 2, 1000) == 250500250000000


def test_force_prices_no_level(monkeypatch):
    priced = []
    route = count._route

    def spy(surface, p, r):
        priced.append(r)
        return route(surface, p, r)

    monkeypatch.setattr(count, "_route", spy)
    count_tower(fermat_quartic(), 5, 2)
    assert len(priced) > 2 and priced[-2:] == [1, 2]  # prices, then counts
    priced.clear()
    count_tower(fermat_quartic(), 5, 2, force=True)
    assert priced == [1, 2]
