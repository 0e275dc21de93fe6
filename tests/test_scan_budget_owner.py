"""One owner for the q x q scan budget, one arithmetic per scan.

`ff.check_scan_budget` is the only q x q budget rule, called by the packed
tables and the double sextic's scan alone, so an over-budget field is
refused before any table or grid is built (a quartic scan is refused by
the bytes of its grids, tests/test_prime_field_horner.py).  The
modularity check and the CM sieve never scan: they vet each prime by the
count that takes it, the whole batch and its eta series priced by the
`count.count_many` walk before any series or count, and the `--primes`
parser only parses.  A double sextic
reads its quadratic character off the squares `FieldCtx.horner` computes,
not off the discrete logs.  Report integers follow the count cache's 2^53
rule.
"""

import itertools
import math
import tracemalloc

import pytest

from k3arith import cache as cache_mod
from k3arith import cli
from k3arith import cmmod
from k3arith import count as count_mod
from k3arith import ff
from k3arith.cli import main
from k3arith.count import DoubleSextic, count_double_sextic, dwork_pencil
from k3arith.errors import UsageError
from k3arith.ff import FieldCtx

OVER_CAP = {"modularity": "5,10000121", "sieve": "5,4001"}  # 1 mod 4 tops
# the series through 10000121 alone, 200 units a coefficient, passes the
# cap at the modularity check's first count; the sieve's at its first tally
# (price, cap), written at as many decimals as tell them apart
PRICES = {"modularity": ("2.00003e+9", "2.00000e+9"),
          "sieve": ("2.5e+10", "2.0e+9")}


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refuse


def _naive_sextic_count(f, p):
    """#X(F_p) for w^2 = F by evaluating F at every nonzero vector."""
    items = f.items(p)
    squares = {x * x % p for x in range(1, p)}
    total = 0
    for v in itertools.product(range(p), repeat=3):
        if any(v):
            val = sum(c * math.prod(pow(t, k, p) for t, k in zip(v, e))
                      for e, c in items) % p
            total += 1 + (0 if val == 0 else 1 if val in squares else -1)
    return total // (p - 1)


def test_the_budget_rule_has_one_owner():
    assert count_mod.check_scan_budget is ff.check_scan_budget
    assert not hasattr(count_mod, "TABLE_BYTES")


@pytest.mark.parametrize("p", [7, 11, 13])
def test_prime_field_sextic_reads_no_discrete_log(monkeypatch, p):
    monkeypatch.setattr(FieldCtx, "dlog_table", _refuse("dlog_table"))
    monkeypatch.setattr(FieldCtx, "primitive_root", _refuse("primitive_root"))
    f = DoubleSextic(tuple(range(1, 29)))
    assert count_double_sextic(f, FieldCtx(p)) == _naive_sextic_count(f, p)


def test_over_budget_prime_sextic_is_refused_before_its_character():
    # the squares and the character are O(q) arrays, about 17 MiB here and
    # gigabytes near p = 2^31, that the scan would only refuse afterwards
    ctx = FieldCtx(1000003)
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match=f"F_{ctx.q} need"):
            count_double_sextic(DoubleSextic(tuple(range(1, 29))), ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_packed_tables_speak_the_scan_budget():
    with pytest.raises(UsageError) as err:
        FieldCtx(5, 6).packed_tables()
    assert str(err.value) == ("q x q scan arrays over F_15625 need about "
                              "2.0e+9 bytes (cap 2.7e+8)")


@pytest.mark.parametrize("sub", ["modularity", "sieve"])
def test_over_budget_prime_list_exits_2_before_any_series(capsys, monkeypatch,
                                                          sub):
    # the batch price, not the q x q budget: the eta series and the Fermat
    # quartic by fibres (300 p) at 10000121, the Dwork pencil by one torus
    # tally at 4001; every count runs in a field `count_many` takes from
    # `_field`
    monkeypatch.setattr(count_mod, "_field", _refuse("_field"))
    monkeypatch.setattr(cmmod, "eta4_pow6_expansion",
                        _refuse("eta4_pow6_expansion"))
    assert main([sub, "--primes", OVER_CAP[sub]]) == 2
    price, cap = PRICES[sub]
    assert capsys.readouterr().err == (
        f"k3: usage error: the counts need about {price} price units "
        f"(cap {cap})\n")


def test_a_lone_non_prime_past_the_budget_gets_the_budget_message(
        capsys, monkeypatch):
    # no budget is left to name: a non-prime fails the odd-prime check as
    # the walk draws it, before its route and price, any series and any
    # count
    monkeypatch.setattr(count_mod, "_route", _refuse("_route"))
    monkeypatch.setattr(cmmod, "eta4_pow6_expansion",
                        _refuse("eta4_pow6_expansion"))
    assert main(["modularity", "--primes", "6000"]) == 2
    assert capsys.readouterr().err == (
        "k3: usage error: 6000 is not an odd prime\n")


def test_prime_lists_below_the_budget_pass_unchanged():
    assert cli._primes_arg("5791,3,-7") == [5791, 3, -7]
    assert cli._primes_arg("") == []


def test_verify_modularity_vets_the_budget_before_any_series(monkeypatch):
    monkeypatch.setattr(cmmod, "eta4_pow6_expansion",
                        _refuse("eta4_pow6_expansion"))
    monkeypatch.setattr(count_mod, "_field", _refuse("_field"))
    with pytest.raises(UsageError, match=r"about 2\.00003e\+9 price units"):
        cmmod.verify_modularity([5, 10000121])


def test_cm_sieve_vets_the_budget_before_any_count(monkeypatch):
    target = cmmod.eta4_pow6_expansion(4001)
    monkeypatch.setattr(count_mod, "_field", _refuse("_field"))
    monkeypatch.setattr(count_mod, "_torus_tally", _refuse("_torus_tally"))
    with pytest.raises(UsageError, match=r"about 2\.5e\+10 price units"):
        cmmod.cm_sieve(dwork_pencil, target, [5, 4001])


@pytest.mark.parametrize("n", [2 ** 53 - 1, 2 ** 53, -2 ** 53, 10 ** 30, 0])
def test_report_integers_follow_the_cache_rule(n):
    assert cli._enc(n) == cache_mod._encode_count(n)
    assert not hasattr(cli, "_BIG")
