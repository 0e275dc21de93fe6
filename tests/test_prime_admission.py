"""Admitting a prime: each count vets its own, one price vets the batch.

The modularity check and the CM sieve take every odd prime of good
reduction whose counts fit: each count's own `check_bytes` refuses what
does not fit in memory, and the `count.count_many` walk refuses a batch
whose `_route` prices, with the price of the eta series it needs, sum past
BATCH_CAP, before any series or count.  The Dwork members over one F_p
share one `_torus_tally` and pay for it once, and a `--primes` range is
priced from its bounds before it is listed, then listed by a sieve of its
segment.  Each prime is vetted as the walk draws it, so a batch priced
past the cap is refused after as many vets as prices.  The eta series is
the square of Jacobi's series for prod (1 - x^k)^3, O(n).
"""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from k3arith import _intpoly, cmmod
from k3arith import count as count_mod
from k3arith import ff
from k3arith.cli import main
from k3arith.count import BATCH_CAP, _route, count_many, dwork_pencil
from k3arith.errors import UsageError

REPO = Path(__file__).resolve().parents[1]


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refuse


def _zero(surface, ctx, jobs=1):
    return 0


def test_eta_series_matches_the_euler_product_on_every_prefix():
    # one reference through x^1448, that is q^5793; every n_max to 300,
    # then a stride of 11 (every residue mod 4) to the top
    ref = [0] * 5793
    for m, c in enumerate(_intpoly.euler_product(6, 1448)):
        ref[4 * m] = c
    for n_max in itertools.chain(range(1, 301), range(301, 5794, 11), [5793]):
        assert cmmod.eta4_pow6_expansion(n_max).coeffs == tuple(ref[:n_max])


def test_eta_series_is_refused_by_its_own_byte_guard():
    with pytest.raises(UsageError, match=r"q\^20000000 need about 4\.8e\+8 "
                                         r"bytes \(cap 2\.7e\+8\)"):
        cmmod.eta4_pow6_expansion(20_000_000)


def test_modularity_agrees_past_the_old_scan_budget():
    # fibre counts (p = 1 mod 4) and the closed form (p = 3 mod 4) are
    # independent of the series at each b_p
    primes = [p for p in range(5801, 6230) if ff.isprime(p)]
    report = cmmod.verify_modularity(primes)
    assert [e.p for e in report.entries] == primes
    assert report.all_agree


@pytest.mark.parametrize("p", ["5801", "100003"])
def test_modularity_admits_primes_past_the_old_scan_budget(capsys, p):
    assert main(["modularity", "--primes", p]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["all_agree"]


@pytest.mark.parametrize("p, price", [("1019", "3.3e+9"),
                                      ("4001", "2.5e+10"),
                                      ("5791", "6.1e+11"),
                                      ("5,10000121", "2.00003e+9")])
def test_sieve_is_refused_by_price_before_any_count(capsys, monkeypatch, p,
                                                    price):
    # 1019 ran in about 2.7 s under the scan budget; the target series too
    # is built only once the batch is priced (through 10000121 its price
    # alone passes the cap), and every count runs in a field that
    # `count_many` takes from `_field`
    monkeypatch.setattr(count_mod, "_field", _refuse("_field"))
    monkeypatch.setattr(count_mod, "_torus_tally", _refuse("_torus_tally"))
    monkeypatch.setattr(cmmod, "eta4_pow6_expansion",
                        _refuse("eta4_pow6_expansion"))
    assert main(["sieve", "--primes", p]) == 2
    # the cap is written at as many decimals as tell the price from it
    cap = {"2.00003e+9": "2.00000e+9"}.get(price, "2.0e+9")
    assert capsys.readouterr().err == (
        f"k3: usage error: the counts need about {price} price units "
        f"(cap {cap})\n")


def test_the_sieve_makes_each_member_once(monkeypatch):
    made = []

    class Counted(type(dwork_pencil)):
        def member(self, lam):
            made.append(lam)
            return super().member(lam)
    monkeypatch.setattr(count_mod, "_torus_tally", _refuse("_torus_tally"))
    monkeypatch.setattr(count_mod, "count_torus_fibres", _zero)
    cmmod.cm_sieve(Counted(), None, [13, 17])
    assert made == [lam for p in (13, 17) for lam in range(p)
                    if dwork_pencil.is_smooth_member(lam, p)]


def test_modularity_range_is_refused_before_it_is_listed(capsys,
                                                         monkeypatch):
    monkeypatch.setattr(cmmod, "isprime", _refuse("isprime"))
    monkeypatch.setattr(ff, "isprime", _refuse("isprime"))
    assert main(["modularity", "--primes", "3..10000000"]) == 2
    assert capsys.readouterr().err == (
        "k3: usage error: the primes in 3..10000000 need about 1.0e+10 "
        "price units (cap 2.0e+9)\n")


def _ranges():
    rng = random.Random(11)
    for _ in range(60):  # random ones below 10^7
        lo = rng.randrange(10 ** 7)
        yield lo, lo + rng.randrange(3000)
    for lo in (0, 1, 2, 3, 2040, 2 ** 22 - 2000, 2 ** 22 - 1, 2 ** 22):
        yield lo, lo + 4000  # the edges of the sieve and of isprime's skip
    for lo in (10 ** 12, 2 ** 63 - 500, 10 ** 30):
        yield lo, lo + 1000
    yield 10, 5  # empty


@pytest.mark.parametrize("lo, hi", list(_ranges()))
def test_the_sieve_lists_what_isprime_lists(lo, hi):
    assert cmmod.primes_between(lo, hi) == [
        n for n in range(max(2, lo), hi + 1) if ff.isprime(n)]


def test_a_range_under_the_cap_is_listed_without_isprime(monkeypatch):
    # every survivor below 2^22 of the multiples of d <= 2^11 is prime
    monkeypatch.setattr(cmmod, "isprime", _refuse("isprime"))
    assert len(cmmod.primes_between(3, 1999000)) == 148866  # pi - 1


@pytest.mark.parametrize("sub", ["modularity", "sieve"])
def test_the_walk_vets_no_more_primes_than_it_prices(capsys, monkeypatch,
                                                     sub):
    # 148865 primes listed; the walk prices the keys of 1643 of them
    # (modularity) or 73 (sieve) before the cap, and vets no others
    vetted, routed = [], []
    check, route = cmmod._check_odd_prime, count_mod._route

    def spy_check(p):
        vetted.append(p)
        return check(p)

    def spy_route(surface, p, r):
        routed.append(p)
        return route(surface, p, r)
    monkeypatch.setattr(cmmod, "_check_odd_prime", spy_check)
    monkeypatch.setattr(count_mod, "_route", spy_route)
    assert main([sub, "--primes", "5..1999000"]) == 2
    assert "the counts need" in capsys.readouterr().err
    assert 0 < len(set(vetted)) <= len(set(routed)) < 5000


def test_a_batch_priced_past_the_cap_names_its_price(capsys, monkeypatch):
    # the series through 10000121 alone passes the cap, so the walk is
    # refused at its first key, before it draws the non-prime 6
    monkeypatch.setattr(cmmod, "eta4_pow6_expansion",
                        _refuse("eta4_pow6_expansion"))
    assert main(["modularity", "--primes", "5,6,10000121"]) == 2
    assert capsys.readouterr().err == (
        "k3: usage error: the counts need about 2.00003e+9 price units "
        "(cap 2.00000e+9)\n")
    assert main(["modularity", "--primes", "5,6,101"]) == 2
    assert capsys.readouterr().err == (
        "k3: usage error: 6 is not an odd prime\n")


def test_dwork_members_over_one_prime_pay_for_one_tally(monkeypatch):
    monkeypatch.setattr(count_mod, "count_torus_fibres", _zero)  # priced
    members = [(dwork_pencil.member(lam), 1009, 1) for lam in range(1, 1009)
               if dwork_pencil.is_smooth_member(lam, 1009)]
    tally = _route(members[0][0], 1009, 1)[1]
    assert count_many(members, total=BATCH_CAP - tally) == [0] * len(members)
    # BATCH_CAP + 1 in all: priced with as many decimals as tell it from
    # the cap
    with pytest.raises(UsageError, match=r"^the counts need about "
                       r"2\.000000001e\+9 price units "
                       r"\(cap 2\.000000000e\+9\)$"):
        count_many(members, total=BATCH_CAP - tally + 1)


def test_the_price_stops_at_the_first_count_past_the_cap():
    walked = []

    def members():  # endless: only the cap can stop the walk
        for lam in itertools.count(1):
            walked.append(lam)
            yield dwork_pencil.member(lam), 4001, 1
    with pytest.raises(UsageError, match=r"about 2\.5e\+10"):
        count_many(members())
    assert walked == [1]


@pytest.mark.parametrize("admitted, refused", [
    ([1009, 1013], [4001]), ([859], [863]), ([1709], [1721])])
def test_the_cap_admits_a_sieve_batch_and_refuses_the_next(monkeypatch,
                                                           admitted, refused):
    # priced, not counted: 8.25e8 of torus tallies runs, 2.5e10 does not;
    # a lone prime is admitted to 859 at p = 3 mod 4, to 1709 at p = 1 mod
    # 4, with the price of its eta series
    monkeypatch.setattr(count_mod, "count_torus_fibres", _zero)
    cmmod.cm_sieve(dwork_pencil, None, admitted)
    with pytest.raises(UsageError, match="the counts need"):
        cmmod.cm_sieve(dwork_pencil, None, refused)


@pytest.mark.parametrize("argv", [("modularity", "--primes", "3..37"),
                                  ("sieve", "--primes", "5,13,17")])
def test_every_traced_name_still_exists(tmp_path, argv):
    # bench/tracer.py wraps library functions by name and fails on a name
    # that is gone; its report must match an untraced run's results
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("K3_CACHE", None)
    spans = tmp_path / "spans.json"
    run = subprocess.run([sys.executable, str(REPO / "bench" / "tracer.py"),
                          str(spans), *argv], capture_output=True, text=True,
                         env=env, cwd=tmp_path, check=False)
    assert run.returncode == 0, run.stderr
    plain = subprocess.run([sys.executable, "-m", "k3arith.cli", *argv],
                           capture_output=True, text=True, env=env,
                           cwd=tmp_path, check=True)
    assert (json.loads(run.stdout)["results"]
            == json.loads(plain.stdout)["results"])
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert "cmmod.eta" in names
