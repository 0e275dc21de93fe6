"""The survivor analysis of the CM sieve (`cmmod.sieve_survivors`) and the
field contexts `cm_sieve` counts its members in.

Golden `results` below were recorded from `k3 sieve` before the analysis
moved from the CLI into `cmmod`; the other tests check each part of
`SieveSurvivors` against its definition.
"""

import json
from fractions import Fraction
from math import gcd

import pytest

from k3arith import cmmod, count
from k3arith.cache import CountCache
from k3arith.cli import main
from k3arith.cmmod import (LIFT_BUDGET, SMALL_INT_BOUND, SieveCandidate,
                           cm_sieve, eta4_pow6_expansion, sieve_survivors)
from k3arith.count import dwork_pencil
from k3arith.errors import UsageError

GOLDEN = {
    ("--primes", "5,13,17", "--lift", "--height", "20"): {
        "family": "dwork", "target": "eta4_6", "primes": [5, 13, 17],
        "candidates": [
            {"p": 5, "lam": 0, "h": -4, "count": 0},
            {"p": 13, "lam": 0, "h": -4, "count": 128},
            {"p": 17, "lam": 0, "h": 20, "count": 600}],
        "per_prime_residues": {"5": [0], "13": [0], "17": [0]},
        "symmetry_orbits": {"5": [[0]], "13": [[0]], "17": [[0]]},
        "common_small_integers": [0],
        "lifts": [{"residues": [[5, 0], [13, 0], [17, 0]], "parameter": 0}],
    },
    ("--primes", "13,17,29,37", "--lift"): {
        "family": "dwork", "target": "eta4_6", "primes": [13, 17, 29, 37],
        "candidates": [
            {"p": 13, "lam": 0, "h": -4, "count": 128},
            {"p": 17, "lam": 0, "h": 20, "count": 600},
            {"p": 29, "lam": 0, "h": -4, "count": 768},
            {"p": 37, "lam": 0, "h": -4, "count": 1152},
            {"p": 37, "lam": 5, "h": -4, "count": 1152},
            {"p": 37, "lam": 7, "h": -4, "count": 1152},
            {"p": 37, "lam": 30, "h": -4, "count": 1152},
            {"p": 37, "lam": 32, "h": -4, "count": 1152}],
        "per_prime_residues": {"13": [0], "17": [0], "29": [0],
                               "37": [0, 5, 7, 30, 32]},
        "symmetry_orbits": {"13": [[0]], "17": [[0]], "29": [[0]],
                            "37": [[0], [5, 7, 30, 32]]},
        "common_small_integers": [0],
        "lifts": [{"residues": [[13, 0], [17, 0], [29, 0], [37, 0]],
                   "parameter": 0}],
    },
}


def _survivors(primes, height=None):
    candidates = cm_sieve(dwork_pencil, eta4_pow6_expansion(max(primes)),
                          primes)
    return sieve_survivors(candidates, primes, height)


def _synthetic(residues):
    """Candidates surviving with the given residues, {p: [lam, ...]}."""
    return [SieveCandidate(p, lam, 0, 0)
            for p, lams in residues.items() for lam in lams]


def _brute_lifts(per_prime, primes, height):
    """{combination: u/v} over every u/v with |u|, v <= height in lowest
    terms whose residues survive at every prime."""
    out = {}
    for u in range(-height, height + 1):
        for v in range(1, height + 1):
            if gcd(u, v) != 1 or any(v % p == 0 for p in primes):
                continue
            combo = tuple((p, u * pow(v, -1, p) % p) for p in primes)
            if all(lam in per_prime[p] for p, lam in combo):
                assert combo not in out, "two lifts of one combination"
                out[combo] = Fraction(u, v)
    return out


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_sieve_reports(capsys, argv):
    assert main(["sieve", *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"] == GOLDEN[argv]


@pytest.mark.parametrize("primes, height", [
    ([5, 13, 17], 20), ([13, 17, 29, 37], 20), ([13, 17, 29, 37], 100),
    ([19, 23, 31], 20)])
def test_lifts_match_brute_force_on_the_sieve(primes, height):
    found = _survivors(primes, height)
    assert dict(found.lifts) == _brute_lifts(found.per_prime, primes, height)


def test_lifts_match_brute_force_on_every_combination():
    # every residue survives: 5 * 7 * 11 = 385 combinations, and height 10
    # stays inside the reconstruction's uniqueness line sqrt(385 / 2)
    primes = [5, 7, 11]
    per_prime = {p: list(range(p)) for p in primes}
    found = sieve_survivors(_synthetic(per_prime), primes, 10)
    want = _brute_lifts(per_prime, primes, 10)
    assert len(want) > 50
    assert dict(found.lifts) == want
    combos = [combo for combo, _ in found.lifts]
    assert combos == sorted(combos)  # itertools.product order


def test_budget_refusal_comes_before_any_lift(monkeypatch):
    def refuse(residues, height_bound):
        raise AssertionError("lift_parameter called over budget")

    monkeypatch.setattr(cmmod, "lift_parameter", refuse)
    per_prime = {101: list(range(65)), 103: list(range(64))}
    assert 65 * 64 > LIFT_BUDGET
    with pytest.raises(UsageError, match=r"^the lifts need about 4\.2e\+3 "
                       r"residue combinations \(cap 4\.1e\+3\)$"):
        sieve_survivors(_synthetic(per_prime), [101, 103], 20)
    # without a height nothing is lifted, so nothing is refused
    assert sieve_survivors(_synthetic(per_prime), [101, 103]).lifts is None


def test_budget_admits_exactly_its_size(monkeypatch):
    calls = []
    monkeypatch.setattr(cmmod, "lift_parameter",
                        lambda residues, height: calls.append(residues))
    per_prime = {101: list(range(64)), 103: list(range(64))}
    assert 64 * 64 == LIFT_BUDGET
    found = sieve_survivors(_synthetic(per_prime), [101, 103], 20)
    assert len(calls) == LIFT_BUDGET and found.lifts == []


def test_a_lift_past_the_budget_stops_the_sieve(capsys, monkeypatch):
    # 55 primes priced under the batch cap took about 1.2 s to count before
    # their lift was refused; the lift is now priced as candidates are found
    # and refused at the first that passes LIFT_BUDGET, with most members
    # not counted
    counted = []
    tally = count.count_torus_fibres

    def spy(surface, ctx, jobs=1):
        counted.append(ctx.p)
        return tally(surface, ctx, jobs)
    monkeypatch.setattr(count, "count_torus_fibres", spy)
    assert main(["sieve", "--primes", "7..275", "--lift"]) == 2
    assert capsys.readouterr().err.startswith("k3: usage error: the lifts "
                                              "need about ")
    assert max(counted) < 100
    # with no lift the same sieve counts every member
    counted.clear()
    assert main(["sieve", "--primes", "7..275"]) == 0
    assert max(counted) == 271


def test_orbits_under_multiplication_by_i():
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    found = _survivors(primes)
    assert any(len(orbit) > 1 for orbit in found.orbits[37])
    for p in primes:
        orbits = found.orbits[p]
        assert sorted(lam for orbit in orbits for lam in orbit) \
            == found.per_prime[p]
        if p % 4 == 3:
            assert orbits == [[lam] for lam in found.per_prime[p]]
            continue
        i = min(x for x in range(p) if (x * x + 1) % p == 0)
        for orbit in orbits:
            assert orbit == sorted(orbit)
            assert {lam * i % p for lam in orbit} == set(orbit)


def test_common_small_integers_by_definition():
    primes = [5, 7, 11]
    per_prime = {5: [0, 1, 4], 7: [1, 3, 6], 11: [1, 2, 9, 10]}
    found = sieve_survivors(_synthetic(per_prime), primes)
    want = [c for c in range(-SMALL_INT_BOUND, SMALL_INT_BOUND + 1)
            if all(c % p in per_prime[p] for p in primes)]
    assert found.common == want == [-20, -1, 1, 10, 20]
    real = _survivors([19, 23, 31])
    assert real.common == [
        c for c in range(-SMALL_INT_BOUND, SMALL_INT_BOUND + 1)
        if all(c % p in real.per_prime[p] for p in (19, 23, 31))]


def test_primes_kept_as_given():
    primes = [17, 5, 13, 5]
    found = sieve_survivors(_synthetic({5: [0, 2], 13: [0], 17: [0]}), primes)
    assert list(found.per_prime) == [17, 5, 13]
    assert found.per_prime[5] == [0, 2]


def test_repeated_primes_raise(capsys):
    candidates = cm_sieve(dwork_pencil, eta4_pow6_expansion(13), [5, 13])
    with pytest.raises(UsageError):
        sieve_survivors(candidates, [5, 5, 13], 20)
    assert main(["sieve", "--primes", "5,5,13", "--lift"]) == 2
    assert "distinct" in capsys.readouterr().err


# --- field contexts of the sieve's member counts ------------------------------

def test_one_field_context_per_prime(monkeypatch):
    # every count over one prime is made in the same field context: lam = 0
    # (the Fermat quartic) by fibres, the others on the torus, and the
    # tally's own diagonal quartic by fibres, all on `ff._field(p, 1)`
    used = {}

    def spy(name):
        route = getattr(count, name)

        def counted(surface, ctx, jobs=1):
            used.setdefault(ctx.p, []).append(ctx)
            return route(surface, ctx, jobs)
        monkeypatch.setattr(count, name, counted)

    spy("count_torus_fibres")
    spy("count_diagonal_quartic_fibres")
    cm_sieve(dwork_pencil, eta4_pow6_expansion(17), [17, 5, 13], jobs=1)
    assert list(used) == [5, 13, 17]
    assert all(ctx is ctxs[0] for ctxs in used.values() for ctx in ctxs)


def test_member_counts_equal_at_one_and_two_jobs(tmp_path):
    target = eta4_pow6_expansion(29)
    runs = []
    for jobs in (1, 2):
        cache = CountCache(tmp_path / f"jobs{jobs}.jsonl")
        candidates = cm_sieve(dwork_pencil, target, [13, 29], cache=cache,
                              jobs=jobs)
        runs.append((candidates, cache.as_records()))
    assert runs[0] == runs[1]
    members = sum(dwork_pencil.is_smooth_member(lam, p)
                  for p in (13, 29) for lam in range(p))
    assert len(runs[0][1]) == members  # every member's count, not only hits
