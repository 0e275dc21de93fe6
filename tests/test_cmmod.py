"""The eta(4 tau)^6 expansion, the Fermat count prediction, and the sieve.

The q-expansion is cross-checked along two independent routes: frozen
classical coefficients (b_5 = -6, b_13 = 10, b_17 = -30, b_29 = 42,
b_37 = -70) and the CM evaluation b_p = 2(a^2 - b^2) for p = a^2 + b^2
with a odd, which the Euler-product code never touches.  Hecke
multiplicativity at 25, 65, 85 guards the composite indices.
"""

import random
from fractions import Fraction

import pytest
import sympy

from k3arith.cache import CountCache
from k3arith.cmmod import (H_BOUND, QSeries, cm_sieve, eta4_pow6_expansion,
                           fermat_count_prediction, hecke_h, lift_parameter,
                           verify_modularity)
from k3arith.count import count_quartic, dwork_pencil, fermat_quartic
from k3arith.errors import DomainError, UsageError
from k3arith.ff import FieldCtx

ETA_FROZEN = {1: 1, 5: -6, 13: 10, 17: -30, 29: 42, 37: -70}


def test_eta_expansion_frozen_and_zero_pattern():
    series = eta4_pow6_expansion(40)
    assert (series.weight, series.level) == (3, 16)
    assert series.n_max == 40
    for n, bn in ETA_FROZEN.items():
        assert series.b(n) == bn
    for n in range(1, 41):
        if n % 4 != 1:
            assert series.b(n) == 0


def test_eta_expansion_cm_values():
    # eta(4 tau)^6 has CM by Q(i): for p = a^2 + b^2 with a odd,
    # b_p = 2 (a^2 - b^2), independently of the Euler-product expansion
    series = eta4_pow6_expansion(200)
    for p in range(5, 201, 4):
        if not sympy.isprime(p):
            continue
        a, b = next((a, b) for a in range(1, p, 2)
                    for b in (int((p - a * a) ** 0.5),)
                    if a * a + b * b == p)
        assert series.b(p) == 2 * (a * a - b * b), p


def test_eta_expansion_hecke_multiplicative():
    series = eta4_pow6_expansion(90)
    # chi_{-4}(5) = 1: b_25 = b_5^2 - 25; coprime indices multiply
    assert series.b(25) == series.b(5) ** 2 - 25 == 11
    assert series.b(65) == series.b(5) * series.b(13) == -60
    assert series.b(85) == series.b(5) * series.b(17) == 180


def test_eta_expansion_validation():
    with pytest.raises(UsageError):
        eta4_pow6_expansion(0)
    series = eta4_pow6_expansion(10)
    with pytest.raises(UsageError):
        series.b(0)
    with pytest.raises(UsageError):
        series.b(11)


def test_hecke_h():
    assert hecke_h(3) == 2
    assert hecke_h(5) == -4
    assert hecke_h(13) == -4
    for p in range(3, 100, 2):
        if not sympy.isprime(p):
            continue
        want = {1: 20, 5: -4, 3: 2, 7: 2}[p % 8]
        assert hecke_h(p) == want, p
    with pytest.raises(DomainError):
        hecke_h(2)
    with pytest.raises(UsageError):
        hecke_h(9)


def test_fermat_count_prediction():
    assert fermat_count_prediction(3) == 16
    assert fermat_count_prediction(5) == 0
    assert fermat_count_prediction(13) == 128


def test_verify_modularity_small_primes():
    report = verify_modularity([7, 3, 5])
    assert report.all_agree
    assert [e.p for e in report.entries] == [3, 5, 7]
    assert report.mismatches == []
    assert {e.p: e.counted for e in report.entries}[5] == 0


def test_verify_modularity_empty_and_validation():
    report = verify_modularity([])
    assert report.entries == () and report.all_agree
    with pytest.raises(DomainError):
        verify_modularity([3, 2, 5])
    with pytest.raises(UsageError):
        verify_modularity([3, 15])


def test_verify_modularity_uses_cache(tmp_path, monkeypatch):
    import k3arith.cmmod as cmmod_mod
    cache = CountCache(tmp_path / "counts.jsonl")
    verify_modularity([3, 5], cache=cache)

    def boom(*args, **kwargs):
        raise AssertionError("recount attempted despite a warm cache")

    monkeypatch.setattr("k3arith.count.count_quartic", boom)
    report = verify_modularity([3, 5], cache=cache)
    assert report.all_agree


def test_verify_modularity_flags_mismatch(tmp_path):
    cache = CountCache(tmp_path / "counts.jsonl")
    cache.record(fermat_quartic().surface_hash(), 3, 1, 17)  # off by one
    report = verify_modularity([3, 5], cache=cache)
    assert not report.all_agree
    assert report.mismatches == [3]


# --- the sieve ----------------------------------------------------------------

def test_cm_sieve_finds_fermat():
    target = eta4_pow6_expansion(13)
    candidates = cm_sieve(dwork_pencil, target, [5, 13])
    assert candidates == sorted(candidates, key=lambda c: (c.p, c.lam))
    by_p = {p: {c.lam for c in candidates if c.p == p} for p in (5, 13)}
    assert 0 in by_p[5] and 0 in by_p[13]  # lam = 0 survives every prime
    fermat_13 = next(c for c in candidates if c.p == 13 and c.lam == 0)
    assert fermat_13.count == 128 and fermat_13.h == -4
    assert all(abs(c.h) <= H_BOUND for c in candidates)


def test_cm_sieve_perturbed_target_drops_fermat():
    base = eta4_pow6_expansion(13)
    bumped = QSeries(base.coeffs[:12] + (base.coeffs[12] + 1,),
                     weight=3, level=16)
    lams = {c.lam for c in cm_sieve(dwork_pencil, bumped, [13])}
    assert 0 not in lams


def test_cm_sieve_parallel_matches_serial():
    target = eta4_pow6_expansion(13)
    serial = cm_sieve(dwork_pencil, target, [13], jobs=1)
    parallel = cm_sieve(dwork_pencil, target, [13], jobs=2)
    assert serial == parallel


def test_cm_sieve_validation():
    target = eta4_pow6_expansion(17)
    with pytest.raises(DomainError):
        cm_sieve(dwork_pencil, target, [2, 5])
    with pytest.raises(UsageError):
        cm_sieve(dwork_pencil, target, [19])


def test_cm_sieve_warns_when_all_singular():
    class NowhereSmooth:
        def good_reduction(self, p):
            return True

        def is_smooth_member(self, lam, p):
            return False

    with pytest.warns(UserWarning):
        out = cm_sieve(NowhereSmooth(), eta4_pow6_expansion(5), [5])
    assert out == []


# --- rational reconstruction -----------------------------------------------------

def test_lift_parameter_pinned():
    assert lift_parameter([(7, 4), (11, 6)], 8) == Fraction(1, 2)
    assert lift_parameter([(5, 0), (13, 0)], 4) == 0
    assert lift_parameter([(7, 3), (11, 9)], 5) == Fraction(1, 5)
    assert lift_parameter([(7, 3), (11, 9)], 4) is None


def test_lift_parameter_random_roundtrip():
    rng = random.Random(29)
    primes = (101, 103, 107)
    for _ in range(40):
        u = rng.randrange(-30, 31)
        v = rng.randrange(1, 31)
        g = sympy.gcd(u, v)
        u, v = int(u // g), int(v // g)
        residues = [(p, (u * pow(v, -1, p)) % p) for p in primes]
        assert lift_parameter(residues, 30) == Fraction(u, v)


def test_lift_parameter_validation():
    with pytest.raises(UsageError):
        lift_parameter([], 5)
    with pytest.raises(UsageError):
        lift_parameter([(7, 1)], 0)
    with pytest.raises(UsageError):
        lift_parameter([(7, 1)], "8")
    with pytest.raises(UsageError):
        lift_parameter([(7, 1), (7, 2)], 5)
    with pytest.raises(UsageError):
        lift_parameter([(6, 1)], 5)
