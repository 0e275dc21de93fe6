"""Modularity of the Fermat quartic and the CM parameter sieve.

The weight-3 newform eta(4 tau)^6 = q prod (1 - q^{4n})^6 = sum b_n q^n
predicts #X_p(F_p) = 1 + b_p + h p + p^2 for the Fermat quartic, with
h = 5 + 3 chi_{-1}(p) + 6 (chi_2(p) + chi_{-2}(p)) from the rational part
of the Neron-Severi action.  verify_modularity runs that prediction against
the stratum scan, never the Jacobi-sum path that rests on the same theory.

cm_sieve turns the prediction around: scanning a one-parameter family mod
several primes for members whose counts fit a target q-series with SOME
bounded h.  A single prime admits spurious matches (h is free per prime),
so only residues surviving every prime matter; lift_parameter CRT-combines
those and rationally reconstructs a small-height parameter, and
sieve_survivors runs that analysis over a whole sieve.  Both count
through `count.count_many`, with one field context per prime; the sieve
hands it every smooth member at once, and those members, a pencil, take
one scan per prime.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, isqrt, prod

from ._intpoly import euler_product
from .count import count_many, fermat_quartic
from .errors import DomainError, UsageError
from .ff import FieldCtx, check_scan_budget, isprime

H_BOUND = 20  # |trace of Frob on NS| <= rank NS = 20 for a singular K3
SMALL_INT_BOUND = 20  # window |c| <= 20 of the common small integers
LIFT_BUDGET = 4096  # residue combinations sieve_survivors may lift


@dataclass(frozen=True)
class QSeries:
    """Integer q-expansion b_1..b_N with weight and level tags."""
    coeffs: tuple
    weight: int
    level: int

    @property
    def n_max(self) -> int:
        return len(self.coeffs)

    def b(self, n: int) -> int:
        if not 1 <= n <= len(self.coeffs):
            raise UsageError(f"coefficient b_{n} outside the computed range "
                             f"1..{len(self.coeffs)}")
        return self.coeffs[n - 1]


@lru_cache(maxsize=None)
def eta4_pow6_expansion(n_max: int) -> QSeries:
    """eta(4 tau)^6 through q^n_max: b_{4m+1} = [x^m] prod_k (1 - x^k)^6,
    all other coefficients zero."""
    if n_max < 1:
        raise UsageError("need at least one coefficient")
    b = [0] * n_max
    for m, c in enumerate(euler_product(6, (n_max - 1) // 4)):
        b[4 * m] = c  # index 4m holds b_{4m+1}
    return QSeries(tuple(b), weight=3, level=16)


def _check_odd_prime(p: int) -> None:
    if p == 2:
        raise DomainError("bad reduction at 2")
    if p < 3 or not isprime(p):
        raise UsageError(f"{p} is not an odd prime")


def hecke_h(p: int) -> int:
    """h = 5 + 3 chi_{-1}(p) + 6 (chi_2(p) + chi_{-2}(p)), read off p mod 8."""
    _check_odd_prime(p)
    chi_m1 = 1 if p % 4 == 1 else -1
    chi_2 = 1 if p % 8 in (1, 7) else -1
    return 5 + 3 * chi_m1 + 6 * (chi_2 + chi_m1 * chi_2)


def fermat_count_prediction(p: int) -> int:
    """Predicted #X_p(F_p) = 1 + b_p + h p + p^2 for the Fermat quartic."""
    _check_odd_prime(p)
    b_p = eta4_pow6_expansion(p).b(p)
    return 1 + b_p + hecke_h(p) * p + p * p


@dataclass(frozen=True)
class ModularityEntry:
    p: int
    predicted: int
    counted: int

    @property
    def agree(self) -> bool:
        return self.predicted == self.counted


@dataclass(frozen=True)
class ModularityReport:
    entries: tuple

    @property
    def all_agree(self) -> bool:
        return all(e.agree for e in self.entries)

    @property
    def mismatches(self):
        return [e.p for e in self.entries if not e.agree]


def verify_modularity(p_range, cache=None, jobs: int = 1) -> ModularityReport:
    """Prediction vs direct count of the Fermat quartic at each prime."""
    primes = sorted(set(p_range))
    for p in primes:  # whole range vetted before any series or count
        _check_odd_prime(p)
        check_scan_budget(p)
    fermat = fermat_quartic().to_quartic()  # the scan route, same hash
    return ModularityReport(tuple(
        ModularityEntry(p, fermat_count_prediction(p),
                        count_many([fermat], FieldCtx(p), cache, jobs)[0])
        for p in primes))


@dataclass(frozen=True)
class SieveCandidate:
    """A family member whose count over F_p fits the target series with
    Frobenius trace h on NS, |h| <= 20."""
    p: int
    lam: int
    h: int
    count: int


def cm_sieve(family, target: QSeries, primes, cache=None, jobs: int = 1):
    """Scan the family mod each prime for smooth members matching the
    target: accept (p, lam) iff p | (N - 1 - p^2 - b_p) with quotient h
    bounded by |h| <= 20.  Candidates come back sorted by (p, lam); only
    residues appearing at EVERY prime are meaningful (h is free per
    prime, so single-prime matches are often spurious)."""
    plist = sorted(set(primes))
    for p in plist:
        _check_odd_prime(p)
        check_scan_budget(p)
        if not family.good_reduction(p):
            raise DomainError(f"family has bad reduction at {p}")
        if p > target.n_max:
            raise UsageError(f"target series stops at b_{target.n_max}, "
                             f"below prime {p}")
    out = []
    for p in plist:
        b_p = target.b(p)
        lams = [lam for lam in range(p) if family.is_smooth_member(lam, p)]
        if not lams:
            warnings.warn(f"every residue mod {p} is singular; "
                          f"prime contributes nothing")
            continue
        counts = count_many([family.member(lam) for lam in lams],
                            FieldCtx(p), cache, jobs)
        for lam, n in zip(lams, counts):
            t = n - 1 - p * p - b_p
            if t % p == 0 and abs(t // p) <= H_BOUND:
                out.append(SieveCandidate(p, lam, t // p, n))
    out.sort(key=lambda cand: (cand.p, cand.lam))
    return out


def lift_parameter(residues, height_bound: int):
    """CRT-combine (p, lam mod p) residues and rationally reconstruct a
    parameter u/v with |u|, |v| <= height_bound, or None when no such
    rational exists.

    The half-extended Euclid walk stops at the sqrt(M/2) line, inside
    which the reconstruction is unique; a height_bound beyond that line
    cannot produce extra answers, it only relaxes the final filter."""
    if not isinstance(height_bound, int) or height_bound < 1:
        raise UsageError("height bound must be a positive integer")
    pairs = list(residues)
    if not pairs:
        raise UsageError("no residues supplied")
    primes = [p for p, _ in pairs]
    if len(set(primes)) != len(primes):
        raise UsageError("residue primes must be distinct")
    for p in primes:
        if not isprime(p):
            raise UsageError(f"{p} is not prime")
    x, m = 0, 1
    for p, lam in pairs:
        # fold one congruence into x mod m
        inv = pow(m, -1, p)
        x = x + m * (((lam - x) * inv) % p)
        m *= p
    line = isqrt(m // 2)
    r0, r1 = m, x % m
    t0, t1 = 0, 1
    while r1 > line:
        quo = r0 // r1
        r0, r1 = r1, r0 - quo * r1
        t0, t1 = t1, t0 - quo * t1
    u, v = r1, t1
    if v < 0:
        u, v = -u, -v
    if v == 0 or gcd(abs(u), v) != 1 or (u - x * v) % m != 0:
        return None
    if abs(u) > height_bound or v > height_bound:
        return None
    from fractions import Fraction  # loaded only where a Fraction is made
    return Fraction(u, v)


def _i_orbits(lams, p):
    """Residues grouped into orbits under lam -> i*lam, i the least square
    root of -1 in F_p; singletons when F_p has none (p = 3 mod 4)."""
    i = next((x for x in range(2, p) if (x * x + 1) % p == 0), None)
    units = (1, i, -1, -i) if i else (1,)
    orbits, seen = [], set()
    for lam in sorted(set(lams)):
        if lam not in seen:
            orbits.append(sorted({lam * k % p for k in units} & set(lams)))
            seen.update(orbits[-1])
    return orbits


@dataclass(frozen=True)
class SieveSurvivors:
    """per_prime and orbits map each prime to its surviving residues and to
    their i-orbits; common lists the integers |c| <= SMALL_INT_BOUND that
    survive at every prime; lifts holds (residue combination, parameter)
    pairs, or None when no height was given."""
    per_prime: dict
    orbits: dict
    common: list
    lifts: list = None


def sieve_survivors(candidates, primes, height=None) -> SieveSurvivors:
    """Read cm_sieve's candidates prime by prime, over primes exactly as
    given (order and repeats kept).  With a height, every combination of
    one survivor per prime, in itertools.product order, goes through
    lift_parameter; the combinations are checked against LIFT_BUDGET
    first, and a repeated prime makes the lift raise UsageError."""
    per_prime = {p: [c.lam for c in candidates if c.p == p] for p in primes}
    orbits = {p: _i_orbits(lams, p) for p, lams in per_prime.items()}
    common = [c for c in range(-SMALL_INT_BOUND, SMALL_INT_BOUND + 1)
              if all(c % p in per_prime[p] for p in primes)]
    if height is None:
        return SieveSurvivors(per_prime, orbits, common)
    sets = [[(p, lam) for lam in per_prime[p]] for p in primes]
    total = prod(max(len(s), 1) for s in sets)
    if total > LIFT_BUDGET:
        raise UsageError(f"{total} residue combinations exceed the lift "
                         f"budget; narrow the sieve first")
    lifted = ((combo, lift_parameter(combo, height)) for combo in product(*sets))
    return SieveSurvivors(per_prime, orbits, common,
                          [(combo, x) for combo, x in lifted if x is not None])
