"""Modularity of the Fermat quartic and the CM parameter sieve.

The weight-3 newform eta(4 tau)^6 = q prod (1 - q^{4n})^6 = sum b_n q^n
predicts #X_p(F_p) = 1 + b_p + h p + p^2 for the Fermat quartic, with
h = 5 + 3 chi_{-1}(p) + 6 (chi_2(p) + chi_{-2}(p)) from the rational part
of the Neron-Severi action.  verify_modularity runs that prediction against
an elementary count: `count` takes the Fermat quartic over F_p in closed
form at p = 3 mod 4 and by the fibres of x -> x^4 at p = 1 mod 4, never by
the Jacobi sums that rest on the same theory, and never by a scan.

cm_sieve turns the prediction around: it counts the smooth members of a
one-parameter family mod several primes and keeps those whose counts fit
a target q-series with SOME bounded h.  A single prime admits spurious
matches (h is free per prime), so only residues surviving every prime
matter; lift_parameter CRT-combines those and rationally reconstructs a
small-height parameter, and sieve_survivors runs that analysis over a
whole sieve.  Both hand their whole batch to one `count.count_many` walk,
which prices every count, and the eta series each builds, before any is
made; the sieve's smooth members share one torus tally per prime, never
a scan.
"""

import warnings
from collections import Counter
from itertools import compress, product, tee
from math import gcd, isqrt, prod

from ._intpoly import isprime
from .count import BATCH_CAP, _route, count_each, count_many, fermat_quartic
from .errors import DomainError, UsageError, check_ints, check_price, frozen
from .ff import check_bytes

H_BOUND = 20  # |trace of Frob on NS| <= rank NS = 20 for a singular K3
SMALL_INT_BOUND = 20  # window |c| <= 20 of the common small integers
LIFT_BUDGET = 4096  # residue combinations sieve_survivors may lift


@frozen
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


def eta4_pow6_expansion(n_max: int) -> QSeries:
    """eta(4 tau)^6 through q^n_max: b_{4m+1} = [x^m] prod_k (1 - x^k)^6, the
    square of Jacobi's sum_j (-1)^j (2j + 1) x^{j(j+1)/2} (Hardy and Wright,
    Thm. 357), all other coefficients zero; refused by `check_bytes`."""
    if n_max < 1:
        raise UsageError("need at least one coefficient")
    check_bytes(f"eta(4 tau)^6 through q^{n_max}", 24 * n_max)
    n, b = (n_max - 1) // 4, [0] * n_max
    for j, k in product(range(isqrt(2 * n) + 1), repeat=2):
        if (m := (j * j + j + k * k + k) // 2) <= n:  # b_{4m+1} at index 4m
            b[4 * m] += (-1) ** (j + k) * (2 * j + 1) * (2 * k + 1)
    return QSeries(tuple(b), weight=3, level=16)


def _eta_price(n_max: int) -> int:
    """eta4_pow6_expansion's price, 200 `count._route` units a coefficient
    (84 to 195 ns from n = 10^4 to 10^7, in-process, 2-core AMD EPYC)."""
    return 200 * n_max


def primes_between(lo: int, hi: int):
    """The primes in lo..hi, priced from its bounds: 1000 units an integer;
    a sieve strikes the multiples of d <= 2^11, so isprime tests n > 2^22."""
    lo = max(2, lo)
    check_price(f"the primes in {lo}..{hi}", 1000 * (hi - lo), BATCH_CAP,
                "price units")
    seg = bytearray([1]) * max(0, hi - lo + 1)
    for d in range(2, min(2 ** 11, isqrt(max(hi, 0))) + 1):
        start = max(d * d, -(-lo // d) * d) - lo
        seg[start::d] = bytes(len(seg[start::d]))
    return [n for n in compress(range(lo, hi + 1), seg)
            if n <= 2 ** 22 or isprime(n)]


def check_walk_floor(lo: int, hi: int):
    """Refuse lo..hi before its primes are listed on a price both walks pay:
    eta(4 tau)^6 through the top prime (lo or above; a range of no prime is
    refused anyway), and the Fermat quartic's `_route` price (the sieve's
    lam = 0 member) from that prime down to the first = 1 mod 4, found by
    isprime.  A range whose listing primes_between refuses is left to it."""
    lo = max(2, lo)
    if 1000 * (hi - lo) > BATCH_CAP:
        return
    price, primes = _eta_price(lo), filter(isprime, range(hi, lo - 1, -1))
    while price <= BATCH_CAP and (p := next(primes, 0)):
        # the series through lo becomes the series through the top prime
        price = max(price, _eta_price(p)) + _route(fermat_quartic(), p, 1)[1]
        if p % 4 == 1:
            break
    check_price(f"the counts of the primes in {lo}..{hi} and eta(4 tau)^6 "
                "through their top", price, BATCH_CAP, "price units")


def _check_odd_prime(p: int) -> int:
    if p == 2:
        raise DomainError("bad reduction at 2")
    if p < 3 or not isprime(p):
        raise UsageError(f"{p} is not an odd prime")
    return p


def hecke_h(p: int) -> int:
    """h = 5 + 3 chi_{-1}(p) + 6 (chi_2(p) + chi_{-2}(p)), read off p mod 8."""
    _check_odd_prime(p)
    chi_m1 = 1 if p % 4 == 1 else -1
    chi_2 = 1 if p % 8 in (1, 7) else -1
    return 5 + 3 * chi_m1 + 6 * (chi_2 + chi_m1 * chi_2)


def fermat_count_prediction(p: int, series: QSeries = None) -> int:
    """Predicted #X_p(F_p) = 1 + b_p + h p + p^2 for the Fermat quartic,
    b_p read off series, eta4_pow6_expansion through at least p (built
    through p when not given)."""
    _check_odd_prime(p)
    series = eta4_pow6_expansion(p) if series is None else series
    return 1 + series.b(p) + hecke_h(p) * p + p * p


@frozen
class ModularityEntry:
    p: int
    predicted: int
    counted: int

    @property
    def agree(self) -> bool:
        return self.predicted == self.counted


@frozen
class ModularityReport:
    entries: tuple

    @property
    def all_agree(self) -> bool:
        return all(e.agree for e in self.entries)

    @property
    def mismatches(self):
        return [e.p for e in self.entries if not e.agree]


def verify_modularity(p_range, cache=None) -> ModularityReport:
    """Prediction vs direct count of the Fermat quartic at each prime, the
    predictions read off one eta expansion through the largest prime; no
    jobs, as `count` never scans the Fermat quartic at an odd p.  Each
    prime is vetted as the `count_many` walk draws it, before its price."""
    primes = sorted(set(p_range))
    counts = count_many(((fermat_quartic(), _check_odd_prime(p), 1)
                         for p in primes), cache,
                        total=_eta_price(max(primes, default=0)))
    series = eta4_pow6_expansion(primes[-1]) if primes else None
    return ModularityReport(tuple(
        ModularityEntry(p, fermat_count_prediction(p, series), n)
        for p, n in zip(primes, counts)))


@frozen
class SieveCandidate:
    """A family member whose count over F_p fits the target series with
    Frobenius trace h on NS, |h| <= 20."""
    p: int
    lam: int
    h: int
    count: int


def cm_sieve(family, target, primes, cache=None, jobs: int = 1, lift=False):
    """Count the smooth members of the family mod each prime and keep those
    matching the target (None: eta(4 tau)^6 through the largest prime, built
    once the batch is priced): accept (p, lam) iff p | (N - 1 - p^2 - b_p) with
    |h| <= 20 for the quotient h.  Candidates come in (p, lam) order; only
    residues at EVERY prime are meaningful (h is free per prime).  With
    lift, a lift of the candidates so far past LIFT_BUDGET is refused."""
    plist = sorted(set(primes))
    def vet(p):
        if not family.good_reduction(_check_odd_prime(p)):
            raise DomainError(f"family has bad reduction at {p}")
        if target is not None and p > target.n_max:
            raise UsageError(f"target series stops at b_{target.n_max}, "
                             f"below prime {p}")
        return p
    top = max(plist, default=0)
    # primes vetted and members made as the walk draws them, up to the cap
    walk, pairs = tee((p, lam) for p in map(vet, plist) for lam in range(p)
                      if family.is_smooth_member(lam, p))
    counts = count_each(((family.member(lam), p, 1) for p, lam in walk),
                        cache, jobs, total=0 if target else _eta_price(top))
    if target is None and plist:
        target = eta4_pow6_expansion(top)
    out, seen = [], set()
    for (p, lam), n in zip(pairs, counts):
        seen.add(p)
        t = n - 1 - p * p - target.b(p)
        if t % p == 0 and abs(t // p) <= H_BOUND:
            out.append(SieveCandidate(p, lam, t // p, n))
            if lift:
                _check_lifts(Counter(c.p for c in out).values())
    for p in plist:
        if p not in seen:
            warnings.warn(f"every residue mod {p} is singular; "
                          f"prime contributes nothing")
    return out


def _check_lifts(sizes):
    """Refuse lifts of one survivor from each set past LIFT_BUDGET."""
    check_price("the lifts", prod(max(k, 1) for k in sizes), LIFT_BUDGET,
                "residue combinations")


def lift_parameter(residues, height_bound: int):
    """CRT-combine (p, lam mod p) residues and rationally reconstruct a
    parameter u/v with |u|, |v| <= height_bound, or None when no such
    rational exists.

    The half-extended Euclid walk stops at the sqrt(M/2) line, inside
    which the reconstruction is unique; a height_bound beyond that line
    cannot produce extra answers, it only relaxes the final filter."""
    check_ints("height bounds", (height_bound,))
    if height_bound < 1:
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


@frozen
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
    lift_parameter; the combinations are priced against LIFT_BUDGET
    first, and a repeated prime makes the lift raise UsageError."""
    per_prime = {p: [c.lam for c in candidates if c.p == p] for p in primes}
    orbits = {p: _i_orbits(lams, p) for p, lams in per_prime.items()}
    common = [c for c in range(-SMALL_INT_BOUND, SMALL_INT_BOUND + 1)
              if all(c % p in per_prime[p] for p in primes)]
    if height is None:
        return SieveSurvivors(per_prime, orbits, common)
    sets = [[(p, lam) for lam in per_prime[p]] for p in primes]
    _check_lifts(map(len, sets))
    lifted = ((combo, lift_parameter(combo, height)) for combo in product(*sets))
    return SieveSurvivors(per_prime, orbits, common,
                          [(combo, x) for combo, x in lifted if x is not None])
