"""Seeded job lists for the three benchmark workloads.

A job is one `k3` command line plus what its checker needs to know.  The
seed changes coefficients, forms and discriminants, never the size of the
work: primes, field sizes and job counts are fixed per workload, random
polynomials are dense (every coefficient nonzero mod p, so every seed runs
the same scan), and class-group discriminants are kept to a narrow band of
class numbers because `class_group` checks associativity in O(h^3).

The literal token "{cache}" in an argv is replaced by the pass's fresh
count-cache path when the job runs.
"""

import random
from dataclasses import dataclass, field
from itertools import product
from math import isqrt

import numpy as np

WORKLOADS = ("prime-scan", "ext-tower", "small-jobs")

CACHE = "{cache}"
CLASSGROUP_H_BAND = (120, 128)
CLASSGROUP_D_RANGE = (200_000, 300_000)


def exponents(nvars, degree):
    """Monomial exponents in the library's coefficient order (sorted)."""
    return sorted(e for e in product(range(degree + 1), repeat=nvars)
                  if sum(e) == degree)


QUARTIC = exponents(4, 4)
SEXTIC = exponents(3, 6)


@dataclass(frozen=True)
class Job:
    argv: tuple
    kind: str
    expect: dict = field(default_factory=dict)


def _csv(values):
    return ",".join(str(v) for v in values)


def _dense(rng, p, n, lo=-50, hi=50):
    out = []
    while len(out) < n:
        c = rng.randint(lo, hi)
        if c % p:
            out.append(c)
    return out


def _count_job(model, coeffs, p, r):
    argv = ("count", "--model", model, f"--coeffs={_csv(coeffs)}",
            "--p", str(p), "--r", str(r), "--cache", CACHE)
    return Job(argv, "count", {"model": model, "coeffs": tuple(coeffs),
                               "p": p, "r": r})


def prime_scan(rng):
    sieve_primes = (5, 13, 17, 29, 37)
    modularity = Job(("modularity", "--primes", "3..101", "--cache", CACHE),
                     "modularity", {"lo": 3, "hi": 101})
    return [
        Job(("sieve", "--primes", _csv(sieve_primes), "--lift",
             "--height", "20", "--cache", CACHE),
            "sieve", {"primes": sieve_primes}),
        modularity,
        _count_job("quartic", _dense(rng, 97, len(QUARTIC)), 97, 1),
        _count_job("quartic", _dense(rng, 109, len(QUARTIC)), 109, 1),
        modularity,  # every count is now in the pass's cache
    ]


def ext_tower(rng):
    jobs = [_count_job("diagonal", _dense(rng, p, 4, -30, 30), p, r)
            for p, r in ((5, 4), (3, 4), (13, 2))]
    jobs.append(_count_job("sextic", _dense(rng, 11, len(SEXTIC)), 11, 2))
    jobs.append(_count_job("quartic", _dense(rng, 3, len(QUARTIC)), 3, 3))
    return jobs


# --- binary quadratic forms (independent of k3arith.bqf) ---------------------

def reduced_forms(d):
    """Reduced primitive forms (a, b, c) of discriminant d < 0, sorted:
    |b| <= a <= c, b >= 0 when |b| = a or a = c."""
    avals = np.arange(1, isqrt(-d // 3) + 1, dtype=np.int64)
    a = np.repeat(avals, 2 * avals)  # every pair (a, b) with -a < b <= a
    starts = np.repeat(np.cumsum(2 * avals) - 2 * avals, 2 * avals)
    b = np.arange(len(a)) - starts - a + 1
    num = b * b - d
    whole = num % (4 * a) == 0
    a, b, c = a[whole], b[whole], num[whole] // (4 * a[whole])
    keep = (c >= a) & ~((c == a) & (b < 0)) & (np.gcd(np.gcd(a, b), c) == 1)
    return list(zip(a[keep].tolist(), b[keep].tolist(), c[keep].tolist()))


def transform(form, m):
    """f(al x + be y, ga x + de y) for the matrix m = (al, be, ga, de)."""
    a, b, c = form
    al, be, ga, de = m
    return (a * al * al + b * al * ga + c * ga * ga,
            2 * a * al * be + b * (al * de + be * ga) + 2 * c * ga * de,
            a * be * be + b * be * de + c * de * de)


def _random_sl2(rng, steps=6):
    m = (1, 0, 0, 1)
    for _ in range(steps):
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        step = (0, -1, 1, k)  # S composed with T^k
        m = (m[0] * step[0] + m[1] * step[2], m[0] * step[1] + m[1] * step[3],
             m[2] * step[0] + m[3] * step[2], m[2] * step[1] + m[3] * step[3])
    return m


def _disc(rng, lo, hi):
    while True:
        d = -rng.randrange(lo, hi)
        if d % 4 in (0, 1):
            return d


def _classgroup_discriminants(rng, n=3, tries=5000):
    lo_h, hi_h = CLASSGROUP_H_BAND
    found = []
    for _ in range(tries):
        d = _disc(rng, *CLASSGROUP_D_RANGE)
        if d not in found and lo_h <= len(reduced_forms(d)) <= hi_h:
            found.append(d)
            if len(found) == n:
                return found
    raise RuntimeError("no discriminants found in the class-number band")


def small_jobs(rng, counts_path):
    jobs = []

    d = _disc(rng, 1000, 5000)
    target = rng.choice(reduced_forms(d))
    start = transform(target, _random_sl2(rng))
    jobs.append(Job(("bqf", "reduce", f"--form={_csv(start)}"),
                    "bqf-reduce", {"input": start, "reduced": target}))

    while True:
        d = _disc(rng, 1000, 5000)
        forms = reduced_forms(d)
        if len(forms) >= 4:
            break
    f, g = rng.choice(forms), rng.choice(forms)
    jobs.append(Job(("bqf", "compose", f"--f={_csv(f)}", f"--g={_csv(g)}"),
                    "bqf-compose", {"f": f, "g": g}))

    for d in _classgroup_discriminants(rng):
        jobs.append(Job(("bqf", "classgroup", f"--d={d}"), "classgroup",
                        {"d": d}))
    jobs.append(Job(("bqf", "h1list", "--bound", "3000"), "h1list"))

    for _ in range(2):
        a = rng.randint(1, 6)
        c = rng.randint(a, 8)
        b = rng.randint(-a, a)
        jobs.append(Job(("inose", f"--form={a},{b},{c}"), "inose"))

    relation, isomorphic = rng.choice(KUWATA_KEYS)
    n = rng.randint(1, 6)
    argv = ("kuwata", "--n", str(n), "--relation", relation.replace("_", "-"))
    if isomorphic:
        argv += ("--isomorphic",)
    jobs.append(Job(argv, "kuwata", {"n": n, "relation": relation,
                                     "isomorphic": isomorphic}))

    jobs.append(Job(("zeta", "--counts", counts_path,
                     f"--known-factor={_csv(FERMAT_F5_LINES)}"), "zeta"))
    jobs.append(Job(("picard", f"--p2={_csv(FERMAT_F5_P2)}", "--q", "5",
                     "--artin-tate", "--rho", "8"), "picard"))
    jobs.append(Job(("sieve", "--primes", "5,13,17", "--lift"), "sieve",
                    {"primes": (5, 13, 17)}))
    return jobs


# argv that writes the Fermat quartic's counts over F_5 and F_25 for `zeta`
def counts_file_argv(counts_path):
    return ("count", "--model", "diagonal", "--coeffs=1,1,1,1", "--p", "5",
            "--r", "2", "--cache", counts_path)


def _polymul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _polypow(u, k):
    out = [1]
    for _ in range(k):
        out = _polymul(out, u)
    return out


# Fermat quartic over F_5: 20 algebraic classes give (1 - 5T)^8 (1 + 5T)^12;
# the transcendental cofactor is 1 + 6T + 25T^2.
FERMAT_F5_LINES = tuple(_polymul(_polypow([1, -5], 8), _polypow([1, 5], 12)))
FERMAT_F5_P2 = tuple(_polymul(list(FERMAT_F5_LINES), [1, 6, 25]))

# Mordell-Weil ranks of the degree-n cyclic Inose covers, n = 1..6
KUWATA_RANKS = {
    ("not_isogenous", False): (0, 4, 8, 12, 16, 16),
    ("isogenous_no_cm", False): (1, 5, 9, 13, 17, 17),
    ("isogenous_cm", False): (2, 6, 10, 14, 18, 18),
    ("isogenous_no_cm", True): (0, 3, 6, 9, 12, 11),
    ("isogenous_cm", True): (1, 4, 7, 10, 13, 12),
}
KUWATA_KEYS = sorted(KUWATA_RANKS)


def make_jobs(workload, seed, counts_path):
    """The workload's job list for this seed; counts_path is where set-up
    writes the count file read by small-jobs' `zeta` job."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "prime-scan":
        return prime_scan(rng)
    if workload == "ext-tower":
        return ext_tower(rng)
    if workload == "small-jobs":
        return small_jobs(rng, counts_path)
    raise ValueError(f"unknown workload {workload!r}")
