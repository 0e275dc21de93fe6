"""Correctness checks for job reports, by routes independent of the job.

Point counts are recounted by brute force in numpy over a field built here
(not by `k3arith.ff`), diagonal counts are also compared with the library's
direct enumeration, class groups with a naive reduced-form list, and the
remaining commands with frozen values.  Reference values are memoised per
Checker, so one run computes each of them once however many passes it
makes.
"""

import sys

import numpy as np

from workloads import (FERMAT_F5_LINES, FERMAT_F5_P2, KUWATA_RANKS, QUARTIC,
                       SEXTIC, reduced_forms)

H1_DISCRIMINANTS = [-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67,
                    -163]
BRUTE_MAX_POINTS = 5_000_000  # largest affine stratum recounted in numpy
DIRECT_MAX_Q = 125  # largest q at which diagonal counts rerun count_quartic
DIAGONAL = [(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)]


class Field:
    """F_{p^r} on packed indices 0..q-1: integers mod p, or for r > 1
    polynomials mod the largest monic irreducible in packed order, as
    q x q tables.  Counts do not depend on the choice of modulus."""

    def __init__(self, p, r=1):
        self.p, self.q = p, p ** r
        self._add = self._mul = None
        if r > 1:
            self._add, self._mul = self._tables(p, r)

    @staticmethod
    def _tables(p, r):
        q = p ** r
        digits = (np.arange(q)[:, None] // p ** np.arange(r)) % p
        weights = p ** np.arange(r)
        add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
        raw = np.zeros((q, q, 2 * r - 1), dtype=np.int64)
        for i in range(r):
            for j in range(r):
                raw[:, :, i + j] += digits[:, None, i] * digits[None, :, j]
        for n in range(q - 1, -1, -1):  # candidate x^r + sum c_i x^i
            low = (n // weights) % p
            prod = raw.copy()
            for k in range(2 * r - 2, r - 1, -1):
                prod[:, :, k - r:k] -= prod[:, :, k:k + 1] * low
            mul = (prod[:, :, :r] % p) @ weights
            if (mul[1:, 1:] != 0).all():  # no zero divisors: a field
                return add, mul
        raise AssertionError(f"no irreducible of degree {r} over F_{p}")

    def add(self, a, b):
        return (a + b) % self.p if self._add is None else self._add[a, b]

    def mul(self, a, b):
        return (a * b) % self.p if self._mul is None else self._mul[a, b]

    def powers(self, emax):
        x = np.arange(self.q)
        out = [np.ones(self.q, dtype=np.int64)]
        for _ in range(emax):
            out.append(self.mul(out[-1], x))
        return out

    def chi(self):
        """Quadratic character on packed indices, chi(0) = 0."""
        x = np.arange(1, self.q)
        table = -np.ones(self.q, dtype=np.int64)
        table[np.unique(self.mul(x, x))] = 1
        table[0] = 0
        return table


def _stratum_values(field, terms, k, pw):
    """Values of sum c x^e over affine k-space, one array per value of
    the first coordinate."""
    q = field.q
    if k == 0:
        v = 0
        for _, c in terms:
            v = field.add(v, c)
        yield np.array([v])
        return
    for x0 in range(q):
        acc = 0
        for e, c in terms:
            v = field.mul(c, pw[e[0]][x0])
            for i, ei in enumerate(e[1:]):
                if ei:
                    shape = [1] * (k - 1)
                    shape[i] = q
                    v = field.mul(v, pw[ei].reshape(shape))
            acc = field.add(acc, v)
        yield np.broadcast_to(acc, (q,) * (k - 1))


def brute_count(model, coeffs, p, r):
    """#X(F_{p^r}) by evaluating the polynomial at every projective point:
    zeros of a quartic in P^3, or 1 + chi(F) per point of P^2 for the
    double plane w^2 = F."""
    exps = {"quartic": QUARTIC, "sextic": SEXTIC, "diagonal": DIAGONAL}[model]
    field = Field(p, r)
    nvars = len(exps[0])
    terms = [(e, c % p) for e, c in zip(exps, coeffs) if c % p]
    pw = field.powers(max(max(e) for e in exps))
    chi = field.chi() if model == "sextic" else None
    total = 0
    for s in range(nvars):  # first nonzero coordinate x_s = 1
        sub = [(e[s + 1:], c) for e, c in terms if not any(e[:s])]
        for vals in _stratum_values(field, sub, nvars - 1 - s, pw):
            total += int((vals == 0).sum()) if chi is None else int(chi[vals].sum())
    if model == "sextic":
        total += field.q ** 2 + field.q + 1
    return total


def dwork_member(lam):
    coeffs = [0] * len(QUARTIC)
    for e in DIAGONAL:
        coeffs[QUARTIC.index(e)] = 1
    coeffs[QUARTIC.index((1, 1, 1, 1))] = -lam
    return coeffs


def primes_between(lo, hi):
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % k for k in range(2, int(n ** 0.5) + 1))]


# --- binary quadratic forms ---------------------------------------------------

def reduce_form(a, b, c):
    d = b * b - 4 * a * c
    while True:
        r = b % (2 * a)
        if r > a:
            r -= 2 * a
        b, c = r, (r * r - d) // (4 * a)
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def _egcd(a, b):
    """(g, u, v) with u a + v b = g = gcd(a, b)."""
    if b == 0:
        return a, 1, 0
    g, u, v = _egcd(b, a % b)
    return g, v, u - (a // b) * v


def dirichlet_compose(f1, f2):
    """Composition of primitive forms of one discriminant (Cohen, A Course
    in Computational Algebraic Number Theory, Algorithm 5.4.7), reduced."""
    (a1, b1, c1), (a2, b2, c2) = sorted((f1, f2))
    disc = b1 * b1 - 4 * a1 * c1
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, y1, _ = _egcd(a2, a1)
    if s % d == 0:
        x2, y2, d1 = 0, -1, d
    else:
        d1, x2, v = _egcd(s, d)
        y2 = -v
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    return reduce_form(a3, b3, (b3 * b3 - disc) // (4 * a3))


# --- per-kind checks: each returns an error message or None ------------------

class Checker:
    def __init__(self, src_dir):
        self.src_dir = str(src_dir)
        self._memo = {}

    def _memoised(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def brute(self, model, coeffs, p, r):
        return self._memoised(("brute", model, tuple(coeffs), p, r),
                              lambda: brute_count(model, coeffs, p, r))

    def direct_diagonal(self, coeffs, p, r):
        """The library's direct (non-Jacobi) count of a diagonal quartic."""
        def run():
            if self.src_dir not in sys.path:
                sys.path.insert(0, self.src_dir)
            from k3arith.count import DiagonalQuartic, count_quartic
            from k3arith.ff import FieldCtx
            return count_quartic(DiagonalQuartic(tuple(coeffs)), FieldCtx(p, r))
        return self._memoised(("direct", tuple(coeffs), p, r), run)

    def check(self, job, report):
        try:
            results = report["results"]
            check = getattr(self, "_" + job.kind.replace("-", "_"))
            return check(job.expect, results)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed report: {exc!r}"

    def _counts_ok(self, model, coeffs, p, r, n):
        q = p ** r
        nvars = 3 if model == "sextic" else 4
        if model == "diagonal":
            t = n - 1 - q * q
            if abs(t) > 22 * q:
                return f"trace {t} breaks the Weil bound at q = {q}"
            if q <= DIRECT_MAX_Q and n != self.direct_diagonal(coeffs, p, r):
                return f"count {n} at q = {q} differs from count_quartic"
        if q ** (nvars - 1) <= BRUTE_MAX_POINTS:
            want = self.brute(model, coeffs, p, r)
            if n != want:
                return f"count {n} at q = {q}, brute force gives {want}"
        return None

    def _count(self, e, res):
        got = [(c["p"], c["r"]) for c in res["counts"]]
        if got != [(e["p"], r) for r in range(1, e["r"] + 1)]:
            return f"tower covers {got}"
        for c in res["counts"]:
            err = self._counts_ok(e["model"], e["coeffs"], e["p"], c["r"],
                                  int(c["count"]))
            if err:
                return err
        return None

    def _modularity(self, e, res):
        primes = primes_between(e["lo"], e["hi"])
        if res["primes"] != primes or [x["p"] for x in res["entries"]] != primes:
            return "prime list differs"
        if not res["all_agree"] or res["mismatches"]:
            return f"prediction disagrees at {res['mismatches']}"
        fermat = [1 if ex in DIAGONAL else 0 for ex in QUARTIC]
        for x in res["entries"]:
            want = self.brute("quartic", fermat, x["p"], 1)
            if int(x["counted"]) != want or int(x["predicted"]) != want:
                return f"Fermat count at {x['p']} is not {want}"
        return None

    def _sieve(self, e, res):
        primes = list(e["primes"])
        if res["primes"] != primes:
            return "prime list differs"
        for p in primes:
            if 0 not in res["per_prime_residues"][str(p)]:
                return f"lambda = 0 lost at {p}"
        if not any(x["parameter"] == 0 for x in res["lifts"]):
            return "lift lost the parameter 0"
        for c in res["candidates"]:
            want = self.brute("quartic", dwork_member(c["lam"]), c["p"], 1)
            if int(c["count"]) != want:
                return f"Dwork count at lam = {c['lam']}, p = {c['p']}"
        return None

    def _bqf_reduce(self, e, res):
        if res["input"] != list(e["input"]) or res["reduced"] != list(e["reduced"]):
            return f"reduced {res['input']} to {res['reduced']}"
        return None

    def _bqf_compose(self, e, res):
        want = dirichlet_compose(e["f"], e["g"])
        if res["product"] != list(want):
            return f"product {res['product']}, Dirichlet gives {want}"
        return None

    def _classgroup(self, e, res):
        d = e["d"]
        forms = reduced_forms(d)
        h = len(forms)
        if res["h"] != h or [tuple(f) for f in res["forms"]] != forms:
            return f"h = {res['h']}, naive count gives {h}"
        if res["identity"] != [1, d & 1, ((d & 1) - d) // 4]:
            return "identity is not the principal form"
        if h % res["exponent"]:
            return f"exponent {res['exponent']} does not divide h = {h}"
        return None

    def _h1list(self, e, res):
        if res["discriminants"] != H1_DISCRIMINANTS or res["count"] != 13:
            return f"class-number-one list {res['discriminants']}"
        return None

    def _inose(self, e, res):
        j1 = complex(res["j1"]["re"], res["j1"]["im"])
        j2 = complex(res["j2"]["re"], res["j2"]["im"])
        d1, d2 = res["relation_defects"]
        if d1 > 1e-10 * max(1.0, abs(j1 * j2) / 12 ** 6):
            return f"A^3 defect {d1}"
        if d2 > 1e-10 * max(1.0, abs((1 - j1 / 12 ** 3) * (1 - j2 / 12 ** 3))):
            return f"B^2 defect {d2}"
        return None

    def _kuwata(self, e, res):
        want = KUWATA_RANKS[(e["relation"], e["isomorphic"])][e["n"] - 1]
        if res["rank"] != want or res["euler"] != 24:
            return f"rank {res['rank']}, euler {res['euler']}, want {want}, 24"
        return None

    def _zeta(self, e, res):
        if (res["q"], res["epsilon"], res["degree"]) != (5, 1, 22):
            return "wrong q, epsilon or degree"
        if res["known"] != list(FERMAT_F5_LINES) or res["completed"] != [1, 6, 25]:
            return f"completed {res['completed']}"
        if [int(c) for c in res["p2"]] != list(FERMAT_F5_P2):
            return "P2 differs from the frozen Fermat P2 over F_5"
        return None

    def _picard(self, e, res):
        factors = [(f["m"], f["multiplicity"]) for f in res["cyclotomic_factors"]]
        if res["bound"] != 20 or factors != [(1, 8), (2, 12)]:
            return f"bound {res['bound']} with factors {factors}"
        if res["artin_tate"] != {"rho": 8, "value": 65536, "square_class": 1}:
            return f"Artin-Tate {res['artin_tate']}"
        return None
