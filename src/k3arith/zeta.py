"""Zeta functions of K3 surfaces over F_q from point counts.

The interesting factor is P2(T) = det(1 - Frob T | H^2), an integer
polynomial of degree 22 with constant term 1 whose reciprocal roots have
absolute value q.  Counts give its power sums t_r = #X(F_{q^r}) - 1 -
q^{2r}; Newton's identities turn an initial segment of power sums into
leading coefficients, and the functional equation c_{D-m} = eps q^{D-2m}
c_m mirrors them onto the tail.  The sign eps is pinned by the root
magnitude test, and the completion refuses to guess when both signs
survive.

Everything is exact.  Traces and P2 are integers, the types refuse anything
else, and every division is one in Z (`_intpoly.divide`), the Sturm chain
of the |alpha| = q test's included; Fractions appear only in the
Artin-Tate value at T = 1/q, its square class and `van_luijk_combine`.
Partial data is a first-class state: a FrobeniusPoly of degree below 22
still yields a Picard bound, with the missing degrees counted as slack.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from . import _intpoly
from .errors import (DataError, IncompletenessError, InconsistencyError,
                     MultiplicityError, UsageError, check_ints, check_price)

H2_DIM = 22  # dim H^2 of a K3 surface
TRIAL_BOUND = 10 ** 4  # trial divisors square_class tries before sympy
FACTOR_DIGITS = 40  # digits of the largest cofactor handed to sympy


@dataclass(frozen=True)
class TraceVector:
    """Power sums t_1..t_k of the Frobenius eigenvalues on H^2 over F_q."""
    q: int
    traces: tuple

    def __post_init__(self):
        check_ints("q and traces", (self.q, *self.traces))
        if not _intpoly.is_prime_power(self.q):
            raise UsageError(f"q = {self.q} is not a prime power")
        for r, t in enumerate(self.traces, start=1):
            if abs(t) > H2_DIM * self.q ** r:
                raise InconsistencyError(
                    f"Weil bound violated at r = {r}: |{t}| > 22 * {self.q}^{r}")


@dataclass(frozen=True)
class FrobeniusPoly:
    """P2(T) or a partial factor of it: integer coefficients, low degree
    first, constant term 1, degree <= 22.  epsilon/known/completed record
    how a completion was assembled (0, (), () on directly built polys)."""
    q: int
    coeffs: tuple
    epsilon: int = 0
    known: tuple = ()
    completed: tuple = ()

    def __post_init__(self):
        check_ints("q and P2 coefficients", (self.q, *self.coeffs))
        if not _intpoly.is_prime_power(self.q):
            raise UsageError(f"q = {self.q} is not a prime power")
        if not self.coeffs or self.coeffs[0] != 1:
            raise UsageError("P2 factor must have constant coefficient 1")
        if len(self.coeffs) - 1 > H2_DIM:
            raise UsageError("P2 factor degree exceeds 22")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def complete(self) -> bool:
        return self.degree == H2_DIM

    def power_traces(self, r_max: int):
        """Power sums of the reciprocal roots, r = 1..r_max."""
        return power_sums(list(self.coeffs), r_max)

    def counts(self, r_max: int):
        """Predicted #X(F_{q^r}); meaningful when complete."""
        return [1 + self.q ** (2 * r) + t
                for r, t in enumerate(self.power_traces(r_max), start=1)]


def traces_from_counts(records) -> TraceVector:
    """Traces from tower records: validates a single surface over a single
    prime with counts at r = 1..k (no gaps), then t_r = `CountRecord.trace`.
    The Weil bound check lives in the TraceVector constructor."""
    if not records:
        raise UsageError("no count records supplied")
    surfaces = {rec.surface for rec in records}
    if len(surfaces) != 1:
        raise UsageError(f"records mix {len(surfaces)} distinct surfaces")
    primes = {rec.p for rec in records}
    if len(primes) != 1:
        raise UsageError("records mix ground characteristics")
    p = primes.pop()
    by_r = {}
    for rec in records:
        first = by_r.setdefault(rec.r, rec)
        if first.count != rec.count:
            raise InconsistencyError(
                f"conflicting counts at r = {rec.r}: {first.count} vs {rec.count}")
    n = max(by_r)
    if sorted(by_r) != list(range(1, n + 1)):
        raise UsageError("counts must cover r = 1..n without gaps")
    traces = tuple(by_r[r].trace for r in range(1, n + 1))
    return TraceVector(q=p, traces=traces)


def power_sums(coeffs, n: int):
    """First n power sums of the reciprocal roots of sum_k c_k T^k (c_0 = 1)
    by Newton's identities over Z: s_k = -k c_k - sum_{i<k} s_i c_{k-i}."""
    if not coeffs or coeffs[0] != 1:
        raise UsageError("factor must have constant coefficient 1")
    c = list(coeffs) + [0] * (n + 1 - len(coeffs))
    s = [0]
    for k in range(1, n + 1):
        s.append(-k * c[k] - sum(s[i] * c[k - i] for i in range(1, k)))
    return s[1:]


def _coeffs_from_power_sums(s):
    """c_0 = 1, c_1..c_n from power sums s_1..s_n by Newton's identities,
    c_k = -(s_k + sum_{i<k} s_i c_{k-i}) / k, each division exact."""
    c = [1]
    for k in range(1, len(s) + 1):
        num = -s[k - 1] - sum(s[i - 1] * c[k - i] for i in range(1, k))
        if num % k:
            raise InconsistencyError(
                f"coefficient c_{k} = {Fraction(num, k)} is not an integer: "
                f"counts and known factor are incompatible")
        c.append(num // k)
    return c


def _root_magnitude_ok(coeffs, q) -> bool:
    """True iff every root of sum c_k T^k has |T| = 1/q, decided exactly.

    Once the factors (1 -+ qT) are divided out, the reciprocal roots of
    the rest g lie on |alpha| = q only if they pair off as alpha and
    q^2/alpha = conj(alpha): g has even degree 2m and
    c_{2m-k} = q^{2m-2k} c_k.  Then g(T)/T^m = H(qT + 1/(qT)) with
    H = c_m + sum_j c_{m-j} q^j D_j, where the Dickson polynomials
    D_j(z + 1/z) = z^j + z^-j, and the roots of g lie on the circle
    exactly when all roots of H are real and lie in (-2, 2) (Kedlaya,
    "Search techniques for root-unitary polynomials", 2008).  A Sturm
    chain decides that: its sign changes from -2 to 2 count the distinct
    roots there, and its last member is gcd(H, H'), so deg H - deg gcd
    counts the distinct roots of H.  Neither -2 nor 2 is a root of H,
    because z = +-1 would put a factor (1 -+ qT) back into g.  The chain
    is a primitive pseudo-remainder sequence (Cohen, "A Course in
    Computational Algebraic Number Theory", 3.1.2 and 3.3): after a and b
    comes -(|lc b|^(deg a - deg b + 1) a mod b) over its content, exact in
    Z and a positive multiple of the member over Q, with its signs."""
    g = _intpoly.trim(coeffs)
    for lin in ([1, -q], [1, q]):
        while len(g) > 1 and (h := _intpoly.exact_div(g, lin)) is not None:
            g = h
    d = len(g) - 1
    if d % 2 or any(g[d - k] != q ** (d - 2 * k) * g[k]
                    for k in range(d // 2)):
        return False
    m = d // 2
    h = [g[m]] + [0] * m
    prev, cur = [2], [0, 1]  # D_{j-1}, D_j
    for j in range(1, m + 1):
        for i, a in enumerate(cur):
            h[i] += g[m - j] * q ** j * a
        nxt = [0] + cur  # D_{j+1} = u D_j - D_{j-1}
        for i, a in enumerate(prev):
            nxt[i] -= a
        prev, cur = cur, nxt
    chain = [h]
    nxt = [i * c for i, c in enumerate(h)][1:]
    while nxt:
        chain.append(nxt)
        scale = abs(nxt[-1]) ** (len(chain[-2]) - len(nxt) + 1)
        rem = _intpoly.divide([scale * c for c in chain[-2]], nxt)[1]
        content = gcd(*rem)
        nxt = [-c // content for c in rem]
    distinct = m - (len(chain[-1]) - 1)
    return _sign_changes(chain, -2) - _sign_changes(chain, 2) == distinct


def _sign_changes(chain, x) -> int:
    """Sign changes along the values of the polynomials in chain at x."""
    signs = []
    for poly in chain:
        value = 0
        for c in reversed(poly):
            value = value * x + c
        if value:
            signs.append(value > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def p2_from_traces(tr: TraceVector, known_factor=None) -> FrobeniusPoly:
    """Complete P2 from traces and an optional known factor.

    known_factor: coefficients (low first, constant 1) of a divisor of P2
    established by other means, e.g. counted lines (1 - qT)^k or a modular
    factor.  The cofactor g has degree D = 22 - deg(known); traces pin its
    first half and the functional equation c_{D-m} = eps q^{D-2m} c_m the
    rest.  Raises IncompletenessError when more counts are needed
    (including the case where both signs survive the root test) and
    DataError flavors when the inputs are inconsistent."""
    q = tr.q
    traces = list(tr.traces)
    n = len(traces)
    known = tuple(known_factor) if known_factor is not None else (1,)
    check_ints("known factor coefficients", known)
    if not known or known[0] != 1:
        raise UsageError("known factor must have constant coefficient 1")
    d = H2_DIM - (len(known) - 1)
    if d < 0:
        raise UsageError("known factor degree exceeds 22")

    known_ps = power_sums(list(known), n)
    u = [t - known_ps[i] for i, t in enumerate(traces)]

    n_min = d // 2
    if n < n_min:
        raise IncompletenessError(
            f"need counts through r = {n_min} to pin a degree-{d} cofactor "
            f"(have r = {n})", needed=n_min - n)

    # c_0..c_min(n, d), then each sign's first half plus its mirror
    # c_j = eps q^(2j - d) c_(d - j); the mirror must agree with the head
    head = _coeffs_from_power_sums(u[:min(n, d)])
    half = d - d // 2
    candidates = []
    for eps in (1, -1):
        c = head[:half] + [eps * q ** (2 * j - d) * head[d - j]
                           for j in range(half, d + 1)]
        if c[:len(head)] != head:
            continue
        full = _intpoly.mul(list(known), c)
        if _root_magnitude_ok(full, q):
            candidates.append((eps, tuple(c), tuple(full)))

    if not candidates:
        raise DataError(
            "no sign of the functional equation puts all roots on "
            "|alpha| = q: counts or known factor are wrong")
    if len(candidates) == 2:
        raise IncompletenessError(
            "both signs of the functional equation survive the root test; "
            "one more count would decide", needed=1)
    eps, completed, full = candidates[0]

    # roundtrip: the completed polynomial must reproduce every input trace
    check = power_sums(list(full), n)
    for r in range(1, n + 1):
        if check[r - 1] != traces[r - 1]:
            raise InconsistencyError(
                f"completed P2 fails to reproduce t_{r}: "
                f"{check[r - 1]} vs {traces[r - 1]}")
    return FrobeniusPoly(q=q, coeffs=full, epsilon=eps, known=known,
                         completed=completed)


# --- Picard bounds and the Artin-Tate ledger ---------------------------------

def picard_upper_bound(poly: FrobeniusPoly):
    """(bound, cyclotomic factors) for the geometric Picard number.

    Algebraic classes force Frobenius eigenvalues of the shape (root of
    unity) * q, so rho is at most the number of such eigenvalues: detected
    by exact trial division of R(x) = sum c_j q^{deg-j} x^j by Phi_m for
    every m with phi(m) <= degree.  Missing degrees of a partial poly
    count fully toward the bound (slack), and the bound is rounded down to
    even: the geometric Picard number of a K3 over a finite field is even.
    Factors come back as (m, multiplicity) pairs."""
    coeffs = list(poly.coeffs)
    q = poly.q
    deg = len(coeffs) - 1
    r = [c * q ** (deg - j) for j, c in enumerate(coeffs)]
    count = 0
    factors = []
    for m in range(1, 2 * H2_DIM * H2_DIM + 1):  # phi(m) <= 22 forces m <= 968
        em = _intpoly.euler_phi(m)
        if em > deg:
            continue
        phi, mult = _intpoly.cyclotomic(m), 0
        while (quo := _intpoly.exact_div(r, phi)) is not None:
            r, mult = quo, mult + 1
        if mult:
            factors.append((m, mult))
            count += em * mult
    slack = H2_DIM - deg
    bound = count + slack
    if bound % 2 == 1:
        bound -= 1
    return bound, factors


def artin_tate_value(coeffs, q: int, rho: int) -> Fraction:
    """q * P(T) / (1 - qT)^rho at T = 1/q, exactly.  (1 - qT)^rho must
    divide P; rho is the rank of Neron-Severi over F_q (eigenvalue
    exactly q), not the geometric rank, when the two differ."""
    coeffs = list(coeffs)
    if not coeffs:
        raise UsageError("empty polynomial")
    if not 1 <= rho <= H2_DIM:
        raise UsageError(f"rho must lie in 1..{H2_DIM} (rank of NS inside H^2)")
    for _ in range(rho):
        coeffs = _intpoly.exact_div(coeffs, [1, -q])
        if coeffs is None:
            raise MultiplicityError(
                f"(1 - {q}T)^{rho} does not divide the supplied factor")
    t = Fraction(1, q)
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * t + c
    return q * value


def artin_tate_discriminant(poly: FrobeniusPoly, rho: int):
    """(value, square class) of the Artin-Tate special value
    q * P2(T)/(1 - qT)^rho at T = 1/q.  The value equals the order of the
    Brauer group times |disc NS(X)| up to squares, so its square class is
    the discriminant's; a value above q 2^(deg P2 - rho), the bound for
    reciprocal roots on |alpha| = q, is refused before it is factored."""
    value = artin_tate_value(poly.coeffs, poly.q, rho)
    if value == 0:
        raise MultiplicityError(
            "special value vanishes: rho understates the eigenvalue-q "
            "multiplicity")
    if abs(value) > poly.q * 2 ** (poly.degree - rho):
        raise DataError(f"special value {value} is too large for reciprocal "
                        f"roots on |alpha| = {poly.q}")
    return value, square_class(value)


def square_class(x) -> int:
    """Squarefree representative of a nonzero rational in Q*/(Q*)^2.

    Trial division up to TRIAL_BOUND factors num * den; a cofactor left
    over is prime when it is below TRIAL_BOUND^2 or passes _intpoly.isprime,
    and drops out when it is a square.  Only another composite cofactor goes
    to sympy's factorint, priced by its digits against FACTOR_DIGITS (a
    balanced semiprime of 35 to 39 digits took 0.9 to 3.0 s, one sample
    each, on a 2-core Intel Xeon)."""
    frac = Fraction(x)
    if frac == 0:
        raise UsageError("square class of 0 is undefined")
    n = frac.numerator * frac.denominator
    primes = _intpoly.factor(abs(n), TRIAL_BOUND)
    rest = max(primes, default=1)
    if rest >= TRIAL_BOUND ** 2 and not _intpoly.isprime(rest):
        del primes[rest]
        if isqrt(rest) ** 2 != rest:
            check_price(f"the factors of {rest}", len(str(rest)),
                        FACTOR_DIGITS, "digits")
            from sympy import factorint  # here: importing zeta stays light
            primes.update(factorint(rest))
    out = -1 if n < 0 else 1
    for prime, mult in primes.items():
        if mult % 2:
            out *= prime
    return out


def van_luijk_combine(b1: int, c1: int, b2: int, c2: int) -> int:
    """Combine two reductions: the min of the bounds, dropped to b - 1
    when both bounds equal b and the discriminant square classes differ
    (van Luijk's argument, at every rank: rho(X-bar) = b would make
    NS(X-bar) finite-index in both NS(X-bar_p), forcing all three
    discriminants to agree up to squares; Elsenhans and Jahnel, "The
    Picard group of a K3 surface and its reduction modulo p", 2011).
    Rank 1 is the floor from the hyperplane class.  c1 and c2 share a
    square class exactly when c1 c2 is the square of a rational, which
    needs no factorization."""
    for b in (b1, b2):
        if not 1 <= b <= H2_DIM:
            raise UsageError("bounds must lie in 1..22")
    if b1 != b2:
        return min(b1, b2)
    c = Fraction(c1) * Fraction(c2)
    if c == 0:
        raise UsageError("square class of 0 is undefined")
    same = c > 0 and all(isqrt(n) ** 2 == n for n in (c.numerator,
                                                      c.denominator))
    return b1 if same else max(b1 - 1, 1)
