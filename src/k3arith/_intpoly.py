"""Exact integer arithmetic: dense polynomials over Z, their reduction
mod p, primality, factoring of integers and truncated Euler products.

Polynomials are lists/tuples of Python ints, lowest degree first, with no
trailing zeros (the zero polynomial is []).  Everything here stays in Z:
the one long division, `divide`, returns None at a quotient coefficient
that is not an integer.  F_p[x] arithmetic is the Z[x] arithmetic here
followed by one `mod_p`.
"""

from functools import lru_cache
from operator import index

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981  # Sorenson-Webster, 13 bases


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def mod_p(p, prime):
    """The image of p in F_p[x], coefficients in 0..prime-1."""
    return trim([c % prime for c in p])


def divide(p, q):
    """(quotient, remainder) of p by q over Z, or None at the first
    quotient coefficient that is not an integer."""
    rem = list(p)
    dq = len(q) - 1
    quo = [0] * max(0, len(rem) - dq)
    for k in range(len(rem) - 1, dq - 1, -1):
        c, frac = divmod(rem[k], q[-1])
        if frac:
            return None
        quo[k - dq] = c
        for j, b in enumerate(q, k - dq):
            rem[j] -= c * b
    return trim(quo), trim(rem[:dq])


def exact_div(p, q):
    """The quotient p / q when q divides p over Z, else None."""
    return out[0] if (out := divide(p, q)) and not out[1] else None


def mod_monic(p, q):
    """Remainder of p mod q when q is monic; stays in Z throughout."""
    if not q or q[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(p)
    dq = len(q) - 1
    for k in range(len(rem) - 1, dq - 1, -1):
        c = rem[k]
        if c:
            for j, b in enumerate(q, k - dq):
                rem[j] -= c * b
    return trim(rem[:dq])


@lru_cache(maxsize=None)
def cyclotomic(m):
    """The m-th cyclotomic polynomial over Z, computed by exact division:
    Phi_m = (x^m - 1) / prod_{d | m, d < m} Phi_d."""
    if m < 1:
        raise ValueError("m must be positive")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = exact_div(num, cyclotomic(d))
    return tuple(num)


def euler_product(e, n):
    """prod_{k >= 1} (1 - x^k)^e through x^n, as its n + 1 coefficients;
    a negative e divides by each (1 - x^k) where a positive one multiplies."""
    out = [1] + [0] * n
    for k in range(1, n + 1):
        for _ in range(e):  # multiply by (1 - x^k), truncated
            for i in range(n, k - 1, -1):
                out[i] -= out[i - k]
        for _ in range(-e):  # divide by (1 - x^k): a running sum, step k
            for i in range(k, n + 1):
                out[i] += out[i - k]
    return out


def isprime(n) -> bool:
    """Primality by Miller-Rabin over the prime bases 2..41, which is
    deterministic below 3317044064679887385961981 (Sorenson and Webster,
    "Strong pseudoprimes to twelve prime bases", 2017).  Larger n go to
    sympy.isprime, imported only then.  Non-integers raise TypeError."""
    n = index(n)
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < _MR_BASES[-1] ** 2:
        return True
    if n >= _MR_EXACT_BELOW:
        from sympy import isprime as sympy_isprime
        return sympy_isprime(n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_power(q) -> bool:
    """True iff q = p^r with p prime and r >= 1, decided in integers: from
    the largest r down, bisection finds the largest m with m^r <= q, and
    the first exact root is p when q is a prime power."""
    q = index(q)
    for r in range(q.bit_length() - 1, 0, -1):
        lo, hi = 1, 1 << (q.bit_length() // r + 1)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if mid ** r <= q else (lo, mid - 1)
        if lo ** r == q:
            return isprime(lo)
    return False


def factor(n, bound=None):
    """{prime: exponent} of n >= 1 by trial division.  With a bound, the
    trial divisors stop there, and what is left above 1 becomes one key
    with exponent 1: a prime when it is below bound^2, else possibly not."""
    if n < 1:
        raise ValueError("factor needs a positive integer")
    out = {}
    f = 2
    while f * f <= n and (bound is None or f <= bound):
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = 1
    return out


def euler_phi(m):
    out = m
    for f in factor(m):
        out -= out // f
    return out
