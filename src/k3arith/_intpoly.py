"""Exact integer arithmetic: dense polynomials over Z, their reduction
mod p, factoring of integers and truncated Euler products.

Polynomials are lists/tuples of Python ints, lowest degree first, with no
trailing zeros (the zero polynomial is []).  Everything here is exact; an
exact division returns None rather than a quotient with a remainder.  F_p[x]
arithmetic is the Z[x] arithmetic here followed by one `mod_p`.
"""

from functools import lru_cache


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p):
    return len(p) - 1 if p else -1


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


def divmod_poly(p, q):
    """Polynomial division over Q; (quotient, remainder) as Fraction lists."""
    from fractions import Fraction  # loaded only where a Fraction is made
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = degree(q)
    lead = Fraction(q[-1])
    for k in range(len(rem) - 1, dq - 1, -1):
        if rem[k] == 0:
            continue
        c = rem[k] / lead
        quo[k - dq] = c
        for j in range(dq + 1):
            rem[k - dq + j] -= c * q[j]
    return trim(quo), trim(rem)


def exact_div(p, q):
    """The quotient p / q when q divides p over Z, else None."""
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
    return None if any(rem) else trim(quo)


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
