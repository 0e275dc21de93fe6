"""Dense integer polynomial helpers.

Polynomials are lists/tuples of Python ints, lowest degree first, with no
trailing zeros (the zero polynomial is []). Everything here is exact; the
division routines refuse to return anything with a nonzero remainder unless
asked for the remainder explicitly.
"""

from fractions import Fraction
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


def divmod_poly(p, q):
    """Polynomial division over Q; (quotient, remainder) as Fraction lists."""
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
    """Quotient p / q over Z; raises ValueError if not exact over Z."""
    quo, rem = divmod_poly(p, q)
    if rem:
        raise ValueError("division leaves a remainder")
    out = []
    for c in quo:
        if c.denominator != 1:
            raise ValueError("quotient is not integral")
        out.append(int(c))
    return out


def divides(q, p):
    """True iff q divides p exactly over Z."""
    try:
        exact_div(p, q)
        return True
    except ValueError:
        return False


def mod_monic(p, q):
    """Remainder of p mod q when q is monic; stays in Z throughout."""
    if not q or q[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(p)
    dq = len(q) - 1
    for k in range(len(rem) - 1, dq - 1, -1):
        c = rem[k]
        if c:
            for j in range(dq + 1):
                rem[k - dq + j] -= c * q[j]
    return trim(rem)


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


def euler_phi(m):
    n, out, f = m, m, 2
    while f * f <= n:
        if n % f == 0:
            out -= out // f
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out -= out // n
    return out
