"""Reference arithmetic of F_{p^r} on packed indices, by sympy's
galoistools, which shares no code with `k3arith.ff`.

The packed index n = sum c_i p^i stands for the class of sum c_i x^i
modulo the field's modulus; galoistools writes a polynomial as its
coefficients in ZZ, high degree first.  The primitive root is the least
packed index of full order, the prime factors of q - 1 coming from sympy.
"""

from sympy import primefactors
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_add, gf_mul, gf_neg, gf_pow_mod,
                                     gf_rem, gf_sub)


def _poly(ctx, n):
    low = []
    while n:
        n, c = divmod(n, ctx.p)
        low.append(ZZ(c))
    return low[::-1]


def _packed(ctx, f):
    n = 0
    for c in f:
        n = n * ctx.p + int(c)
    return n


def _modulus(ctx):
    return [ZZ(c) for c in reversed(ctx.modulus)]


def add(ctx, a, b):
    return _packed(ctx, gf_add(_poly(ctx, a), _poly(ctx, b), ctx.p, ZZ))


def sub(ctx, a, b):
    return _packed(ctx, gf_sub(_poly(ctx, a), _poly(ctx, b), ctx.p, ZZ))


def neg(ctx, a):
    return _packed(ctx, gf_neg(_poly(ctx, a), ctx.p, ZZ))


def mul(ctx, a, b):
    f = gf_mul(_poly(ctx, a), _poly(ctx, b), ctx.p, ZZ)
    return _packed(ctx, gf_rem(f, _modulus(ctx), ctx.p, ZZ))


def power(ctx, a, n):
    """a^n for n >= 0 (0^0 = 1)."""
    return _packed(ctx, gf_pow_mod(_poly(ctx, a), n, _modulus(ctx), ctx.p,
                                   ZZ))


def tables(ctx):
    """(add, mul) as q x q nested lists over packed indices."""
    els = range(ctx.q)
    return ([[add(ctx, a, b) for b in els] for a in els],
            [[mul(ctx, a, b) for b in els] for a in els])


def primitive_root(ctx):
    q = ctx.q
    return next(g for g in range(1, q) if all(
        power(ctx, g, (q - 1) // ell) != 1 for ell in primefactors(q - 1)))


def dlog_table(ctx):
    """[None, then k with g^k = a for each packed a != 0]."""
    g, logs, acc = primitive_root(ctx), [None] * ctx.q, 1
    for k in range(ctx.q - 1):
        logs[acc] = k
        acc = mul(ctx, acc, g)
    return logs
