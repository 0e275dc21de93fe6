"""`_intpoly`, the one home of exact integer arithmetic, against naive
references: trial-division factoring against a smallest-prime-factor
sieve, the truncated Euler product against repeated series products,
integer division against sympy's division over Q, and the F_p reduction."""

import random
from math import gcd

import pytest
from sympy import Poly, QQ, symbols

from k3arith import _intpoly

N = 2 * 10 ** 4
X = symbols("x")


def _divmod_over_q(p, q):
    """(quotient, remainder) over Q by sympy, as trimmed lists of
    rationals, low degree first."""
    quo, rem = Poly(p[::-1] or [0], X, domain=QQ).div(
        Poly(q[::-1], X, domain=QQ))
    return tuple(_intpoly.trim(r.all_coeffs()[::-1]) for r in (quo, rem))


def _sieve_factor(n, spf):
    out = {}
    while n > 1:
        f = spf[n]
        out[f] = out.get(f, 0) + 1
        n //= f
    return out


def test_factor_matches_sieve():
    spf = list(range(N + 1))
    for f in range(2, int(N ** 0.5) + 1):
        if spf[f] == f:
            for m in range(f * f, N + 1, f):
                if spf[m] == m:
                    spf[m] = f
    for n in range(1, N + 1):
        assert _intpoly.factor(n) == _sieve_factor(n, spf), n


def test_factor_with_bound_leaves_one_cofactor():
    p1, p2 = 10007, 10009  # the two primes after 10^4
    assert _intpoly.factor(12 * p1 * p2, 100) == {2: 2, 3: 1, p1 * p2: 1}
    assert _intpoly.factor(8 * p1 * p1, 100) == {2: 3, p1 * p1: 1}
    assert _intpoly.factor(p1 * p2, 10 ** 4) == {p1 * p2: 1}
    assert _intpoly.factor(5 * p1, 10 ** 4) == {5: 1, p1: 1}
    assert _intpoly.factor(2 ** 40, 2) == {2: 40}


def test_factor_rejects_nonpositive():
    for n in (0, -6):
        with pytest.raises(ValueError):
            _intpoly.factor(n)


def test_euler_phi_from_factor():
    for m in range(1, 1000):
        phi = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
        assert _intpoly.euler_phi(m) == phi


@pytest.mark.parametrize("e", [6, 24])
def test_euler_product_matches_series_products(e):
    n = 60
    naive = [1] + [0] * n
    for k in range(1, n + 1):
        for _ in range(e):
            nxt = [0] * (n + 1)
            for i, c in enumerate(naive):
                nxt[i] += c
                if i + k <= n:
                    nxt[i + k] -= c
            naive = nxt
    assert _intpoly.euler_product(e, n) == naive


def test_euler_product_known_values():
    # Euler's pentagonal theorem and Ramanujan's tau(n) for Delta/q
    pentagonal = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    assert _intpoly.euler_product(1, 15) == [pentagonal.get(i, 0)
                                             for i in range(16)]
    tau = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643]
    assert _intpoly.euler_product(24, 8) == tau


def test_exact_div_against_division_over_q():
    rng = random.Random(7)
    for _ in range(400):
        q = _intpoly.trim([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        if not q:
            continue
        h = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        p = _intpoly.mul(q, h)
        if rng.random() < 0.5 and p:
            p[rng.randrange(len(p))] += rng.choice((-1, 1))
            p = _intpoly.trim(p)
        quo, rem = _divmod_over_q(p, q)
        integral = all(c.is_integer for c in quo)
        expected = [int(c) for c in quo] if integral and not rem else None
        assert _intpoly.exact_div(p, q) == expected, (p, q)
        expected = ([int(c) for c in quo], [int(c) for c in rem]) \
            if integral else None
        assert _intpoly.divide(p, q) == expected, (p, q)


def test_exact_div_by_linear_factors():
    q = 5
    g = _intpoly.mul(_intpoly.mul([1, -q], [1, -q]), [1, 6, 25])
    assert _intpoly.exact_div(g, [1, -q]) == _intpoly.mul([1, -q], [1, 6, 25])
    assert _intpoly.exact_div(g, [1, q]) is None
    assert _intpoly.exact_div([1], [1, -q]) is None
    assert _intpoly.exact_div([2, 1], [2]) is None  # exact over Q only


def test_mod_monic_and_mod_p():
    f = [1, 1, 0, 1]  # x^3 + x + 1
    u = [3, -7, 0, 5, 2, 1]
    assert _intpoly.mod_monic(u, f) == _divmod_over_q(u, f)[1]
    assert _intpoly.mod_monic([2, 1], f) == [2, 1]
    assert _intpoly.mod_p([4, 9, 6], 3) == [1]
    assert _intpoly.mod_p([2, -1, 4], 2) == [0, 1]
    with pytest.raises(ValueError):
        _intpoly.mod_monic(u, [1, 2])


@pytest.mark.parametrize("e", [1, 6, 24])
def test_euler_product_negative_exponent_is_the_inverse(e):
    n = 40
    product = _intpoly.mul(_intpoly.euler_product(-e, n),
                           _intpoly.euler_product(e, n))
    assert product[:n + 1] == [1] + [0] * n
