"""The exact |alpha| = q test behind the sign choice of P2.

`zeta._root_magnitude_ok` strips the factors (1 -+ qT), checks the
functional equation of what is left, and counts the roots of its trace
polynomial in (-2, 2) with a Sturm chain, whose pseudo-remainders divide
in Z and never make a Fraction.  Weil polynomials are built here as
products of (1 - xT + q^2 T^2), whose reciprocal roots lie on |alpha| = q
exactly when |x| <= 2q, so every case has a known answer.
"""

import fractions
import random

import pytest

from k3arith import _intpoly
from k3arith.zeta import _root_magnitude_ok

QS = [2, 3, 4, 5, 7, 9, 13, 25, 27, 49, 121, 625, 5 ** 9, 1000003]


def _product(factors):
    out = [1]
    for f in factors:
        out = _intpoly.mul(out, f)
    return out


def _weil(rng, q, n_quadratic, n_linear):
    """n_quadratic factors 1 - xT + q^2 T^2 with |x| <= 2q, the end values
    included, and n_linear factors (1 -+ qT)."""
    factors = []
    for _ in range(n_quadratic):
        x = rng.choice([2 * q, -2 * q, 0, rng.randint(-2 * q, 2 * q)])
        factors.append([1, -x, q * q])
    factors += [[1, rng.choice([q, -q])] for _ in range(n_linear)]
    return factors


@pytest.mark.parametrize("q", QS)
def test_weil_products_are_accepted(q):
    rng = random.Random(q)
    for _ in range(12):
        n_linear = rng.randrange(0, 8)
        factors = _weil(rng, q, (22 - n_linear) // 2, n_linear)
        assert _root_magnitude_ok(_product(factors), q), factors


@pytest.mark.parametrize("q", QS)
def test_one_bad_quadratic_factor_is_rejected(q):
    rng = random.Random(10 * q + 1)
    for x in (2 * q + 1, -(2 * q + 1), 3 * q, -5 * q):
        for _ in range(3):
            factors = _weil(rng, q, rng.randrange(0, 10), rng.randrange(0, 3))
            factors.insert(rng.randrange(len(factors) + 1), [1, -x, q * q])
            assert not _root_magnitude_ok(_product(factors), q), factors


@pytest.mark.parametrize("q", QS)
def test_one_bad_linear_factor_is_rejected(q):
    rng = random.Random(10 * q + 2)
    for a in (q + 1, q - 1, -(q + 1), 1, 2 * q):
        factors = _weil(rng, q, rng.randrange(0, 10), rng.randrange(0, 3))
        factors.append([1, -a])
        assert not _root_magnitude_ok(_product(factors), q), factors


def test_float_false_accepts_are_rejected():
    q = 1000003
    assert not _root_magnitude_ok([1, -(q + 1)], q)
    q = 5 ** 9
    assert not _root_magnitude_ok(
        _intpoly.mul([1, -(q + 1)], [1, -(q - 1)]), q)


def test_roots_close_to_the_circle_are_rejected():
    # 1 + (2q^2 + 1) T^2 + q^4 T^4 satisfies the functional equation, but
    # its trace polynomial q^2 u^2 + 1 has the roots +-i/q, so |alpha|
    # misses q by a relative 1/(2q) or so: 5e-8 here
    q = 10 ** 7 + 19
    assert not _root_magnitude_ok([1, 0, 2 * q * q + 1, 0, q ** 4], q)
    assert _root_magnitude_ok([1, 0, 2 * q * q - 1, 0, q ** 4], q)


def test_repeated_factors_are_accepted():
    q = 7
    f, g = [1, -3, q * q], [1, 13, q * q]
    poly = _product([f, f, f, g, g, [1, -q], [1, -q], [1, q]])
    assert _root_magnitude_ok(poly, q)
    assert _root_magnitude_ok(_product([f] * 11), q)
    assert _root_magnitude_ok(_product([[1, -q]] * 22), q)
    assert not _root_magnitude_ok(_product([f, f, [1, -(2 * q + 1), q * q]]
                                           * 2), q)


def test_constant_polynomial_has_no_roots_to_fail():
    assert _root_magnitude_ok([1], 5)


def test_the_sturm_chain_makes_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Fraction was made")
    monkeypatch.setattr(fractions, "Fraction", refuse)
    q = 5 ** 9
    rng = random.Random(22)
    for _ in range(4):
        assert _root_magnitude_ok(_product(_weil(rng, q, 11, 0)), q)
    off = _weil(rng, q, 10, 0) + [[1, -(2 * q + 1), q * q]]
    assert not _root_magnitude_ok(_product(off), q)
