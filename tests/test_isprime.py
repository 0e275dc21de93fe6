"""`_intpoly.isprime`, the one primality test of the library, and the prime
ranges of the `k3` command line built on it.

Miller-Rabin over the prime bases 2..41 is exact below
3317044064679887385961981; sympy.isprime is the reference everywhere.
"""

import pytest
import sympy

from k3arith._intpoly import isprime
from k3arith.cli import _primes_arg

HARD_CASES = [
    561, 41041,  # Carmichael numbers
    3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,  # strong pseudoprime to the bases 2..23
    318665857834031151167461,  # strong pseudoprime to the bases 2..37
    3317044064679887385961981,  # to the bases 2..41: takes the fallback
    3317044064679887385961979, 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1,
]


def test_agrees_with_sympy_below_200000():
    assert [n for n in range(200001) if isprime(n)] == \
        list(sympy.primerange(0, 200001))


@pytest.mark.parametrize("n", HARD_CASES)
def test_agrees_with_sympy_on_pseudoprimes_and_large_primes(n):
    assert isprime(n) == sympy.isprime(n)


def test_negative_numbers_are_not_prime():
    assert not any(isprime(n) for n in range(-50, 0))


@pytest.mark.parametrize("text", ["3..101", "2..2", "10..7", "-5..11"])
def test_prime_ranges_match_primerange(text):
    lo, hi = (int(x) for x in text.split(".."))
    assert _primes_arg(text) == list(sympy.primerange(lo, hi + 1))


def test_integers_only():
    assert isprime(sympy.Integer(1000003))
    with pytest.raises(TypeError):
        isprime(5.0)
