"""Newton's identities over Z: power sums and their inverse stay integers.

`power_sums` turns the coefficients of a polynomial with constant term 1
into the power sums of its reciprocal roots, and `_coeffs_from_power_sums`
runs the same identity backwards with exact divisions.  On products of
Weil factors (1 -+ qT) and (1 + aT + q^2 T^2), |a| < 2q, the two are
inverse to each other, and every value is a Python int.
"""

import random

import pytest

from k3arith import _intpoly
from k3arith.errors import InconsistencyError
from k3arith.zeta import _coeffs_from_power_sums, power_sums


def _weil_product(rng, q, deg):
    coeffs = [1]
    while len(coeffs) - 1 < deg:
        if deg - (len(coeffs) - 1) == 1 or rng.random() < 0.3:
            factor = [1, rng.choice((-q, q))]
        else:
            factor = [1, rng.randrange(-2 * q + 1, 2 * q), q * q]
        coeffs = _intpoly.mul(coeffs, factor)
    return coeffs


def test_power_sums_are_ints():
    sums = power_sums([1, -3, 5, 7], 12)
    assert len(sums) == 12
    assert all(type(s) is int for s in sums)


@pytest.mark.parametrize("seed", range(8))
def test_coeffs_from_power_sums_inverts_power_sums(seed):
    rng = random.Random(seed)
    for _ in range(10):
        q = rng.choice((2, 3, 4, 5, 7, 9, 25))
        deg = rng.randrange(1, 23)
        coeffs = _weil_product(rng, q, deg)
        sums = power_sums(coeffs, deg)
        rebuilt = _coeffs_from_power_sums(sums)
        assert rebuilt == coeffs
        assert all(type(c) is int for c in rebuilt)


def test_non_integral_coefficient_is_refused():
    # s_1 = 0, s_2 = 1 would need c_2 = -1/2
    with pytest.raises(InconsistencyError, match=r"c_2 = -1/2"):
        _coeffs_from_power_sums([0, 1])
