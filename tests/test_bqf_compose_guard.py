"""Gauss composition refuses a composite that is not integral.

Dirichlet's closed form divides by e = gcd(a1, a2, (b1 + b2)/2) and by
4A; with a wrong Bezout triple from `_egcd` the divisions do not come
out exact.  The check is a plain comparison, not an `assert`, so it also
holds under `python -O`.
"""

import pytest

from k3arith import bqf
from k3arith.bqf import BinaryQuadraticForm, compose
from k3arith.errors import InconsistencyError


def test_compose_rejects_inconsistent_bezout_triple(monkeypatch):
    f = BinaryQuadraticForm(2, 1, 3)
    g = BinaryQuadraticForm(2, -1, 3)
    assert compose(f, g) == BinaryQuadraticForm(1, 1, 6)
    # gcd(2, 2) is 2, not 1, and 1 * 2 + 0 * 2 = 2 != 1: A = 4, B = -2,
    # and B^2 - d = 27 is not divisible by 4A = 16
    monkeypatch.setattr(bqf, "_egcd", lambda a, b: (1, 1, 0))
    with pytest.raises(InconsistencyError):
        compose(f, g)
