"""Gauss composition refuses a composite that is not integral.

The kernel `_compose_abc` divides a1 and a2 by g = gcd(a1, a2) and
inverts a2/g mod a1/g; with a wrong gcd that inverse does not exist, and
the kernel raises InconsistencyError instead of a bare ValueError.  The
check is a plain comparison, not an `assert`, so it also holds under
`python -O`.  (A wrong Bezout triple from `_egcd`, which leaves the last
division inexact, is tested in tests/test_bqf_kernel.py.)
"""

import pytest

from k3arith import bqf
from k3arith.bqf import BinaryQuadraticForm, compose
from k3arith.errors import InconsistencyError


def test_compose_rejects_inconsistent_bezout_triple(monkeypatch):
    f = BinaryQuadraticForm(2, 1, 3)
    g = BinaryQuadraticForm(2, -1, 3)
    assert compose(f, g) == BinaryQuadraticForm(1, 1, 6)
    # gcd(2, 2) is 2, not 1: a2/g = 2 has no inverse mod a1/g = 2
    monkeypatch.setattr(bqf, "gcd", lambda *args: 1)
    with pytest.raises(InconsistencyError):
        compose(f, g)
