"""Gauss composition refuses an inconsistent united representation.

The check is a plain comparison, not an `assert`, so it also holds under
`python -O`.
"""

import pytest

from k3arith import bqf
from k3arith.bqf import BinaryQuadraticForm, compose
from k3arith.errors import InconsistencyError


def test_compose_rejects_inconsistent_united_representation(monkeypatch):
    f = BinaryQuadraticForm(2, 1, 3)
    g = BinaryQuadraticForm(2, -1, 3)
    assert compose(f, g) == BinaryQuadraticForm(1, 1, 6)
    # (x, y) = (1, 0) represents g.a = 2, not the claimed 3
    monkeypatch.setattr(bqf, "_united_representation",
                        lambda form, n: (1, 0, 3))
    with pytest.raises(InconsistencyError):
        compose(f, g)
