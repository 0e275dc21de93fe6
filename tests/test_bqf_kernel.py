"""The composition kernel `_compose_abc` against ideal multiplication.

`compose` checks its inputs and calls `_compose_abc`, Cohen's Algorithm
5.4.7 on integer triples; `class_group` calls the kernel directly.  The
property tests draw primitive pairs of one discriminant that are not
reduced (translates b -> b + 2ka of (a1, b, a2 t) and (a2, b, a1 t)),
with coefficients of a few digits or of about 300, and compare the
composite with `_oracle_compose` of tests/test_bqf.py.  The Bezout step,
x = (s/e)^-1 mod g/e by `pow`, runs only when g = gcd(a1, a2) does not
divide s = (b1 + b2)/2; one strategy draws only such pairs, and a wrong
x, injected through `pow`, must leave the composite not integral.  The
last test counts the kernel's calls inside `class_group`: one per
unordered pair of classes, so no product escapes the closure check.
"""

from itertools import combinations_with_replacement
from math import gcd, isqrt

import pytest

from k3arith import bqf
from k3arith.bqf import BinaryQuadraticForm, compose
from k3arith.errors import InconsistencyError
from test_bqf import _oracle_compose

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, assume = hypothesis.given, hypothesis.assume

SMALL = st.integers(1, 60)
HUGE = st.integers(10 ** 299, 10 ** 301)  # 300 to 302 digits


@st.composite
def pairs(draw, size, common=st.just(1)):
    """(f, g) with f = (a1, b, a2 t), g = (a2, b, a1 t), a1 and a2 sharing
    the drawn factor, each then translated by b -> b + 2ka."""
    k = draw(common)
    a1, a2, t = k * draw(size), k * draw(size), draw(size)
    bound = isqrt(4 * a1 * a2 * t - 1)
    b = draw(st.integers(-bound, bound))
    f = BinaryQuadraticForm(a1, b, a2 * t)
    g = BinaryQuadraticForm(a2, b, a1 * t)
    assume(f.is_primitive and g.is_primitive)
    shift = st.integers(-5, 5) | st.integers(-10 ** 40, 10 ** 40)
    return (f.transform(1, draw(shift), 0, 1),
            g.transform(1, draw(shift), 0, 1))


def _bezout_branch(f, g):
    return (f.b + g.b) // 2 % gcd(f.a, g.a) != 0


@given(pairs(SMALL) | pairs(HUGE))
def test_compose_matches_the_ideal_oracle(pair):
    f, g = pair
    out = compose(f, g)
    assert out == _oracle_compose(f, g)
    assert out.is_reduced and out.disc == f.disc


@given(pairs(SMALL, st.integers(2, 12)) | pairs(HUGE, st.integers(2, 10 ** 9)))
def test_pairs_with_g_not_dividing_s_take_the_egcd_step(pair):
    f, g = pair
    assume(_bezout_branch(f, g))
    assert compose(f, g) == _oracle_compose(f, g)


def test_egcd_step_of_1500_euclidean_steps():
    # f = (F1501, F1500, F1501) squared: g = F1501 does not divide s = F1500,
    # so the Bezout step inverts consecutive Fibonacci numbers, whose
    # Euclidean walk has about 1500 steps
    a, b = 0, 1
    for _ in range(1500):
        a, b = b, a + b
    f = BinaryQuadraticForm(b, a, b)
    assert _bezout_branch(f, f)
    assert compose(f, f) == _oracle_compose(f, f)


def test_wrong_bezout_triple_leaves_the_composite_not_integral(monkeypatch):
    # (2,1,3)^2: g = 2 does not divide s = 1, so the kernel takes x =
    # pow(1, -1, 2) = 1; a pow that gives 0 (right for u mod 1) makes
    # y = (1 - 0) // 2 = 0, 0 * 1 + 0 * 2 != 1, and c3 = 3 / 2
    f = BinaryQuadraticForm(2, 1, 3)
    assert compose(f, f) == BinaryQuadraticForm(2, -1, 3)
    monkeypatch.setattr(bqf, "pow", lambda b, e, m: 0, raising=False)
    with pytest.raises(InconsistencyError, match="not integral"):
        compose(f, f)


@pytest.mark.parametrize("d", [-3, -23, -47, -420, -4004, -209592])
def test_class_group_composes_each_unordered_pair_once(monkeypatch, d):
    calls = []
    real = bqf._compose_abc

    def spy(*abc):
        calls.append(abc)
        return real(*abc)

    monkeypatch.setattr(bqf, "_compose_abc", spy)
    grp = bqf.class_group(d)
    h = grp.h
    assert len(calls) == h * (h + 1) // 2
    idx = {f.astuple(): i for i, f in enumerate(grp.forms)}
    assert sorted(tuple(sorted((idx[t[:3]], idx[t[3:]]))) for t in calls) \
        == list(combinations_with_replacement(range(h), 2))
