"""Property tests: the scan kernel against naive enumeration.

The naive routes below share no code with `count`'s kernel.  Their
operation tables come from `FieldElement` sums and products; they list
projective points as normalized coordinate vectors and evaluate each
monomial as a product of powers, with no strata restriction and no
Horner's rule.  A double plane is counted through the number of square
roots of each value, not through the quadratic character, and the partial
derivatives for the smoothness test are taken here.  Fields: F_p for small
p and the extensions F_4, F_8, F_9, F_25, F_27, with sparse polynomials on
the larger ones to keep the naive routes cheap.
"""

from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from k3arith.count import (QUARTIC_EXPONENTS, SEXTIC_EXPONENTS,
                           DoubleSextic, Quartic, count_double_sextic,
                           count_quartic, is_smooth_quartic)
from k3arith.ff import FieldCtx

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example = hypothesis.given, hypothesis.example

ODD_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (3, 3)]
ALL_FIELDS = [(2, 1), (2, 2), (2, 3)] + ODD_FIELDS


@lru_cache(maxsize=None)
def _naive_field(p, r):
    ctx = FieldCtx(p, r)
    els = list(ctx.elements())
    add = np.array([[(a + b).packed for b in els] for a in els])
    mul = np.array([[(a * b).packed for b in els] for a in els])
    return ctx, add, mul


@lru_cache(maxsize=None)
def _points(q, n):
    """One normalized vector (first nonzero entry 1) per point of P^(n-1),
    as rows of packed indices."""
    rows = []
    for s in range(n):
        for tail in product(range(q), repeat=n - 1 - s):
            rows.append((0,) * s + (1,) + tail)
    return np.array(rows)


def _evaluate(poly, pts, ctx, add, mul):
    """Values of sum c x^e (a dict exponent -> integer) at each row."""
    total = np.zeros(len(pts), dtype=np.int64)
    for exps, c in poly.items():
        term = np.full(len(pts), ctx.element(c).packed)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = mul[term, pts[:, i]]
        total = add[total, term]
    return total


def _derivative(poly, i):
    out = {}
    for exps, c in poly.items():
        if exps[i]:
            e = list(exps)
            e[i] -= 1
            out[tuple(e)] = out.get(tuple(e), 0) + c * exps[i]
    return out


@st.composite
def _case(draw, fields, exponents):
    p, r = draw(st.sampled_from(fields))
    poly = draw(st.dictionaries(st.sampled_from(exponents),
                                st.integers(-30, 30),
                                max_size=len(exponents) if p ** r <= 11 else 8))
    return p, r, poly


@st.composite
def _near_diagonal(draw):
    """A diagonal quartic with a few extra monomials: mostly smooth, where
    random sparse quartics are mostly singular."""
    p, r, extra = draw(_case(ODD_FIELDS, QUARTIC_EXPONENTS))
    poly = {e: draw(st.integers(1, p - 1)) for e in
            ((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4))}
    poly.update(list(extra.items())[:3])
    return p, r, poly


@given(_case(ALL_FIELDS, QUARTIC_EXPONENTS))
def test_count_quartic_matches_naive(case):
    p, r, poly = case
    ctx, add, mul = _naive_field(p, r)
    values = _evaluate(poly, _points(ctx.q, 4), ctx, add, mul)
    naive = int(np.count_nonzero(values == 0))
    assert count_quartic(Quartic.from_dict(poly), ctx) == naive


@given(_case(ODD_FIELDS, SEXTIC_EXPONENTS))
def test_count_double_sextic_matches_naive(case):
    p, r, poly = case
    ctx, add, mul = _naive_field(p, r)
    roots = np.bincount(np.diagonal(mul), minlength=ctx.q)  # #{w: w^2 = a}
    values = _evaluate(poly, _points(ctx.q, 3), ctx, add, mul)
    naive = int(roots[values].sum())
    assert count_double_sextic(DoubleSextic.from_dict(poly), ctx) == naive


@given(st.one_of(_case(ALL_FIELDS, QUARTIC_EXPONENTS), _near_diagonal()))
# smooth, though (1:0:0:0) kills f and every partial but d/dx_3
@example((5, 1, {(3, 0, 0, 1): 1, (0, 4, 0, 0): 1, (0, 0, 4, 0): 1,
                 (0, 0, 0, 4): 1}))
def test_is_smooth_quartic_matches_naive(case):
    p, r, poly = case
    ctx, add, mul = _naive_field(p, r)
    pts = _points(ctx.q, 4)
    singular = _evaluate(poly, pts, ctx, add, mul) == 0
    for i in range(4):
        singular &= _evaluate(_derivative(poly, i), pts, ctx, add, mul) == 0
    assert is_smooth_quartic(Quartic.from_dict(poly), ctx) == (not singular.any())
