"""Binary quadratic forms: reduction, equivalence, composition, class groups.

Two independent oracles live in this file:

* composition is cross-checked against ideal multiplication in the order of
  discriminant d: the form (a,b,c) maps to the module Z a + Z (-b+sqrt(d))/2,
  the product module is Hermite-reduced, and the resulting canonical ideal is
  mapped back to a form.  Swept over every reduced primitive pair for every
  valid d with |d| <= 400.
* SL(2,Z)-equivalence claims are certified by explicit matrix search: a
  small-entry unimodular matrix transforming one form into the other, or an
  exhaustive no-witness scan for inequivalence at bounded entries (entries
  of any transform between reduced forms of these sizes stay far below the
  scan bound).
"""

import random
from math import gcd, isqrt

import pytest

from k3arith.bqf import (BinaryQuadraticForm, ClassGroup, class_group,
                         class_number, class_number_one_discriminants,
                         compose, gl_equivalent, is_isomorphic_singular_k3,
                         principal_form, reduce, reduced_forms, scale)
from k3arith.errors import DomainError, UsageError

H1_LIST = [-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163]


def _random_equivalent(rng, f, words=8):
    """Apply a random word in the SL(2,Z) generators to f."""
    g = f
    for _ in range(words):
        if rng.random() < 0.5:
            g = g.transform(0, -1, 1, 0)  # S
        else:
            k = rng.choice([-2, -1, 1, 2])
            g = g.transform(1, k, 0, 1)  # T^k
    return g


# --- reduction ----------------------------------------------------------------

def test_reduce_frozen_examples():
    assert reduce(BinaryQuadraticForm(1, 0, 5)).astuple() == (1, 0, 5)
    assert reduce(BinaryQuadraticForm(5, 4, 1)).astuple() == (1, 0, 1)
    f = BinaryQuadraticForm(2, 2, 3)
    assert reduce(f).astuple() == (2, 2, 3)
    assert f.disc == -20


def test_reduce_by_explicit_sl2_witness():
    # independent certificate: an SL(2,Z) matrix carrying (5,4,1) to (1,0,1)
    f = BinaryQuadraticForm(5, 4, 1)
    target = (1, 0, 1)
    hits = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    if a * d - b * c == 1 and f.transform(a, b, c, d).astuple() == target:
                        hits.append((a, b, c, d))
    assert hits, "no unimodular witness found"


def test_reduce_idempotent_and_disc_preserving():
    rng = random.Random(23)
    seeds = [BinaryQuadraticForm(1, 0, 1), BinaryQuadraticForm(2, 1, 3),
             BinaryQuadraticForm(1, 1, 6), BinaryQuadraticForm(3, 2, 5)]
    for seed in seeds:
        for _ in range(30):
            f = _random_equivalent(rng, seed)
            r = reduce(f)
            assert r.is_reduced
            assert r == reduce(r)
            assert r.disc == f.disc
            assert r == reduce(seed)  # class invariant


def test_reduce_rejects_indefinite():
    with pytest.raises(DomainError):
        reduce(BinaryQuadraticForm(1, 5, 1))  # d = 21 > 0
    with pytest.raises(DomainError):
        BinaryQuadraticForm(-1, 0, -5).disc and reduce(BinaryQuadraticForm(-1, 0, -5))


# --- equivalence --------------------------------------------------------------

def test_isomorphism_frozen_examples():
    f44 = BinaryQuadraticForm(4, 0, 4)
    assert is_isomorphic_singular_k3(f44, f44)
    assert is_isomorphic_singular_k3(BinaryQuadraticForm(1, 2, 2),
                                     BinaryQuadraticForm(1, 0, 1))
    f = BinaryQuadraticForm(2, 1, 3)
    g = BinaryQuadraticForm(2, -1, 3)
    assert not is_isomorphic_singular_k3(f, g)
    assert gl_equivalent(f, g)


def test_sl2_inequivalence_certified_by_exhaustion():
    # no unimodular matrix with entries up to 10 carries (2,1,3) to (2,-1,3);
    # a det -1 matrix does it immediately, so the classes meet only in GL
    f = BinaryQuadraticForm(2, 1, 3)
    target = (2, -1, 3)
    for a in range(-10, 11):
        for b in range(-10, 11):
            for c in range(-10, 11):
                for d in range(-10, 11):
                    if a * d - b * c == 1:
                        assert f.transform(a, b, c, d).astuple() != target
    # the reflection (x, y) -> (x, -y), det -1, does carry f to the target
    assert f.conjugate().astuple() == target
    assert gl_equivalent(f, BinaryQuadraticForm(*target))


def test_equivalence_respects_random_words():
    rng = random.Random(7)
    f = BinaryQuadraticForm(2, 1, 3)
    for _ in range(20):
        assert is_isomorphic_singular_k3(f, _random_equivalent(rng, f))


# --- composition --------------------------------------------------------------

def test_compose_frozen_d23_table():
    e = BinaryQuadraticForm(1, 1, 6)
    f = BinaryQuadraticForm(2, 1, 3)
    g = BinaryQuadraticForm(2, -1, 3)
    for h in (e, f, g):
        assert compose(e, h) == reduce(h)
    assert compose(f, g) == e
    assert compose(f, f) == g  # Cl(-23) cyclic of order 3


def test_compose_inverse_law():
    rng = random.Random(15)
    for d in (-23, -47, -71, -15, -20, -56):
        for f in reduced_forms(d):
            assert compose(f, f.conjugate()) == principal_form(d)


def test_compose_rejects_bad_inputs():
    with pytest.raises(DomainError):
        compose(BinaryQuadraticForm(2, 0, 2), BinaryQuadraticForm(2, 0, 2))  # imprimitive
    with pytest.raises(DomainError):
        compose(BinaryQuadraticForm(1, 0, 1), BinaryQuadraticForm(1, 0, 2))  # d mismatch


# --- the ideal-multiplication oracle -------------------------------------------

def _hnf_basis(rows):
    """Hermite basis ((a0, 0), (m0, c0)) of the Z-span of integer pairs."""
    rows = [list(r) for r in rows if r != (0, 0)]
    # clear the second coordinate down to a single row by Euclid
    while True:
        nz = [r for r in rows if r[1] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[1]))
        lead = nz[0]
        for r in nz[1:]:
            k = r[1] // lead[1]
            r[0] -= k * lead[0]
            r[1] -= k * lead[1]
        rows = [r for r in rows if r != [0, 0]]
    sec = next(r for r in rows if r[1] != 0)
    if sec[1] < 0:
        sec = [-sec[0], -sec[1]]
    firsts = [r[0] for r in rows if r[1] == 0]
    a0 = 0
    for u in firsts:
        a0 = gcd(a0, abs(u))
    assert a0 > 0
    m0, c0 = sec[0] % a0 if a0 else sec[0], sec[1]
    return a0, m0, c0


def _oracle_compose(f, g):
    """Reduced composition via ideal multiplication in the order of disc d.

    Basis (1, w), w = (s + sqrt(d))/2, s = d mod 2; w^2 = s w - (s^2 - d)/4.
    The form (a,b,c) maps to the ideal Z a + Z (w - (b+s)/2)."""
    d = f.disc
    s = d % 2
    t = (s * s - d) // 4  # w^2 = s w - t

    def gens(h):
        return [(h.a, 0), (-(h.b + s) // 2, 1)]

    def mul(u, v):
        # (u0 + u1 w)(v0 + v1 w) with w^2 = s w - t
        return (u[0] * v[0] - t * u[1] * v[1],
                u[0] * v[1] + u[1] * v[0] + s * u[1] * v[1])

    rows = [mul(u, v) for u in gens(f) for v in gens(g)]
    a0, m0, c0 = _hnf_basis(rows)
    assert a0 % c0 == 0 and m0 % c0 == 0  # module is c0 * (primitive ideal)
    big_a, big_m = a0 // c0, m0 // c0
    # invert the form -> ideal map on [A, M + w]: M = -(b+s)/2 mod A, so
    # b = -(2M+s) mod 2A; c follows from the discriminant
    b_out = -(2 * big_m + s)
    num = b_out * b_out - d
    assert num % (4 * big_a) == 0
    return reduce(BinaryQuadraticForm(big_a, b_out, num // (4 * big_a)))


def test_composition_against_ideal_oracle_sweep():
    for d in range(-3, -401, -1):
        if d % 4 not in (0, 1):
            continue
        forms = reduced_forms(d)
        for f in forms:
            for g in forms:
                assert compose(f, g) == _oracle_compose(f, g), (d, f, g)


# --- class groups ---------------------------------------------------------------

def test_class_group_frozen_examples():
    assert class_group(-163).h == 1
    g23 = class_group(-23)
    assert g23.h == 3
    assert {f.astuple() for f in g23.forms} == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}
    g15 = class_group(-15)
    assert g15.h == 2
    assert g15.exponent == 2


def test_class_group_structure_sweep():
    for d in (-23, -47, -15, -20, -56, -84, -163, -71):
        grp = class_group(d)
        assert grp.h == class_number(d) == len(reduced_forms(d))
        for i in range(grp.h):
            for j in range(grp.h):
                assert grp.table[i][j] == grp.table[j][i]  # abelian
            assert grp.order_of(i) >= 1
            assert grp.h % grp.order_of(i) == 0  # Lagrange
        assert grp.exponent <= grp.h


def test_class_group_rejects_bad_discriminant():
    with pytest.raises(DomainError):
        class_group(-5)  # -5 = 3 mod 4
    with pytest.raises(DomainError):
        class_group(20)


def test_class_number_one_list():
    assert class_number_one_discriminants(200) == H1_LIST
    assert class_number_one_discriminants(4) == [-3, -4]
    for d in class_number_one_discriminants(200):
        assert class_group(d).h == 1


def test_class_number_one_bound_is_tight():
    # no further h = 1 discriminant hides between 164 and 400
    assert class_number_one_discriminants(400) == H1_LIST


# --- scaling ----------------------------------------------------------------------

def test_scale_frozen_and_homogeneous():
    assert scale(BinaryQuadraticForm(4, 0, 4), 2).astuple() == (8, 0, 8)
    rng = random.Random(3)
    for _ in range(20):
        f = reduce(_random_equivalent(rng, BinaryQuadraticForm(2, 1, 3)))
        n = rng.randrange(1, 6)
        assert scale(f, 1) == f
        assert scale(f, n).disc == n * n * f.disc
    with pytest.raises(UsageError):
        scale(BinaryQuadraticForm(1, 0, 1), 0)


def test_gram_matrix_shape():
    f = BinaryQuadraticForm(2, 1, 3)
    assert f.gram() == ((4, 1), (1, 6))
    assert f(1, 0) == 2 and f(0, 1) == 3 and f(1, 1) == 6


def test_class_group_table_against_ideal_oracle():
    # h(-210640) = 120: every entry of the full composition table of a
    # class group with h in 120..128 equals the ideal-multiplication product
    grp = class_group(-210640)
    assert grp.h == 120
    for i, f in enumerate(grp.forms):
        for j in range(i, grp.h):
            assert grp.forms[grp.table[i][j]] == _oracle_compose(f, grp.forms[j])
