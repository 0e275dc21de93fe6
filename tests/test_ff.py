"""Field contexts, characters, and Jacobi sums.

Frozen values were computed independently before the module existed:
squares mod 7 = {1, 2, 4} by listing, J(chi, chi) over F_5 and F_13 by a
direct double sum in Gaussian integers with chi(primitive root) = i.
"""

import random

import pytest

from k3arith.errors import DomainError, UnsupportedError, UsageError
from k3arith.ff import (CyclotomicInt, FieldCtx, MultChar, jacobi_sum,
                        quadratic_character)


# --- field contexts and element arithmetic ------------------------------------

def test_f8_least_modulus_relation():
    # lexicographically least irreducible cubic over F_2 is x^3 + x + 1,
    # so the generator satisfies g^3 = g + 1 and g * g^2 = g + 1
    ctx = FieldCtx(2, 3)
    g = ctx.gen()
    assert g * g ** 2 == g + ctx.one
    assert ctx.q == 8


def test_char2_addition_is_involutive():
    ctx = FieldCtx(2, 3)
    for a in ctx.elements():
        assert (a + a).is_zero()


def test_subtraction_and_negation_add_the_negative():
    for ctx in (FieldCtx(7), FieldCtx(3, 2), FieldCtx(2, 3)):
        els = list(ctx.elements())
        for a in els:
            assert -a + a == ctx.zero
            for b in els:
                assert a - b == a + (-b)
    for m, coeffs in ((4, (3, -2)), (3, (5, 1)), (5, (1, -4, 0, 2))):
        x = CyclotomicInt(m, coeffs)
        assert -x == CyclotomicInt(m, tuple(-c for c in coeffs))
        assert -x + x == CyclotomicInt.zero(m)
        for y in (CyclotomicInt.root_power(m, 1, 7), CyclotomicInt(4, (1, 1))):
            assert x - y == x + (-y)


def test_prime_field_matches_integer_arithmetic():
    ctx = FieldCtx(11)
    rng = random.Random(11)
    for _ in range(50):
        x, y = rng.randrange(11), rng.randrange(11)
        assert (ctx.element(x) + ctx.element(y)).packed == (x + y) % 11
        assert (ctx.element(x) * ctx.element(y)).packed == (x * y) % 11


def test_inverse_and_division():
    for ctx in (FieldCtx(7), FieldCtx(3, 2), FieldCtx(2, 3)):
        for a in ctx.elements():
            if a.is_zero():
                with pytest.raises(DomainError):
                    a.inv()
                continue
            assert a * a.inv() == ctx.one
            assert (a / a) == ctx.one


def test_pow_matches_repeated_multiplication():
    ctx = FieldCtx(5, 2)
    g = ctx.gen()
    acc = ctx.one
    for n in range(1, 30):
        acc = acc * g
        assert g ** n == acc
    assert g ** 0 == ctx.one
    assert g ** (-1) == g.inv()


def test_frobenius_additive_and_periodic():
    rng = random.Random(9)
    for p, r in ((3, 2), (2, 3), (5, 2)):
        ctx = FieldCtx(p, r)
        els = list(ctx.elements())
        for _ in range(25):
            a, b = rng.choice(els), rng.choice(els)
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        for a in els:
            cur = a
            for _ in range(r):
                cur = cur.frobenius()
            assert cur == a  # Frob^r = id on F_{p^r}
        # Frobenius fixes exactly the prime field
        fixed = [a for a in els if a.frobenius() == a]
        assert len(fixed) == p


def test_ctx_equality_and_modulus_determinism():
    assert FieldCtx(3, 2) == FieldCtx(3, 2)
    assert FieldCtx(3, 2).modulus == FieldCtx(3, 2).modulus
    assert FieldCtx(3) != FieldCtx(5)


def test_bad_constructions():
    with pytest.raises(DomainError):
        FieldCtx(4)  # not prime
    with pytest.raises(UsageError):
        FieldCtx(3, 0)


# --- quadratic character -------------------------------------------------------

def test_quadratic_character_frozen_values():
    c7 = FieldCtx(7)
    assert quadratic_character(c7.element(1)) == 1
    assert quadratic_character(c7.element(3)) == -1  # squares mod 7: {1,2,4}
    c5 = FieldCtx(5)
    assert quadratic_character(c5.element(0)) == 0


def test_quadratic_character_multiplicative_and_balanced():
    for ctx in (FieldCtx(7), FieldCtx(3, 2), FieldCtx(13)):
        els = [a for a in ctx.elements() if not a.is_zero()]
        for a in els:
            for b in els:
                assert (quadratic_character(a) * quadratic_character(b)
                        == quadratic_character(a * b))
        assert sum(quadratic_character(a) for a in ctx.elements()) == 0


def test_quadratic_character_rejects_char2():
    with pytest.raises(UnsupportedError):
        quadratic_character(FieldCtx(2, 3).one)


# --- cyclotomic integers -------------------------------------------------------

def test_cyclotomic_ring_basics():
    i = CyclotomicInt.root_power(4, 1)
    assert i * i == CyclotomicInt.integer(4, -1)
    z = CyclotomicInt(4, (3, -2))  # 3 - 2i
    assert z.abs_squared() == 13
    assert z.conjugate() == CyclotomicInt(4, (3, 2))
    assert not z.is_rational()
    assert CyclotomicInt.integer(4, 7).rational_value() == 7


def test_cyclotomic_sixth_roots_reduce():
    w = CyclotomicInt.root_power(3, 1)  # primitive cube root
    assert w * w * w == CyclotomicInt.integer(3, 1)
    assert (w + w.conjugate()).rational_value() == -1


# --- multiplicative characters -------------------------------------------------

def test_multchar_on_generator():
    ctx = FieldCtx(13)
    chi = MultChar(ctx, 4)
    g = ctx.from_packed(ctx.primitive_root())
    assert chi(g) == CyclotomicInt.root_power(4, 1)
    assert chi(g * g) == CyclotomicInt.root_power(4, 2)
    assert chi(ctx.zero).is_zero()
    assert chi.exact_order == 4


def test_multchar_multiplicative():
    rng = random.Random(4)
    for ctx in (FieldCtx(13), FieldCtx(3, 2), FieldCtx(5, 2)):
        chi = MultChar(ctx, 4)
        els = [a for a in ctx.elements() if not a.is_zero()]
        for _ in range(40):
            a, b = rng.choice(els), rng.choice(els)
            assert chi(a) * chi(b) == chi(a * b)


def test_multchar_order_divides():
    ctx = FieldCtx(13)
    with pytest.raises(DomainError):
        MultChar(ctx, 5)  # 5 does not divide q - 1 = 12
    chi = MultChar(ctx, 12, 4)
    assert chi.exact_order == 3
    assert chi.pow(3).is_trivial()


def test_multchar_product():
    ctx = FieldCtx(13)
    chi4 = MultChar(ctx, 4)
    chi3 = MultChar(ctx, 3)
    prod = chi4 * chi3
    els = [a for a in ctx.elements() if not a.is_zero()]
    for a in els:
        lhs = prod(a)
        rhs = chi4(a).lift(12) * chi3(a).lift(12)
        assert lhs == rhs


# --- Jacobi sums ---------------------------------------------------------------

def test_jacobi_sum_frozen_gaussian_values():
    # chi the quartic character with chi(g) = i; g = 2 both mod 5 and mod 13
    c5 = FieldCtx(5)
    assert c5.primitive_root() == 2
    j5 = jacobi_sum(MultChar(c5, 4), MultChar(c5, 4))
    assert j5 == CyclotomicInt(4, (-1, -2))  # -1 - 2i
    assert j5.abs_squared() == 5

    c13 = FieldCtx(13)
    assert c13.primitive_root() == 2
    j13 = jacobi_sum(MultChar(c13, 4), MultChar(c13, 4))
    assert j13 == CyclotomicInt(4, (3, -2))  # 3 - 2i
    assert j13.abs_squared() == 13


def test_jacobi_sum_modulus_property():
    ctx = FieldCtx(13)
    for k1 in range(1, 12):
        for k2 in range(1, 12):
            if (k1 + k2) % 12 == 0:
                continue
            j = jacobi_sum(MultChar(ctx, 12, k1), MultChar(ctx, 12, k2))
            assert j.abs_squared() == 13


def test_jacobi_sum_symmetric():
    ctx = FieldCtx(13)
    chi1 = MultChar(ctx, 4, 1)
    chi2 = MultChar(ctx, 12, 5)
    assert jacobi_sum(chi1, chi2) == jacobi_sum(chi2, chi1)


def test_jacobi_sum_rejects_degenerate_pairs():
    ctx = FieldCtx(13)
    chi = MultChar(ctx, 4, 1)
    with pytest.raises(DomainError):
        jacobi_sum(chi, chi.pow(3))  # product trivial
    with pytest.raises(DomainError):
        jacobi_sum(chi.pow(4), chi)  # left factor trivial
    with pytest.raises(UsageError):
        jacobi_sum(chi, MultChar(FieldCtx(5), 4))  # different fields


def test_jacobi_sum_extension_field():
    # the quartic character exists over F_9 since 4 | 8
    ctx = FieldCtx(3, 2)
    chi = MultChar(ctx, 4)
    j = jacobi_sum(chi, chi)
    assert j.abs_squared() == 9
