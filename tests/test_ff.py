"""Field contexts, characters, and Jacobi sums.

Frozen values were computed independently before the module existed:
squares mod 7 = {1, 2, 4} by listing, J(chi, chi) over F_5 and F_13 by a
direct double sum in Gaussian integers with chi(primitive root) = i.
Elements are packed indices; the field axioms are checked on the packed
operation tables, and sums, products and powers against sympy's
galoistools (`gf_reference`), which shares no code with `ff`.
"""

import random

import numpy as np
import pytest

import gf_reference as gf
from k3arith.errors import DomainError, UnsupportedError, UsageError
from k3arith.ff import (CyclotomicInt, FieldCtx, MultChar, _digits,
                        _poly_powmod, jacobi_sum, quadratic_character)

FIELDS = (FieldCtx(7), FieldCtx(3, 2), FieldCtx(2, 3))


# --- field contexts and the packed operation tables ----------------------------

def test_f8_least_modulus_relation():
    # lexicographically least irreducible cubic over F_2 is x^3 + x + 1,
    # so the generator x (packed 2) satisfies g^3 = g + 1
    ctx = FieldCtx(2, 3)
    add, mul = ctx.packed_tables()
    g = 2
    assert ctx.modulus == (1, 1, 0, 1)
    assert mul[g, mul[g, g]] == add[g, 1] == 3
    assert ctx.q == 8


def test_char2_addition_is_involutive():
    add = FieldCtx(2, 3).packed_tables()[0]
    assert not np.diagonal(add).any()


def test_subtraction_and_negation_add_the_negative():
    for ctx in FIELDS:
        add = ctx.packed_tables()[0]
        for a in range(ctx.q):
            # -a is the one b with a + b = 0, and a - b is a + (-b)
            assert np.flatnonzero(add[a] == 0).tolist() == [gf.neg(ctx, a)]
            for b in range(ctx.q):
                assert add[a, gf.neg(ctx, b)] == gf.sub(ctx, a, b)


def test_prime_field_matches_integer_arithmetic():
    add, mul = FieldCtx(11).packed_tables()
    rng = random.Random(11)
    for _ in range(50):
        x, y = rng.randrange(11), rng.randrange(11)
        assert add[x, y] == (x + y) % 11
        assert mul[x, y] == (x * y) % 11


def test_inverse_and_division():
    # every nonzero a has one inverse, a^(q - 2) by galoistools; zero none
    for ctx in FIELDS:
        mul = ctx.packed_tables()[1]
        assert not mul[0].any()
        for a in range(1, ctx.q):
            assert np.flatnonzero(mul[a] == 1).tolist() == [
                gf.power(ctx, a, ctx.q - 2)]


def test_pow_matches_repeated_multiplication():
    # `_poly_powmod`, the one power loop of ff, against the table and
    # against galoistools
    ctx = FieldCtx(5, 2)
    mul = ctx.packed_tables()[1]
    g, acc = 5, 1  # g = x
    for n in range(30):
        power = _poly_powmod(_digits(g, 5, 2), n, ctx.modulus, 5)
        assert ctx._pack(power) == acc
        assert acc == gf.power(ctx, g, n)
        acc = mul[acc, g]


def test_frobenius_additive_and_periodic():
    for p, r in ((3, 2), (2, 3), (5, 2), (3, 3)):
        ctx = FieldCtx(p, r)
        add, mul = ctx.packed_tables()
        frob = np.ones(ctx.q, dtype=np.int32)
        for _ in range(p):
            frob = mul[frob, np.arange(ctx.q)]  # a -> a^p
        assert frob.tolist() == [gf.power(ctx, a, p) for a in range(ctx.q)]
        assert (frob[add] == add[np.ix_(frob, frob)]).all()
        cur = np.arange(ctx.q)
        for k in range(1, r + 1):
            cur = frob[cur]
            # Frob has order r on F_{p^r}
            assert (cur == np.arange(ctx.q)).all() == (k == r)
        # Frobenius fixes exactly the prime field, packed 0..p-1
        assert np.flatnonzero(frob == np.arange(ctx.q)).tolist() == list(
            range(p))


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
    assert quadratic_character(c7, 1) == 1
    assert quadratic_character(c7, 3) == -1  # squares mod 7: {1,2,4}
    assert quadratic_character(FieldCtx(5), 0) == 0


def test_quadratic_character_multiplicative_and_balanced():
    for ctx in (FieldCtx(7), FieldCtx(3, 2), FieldCtx(13)):
        for a in range(1, ctx.q):
            for b in range(1, ctx.q):
                assert (quadratic_character(ctx, a)
                        * quadratic_character(ctx, b)
                        == quadratic_character(ctx, gf.mul(ctx, a, b)))
        assert sum(quadratic_character(ctx, a) for a in range(ctx.q)) == 0


def test_quadratic_character_rejects_char2():
    with pytest.raises(UnsupportedError):
        quadratic_character(FieldCtx(2, 3), 1)


@pytest.mark.parametrize("a", [-1, 9, 10 ** 30, True, False, 1.0, "1",
                               np.int64(1), None])
def test_characters_refuse_what_is_not_a_packed_index(a):
    # -1 read the log of packed 8 = 2 + 2x, and 9 raised IndexError
    ctx = FieldCtx(3, 2)
    chi = MultChar(ctx, 4)
    for call in (chi, chi.log, lambda a: quadratic_character(ctx, a)):
        with pytest.raises(UsageError, match="not a packed element of F_9"):
            call(a)
    assert chi(gf.neg(ctx, 1)) == CyclotomicInt.integer(4, 1)  # chi(-1)


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
    g = ctx.primitive_root()
    assert chi(g) == CyclotomicInt.root_power(4, 1)
    assert chi(g * g % 13) == CyclotomicInt.root_power(4, 2)
    assert chi(0) == CyclotomicInt.zero(4)
    assert [j for j in range(1, 5) if chi.pow(j).is_trivial()] == [4]


def test_multchar_multiplicative():
    rng = random.Random(4)
    for ctx in (FieldCtx(13), FieldCtx(3, 2), FieldCtx(5, 2)):
        chi = MultChar(ctx, 4)
        for _ in range(40):
            a, b = rng.randrange(1, ctx.q), rng.randrange(1, ctx.q)
            assert chi(a) * chi(b) == chi(gf.mul(ctx, a, b))


def test_multchar_order_divides():
    ctx = FieldCtx(13)
    with pytest.raises(DomainError):
        MultChar(ctx, 5)  # 5 does not divide q - 1 = 12
    chi = MultChar(ctx, 12, 4)
    assert [j for j in range(1, 4) if chi.pow(j).is_trivial()] == [3]
    assert chi.pow(3).is_trivial()


def test_multchar_product():
    ctx = FieldCtx(13)
    chi4 = MultChar(ctx, 4)
    chi3 = MultChar(ctx, 3)
    prod = chi4 * chi3
    for a in range(1, ctx.q):
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
