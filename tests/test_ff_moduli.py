"""The field conventions that every count depends on, frozen.

`FieldCtx(p, r)` builds F_{p^r} over the least monic irreducible in the
packed order and fixes the least primitive root; cached counts, discrete
logs and the packed tables all rest on both.  The values below were
recorded from the implementation that tested irreducibility with
x^(p^r) = x and one gcd per prime divisor of r; Ben-Or's test must pick
the same modulus.  `test_ff_logs.py` checks that the discrete logs invert
the powers of this root.
"""

import pytest

from k3arith.ff import FieldCtx

# (p, r): (modulus coefficients, low degree first; packed primitive root)
FROZEN = {
    (2, 1): ((0, 1), 1),
    (2, 2): ((1, 1, 1), 2),
    (2, 3): ((1, 1, 0, 1), 2),
    (2, 4): ((1, 1, 0, 0, 1), 2),
    (2, 5): ((1, 0, 1, 0, 0, 1), 2),
    (2, 6): ((1, 1, 0, 0, 0, 0, 1), 2),
    (2, 7): ((1, 1, 0, 0, 0, 0, 0, 1), 2),
    (2, 8): ((1, 1, 0, 1, 1, 0, 0, 0, 1), 3),
    (2, 9): ((1, 1, 0, 0, 0, 0, 0, 0, 0, 1), 7),
    (2, 10): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 11): ((1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 12): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3),
    (2, 13): ((1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
    (3, 1): ((0, 1), 2),
    (3, 2): ((1, 0, 1), 4),
    (3, 3): ((1, 2, 0, 1), 3),
    (3, 4): ((2, 1, 0, 0, 1), 3),
    (3, 5): ((1, 2, 0, 0, 0, 1), 3),
    (3, 6): ((2, 1, 0, 0, 0, 0, 1), 3),
    (3, 7): ((2, 0, 1, 0, 0, 0, 0, 1), 5),
    (3, 8): ((2, 0, 1, 0, 0, 0, 0, 0, 1), 38),
    (5, 1): ((0, 1), 2),
    (5, 2): ((2, 0, 1), 6),
    (5, 3): ((1, 1, 0, 1), 9),
    (5, 4): ((2, 0, 0, 0, 1), 6),
    (5, 5): ((1, 4, 0, 0, 0, 1), 10),
    (5, 6): ((2, 1, 0, 0, 0, 0, 1), 5),
    (7, 1): ((0, 1), 3),
    (7, 2): ((1, 0, 1), 9),
    (7, 3): ((2, 0, 0, 1), 22),
    (7, 4): ((1, 1, 0, 0, 1), 12),
    (11, 1): ((0, 1), 2),
    (11, 2): ((1, 0, 1), 15),
    (11, 3): ((4, 1, 0, 1), 11),
    (11, 4): ((2, 1, 0, 0, 1), 11),
    (13, 1): ((0, 1), 2),
    (13, 2): ((2, 0, 1), 15),
    (13, 3): ((2, 0, 0, 1), 15),
}


def test_grid_covers_every_small_field():
    expected = {(p, r) for p in (2, 3, 5, 7, 11, 13)
                for r in range(1, 15) if p ** r <= 15625}
    assert set(FROZEN) == expected


@pytest.mark.parametrize("p,r", sorted(FROZEN))
def test_modulus_and_primitive_root_frozen(p, r):
    ctx = FieldCtx(p, r)
    assert (ctx.modulus, ctx.primitive_root()) == FROZEN[(p, r)]


def test_modulus_keyword_is_gone():
    with pytest.raises(TypeError):
        FieldCtx(5, 2, modulus=(2, 0, 1))
