"""Surface hashes key every record of a count cache, so they must not
move when the model classes are refactored: the hex strings below were
recorded before `Quartic` and `DoubleSextic` shared a base class."""

import pytest

from k3arith.count import (QUARTIC_EXPONENTS, SEXTIC_EXPONENTS, DoubleSextic,
                           Quartic, fermat_quartic)
from k3arith.errors import UsageError

DENSE_QUARTIC = Quartic(tuple((7 * i * i - 3 * i + 11) % 41 - 20
                              for i in range(len(QUARTIC_EXPONENTS))))
SEXTIC = DoubleSextic(tuple((5 * i * i + 2 * i - 9) % 37 - 18
                            for i in range(len(SEXTIC_EXPONENTS))))


def test_fixed_coefficients():
    assert DENSE_QUARTIC.coeffs[:5] == (-9, -5, 13, 4, 9)
    assert SEXTIC.coeffs[:5] == (10, 17, -3, -13, -13)


@pytest.mark.parametrize("surface,digest", [
    (fermat_quartic(),
     "dfcd1abda7dd11c8ad0ffe6b2ca11259bf7c38a70e9c765bf5a063debc478306"),
    (DENSE_QUARTIC,
     "3383189838e90936332d03c7de9d8ff03a7900f757f42d86d6fa357d71b6bde4"),
    (SEXTIC,
     "608b96c7671ebbb776fdf1a2d767e1af7cff96134fefaf911e4a7625b0891463"),
])
def test_surface_hash_frozen(surface, digest):
    assert surface.surface_hash() == digest


def test_models_share_behaviour_but_stay_distinct():
    quartic = Quartic.from_dict({(4, 0, 0, 0): 1, (0, 0, 0, 4): 2})
    assert quartic.to_quartic() is quartic
    assert quartic.items(2) == [((4, 0, 0, 0), 1)]
    sextic = DoubleSextic.from_dict({(6, 0, 0): 3})
    assert sextic.items(3) == []
    assert Quartic((0,) * 35) != DoubleSextic((0,) * 28)
    assert repr(sextic).startswith("DoubleSextic(coeffs=")


def test_model_errors_name_the_model():
    with pytest.raises(UsageError, match="degree-4 monomial in 4 variables"):
        Quartic.from_dict({(5, 0, 0, 0): 1})
    with pytest.raises(UsageError, match="degree-6 monomial in 3 variables"):
        DoubleSextic.from_dict({(4, 0, 0, 0): 1})
    with pytest.raises(UsageError, match="DoubleSextic takes 28"):
        DoubleSextic((1, 2))
