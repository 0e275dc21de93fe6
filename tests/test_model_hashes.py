"""Surface hashes key every record of a count cache, so they must not
move when the model classes are refactored: the first three hex strings
below were recorded before `Quartic` and `DoubleSextic` shared a base
class, the last three while a diagonal quartic had a class of its own.
Each scan reads only the model it counts."""

import pytest

from k3arith import count
from k3arith.count import (QUARTIC_EXPONENTS, SEXTIC_EXPONENTS,
                           DiagonalQuartic, DoubleSextic, Quartic,
                           dwork_pencil, fermat_quartic)
from k3arith.errors import UsageError
from k3arith.ff import FieldCtx

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
    (DiagonalQuartic((1, 2, 3, 4)),
     "2e5db605fd15e1507d71258384287a412eb0a900e19f78f4cf1e444abd5c5792"),
    (DiagonalQuartic((0, 3, 5, 7)),
     "cb3810312f1c13f3244043f623dc9f5dbce6af4e55fbd321440449b761081628"),
    (dwork_pencil.member(3),
     "0f9ed04675f9cbad85a1a7d129e178c92196edb2fb73f36897b2aae303913ec8"),
])
def test_surface_hash_frozen(surface, digest):
    assert surface.surface_hash() == digest


def test_models_share_behaviour_but_stay_distinct():
    quartic = Quartic.from_dict({(4, 0, 0, 0): 1, (0, 0, 0, 4): 2})
    assert type(DiagonalQuartic((1, 0, 0, 2))) is type(fermat_quartic()) \
        is Quartic
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


def _refuse(*args, **kwargs):
    raise AssertionError("an array was about to be built")


@pytest.mark.parametrize("scan, surface", [
    ("count_quartic", SEXTIC), ("is_smooth_quartic", SEXTIC),
    ("count_double_sextic", fermat_quartic())])
def test_each_scan_refuses_the_other_model(monkeypatch, scan, surface):
    # every array of a scan is built after the budget check
    monkeypatch.setattr(count, "check_scan_budget", _refuse)
    monkeypatch.setattr(count, "_projective_scan", _refuse)
    with pytest.raises(UsageError, match=f"cannot count a "
                                         f"{type(surface).__name__}$"):
        getattr(count, scan)(surface, FieldCtx(7))
