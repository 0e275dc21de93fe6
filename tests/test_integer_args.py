"""One rule for integer arguments: `errors.check_ints`.

Every library type and call that takes integers refuses anything that is
not an int, bool included, with UsageError "{what} must be integers".
Before the rule, a bool passed where `isinstance(v, int)` alone was tested:
`BinaryQuadraticForm(True, True, True)` was a form, `bqf.reduce((True, 0,
True))` returned `(True, 0, True)` and `lift_parameter(..., True)` lifted
with height 1.
"""

from fractions import Fraction

import pytest

from k3arith import bqf, zeta
from k3arith.cmmod import lift_parameter
from k3arith.count import DiagonalQuartic, DoubleSextic, Quartic, dwork_pencil
from k3arith.errors import UsageError, check_ints


@pytest.mark.parametrize("value", [True, False, 1.0, Fraction(1), "1", None])
def test_anything_but_an_int_is_refused(value):
    with pytest.raises(UsageError, match=r"^the values must be integers$"):
        check_ints("the values", (1, value))
    check_ints("the values", (1, -2, 10 ** 400))


@pytest.mark.parametrize("call", [
    lambda: bqf.BinaryQuadraticForm(True, True, True),
    lambda: bqf.reduce((True, 0, True)),
    lambda: bqf.BinaryQuadraticForm(1, 0, 1.0)],
    ids=["bool-form", "bool-reduce", "float-form"])
def test_forms_take_integers(call):
    with pytest.raises(UsageError, match="^form entries must be integers$"):
        call()


@pytest.mark.parametrize("height", [True, 2.0])
def test_the_lift_height_is_an_integer(height):
    with pytest.raises(UsageError, match="^height bounds must be integers$"):
        lift_parameter([(5, 1), (13, 1)], height)
    assert lift_parameter([(5, 1), (13, 1)], 1) == 1


@pytest.mark.parametrize("call, what", [
    (lambda: dwork_pencil.member(True), "pencil parameters"),
    (lambda: Quartic((True,) + (0,) * 34), "Quartic coefficients"),
    (lambda: DoubleSextic((1.0,) * 28), "DoubleSextic coefficients"),
    (lambda: DiagonalQuartic((1, 1, False, 1)),
     "DiagonalQuartic coefficients"),
    (lambda: zeta.TraceVector(5, (True,)), "q and traces")],
    ids=["pencil", "quartic", "sextic", "diagonal", "traces"])
def test_the_models_and_zeta_types_take_integers(call, what):
    with pytest.raises(UsageError, match=f"^{what} must be integers$"):
        call()
