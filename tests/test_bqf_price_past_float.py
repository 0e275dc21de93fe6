"""A bqf price past float range is still a refusal, not a crash.

`errors.check_price` names the price in scientific notation; a price above
about 1.8e308 does not convert to a float, so it is formatted through
Decimal.  Both 400-digit inputs below exit 2 with the usage message, and
a price inside float range reads as a float format would, save that the
exponent has no leading zero.
"""

import re

import pytest

from k3arith import bqf
from k3arith.cli import main
from k3arith.errors import UsageError, check_price

BIG = 10 ** 400


def test_class_group_past_float_range_is_refused():
    with pytest.raises(UsageError, match=r"need about 1\.7e\+399 "
                                         r"enumeration steps"):
        bqf.class_group(-BIG)


def test_cli_classgroup_with_400_digits_exits_2(capsys):
    assert main(["bqf", "classgroup", f"--d=-{BIG}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"k3: usage error: the forms of Cl(-{BIG}) need "
                          "about 1.7e+399 enumeration steps (cap 1.0e+7)")


def test_cli_h1list_with_400_digits_exits_2(capsys):
    assert main(["bqf", "h1list", "--bound", str(BIG)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"k3: usage error: the class numbers to d = -{BIG} "
                          "need about 4.0e+400 enumeration steps")


PRICES = [(10 ** 7 + 1, "1.0e+07"), (912990, "9.1e+05"),
          (4 * 10 ** 12, "4.0e+12"), (2 ** 1024, "1.8e+308"),
          (BIG // 6, "1.7e+399")]


@pytest.mark.parametrize("steps, text", PRICES,
                         ids=[text for _, text in PRICES])
def test_price_reads_like_a_float_format(steps, text):
    # at cap 1 one decimal tells any of these prices from the cap
    with pytest.raises(UsageError, match=re.escape(
            f"x need about {text.replace('e+0', 'e+')} steps (cap 1.0e+0)")):
        check_price("x", steps, 1, "steps")
