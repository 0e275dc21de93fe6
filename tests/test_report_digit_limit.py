"""Report and cache integers past Python's limit on int-to-str digits.

CPython refuses to write or parse an int of more than
sys.get_int_max_str_digits() digits (4300 by default).  The count cache's
codec, which the reports share, writes and reads such integers through
Decimal, which ignores the limit; reading stays as strict as int(s, 10)
for digits with an optional sign.  Command-line integers are still parsed
under the limit, and a token past it is named by its digit count.
"""

import json
import sys
from decimal import Decimal

import pytest

from k3arith.cache import CountCache, _decode_count, _encode_count
from k3arith.cli import main
from k3arith.errors import DataError

LIMIT = sys.get_int_max_str_digits()


def _report(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_reduce_reports_a_disc_of_8000_digits(capsys):
    a, c = "1" + "0" * 3999, "3" + "0" * 3999
    res = _report(capsys, ["bqf", "reduce", f"--form={a},1,{c}"])
    # b^2 - 4ac = 1 - 12 10^7998 = -(11 followed by 7998 nines)
    assert res["disc"] == "-11" + "9" * 7998
    assert res["reduced"] == [a, 1, c]


def test_compose_reports_a_product_past_the_limit(capsys):
    f = ",".join(["1" + "0" * 2500, "1", "1" + "0" * 2500])
    res = _report(capsys, ["bqf", "compose", "--f", f, "--g", f])
    a, b, c = (int(Decimal(v)) if isinstance(v, str) else v
               for v in res["product"])
    assert b * b - 4 * a * c == 1 - 4 * 10 ** 5000
    assert abs(b) <= a <= c


def test_a_5000_digit_count_survives_the_cache(tmp_path):
    n = -(10 ** 4999) - 12345
    CountCache(tmp_path / "c.jsonl").record("s", 5, 1, n)
    assert CountCache(tmp_path / "c.jsonl").lookup("s", 5, 1) == n
    text = _encode_count(n)
    assert len(text) == 5001 and text.startswith("-1000") and \
        text.endswith("12345")


@pytest.mark.parametrize("text", [
    "1_0" * 3000, " " + "1" * 5000, "1" * 5000 + ".5", "1e5000",
    "+-" + "1" * 5000, "１" * 5000, "NaN"],
    ids=["underscores", "space", "fraction", "exponent", "two-signs",
         "wide-digits", "nan"])
def test_reading_past_the_limit_is_as_strict_as_int(text):
    with pytest.raises(DataError, match="unparsable count"):
        _decode_count(text, "here")
    assert _decode_count("+" + "7" * 5000, "here") == int(Decimal("7" * 5000))


def test_a_cli_integer_past_the_limit_is_named_by_its_digits(capsys):
    big = "7" * (LIMIT + 1)
    assert main(["bqf", "reduce", f"--form=1,1,{big}"]) == 2
    assert capsys.readouterr().err == (
        f"k3: usage error: an integer of {LIMIT + 1} digits passes "
        f"Python's limit of {LIMIT}\n")
