"""`k3 inose` never reports NaN or Infinity.

For the forms (1, 0, c), |j| ~ exp(2 pi sqrt(c)) passes about 10^154 from
c = 3191 on, where j1 j2 passes float range, and |j| itself from about
c = 12700.  `j_invariant` refuses a tau whose |j| would pass float range
and `inose_coefficients` a j1 j2 that does (B^2 is then finite too), both
with DomainError (exit 2) naming log10 of the value, before any NaN is
made.
"""

import cmath
import json
import math

import pytest

from k3arith.cli import main
from k3arith.errors import DomainError
from k3arith.singk3 import inose_coefficients, j_invariant


def _strict(text):
    def refuse(name):
        raise AssertionError(f"{name} in the report")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("c, code", [(3190, 0), (3191, 2), (12762, 2),
                                     (14064, 2), (10 ** 6, 2)])
def test_inose_reports_finite_values_or_exits_2(capsys, c, code):
    assert main(["inose", "--form", f"1,0,{c}"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert _strict(out)["results"]["relation_defects"]
    else:
        assert out == ""
        assert err.startswith("k3: usage error: |j")
        assert "past float range" in err and "Traceback" not in err


def test_j_past_float_range_is_refused_before_any_series():
    with pytest.raises(DomainError, match=r"\|j\(tau\)\| is about 10\^323\.6"):
        j_invariant(complex(0, 14064 ** 0.5))


def test_a_product_past_float_range_is_refused():
    with pytest.raises(DomainError, match=r"\|j1 j2\| is about 10\^400\.0"):
        inose_coefficients(1e200, -1e200j)
    pencil = inose_coefficients(1e150, -1e150j)  # just inside float range
    assert all(map(cmath.isfinite, (pencil.A, pencil.B)))
    assert all(map(math.isfinite, pencil.relation_defects()))


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
def test_tol_must_be_positive_and_finite(capsys, tol):
    # NaN made no term small enough (exit 1), and inf stopped the series
    # early (A = 0.9999999999767474 for (1, 0, 1), where A is 1, exit 0)
    assert main(["inose", "--form", "1,0,1", f"--tol={tol}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("k3: usage error: tol must be a positive finite number, "
                   f"got {float(tol)}\n")
