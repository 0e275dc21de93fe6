"""Comma-list options whose value starts with a minus sign.

argparse reads `--coeffs -1,1,1,1` as an option followed by a missing
value; the `k3` front end must parse it exactly like `--coeffs=-1,1,1,1`.
Values the library rejects must be rejected by the library in both forms,
with the same message, not by the argument parser.
"""

import json

import pytest

from k3arith.cli import main


def _run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


CASES = [
    (("count", "--model", "diagonal", "--p", "5", "--r", "2"),
     "--coeffs", "-1,1,1,1", 0),
    (("count", "--model", "diagonal", "--p", "13"),
     "--coeffs", "-2,-3,5,1", 0),
    (("picard", "--q", "5"), "--p2", "-1,-6,-25", 2),
    (("bqf", "reduce"), "--form", "-3,4,2", 2),
    (("bqf", "compose", "--g=2,1,3"), "--f", "-2,1,-3", 2),
    (("bqf", "compose", "--f=2,1,3"), "--g", "-2,1,-3", 2),
    (("inose",), "--form", "-1,0,-1", 2),
]


@pytest.mark.parametrize("prefix, option, value, expected", CASES)
def test_space_and_equals_forms_agree(capsys, prefix, option, value, expected):
    spaced = _run(capsys, prefix + (option, value))
    joined = _run(capsys, prefix + (f"{option}={value}",))
    assert spaced[0] == joined[0] == expected
    assert "expected one argument" not in spaced[2]
    assert spaced[2] == joined[2]
    if expected == 0:
        assert spaced[1]["results"] == joined[1]["results"]
        assert spaced[1]["config"] == joined[1]["config"]


def test_known_factor_space_form(tmp_path, capsys):
    counts = str(tmp_path / "counts.jsonl")
    assert _run(capsys, ("count", "--model", "diagonal", "--coeffs=1,1,1,1",
                         "--p", "5", "--r", "2", "--cache", counts))[0] == 0
    spaced = _run(capsys, ("zeta", "--counts", counts,
                           "--known-factor", "-1,5"))
    joined = _run(capsys, ("zeta", "--counts", counts,
                           "--known-factor=-1,5"))
    assert "expected one argument" not in spaced[2]
    assert spaced[0] == joined[0] and spaced[2] == joined[2]
    assert (spaced[1] or {}).get("results") == (joined[1] or {}).get("results")

