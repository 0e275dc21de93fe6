"""`k3 zeta --counts PATH` names a PATH that is not a file.

The count file is input that must exist, so a missing one is a usage
error (exit 2) that says which path is missing, not "no count records".
A missing `--cache` file stays valid: `k3 count` creates it.
"""

import json

from k3arith.cli import main


def test_missing_counts_file_is_named(tmp_path, capsys):
    path = tmp_path / "no" / "such.jsonl"
    assert main(["zeta", "--counts", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"k3: usage error: no count file at {path}\n"


def test_missing_cache_file_is_created_by_count(tmp_path, capsys):
    path = tmp_path / "new.jsonl"
    assert main(["count", "--model", "diagonal", "--coeffs", "1,1,1,1",
                 "--p", "5", "--cache", str(path)]) == 0
    assert path.is_file()
    assert json.loads(capsys.readouterr().out)["cache"]["entries"] == 1
