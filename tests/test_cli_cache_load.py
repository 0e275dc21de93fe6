"""A count cache that does not load is a usage error, not a failed proof.

`k3 ... --cache f` and `k3 zeta --counts f` read the file through one
helper: bad JSON, a cut last line, a line that is not UTF-8 or two
conflicting counts for one key exit 2 with the path:line of the bad
record, and a directory where the file should be exits 2 naming it.  A cache that loads but
holds a wrong count still exits 1, because the verification against it
fails; `test_cache_cli.py` pins that case.  Only the commands that count
(`count`, `modularity`, `sieve`) open `--cache` or `K3_CACHE`, so a bad
`K3_CACHE` cannot break the others, and only their reports carry a
`cache` block.  A report that `--out` cannot write exits 2 as well.
"""

import json

import pytest

from k3arith.cli import main

GOOD = b'{"count": 0, "p": 5, "r": 1, "surface": "abc"}\n'
BROKEN = {  # None: a directory
    "cut_last_line": GOOD + b'{"count": 1112, "p": 5, "r": 2, "surf',
    "not_json": GOOD + b"not json at all\n",
    "conflict": GOOD + GOOD.replace(b'"count": 0', b'"count": 4'),
    "not_utf8": GOOD + GOOD.replace(b"abc", b"ab\xff"),
    "directory": None,
}
JOBS = {
    "count": ["count", "--model", "diagonal", "--coeffs", "1,1,1,1",
              "--p", "5", "--cache"],
    "modularity": ["modularity", "--primes", "3..7", "--cache"],
    "zeta": ["zeta", "--counts"],
}


@pytest.mark.parametrize("job", sorted(JOBS))
@pytest.mark.parametrize("kind", sorted(BROKEN))
def test_unloadable_cache_exits_2(tmp_path, capsys, job, kind):
    path = tmp_path / "counts.jsonl"
    if BROKEN[kind] is None:
        path.mkdir()
    else:
        path.write_bytes(BROKEN[kind])
    code = main(JOBS[job] + [str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "usage error" in captured.err
    assert (str(path) if BROKEN[kind] is None else f"{path}:2") in (
        captured.err)


def test_cache_from_environment_is_checked_too(tmp_path, capsys, monkeypatch):
    path = tmp_path / "counts.jsonl"
    path.write_bytes(BROKEN["cut_last_line"])
    monkeypatch.setenv("K3_CACHE", str(path))
    assert main(["modularity", "--primes", "3"]) == 2
    assert f"{path}:2" in capsys.readouterr().err
    monkeypatch.setenv("K3_CACHE", str(tmp_path))  # a directory
    assert main(["modularity", "--primes", "3..7"]) == 2
    assert f"{tmp_path}: Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bqf", "reduce", "--form", "3,2,5"],
    ["inose", "--form", "2,1,3"],
    ["kuwata", "--n", "3", "--relation", "not-isogenous"],
    ["picard", "--p2", "1,-6,25", "--q", "5"],
])
def test_jobs_that_never_count_ignore_the_cache(tmp_path, capsys,
                                                monkeypatch, argv):
    path = tmp_path / "counts.jsonl"
    path.write_bytes(BROKEN["cut_last_line"])
    monkeypatch.setenv("K3_CACHE", str(path))
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert "cache" not in report
    assert main(["count", "--model", "diagonal", "--coeffs", "1,1,1,1",
                 "--p", "5"]) == 2
    assert f"{path}:2" in capsys.readouterr().err


@pytest.mark.parametrize("where", [".", "missing/dir/report.json"])
def test_unwritable_report_exits_2(tmp_path, capsys, where):
    out = tmp_path / where
    assert main(["bqf", "reduce", "--form", "3,2,5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"k3: usage error: cannot write {out}: ")
