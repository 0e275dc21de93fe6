"""No setting or report field that cannot change a result.

Only `count` takes `--jobs`: the modularity check and the CM sieve count
by closed forms, fibre counts and torus tallies, never by a scan, so
`modularity --jobs 2` and `sieve --jobs 2` are unrecognized arguments
under their own usage line, and `verify_modularity` takes no jobs.  Only
the subcommands that count open a count cache, and only their reports
carry a `cache` block: its entries, hits and misses.
"""

import inspect
import json

import pytest

from k3arith import cmmod
from k3arith.cli import main

COUNTING = [
    ["count", "--model", "diagonal", "--coeffs", "1,1,1,1", "--p", "5"],
    ["modularity", "--primes", "3..7"],
    ["sieve", "--primes", "5,13"],
]


def _report(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv", [["modularity", "--primes", "3..7"],
                                  ["sieve", "--primes", "5"]])
def test_only_count_takes_jobs(capsys, argv):
    assert main(argv + ["--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: k3 {argv[0]} ")
    assert err.endswith("error: unrecognized arguments: --jobs 2\n")
    assert main([argv[0], "--help"]) == 0
    assert "--jobs" not in capsys.readouterr().out


def test_verify_modularity_takes_no_jobs():
    assert "jobs" not in inspect.signature(cmmod.verify_modularity).parameters
    assert "jobs" in inspect.signature(cmmod.cm_sieve).parameters


def test_reports_that_open_no_cache_carry_no_cache_block(tmp_path, capsys):
    path = tmp_path / "counts.jsonl"
    _report(capsys, COUNTING[0] + ["--r", "2", "--cache", str(path)])
    known = [1]  # (1 - 5T)^8 (1 + 5T)^12, the rest of P2 over F_5
    for c in [-5] * 8 + [5] * 12:
        known = [a + c * b for a, b in zip(known + [0], [0] + known)]
    for argv in (["bqf", "reduce", "--form", "3,2,5"],
                 ["zeta", "--counts", str(path),
                  "--known-factor=" + ",".join(map(str, known))]):
        assert "cache" not in _report(capsys, argv)


@pytest.mark.parametrize("argv", COUNTING, ids=lambda argv: argv[0])
def test_a_counting_report_has_entries_hits_and_misses(tmp_path, capsys,
                                                       argv):
    report = _report(capsys, argv + ["--cache", str(tmp_path / "c.jsonl")])
    assert sorted(report["cache"]) == ["entries", "hits", "misses"]
    assert report["cache"]["misses"] == report["cache"]["entries"] > 0
