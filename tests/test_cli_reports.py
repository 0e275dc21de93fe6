"""Report encoding and option parsing of the `k3` front end.

Every integer of absolute value >= 2^53 in `results` is a string, whichever
subcommand produced it; options are read only when spelled out in full;
a prime list that comes out empty is a usage error.
"""

import json

import pytest

from k3arith.cli import main

BIG = 2 ** 53


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def _bare_big_ints(x):
    """Integers of absolute value >= 2^53 left as JSON numbers."""
    if isinstance(x, dict):
        return [n for v in x.values() for n in _bare_big_ints(v)]
    if isinstance(x, list):
        return [n for v in x for n in _bare_big_ints(v)]
    if isinstance(x, int) and not isinstance(x, bool) and abs(x) >= BIG:
        return [x]
    return []


def _mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _power(u, k):
    out = [1]
    for _ in range(k):
        out = _mul(out, u)
    return out


def test_zeta_known_factor_big_ints_are_strings(tmp_path, capsys):
    counts = str(tmp_path / "c.jsonl")
    assert _run(capsys, "count", "--model", "diagonal", "--coeffs", "1,1,1,1",
                "--p", "13", "--r", "1", "--cache", counts)[0] == 0
    known = _mul(_power([1, -13], 8), _power([1, 13], 12))
    code, report, _ = _run(capsys, "zeta", "--counts", counts,
                           "--known-factor", ",".join(map(str, known)))
    assert code == 0
    results = report["results"]
    assert results["known"][-1] == str(13 ** 20) == "19004963774880799438801"
    assert _bare_big_ints(results) == []


def test_bqf_reduce_big_ints_are_strings(capsys):
    code, report, _ = _run(capsys, "bqf", "reduce",
                           "--form", "1,0,10000000000000000000")
    assert code == 0
    results = report["results"]
    assert results["input"] == results["reduced"] == [
        1, 0, "10000000000000000000"]
    assert results["disc"] == "-40000000000000000000"
    assert _bare_big_ints(results) == []


def test_picard_big_q_is_a_string(capsys):
    q = 9007199254740997  # prime, just above 2^53
    code, report, _ = _run(capsys, "picard", "--p2", f"1,-{q}", "--q", str(q))
    assert code == 0
    assert report["results"]["q"] == str(q)
    assert _bare_big_ints(report["results"]) == []


@pytest.mark.parametrize("argv", [
    ("bqf", "reduce", "--f", "2,1,3"),
    ("bqf", "reduce", "--for", "2,1,3"),
    ("count", "--model", "diagonal", "--coeffs", "1,1,1,1", "--p", "5",
     "--o", "x"),
    ("count", "--mod", "diagonal", "--coeffs", "1,1,1,1", "--p", "5"),
    ("picard", "--p2", "1,-10,25", "--q", "5", "--artin", "--rho", "2"),
])
def test_abbreviated_options_are_rejected(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, report, _ = _run(capsys, *argv)
    assert code == 2 and report is None
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["modularity", "sieve"])
@pytest.mark.parametrize("primes", ["8..10", "", "20..22"])
def test_empty_prime_list_is_a_usage_error(capsys, command, primes):
    code, report, err = _run(capsys, command, "--primes", primes)
    assert code == 2 and report is None
    assert "usage error: no primes supplied" in err
