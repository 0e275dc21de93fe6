"""Count cache persistence and the `k3` command-line front end.

CLI tests drive main(argv) in-process and parse the JSON report from
captured stdout.  Reports must be byte-stable across runs once the timing
block is dropped; exit codes are 0 (ok), 1 (verification failure), and
2 (usage).
"""

import json

import pytest

from k3arith.cache import CountCache
from k3arith.cli import main
from k3arith.count import fermat_quartic
from k3arith.errors import DataError, IntegrityError


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


KNOWN_5 = _mul(_power([1, -5], 8), _power([1, 5], 12))


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


# --- cache ---------------------------------------------------------------------

def test_cache_roundtrip(tmp_path):
    path = tmp_path / "counts.jsonl"
    cache = CountCache(path)
    cache.record("abc", 5, 1, 0)
    cache.record("abc", 5, 2, 1112)
    reloaded = CountCache(path)
    assert len(reloaded) == 2
    assert reloaded.lookup("abc", 5, 2) == 1112
    assert reloaded.lookup("abc", 5, 3) is None
    assert reloaded.stats == {"entries": 2, "hits": 1, "misses": 1}
    recs = reloaded.as_records()
    assert [(r.p, r.r, r.count) for r in recs] == [(5, 1, 0), (5, 2, 1112)]


def test_cache_memory_only():
    cache = CountCache()
    cache.record("abc", 3, 1, 16)
    assert cache.lookup("abc", 3, 1) == 16
    assert cache.path is None


def test_cache_benign_duplicate_appends_nothing(tmp_path):
    path = tmp_path / "counts.jsonl"
    cache = CountCache(path)
    cache.record("abc", 5, 1, 0)
    cache.record("abc", 5, 1, 0)
    assert path.read_text().count("\n") == 1


def test_cache_conflicts(tmp_path):
    cache = CountCache(tmp_path / "counts.jsonl")
    cache.record("abc", 5, 1, 0)
    with pytest.raises(IntegrityError):
        cache.record("abc", 5, 1, 4)
    path = tmp_path / "bad.jsonl"
    path.write_text('{"surface": "x", "p": 5, "r": 1, "count": 1}\n'
                    '{"surface": "x", "p": 5, "r": 1, "count": 2}\n')
    with pytest.raises(IntegrityError):
        CountCache(path)


def test_cache_big_counts_serialized_as_strings(tmp_path):
    path = tmp_path / "counts.jsonl"
    big = 2 ** 60 + 7
    CountCache(path).record("abc", 101, 5, big)
    raw = json.loads(path.read_text())
    assert raw["count"] == str(big)
    assert CountCache(path).lookup("abc", 101, 5) == big


def test_cache_skips_meta_lines_of_older_files(tmp_path):
    path = tmp_path / "counts.jsonl"
    path.write_text('{"surface": "abc", "p": 5, "r": 1, "count": 0}\n'
                    '{"meta": "verify", "verified": true, "note": "x"}\n'
                    '{"surface": "abc", "p": 5, "r": 2, "count": 1112}\n')
    cache = CountCache(path)
    assert [(r.p, r.r, r.count) for r in cache.as_records()] == [
        (5, 1, 0), (5, 2, 1112)]
    assert cache.stats == {"entries": 2, "hits": 0, "misses": 0}


def test_cache_rejects_malformed_lines(tmp_path):
    cases = [
        "not json at all\n",
        "[1, 2, 3]\n",
        '{"surface": "x", "p": 5, "count": 1}\n',
        '{"surface": "x", "p": 5, "r": 1, "count": true}\n',
        '{"surface": "x", "p": 5, "r": 1, "count": "12zz"}\n',
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.jsonl"
        path.write_text('{"surface": "ok", "p": 3, "r": 1, "count": 16}\n'
                        + text)
        with pytest.raises(DataError) as info:
            CountCache(path)
        assert ":2" in str(info.value)  # the offending line number


def test_cache_skips_blank_lines(tmp_path):
    path = tmp_path / "counts.jsonl"
    path.write_text('\n{"surface": "x", "p": 5, "r": 1, "count": 1}\n\n')
    assert len(CountCache(path)) == 1


# --- CLI: reports and exit codes ---------------------------------------------------

def test_cli_kuwata_report(capsys):
    code, report, _ = _run(capsys, "kuwata", "--n", "3",
                           "--relation", "not-isogenous")
    assert code == 0
    assert report["schema"] == "k3arith-report/1"
    assert report["tool"]["name"] == "k3arith"
    results = report["results"]
    assert results["rank"] == 8
    assert results["configuration"] == {"I0*": 2, "I1": 12}
    assert results["euler"] == 24
    assert results["rho"] == 18
    assert "seconds" in report["timing"] and "timing" not in results
    assert report["config"]["subcommand"] == "kuwata"


def test_cli_report_deterministic(capsys):
    code1, report1, _ = _run(capsys, "kuwata", "--n", "5",
                             "--relation", "isogenous-cm", "--isomorphic")
    code2, report2, _ = _run(capsys, "kuwata", "--n", "5",
                             "--relation", "isogenous-cm", "--isomorphic")
    assert code1 == code2 == 0
    for rep in (report1, report2):
        rep.pop("timing")
    assert report1 == report2


def test_cli_modularity(capsys):
    code, report, _ = _run(capsys, "modularity", "--primes", "3,5")
    assert code == 0
    assert report["results"]["all_agree"] is True
    assert [e["p"] for e in report["results"]["entries"]] == [3, 5]


def test_cli_modularity_range_syntax(capsys):
    code, report, _ = _run(capsys, "modularity", "--primes", "3..7")
    assert code == 0
    assert report["results"]["primes"] == [3, 5, 7]


def test_cli_modularity_poisoned_cache_exits_1(tmp_path, capsys):
    path = tmp_path / "counts.jsonl"
    CountCache(path).record(fermat_quartic().surface_hash(), 3, 1, 17)
    code, report, _ = _run(capsys, "modularity", "--primes", "3",
                           "--cache", str(path))
    assert code == 1
    assert report["results"]["all_agree"] is False
    assert report["results"]["mismatches"] == [3]


def test_cli_usage_errors(capsys):
    code, _, _ = _run(capsys, "count", "--model", "quartic", "--p", "5")
    assert code == 2  # argparse: --coeffs is required
    code, _, err = _run(capsys, "count", "--model", "quartic",
                        "--coeffs", "1,2", "--p", "5")
    assert code == 2 and "usage error" in err
    code, _, _ = _run(capsys, "bqf", "frobnicate")
    assert code == 2
    code, _, err = _run(capsys, "picard", "--p2", "1,-5", "--q", "5",
                        "--artin-tate")
    assert code == 2 and "--rho" in err


@pytest.mark.parametrize("argv", [
    ("bqf", "classgroup"),
    ("bqf", "reduce"),
    ("bqf", "compose", "--f", "2,1,3"),
    ("bqf", "h1list"),
])
def test_cli_bqf_action_without_its_option_is_a_usage_error(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert "required" in err and "Traceback" not in err


@pytest.mark.parametrize("p", ["4", "1", "0", "-5"])
def test_cli_count_non_prime_p_is_a_usage_error(capsys, p):
    code, _, err = _run(capsys, "count", "--model", "diagonal",
                        "--coeffs", "1,1,1,1", "--p", p)
    assert code == 2 and "is not prime" in err


def test_cli_version_and_help(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_cli_bqf_h1list(capsys):
    code, report, _ = _run(capsys, "bqf", "h1list", "--bound", "200")
    assert code == 0
    results = report["results"]
    assert results["count"] == 13
    assert results["discriminants"] == [-3, -4, -7, -8, -11, -12, -16, -19,
                                        -27, -28, -43, -67, -163]


def test_cli_bqf_reduce_compose_classgroup(capsys):
    code, report, _ = _run(capsys, "bqf", "reduce", "--form", "3,4,2")
    assert code == 0
    assert report["results"]["reduced"] == [1, 0, 2]
    assert report["results"]["disc"] == -8
    code, report, _ = _run(capsys, "bqf", "compose",
                           "--f", "2,1,3", "--g", "2,-1,3")
    assert code == 0
    assert report["results"]["product"] == [1, 1, 6]
    code, report, _ = _run(capsys, "bqf", "classgroup", "--d", "-23")
    assert code == 0
    assert report["results"]["h"] == 3
    assert report["results"]["identity"] == [1, 1, 6]


def test_cli_inose(capsys):
    code, report, _ = _run(capsys, "inose", "--form", "1,0,1")
    assert code == 0
    results = report["results"]
    assert abs(results["A"]["re"] - 1) <= 1e-6
    assert abs(results["A"]["im"]) <= 1e-6
    assert abs(results["B"]["re"]) <= 1e-6
    assert results["tau"] == {"re": 0.0, "im": 1.0}
    assert max(results["relation_defects"]) <= 1e-9


def test_cli_count_zeta_picard_pipeline(tmp_path, capsys):
    cache_path = tmp_path / "counts.jsonl"
    code, report, _ = _run(capsys, "count", "--model", "diagonal",
                           "--coeffs", "1,1,1,1", "--p", "5", "--r", "2",
                           "--cache", str(cache_path))
    assert code == 0
    assert [c["count"] for c in report["results"]["counts"]] == [0, 1112]

    known_csv = ",".join(str(c) for c in KNOWN_5)
    code, report, _ = _run(capsys, "zeta", "--counts", str(cache_path),
                           "--known-factor", known_csv)
    assert code == 0
    results = report["results"]
    assert results["completed"] == [1, 6, 25]
    assert results["epsilon"] == 1
    assert results["degree"] == 22
    p2 = results["p2"]

    code, report, _ = _run(capsys, "picard", "--p2",
                           ",".join(str(c) for c in p2), "--q", "5",
                           "--artin-tate", "--rho", "8")
    assert code == 0
    results = report["results"]
    assert results["bound"] == 20
    assert results["cyclotomic_factors"] == [
        {"m": 1, "multiplicity": 8}, {"m": 2, "multiplicity": 12}]
    assert results["artin_tate"] == {"rho": 8, "value": 65536,
                                     "square_class": 1}


def test_cli_zeta_empty_counts_is_usage_error(tmp_path, capsys):
    code, _, err = _run(capsys, "zeta", "--counts",
                        str(tmp_path / "missing.jsonl"))
    assert code == 2 and "usage error" in err


def test_cli_cache_env_var(tmp_path, capsys, monkeypatch):
    path = tmp_path / "envcache.jsonl"
    monkeypatch.setenv("K3_CACHE", str(path))
    code, report, _ = _run(capsys, "count", "--model", "diagonal",
                           "--coeffs", "1,1,1,1", "--p", "5")
    assert code == 0
    assert path.exists()
    assert report["cache"]["entries"] == 1


def test_cli_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, report, _ = _run(capsys, "kuwata", "--n", "1",
                           "--relation", "isogenous-cm", "--out", str(out))
    assert code == 0 and report is None  # nothing on stdout
    saved = json.loads(out.read_text())
    assert saved["results"]["rank"] == 2


def test_cli_sieve(capsys):
    code, report, _ = _run(capsys, "sieve", "--primes", "5,13",
                           "--lift", "--height", "20")
    assert code == 0
    results = report["results"]
    assert 0 in results["per_prime_residues"]["5"]
    assert 0 in results["per_prime_residues"]["13"]
    assert 0 in results["common_small_integers"]
    assert [[0]] == [orbit for orbit in results["symmetry_orbits"]["13"]
                     if 0 in orbit]
    zero_lift = [entry for entry in results["lifts"]
                 if entry["parameter"] == 0]
    assert zero_lift and zero_lift[0]["residues"] == [[5, 0], [13, 0]]
