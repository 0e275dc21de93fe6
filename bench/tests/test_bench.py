"""Tests of the benchmark itself (not collected by the library's suite).

    python -m pytest bench/tests -q

The traced-versus-untraced test runs every workload's job list twice,
which takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from checks import Checker  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_and_fixes_the_size(workload):
    first = make_jobs(workload, 7, "counts.jsonl")
    assert first == make_jobs(workload, 7, "counts.jsonl")
    other = make_jobs(workload, 8, "counts.jsonl")
    assert [j.argv for j in other] != [j.argv for j in first]
    def shape(jobs):
        return [(j.kind, j.argv[0], j.expect.get("p"), j.expect.get("r"))
                for j in jobs]
    assert shape(other) == shape(first)


def _report(tmp_path, job):
    argv = [a.replace(run.CACHE, str(tmp_path / "c.jsonl")) for a in job.argv]
    out, err = tmp_path / "out", tmp_path / "err"
    code, _, _ = run.spawn(["-m", "k3arith.cli", *argv], out, err, run.child_env())
    assert code == 0, err.read_text()
    return json.loads(out.read_text())


def test_altered_count_is_reported_as_failed(tmp_path):
    checker = Checker(run.SRC)
    for job in make_jobs("ext-tower", 3, "unused")[2:]:  # q up to 169
        report = _report(tmp_path, job)
        assert checker.check(job, report) is None
        report["results"]["counts"][-1]["count"] += 1
        assert checker.check(job, report) is not None

    job = make_jobs("prime-scan", 3, "unused")[1]
    report = _report(tmp_path, job)
    report["results"]["entries"][0]["counted"] += 1
    assert checker.check(job, report) is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_results_equal_untraced(workload, tmp_path):
    env = run.child_env()
    jobs = run.setup(workload, 5, tmp_path, env)
    plain, traced = run.run_round(jobs, tmp_path / "round", env, True)
    checker = Checker(run.SRC)
    run.check_runs(plain + traced, checker)
    for a, b in zip(plain, traced):
        assert a.error is None and b.error is None, (a.error, b.error)
        assert a.results == b.results
        assert json.loads(b.spans.read_text())["spans"]


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_rel", "job_p50_rel", "peak_rss_mb", "setup_s"}


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "small-jobs", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
