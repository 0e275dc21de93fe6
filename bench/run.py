"""The k3arith benchmark: seeded `k3` job mixes, timed end to end.

    python3 bench/run.py --workload prime-scan --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

Each job is a fresh `python -m k3arith.cli ...` process, started after the
previous one ends (a closed loop with one client), so a job's wall time
includes interpreter start and imports.  A pass runs the workload's job
list once; passes repeat until --seconds would be exceeded (at least one
runs), and each of the first three follows a set-up.  Every job's report is
checked by an independent route (checks.py); a job fails if it exits
non-zero or its check fails.

--trace 0 runs reference.py before every job and after the last, and
prints the end-to-end metrics: wall_rel and job_p50_rel are the sum and the
median over the job list of each job's wall time in reference runs (its
wall time over the mean of the reference runs right before and after it,
averaged over the passes), setup_s the median set-up time; the wall times
in seconds are printed in the summary.  --trace 1 runs every job twice in
turn, untraced and then through tracer.py in its own fresh interpreter,
and prints the per-layer metrics; a traced job also fails if its `results`
differ from its untraced twin's.  The last line of standard output is one
JSON object: {correct, attempted, failed, metrics}.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Checker
from tracer import PER_LAYER, layer_totals
from workloads import CACHE, WORKLOADS, Job, counts_file_argv, make_jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_PROBES = 5
JOB_TIMEOUT_S = 120


@dataclass
class JobRun:
    job: Job
    wall: float
    rss_mb: float
    code: int
    out: Path
    err: Path
    spans: Path = None
    ref: float = None  # mean wall time of the reference runs around it
    report: dict = None
    error: str = None

    @property
    def results(self):
        return json.dumps(self.report["results"], sort_keys=True)


def child_env():
    env = dict(os.environ)
    env.pop("K3_CACHE", None)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), env["PYTHONPATH"]])
    else:
        env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args, out, err, env):
    """Run `python args...` with stdout and stderr to files.  Returns the
    exit code, the wall time and the peak RSS of this child alone, read
    from its own rusage (RUSAGE_CHILDREN would be a high-water mark over
    every child the benchmark has reaped)."""
    argv = [sys.executable, *map(str, args)]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            if not select.select([pidfd], [], [], JOB_TIMEOUT_S)[0]:
                os.kill(pid, signal.SIGKILL)
        finally:
            os.close(pidfd)
    except BaseException:  # interrupted: stop the child before leaving
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def run_reference(round_dir, env):
    """Wall time of one run of reference.py."""
    out, err = round_dir / "reference.out", round_dir / "reference.err"
    code, wall, _ = spawn([BENCH / "reference.py"], out, err, env)
    if code != 0:
        raise RuntimeError(f"reference task exited {code}: "
                           f"{err.read_text(errors='replace')[-500:]}")
    return wall


def run_round(jobs, round_dir, env, trace):
    """Run the job list once untraced and, with trace, once more through
    tracer.py, job by job in turn, so that each traced job runs right after
    its untraced twin.  Each copy of the list has its own fresh count
    cache.  Without trace, the reference task runs before every job and
    after the last, and each untraced job gets the mean of the two around
    it.  Returns one list of JobRuns per copy."""
    copies = [(round_dir / "plain", False)]
    if trace:
        copies.append((round_dir / "traced", True))
    for copy_dir, _ in copies:
        copy_dir.mkdir(parents=True)
    runs = [[] for _ in copies]
    refs = []
    for i, job in enumerate(jobs):
        if not trace:
            refs.append(run_reference(round_dir, env))
        for (copy_dir, traced), copy_runs in zip(copies, runs):
            cache = str(copy_dir / "counts.jsonl")
            argv = [a.replace(CACHE, cache) for a in job.argv]
            spans = copy_dir / f"{i}.spans.json" if traced else None
            prefix = ([BENCH / "tracer.py", spans] if traced
                      else ["-m", "k3arith.cli"])
            out, err = copy_dir / f"{i}.out", copy_dir / f"{i}.err"
            code, wall, rss = spawn(prefix + argv, out, err, env)
            copy_runs.append(JobRun(job, wall, rss, code, out, err, spans))
    if not trace:
        refs.append(run_reference(round_dir, env))
        for run, before, after in zip(runs[0], refs, refs[1:]):
            run.ref = (before + after) / 2
    return runs


def check_runs(runs, checker):
    for run in runs:
        if run.code != 0:
            tail = run.err.read_text(errors="replace").strip().splitlines()
            run.error = f"exit code {run.code} {' '.join(tail[-1:])}".strip()
            continue
        try:
            run.report = json.loads(run.out.read_text())
        except ValueError as exc:
            run.error = f"unreadable report: {exc}"
            continue
        run.error = checker.check(run.job, run.report)


def setup(workload, seed, work, env):
    """Untimed preparation: generate the jobs (class-number filtering
    included), run one `k3` process so that imports are compiled, and for
    small-jobs write the count file `zeta` reads."""
    setup_dir = work / "setup"
    shutil.rmtree(setup_dir, ignore_errors=True)
    setup_dir.mkdir(parents=True)
    counts = setup_dir / "fermat_f5.jsonl"
    jobs = make_jobs(workload, seed, str(counts))
    steps = [["-m", "k3arith.cli", "--version"]]
    if workload == "small-jobs":
        steps.append(["-m", "k3arith.cli", *counts_file_argv(str(counts))])
    for i, args in enumerate(steps):
        out, err = setup_dir / f"setup{i}.out", setup_dir / f"setup{i}.err"
        code, _, _ = spawn(args, out, err, env)
        if code != 0:
            raise RuntimeError(f"set-up step {args} exited {code}: "
                               f"{err.read_text(errors='replace')[-500:]}")
    return jobs


def import_seconds(work, env):
    """Median of (fresh `import k3arith`) minus (bare interpreter)."""
    diffs = []
    for _ in range(IMPORT_PROBES):
        out, err = work / "probe.out", work / "probe.err"
        _, bare, _ = spawn(["-c", "pass"], out, err, env)
        code, full, _ = spawn(["-c", "import k3arith"], out, err, env)
        if code != 0:
            raise RuntimeError("import k3arith failed")
        diffs.append(full - bare)
    return statistics.median(diffs)


def timed_setup(workload, seed, work, env, setup_times, jobs=None):
    """One set-up, timed into setup_times; its jobs must equal `jobs`."""
    start = time.perf_counter()
    made = setup(workload, seed, work, env)
    setup_times.append(time.perf_counter() - start)
    if jobs is not None and made != jobs:
        raise RuntimeError("job generation is not deterministic")
    return made


def measure(workload, seed, seconds, trace, work):
    """The first SETUP_REPEATS passes are each preceded by a set-up, so that
    the set-up samples are spread over the run like the passes."""
    env = child_env()
    checker = Checker(SRC)
    setup_times = []
    plain, traced = [], []  # one list of JobRuns per pass
    jobs = None
    start = time.perf_counter()
    while True:
        if len(setup_times) < SETUP_REPEATS:
            jobs = timed_setup(workload, seed, work, env, setup_times, jobs)
        runs = run_round(jobs, work / f"round{len(plain)}", env, trace)
        plain.append(runs[0])
        traced.extend(runs[1:])
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        timed_setup(workload, seed, work, env, setup_times, jobs)

    all_runs = [r for runs in plain + traced for r in runs]
    check_runs(all_runs, checker)
    for runs, truns in zip(plain, traced):
        for run, trun in zip(runs, truns):
            if (trun.error is None and run.error is None
                    and trun.results != run.results):
                trun.error = "traced results differ from the untraced run"
    failed = [r for r in all_runs if r.error]

    summary = {
        "workload": workload, "seed": seed, "jobs": len(jobs),
        "attempted": len(all_runs), "failed": len(failed),
        "errors": sorted({f"{r.job.argv[0]}: {r.error}" for r in failed}),
        "walls": [pass_wall(runs) for runs in plain],
        "traced_walls": [pass_wall(runs) for runs in traced],
    }
    if not trace:
        summary["refs"] = [statistics.fmean(r.ref for r in runs)
                           for runs in plain]
        summary["seconds"] = {
            "wall_s": statistics.median(summary["walls"]),
            "job_p50_s": statistics.median(
                statistics.median(r.wall for r in job_runs)
                for job_runs in zip(*plain)),
        }
        # Per job: the mean over the passes of its wall time in reference
        # runs, each run against the reference runs around it.  The shared
        # host slows every process, a bare `python -c pass` included, by up
        # to 2x in phases that last from seconds to minutes; the reference
        # on the same CPU slows with the job, so the ratio moves far less
        # than the wall time.
        rel = [statistics.fmean(r.wall / r.ref for r in job_runs)
               for job_runs in zip(*plain)]
        metrics = {
            "wall_rel": (sum(rel), "ref"),
            "job_p50_rel": (statistics.median(rel), "ref"),
            "peak_rss_mb": (max(r.rss_mb for runs in plain for r in runs),
                            "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    else:
        metrics = layer_metrics(plain, traced, import_seconds(work, env))
    return summary, metrics


def pass_wall(runs):
    """Wall time of one pass: its jobs run back to back."""
    return sum(r.wall for r in runs)


def layer_metrics(plain, traced, import_s):
    per_pass = []
    for runs in traced:
        per_pass.append(layer_totals(
            json.loads(r.spans.read_text()) for r in runs if r.spans.exists()))
    values = {name: statistics.median(totals.get(name, 0) for totals in per_pass)
              for name, _ in PER_LAYER}
    if values["count.quartic_s"]:
        values["count.points_per_s"] = (values["count.points"]
                                        / values["count.quartic_s"])
    lookups = values["cache.hits"] + values["cache.misses"]
    if lookups:
        values["cache.hit_ratio"] = values["cache.hits"] / lookups
    work = [sum(r.report["timing"]["seconds"] for r in runs if r.report)
            for runs in plain]
    values["cli.work_s"] = statistics.median(work)
    values["cli.overhead_s"] = statistics.median(
        pass_wall(runs) - w for runs, w in zip(plain, work))
    values["cli.import_s"] = import_s
    values["trace.overhead_s"] = statistics.median(
        pass_wall(truns) - pass_wall(runs) for runs, truns in zip(plain, traced))
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def print_summary(summary, metrics):
    s = summary
    print(f"{s['workload']} seed {s['seed']}: {len(s['walls'])} passes of "
          f"{s['jobs']} jobs")
    for label in ("walls", "traced_walls", "refs"):
        if s.get(label):
            print(f"  {label.replace('_', ' ')} of the passes (s): "
                  + ", ".join(f"{w:.3f}" for w in s[label]))
    for name, value in s.get("seconds", {}).items():
        print(f"  {name:22s} {value:.6g} s (median over the passes)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:22s} {value:.6g} {unit}")
    print(f"  {'failed_frac':22s} {s['failed'] / s['attempted']:.6g} "
          f"({s['failed']} of {s['attempted']} jobs)")
    for err in s["errors"]:
        print(f"  FAILED {err}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running job is killed and scratch files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # Jobs and reference tasks inherit this: all run on one CPU, so the
    # reference sees the host as the jobs next to it do (on a shared host,
    # each CPU is slowed by its own neighbours).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "k3arith" / "cli.py").is_file():
        print(f"bench: no k3arith sources under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        work = ROOT / ".bench_work" / f"{workload}-{args.seed}-{os.getpid()}"
        try:
            summary, metrics = measure(workload, args.seed, args.seconds,
                                       args.trace, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print_summary(summary, metrics)
        print(json.dumps({
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
