"""A grammar fuzz gate for the CLI: every subcommand, in-process.

One hypothesis strategy per subcommand draws argv lists from its grammar,
with no `--force`: integers from 0 through 2^63 to 10^400, either sign
where the grammar takes a sign, comma lists one entry too short, right or
one too long, `--primes` as lists or as ranges of up to 10^3 integers.
Every example must
- exit 0, 1 or 2 (no exception leaves `cli.main`, so no traceback);
- on exit 0, print strict JSON (no NaN or Infinity); on exit 1, either
  such a report or none beside a "verification failure" line;
- on exit 2, come back within 1 s.
Examples are derandomized (tests/conftest.py).  K3_FUZZ_SCALE multiplies
the examples of each subcommand; CI runs 10 times as many under `ulimit
-v`.
"""

import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
# every example is timed warm, as in a process that has run one before:
# numpy (the scans) and sympy (isprime past 3.3e24) are loaded here, as an
# import alone took 2 s under -O with no bytecode written
import numpy  # noqa: E402, F401
import sympy  # noqa: E402, F401

from k3arith.cli import main  # noqa: E402

EXAMPLES = 30 * int(os.environ.get("K3_FUZZ_SCALE", "1"))
EXIT_2_SECONDS = 1.0

INTS = st.one_of(st.integers(0, 64), st.integers(2 ** 63 - 2, 2 ** 63 + 2),
                 st.integers(0, 10 ** 400))
SIGNED = st.one_of(INTS, INTS.map(lambda n: -n))
PRIMES = st.one_of(st.sampled_from([2, 3, 5, 7, 13, 101, 1009]), INTS)


def _csv(n, first=SIGNED, rest=SIGNED):
    """A comma list of n integers, or of n - 1 or n + 1, half as often."""
    return st.sampled_from([n, n, n - 1, n + 1]).flatmap(
        lambda k: st.tuples(first, st.lists(rest, min_size=k - 1,
                                            max_size=k - 1))).map(
        lambda t: ",".join(map(str, [t[0]] + t[1])))


def _opt(name, value):
    """[name, value] or nothing."""
    return st.one_of(st.just([]), value.map(lambda v: [name, str(v)]))


def _one(strategy):
    return strategy.map(lambda v: [str(v)])


def _argv(*parts):
    """argv from fixed strings and strategies of token lists."""
    return st.tuples(*[st.just([p]) if isinstance(p, str) else p
                       for p in parts]).map(lambda t: sum(t, []))


FORM = _csv(3, first=INTS)  # a > 0 and c > 0 make most of them definite
PRIME_LIST = st.one_of(
    st.lists(PRIMES, min_size=1, max_size=4).map(
        lambda xs: ",".join(map(str, xs))),
    st.tuples(INTS, st.integers(0, 10 ** 3)).map(
        lambda t: f"{t[0]}..{t[0] + t[1]}"))
MODELS = {"quartic": 35, "sextic": 28, "diagonal": 4}
STRATEGIES = {
    "count": st.sampled_from(sorted(MODELS)).flatmap(lambda m: _argv(
        "count", "--model", m, "--coeffs", _one(_csv(MODELS[m])),
        "--p", _one(PRIMES), _opt("--r", st.one_of(st.integers(1, 4), SIGNED)),
        _opt("--jobs", st.integers(0, 2)))),
    "zeta": st.just(None),  # built per test: it needs a count file
    "picard": _argv(
        "picard", "--p2", _one(_csv(23, first=st.just(1))),
        "--q", _one(PRIMES), st.one_of(st.just([]), _opt("--rho", SIGNED).map(
            lambda rho: ["--artin-tate"] + rho))),
    "bqf reduce": _argv("bqf", "reduce", "--form", _one(FORM)),
    "bqf classgroup": _argv("bqf", "classgroup", "--d", _one(
        st.one_of(INTS.map(lambda n: -n), SIGNED))),
    "bqf compose": _argv("bqf", "compose", "--f", _one(FORM),
                         "--g", _one(FORM)),
    "bqf h1list": _argv("bqf", "h1list", "--bound", _one(SIGNED)),
    "inose": _argv("inose", "--form", _one(FORM)),
    "kuwata": _argv(
        "kuwata", "--n", _one(st.one_of(st.integers(0, 7), SIGNED)),
        "--relation", _one(st.sampled_from([
            "not-isogenous", "isogenous-no-cm", "isogenous-cm", "isogenous"])),
        st.sampled_from([[], ["--isomorphic"]])),
    "modularity": _argv("modularity", "--primes", _one(PRIME_LIST)),
    "sieve": _argv(
        "sieve", "--primes", _one(PRIME_LIST),
        st.one_of(st.just([]), _opt("--height", SIGNED).map(
            lambda h: ["--lift"] + h))),
}


def _zeta(path):
    """A count file of one surface over one prime at r = 1..k, and maybe
    one more record anywhere, each count 1 + q^2r plus a trace; its path is
    the argument."""
    trace = st.one_of(st.integers(-50, 50), SIGNED)
    extra = st.lists(st.tuples(st.integers(1, 12), trace), max_size=1)

    def write(drawn):
        p, traces, more, known = drawn
        with open(path, "w", encoding="utf-8") as fh:
            for r, t in list(enumerate(traces, 1)) + more:
                n = 1 + p ** (2 * r) + t if abs(p) < 10 ** 5 else t
                fh.write(json.dumps({"surface": "ab", "p": p, "r": r,
                                     "count": str(n)}) + "\n")
        return ["zeta", "--counts", str(path)] + known
    return st.tuples(PRIMES, st.lists(trace, max_size=12), extra,
                     _opt("--known-factor", _csv(3, first=st.just(1)))).map(
        write)


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - started
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert elapsed < EXIT_2_SECONDS, (argv, elapsed, err)
    elif out or code == 0:
        json.dumps(json.loads(out), allow_nan=False)  # strict JSON
    else:
        assert err.startswith("k3: verification failure: "), (argv, err)


# inputs that failed before, run ahead of the drawn ones: a traceback, and
# refusals after 3 to 9 s (the ranges, each listed and then refused by the
# walk; now refused on the walk's floor before listing) or
# after about 1.2 s (the lift)
KNOWN = {
    "inose": [["inose", "--form", f"1,0,{5 * 10 ** 307}"],
              ["inose", "--form", f"1,{2 * 10 ** 400},{10 ** 800 + 1}"]],
    "modularity": [["modularity", "--primes", "3..1999000"],
                   ["modularity", "--primes", "3..1000003"],
                   ["modularity", "--primes", "4200000..6000000"],
                   ["modularity", "--primes",
                    f"{10 ** 30}..{10 ** 30 + 2 * 10 ** 6}"]],
    "sieve": [["sieve", "--primes", "5..1999000"],
              ["sieve", "--primes", "7..275", "--lift"],
              ["sieve", "--primes", "4200000..6000000"]],
}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_every_argv_exits_cleanly(monkeypatch, tmp_path, name):
    monkeypatch.delenv("K3_CACHE", raising=False)
    strategy = (_zeta(tmp_path / "counts.jsonl") if name == "zeta"
                else STRATEGIES[name])
    run = hypothesis.given(strategy)(_check)
    for argv in KNOWN.get(name, []):
        run = hypothesis.example(argv)(run)
    hypothesis.settings(max_examples=EXAMPLES, suppress_health_check=list(
        hypothesis.HealthCheck))(run)()
