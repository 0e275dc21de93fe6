"""Command-line front end: `k3 <subcommand>` producing JSON reports.

Every report carries the schema tag, tool version, an echo of the parsed
configuration, the results object and wall-clock timing; the subcommands
that count (`count`, `modularity`, `sieve`), the only ones that open a
count cache, add its entries, hits and misses.  Results are a pure
function of (config, cache): timing lives outside the results object so
that results bytes are reproducible across runs and worker counts.

Exit codes: 0 success, 1 mathematical verification failure, 2 usage error.

Start-up loads only argparse, json, the errors and the count cache: each
handler imports the layers its subcommand calls, so `k3 --version` loads no
layer, and calls their functions through the module (`bqf.reduce(f)`), so
that a function rebound there is the one that runs.

Past the imports, a process also pays for cyclic garbage collection: the
collections during a run and the interpreter's final ones at exit, which
walk every object numpy and the layers loaded (timings in README).  A `k3`
run makes no cyclic garbage that grows with its work, so `run()`, the
process entry, turns the collector off and freezes what is left before the
interpreter finalizes.  `main(argv)`, for in-process callers, leaves the
collector alone.
"""

import argparse
import gc
import json
import os
import re
import sys
import time

from . import __version__
from .cache import CountCache, _encode_count
from .errors import (DataError, DomainError, IntegrityError, K3ArithError,
                     UnsupportedError, UsageError)

SCHEMA = "k3arith-report/1"

# options taking comma-separated integers, any of which may be negative
_CSV_OPTIONS = ("--coeffs", "--p2", "--known-factor", "--form", "--f", "--g")
_NEGATIVE_CSV = re.compile(r"-\d[-\d, ]*")


def _enc(x):
    """JSON-safe encoding: ints as the count cache writes them, exact
    rationals as "num/den" strings, complex as {re, im} pairs."""
    if isinstance(x, bool) or x is None or isinstance(x, (str, float)):
        return x
    if isinstance(x, int):
        return _encode_count(x)
    fractions = sys.modules.get("fractions")  # loaded by whoever made one
    if fractions is not None and isinstance(x, fractions.Fraction):
        return (_enc(x.numerator) if x.denominator == 1 else
                f"{_encode_count(x.numerator)}/{_encode_count(x.denominator)}")
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, dict):
        return {str(k): _enc(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_enc(v) for v in x]
    raise TypeError(f"cannot encode {type(x).__name__} into a report")


def _csv_ints(text: str):
    toks = [tok.strip() for tok in text.split(",") if tok.strip() != ""]
    try:
        return [int(tok) for tok in toks]
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: none
        for digits in (tok[tok[:1] in ("+", "-"):] for tok in toks):
            if limit and len(digits) > limit and digits.isdigit():
                raise UsageError(f"an integer of {len(digits)} digits passes "
                                 f"Python's limit of {limit}") from None
        raise UsageError(f"expected comma-separated integers, got {text!r}")


def _attach_negative_csv(argv):
    """Rewrite `--coeffs -1,2` as `--coeffs=-1,2`.  argparse reads a value
    that starts with a minus and is not a plain number as an option, so a
    comma list opening with a negative entry only parses in the `=` form."""
    out = []
    for tok in argv:
        if out and out[-1] in _CSV_OPTIONS and _NEGATIVE_CSV.fullmatch(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _form_arg(text: str):
    from . import bqf
    vals = _csv_ints(text)
    if len(vals) != 3:
        raise UsageError("a form needs exactly three integers a,b,c")
    return bqf.BinaryQuadraticForm(*vals)


def _primes_arg(text: str):
    """A comma list "3,5,7", or the primes of an inclusive range "3..37"."""
    if ".." not in text:
        return _csv_ints(text)
    try:
        lo, hi = map(int, text.split("..", 1))
    except ValueError:
        raise UsageError(f"bad prime range {text!r}")
    from . import cmmod
    return cmmod.primes_between(lo, hi)


def _open_cache(path=None):
    """CountCache over path.  A file that does not load (bad JSON, a cut
    last line, conflicting records) is an input fault, so it becomes a
    UsageError that keeps the path:line of the bad record."""
    try:
        return CountCache(path)
    except (DataError, IntegrityError) as exc:
        raise UsageError(f"cannot load count cache: {exc}") from exc


# --- subcommand handlers: each returns (results dict, verified flag) ---------
# The results hold plain library values; main encodes them once with _enc.

# --model name -> its constructor in count
_MODELS = {"quartic": "Quartic", "sextic": "DoubleSextic",
           "diagonal": "DiagonalQuartic"}


def _cmd_count(args, cache):
    from . import count
    coeffs = tuple(_csv_ints(args.coeffs))
    surface = getattr(count, _MODELS[args.model])(coeffs)
    records = count.count_tower(surface, args.p, args.r, cache=cache,
                                jobs=args.jobs, force=args.force)
    return {
        "model": args.model,
        "surface": surface.surface_hash(),
        "counts": [{"p": rec.p, "r": rec.r, "count": rec.count}
                   for rec in records],
    }, True


def _cmd_zeta(args, cache):
    from . import zeta
    if not os.path.isfile(args.counts):
        raise UsageError(f"no count file at {args.counts}")
    tr = zeta.traces_from_counts(_open_cache(args.counts).as_records())
    known = _csv_ints(args.known_factor) if args.known_factor else None
    poly = zeta.p2_from_traces(tr, known)
    return {
        "q": poly.q,
        "traces": tr.traces,
        "epsilon": poly.epsilon,
        "known": poly.known,
        "completed": poly.completed,
        "p2": poly.coeffs,
        "degree": poly.degree,
    }, True


def _cmd_picard(args, cache):
    from . import zeta
    if args.artin_tate != (args.rho is not None):
        raise UsageError("--artin-tate needs --rho" if args.artin_tate
                         else "--rho needs --artin-tate")
    coeffs = tuple(_csv_ints(args.p2))
    poly = zeta.FrobeniusPoly(q=args.q, coeffs=coeffs)
    bound, factors = zeta.picard_upper_bound(poly)
    results = {
        "q": args.q,
        "degree": poly.degree,
        "slack": zeta.H2_DIM - poly.degree,
        "bound": bound,
        "cyclotomic_factors": [{"m": m, "multiplicity": mult}
                               for m, mult in factors],
    }
    if args.artin_tate:
        value, sclass = zeta.artin_tate_discriminant(poly, args.rho)
        results["artin_tate"] = {"rho": args.rho, "value": value,
                                 "square_class": sclass}
    return results, True


def _cmd_bqf_reduce(args, cache):
    from . import bqf
    f = _form_arg(args.form)
    return {"input": f.astuple(), "reduced": bqf.reduce(f).astuple(),
            "disc": f.disc}, True


def _cmd_bqf_classgroup(args, cache):
    from . import bqf
    grp = bqf.class_group(args.d)
    return {
        "d": args.d,
        "h": grp.h,
        "exponent": grp.exponent,
        "forms": [f.astuple() for f in grp.forms],
        "identity": grp.forms[grp.identity_index].astuple(),
    }, True


def _cmd_bqf_compose(args, cache):
    from . import bqf
    f, g = _form_arg(args.f), _form_arg(args.g)
    return {"f": f.astuple(), "g": g.astuple(),
            "product": bqf.compose(f, g).astuple()}, True


def _cmd_bqf_h1list(args, cache):
    from . import bqf
    ds = bqf.class_number_one_discriminants(args.bound)
    return {"bound": args.bound, "discriminants": ds,
            "count": len(ds)}, True


def _cmd_inose(args, cache):
    from . import singk3
    f = _form_arg(args.form)
    periods = singk3.shioda_mitani_periods(f)
    pencil = singk3.inose_pencil_from_form(f)
    return {
        "form": f.astuple(),
        "disc": f.disc,
        "tau": complex(periods.tau),
        "tau_prime": complex(periods.tau_prime),
        "j1": pencil.j1,
        "j2": pencil.j2,
        "A": pencil.A,
        "B": pencil.B,
        "a4": pencil.a4,
        "a6": pencil.a6,
        "relation_defects": pencil.relation_defects(),
    }, True


def _cmd_kuwata(args, cache):
    from . import ellsurf
    config, rank = ellsurf.kuwata_row(args.n, args.relation, args.isomorphic)
    return {
        "n": args.n,
        "relation": args.relation.replace("-", "_"),
        "isomorphic": args.isomorphic,
        "configuration": config.as_dict(),
        "rank": rank,
        "euler": ellsurf.euler_number(config),
        "rho": ellsurf.rho_kummer_product(args.relation),
    }, True


def _cmd_modularity(args, cache):
    from . import cmmod
    primes = _primes_arg(args.primes)
    if not primes:
        raise UsageError("no primes supplied")
    report = cmmod.verify_modularity(primes, cache=cache)
    return {
        "primes": primes,
        "entries": [{"p": e.p, "predicted": e.predicted,
                     "counted": e.counted, "agree": e.agree}
                    for e in report.entries],
        "all_agree": report.all_agree,
        "mismatches": report.mismatches,
    }, report.all_agree


def _cmd_sieve(args, cache):
    from . import cmmod, count
    primes = _primes_arg(args.primes)
    if not primes:
        raise UsageError("no primes supplied")
    candidates = cmmod.cm_sieve(count.dwork_pencil, None, primes, cache=cache,
                                lift=args.lift)
    found = cmmod.sieve_survivors(candidates, primes,
                                  args.height if args.lift else None)
    results = {
        "family": "dwork",
        "target": "eta4_6",
        "primes": primes,
        "candidates": [{"p": c.p, "lam": c.lam, "h": c.h,
                        "count": c.count} for c in candidates],
        "per_prime_residues": found.per_prime,
        "symmetry_orbits": found.orbits,
        "common_small_integers": found.common,
    }
    if args.lift:
        results["lifts"] = [{"residues": combo, "parameter": lifted}
                            for combo, lifted in found.lifts]
    return results, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3", description="Arithmetic of K3 surfaces: point counts, "
        "zeta functions, Picard bounds, class groups, and CM sieves.",
        allow_abbrev=False)
    parser.add_argument("--version", action="version",
                        version=f"k3arith {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, func, counts=False):
        sp.allow_abbrev = False  # subparsers do not inherit it
        sp.set_defaults(func=func, parser=sp)
        if counts:
            sp.add_argument("--cache", default=None,
                            help="count cache path (default: $K3_CACHE)")
        sp.add_argument("--out", default=None,
                        help="write the JSON report here instead of stdout")

    sp = sub.add_parser("count", help="count points over a field tower")
    sp.add_argument("--model", required=True, choices=list(_MODELS))
    sp.add_argument("--coeffs", required=True,
                    help="comma-separated integer coefficients")
    sp.add_argument("--p", type=int, required=True, help="prime")
    sp.add_argument("--r", type=int, default=1, help="tower height (default 1)")
    sp.add_argument("--force", action="store_true",
                    help="override the feasibility cap")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker thread cap (default 1)")
    common(sp, _cmd_count, counts=True)

    sp = sub.add_parser("zeta", help="complete P2 from counts")
    sp.add_argument("--counts", required=True,
                    help="LDJSON count-record file (cache format)")
    sp.add_argument("--known-factor", default=None,
                    help="known divisor of P2: coefficients low first")
    common(sp, _cmd_zeta)

    sp = sub.add_parser("picard", help="Picard bound from a P2 factor")
    sp.add_argument("--p2", required=True,
                    help="P2 coefficients, low degree first")
    sp.add_argument("--q", type=int, required=True, help="prime power")
    sp.add_argument("--artin-tate", action="store_true",
                    help="also evaluate the Artin-Tate special value")
    sp.add_argument("--rho", type=int, default=None,
                    help="NS rank over F_q for --artin-tate")
    common(sp, _cmd_picard)

    sp = sub.add_parser("bqf", help="binary quadratic forms and class groups",
                        allow_abbrev=False)
    bqf_sub = sp.add_subparsers(dest="action", required=True)
    sp = bqf_sub.add_parser("reduce", help="reduced form of a class")
    sp.add_argument("--form", required=True, help="a,b,c")
    common(sp, _cmd_bqf_reduce)
    sp = bqf_sub.add_parser("classgroup", help="class group Cl(d)")
    sp.add_argument("--d", type=int, required=True, help="discriminant < 0")
    common(sp, _cmd_bqf_classgroup)
    sp = bqf_sub.add_parser("compose", help="Gauss composition f * g")
    sp.add_argument("--f", required=True, help="left factor a,b,c")
    sp.add_argument("--g", required=True, help="right factor a,b,c")
    common(sp, _cmd_bqf_compose)
    sp = bqf_sub.add_parser("h1list", help="discriminants with h(d) = 1")
    sp.add_argument("--bound", type=int, required=True, help="|d| bound")
    common(sp, _cmd_bqf_h1list)

    sp = sub.add_parser("inose", help="Inose pencil of a singular K3")
    sp.add_argument("--form", required=True, help="transcendental form a,b,c")
    common(sp, _cmd_inose)

    sp = sub.add_parser("kuwata", help="fiber configuration and MW rank of "
                        "a cyclic Inose cover")
    sp.add_argument("--n", type=int, required=True, help="cover degree 1..6")
    sp.add_argument("--relation", required=True,
                    help="not-isogenous | isogenous-no-cm | isogenous-cm")
    sp.add_argument("--isomorphic", action="store_true",
                    help="E and E' isomorphic")
    common(sp, _cmd_kuwata)

    sp = sub.add_parser("modularity", help="Fermat quartic: prediction vs count")
    sp.add_argument("--primes", required=True, help='"3,5,7" or "3..37"')
    common(sp, _cmd_modularity, counts=True)

    sp = sub.add_parser("sieve", help="CM sieve: Dwork pencil vs eta(4z)^6")
    sp.add_argument("--primes", required=True, help='"5,13,17" or a range')
    sp.add_argument("--lift", action="store_true",
                    help="lift surviving residues by CRT + reconstruction")
    sp.add_argument("--height", type=int, default=100,
                    help="height bound for --lift (default 100)")
    common(sp, _cmd_sieve, counts=True)
    return parser


def _config_echo(args) -> dict:
    return _enc({k: v for k, v in sorted(vars(args).items())
                 if k not in ("func", "parser")})


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _attach_negative_csv(argv)
        args, extra = parser.parse_known_args(argv)
        if extra:  # under the usage line of the parser they were given to
            before = argv[:argv.index(args.subcommand)]
            owner = (parser if any(tok in before for tok in extra)
                     else args.parser)
            owner.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code
        return code if isinstance(code, int) else 2

    started = time.perf_counter()
    try:
        # only the subcommands that count take --cache or read K3_CACHE
        cache = (_open_cache(args.cache or os.environ.get("K3_CACHE") or None)
                 if hasattr(args, "cache") else None)
        results, ok = args.func(args, cache)
    except K3ArithError as exc:  # input faults and refused files: errors.py
        usage = (isinstance(exc, (UsageError, DomainError, UnsupportedError))
                 or isinstance(exc.__cause__, OSError))
        print(f"k3: {'usage error' if usage else 'verification failure'}: "
              f"{exc}", file=sys.stderr)
        return 2 if usage else 1
    elapsed = time.perf_counter() - started

    report = {
        "schema": SCHEMA,
        "tool": {"name": "k3arith", "version": __version__},
        "config": _config_echo(args),
        "results": _enc(results),
        "timing": {"seconds": round(elapsed, 3)},
    }
    if cache is not None:
        report["cache"] = cache.stats
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"k3: usage error: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader has gone; send the exit-time flush to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if ok else 1


def run() -> int:
    """Process entry (`k3`, `python -m k3arith.cli`): main() with cyclic
    garbage collection off, then every object left frozen, so that the
    collections at exit have nothing to walk."""
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
