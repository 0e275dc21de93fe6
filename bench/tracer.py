"""Run one `k3` command with every layer of k3arith timed from outside.

    PYTHONPATH=src python bench/tracer.py SPANS.json <k3 arguments>

The public functions of each layer are wrapped before `k3arith.cli.main`
runs, including every module that imported one of them by name (such as
`cmmod.count_quartic` and `singk3.class_group`); `FieldCtx` and
`CountCache` are wrapped on the class.  A wrapper records a span (name,
start, end, parent span) and, for some calls, counts computed from the
arguments or the result.  Spans stay in memory and are written to
SPANS.json when the command ends.  The report goes to standard output as
with `python -m k3arith.cli`, so its `results` can be compared byte for
byte with an untraced run.
"""

import functools
import json
import sys
import time

# Per-layer metrics as the benchmark prints them: "<span>_s" is the span's
# self time, meaning its duration minus the time covered by child spans.
PER_LAYER = [
    ("ff.ctx_s", "s"), ("ff.tables_s", "s"), ("ff.tables_built", "count"),
    ("ff.table_entries", "count"), ("ff.dlog_s", "s"),
    ("count.quartic_s", "s"), ("count.points", "count"),
    ("count.points_per_s", "1/s"), ("count.sextic_s", "s"),
    ("count.jacobi_s", "s"), ("count.jacobi_inner", "count"),
    ("count.tower_calls", "count"),
    ("cmmod.sieve_s", "s"), ("cmmod.sieve_members", "count"),
    ("cmmod.modularity_s", "s"), ("cmmod.eta_s", "s"), ("cmmod.lift_s", "s"),
    ("zeta.traces_s", "s"), ("zeta.p2_s", "s"), ("zeta.picard_s", "s"),
    ("zeta.artin_tate_s", "s"),
    ("bqf.classgroup_s", "s"), ("bqf.classgroup_h", "count"),
    ("bqf.compositions", "count"), ("bqf.h1list_s", "s"),
    ("singk3.j_s", "s"), ("singk3.j_calls", "count"), ("ellsurf.kuwata_s", "s"),
    ("cache.load_s", "s"), ("cache.records_loaded", "count"),
    ("cache.append_s", "s"), ("cache.appends", "count"), ("cache.hits", "count"),
    ("cache.misses", "count"), ("cache.hit_ratio", "ratio"),
    ("cli.self_s", "s"), ("cli.work_s", "s"), ("cli.overhead_s", "s"),
    ("cli.import_s", "s"), ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counters = {}
        self.caches = []
        self._tables = {}

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, span=None, after=None):
        """fn with a span named `span` (None: no span) around each call;
        after(args, kwargs, result) runs when the call returns."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                idx = len(self.spans)
                self.spans.append([span, time.perf_counter(), None,
                                   self._stack[-1] if self._stack else -1])
                self._stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    # counters computed from call arguments and results

    def _tables_built(self, args, kwargs, result):
        if id(result) not in self._tables:  # a build returns a new tuple
            self._tables[id(result)] = result
            self.count("ff.tables_built")
            self.count("ff.table_entries", 2 * args[0].q ** 2)

    def _quartic_points(self, args, kwargs, result):
        q = args[1].q
        self.count("count.points", q ** 3 + q ** 2 + q + 1)

    def _jacobi_inner(self, args, kwargs, result):
        self.count("count.jacobi_inner", 21 * args[1].q ** 2)

    def _sieve_members(self, args, kwargs, result):
        family, primes = args[0], args[2]
        self.count("cmmod.sieve_members", sum(
            family.is_smooth_member(lam, p)
            for p in set(primes) for lam in range(p)))

    def _class_group(self, args, kwargs, result):
        self.count("bqf.classgroup_h", result.h)
        self.count("bqf.compositions", result.h * (result.h + 1) // 2)

    def _cache_opened(self, args, kwargs, result):
        cache = args[0]
        self.caches.append((cache, len(cache)))
        self.count("cache.records_loaded", len(cache))

    def dump(self, path):
        for cache, loaded in self.caches:
            self.count("cache.hits", cache.hits)
            self.count("cache.misses", cache.misses)
            if cache.path is not None:
                self.count("cache.appends", len(cache) - loaded)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def instrument(tracer):
    """Wrap the public functions of every layer."""
    from k3arith import bqf, cache, cli, cmmod, count, ellsurf, ff, singk3, zeta
    modules = (bqf, cache, cli, cmmod, count, ellsurf, ff, singk3, zeta)
    wrapped = {}  # id(original) -> (original, wrapper)

    def function(module, name, span, after=None):
        orig = getattr(module, name)
        wrapped[id(orig)] = (orig, tracer.wrap(orig, span, after))

    def method(cls, name, span, after=None):
        setattr(cls, name, tracer.wrap(getattr(cls, name), span, after))

    method(ff.FieldCtx, "__init__", "ff.ctx")
    method(ff.FieldCtx, "packed_tables", "ff.tables", tracer._tables_built)
    method(ff.FieldCtx, "primitive_root", "ff.dlog")
    method(ff.FieldCtx, "dlog_table", "ff.dlog")
    function(count, "count_quartic", "count.quartic", tracer._quartic_points)
    function(count, "count_double_sextic", "count.sextic")
    function(count, "count_diagonal_quartic_jacobi", "count.jacobi",
             tracer._jacobi_inner)
    function(count, "count_tower", None,
             lambda a, k, r: tracer.count("count.tower_calls"))
    function(cmmod, "cm_sieve", "cmmod.sieve", tracer._sieve_members)
    function(cmmod, "verify_modularity", "cmmod.modularity")
    function(cmmod, "eta4_pow6_expansion", "cmmod.eta")
    function(cmmod, "lift_parameter", "cmmod.lift")
    function(zeta, "traces_from_counts", "zeta.traces")
    function(zeta, "p2_from_traces", "zeta.p2")
    function(zeta, "picard_upper_bound", "zeta.picard")
    function(zeta, "artin_tate_discriminant", "zeta.artin_tate")
    function(bqf, "class_group", "bqf.classgroup", tracer._class_group)
    function(bqf, "class_number_one_discriminants", "bqf.h1list")
    function(singk3, "j_invariant", "singk3.j",
             lambda a, k, r: tracer.count("singk3.j_calls"))
    function(ellsurf, "kuwata_row", "ellsurf.kuwata")
    method(cache.CountCache, "__init__", "cache.load", tracer._cache_opened)
    method(cache.CountCache, "record", "cache.append")
    function(cli, "main", "cli.self")

    # rebind the defining module and every import by name
    for module in modules:
        for name, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])
    for orig, _ in wrapped.values():
        for module in modules:
            if any(value is orig for value in vars(module).values()):
                raise RuntimeError(f"{module.__name__} keeps an untraced "
                                   f"{orig.__name__}")


def self_times(spans):
    """Total self time per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
    return totals


def layer_totals(dumps):
    """Self times ("<span>_s") and counters summed over the jobs' dumps."""
    out = {}
    for dump in dumps:
        for name, secs in self_times(dump["spans"]).items():
            out[name + "_s"] = out.get(name + "_s", 0.0) + secs
        for name, n in dump["counters"].items():
            out[name] = out.get(name, 0) + n
    return out


def main(argv):
    spans_path, k3_args = argv[0], argv[1:]
    tracer = Tracer()
    from k3arith import cli
    instrument(tracer)
    try:
        return cli.main(k3_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
