"""`FieldCtx.horner` over prime fields: int64 arithmetic, no tables.

Over F_p the scan kernel evaluates polynomials in int64 and reduces mod p
only before a step that could reach 2^63.  Each prime below is chosen for
a different reduction pattern, and every result is compared with plain
Python-int Horner.  The int64 route is also compared with the gathers from
`packed_tables` it replaced, and the prime-field counts are checked
against independent routes with the tables (and, for the quartic scans,
the discrete logs) refused.  The scans keep the q x q budget of the
tables: an int64 coefficient grid costs as many bytes, so a prime above
5792 is refused before any grid is built, and a double sextic before its
discrete logs.  The modularity check and the sieve never scan: a
`--primes` range is priced from its bounds before it is enumerated, and
the batch, with its eta series, by the `count.count_many` walk before any
grid, series or count.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from k3arith import cmmod
from k3arith import count as count_mod
from k3arith import ff as ff_mod
from k3arith.cli import _primes_arg, main
from k3arith.cmmod import fermat_count_prediction
from k3arith.count import (QUARTIC_EXPONENTS, DoubleSextic, Quartic,
                           count_double_sextic, count_quartic, dwork_pencil,
                           fermat_quartic, is_smooth_quartic)
from k3arith.errors import UsageError
from k3arith.ff import TABLE_BYTES, FieldCtx

LARGEST_PRIME = 3037000493  # largest p with (p-1)^2 + (p-1) < 2^63
NEXT_PRIME = 3037000507


def _python_horner(coeffs, x, p):
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % p
    return v


@pytest.mark.parametrize("p, degree", [
    (101, 4),             # 100^5 < 2^63: one final reduction
    (10007, 6),           # 10006^5 > 2^63: one reduction mid-way
    (2 ** 31 - 1, 5),     # (p-1)^3 > 2^63: a reduction at every step
    (LARGEST_PRIME, 4),   # (p-1)^2 + (p-1) just below 2^63
])
def test_horner_matches_python_ints(p, degree):
    rng = np.random.default_rng(p)
    shape = (7, 9)
    coeffs = [rng.integers(0, p, size=shape, dtype=np.int64)
              for _ in range(degree + 1)]
    coeffs[1] = int(rng.integers(0, p))  # a scalar entry broadcasts too
    coeffs[-1] = np.full(shape, p - 1, dtype=np.int64)  # the largest values
    x = rng.integers(0, p, size=shape, dtype=np.int64)
    x[0, 0] = p - 1
    got = FieldCtx(p).horner(coeffs, x)
    for i, j in itertools.product(range(shape[0]), range(shape[1])):
        cs = [int(c if np.isscalar(c) else c[i, j]) for c in coeffs]
        assert int(got[i, j]) == _python_horner(cs, int(x[i, j]), p)


def test_horner_refuses_overflowing_primes_before_allocating():
    x = np.arange(2 ** 16, dtype=np.int64)
    ctx = FieldCtx(NEXT_PRIME)
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match="3037000493"):
            ctx.horner([x, x, x], x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes
    assert FieldCtx(LARGEST_PRIME).horner([5, 7], np.int64(3)) == 26


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_horner_matches_the_table_gathers(p):
    ctx = FieldCtx(p)
    add, mul = ctx.packed_tables()
    rng = np.random.default_rng(p)
    x = np.arange(p).reshape(-1, 1)
    for degree in range(6):
        coeffs = [rng.integers(0, p, size=(1, 11)) for _ in range(degree + 1)]
        want = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            want = add[mul[x, want], c]
        got = ctx.horner(coeffs, x)
        assert np.array_equal(np.broadcast_to(got, want.shape), want)


def _refuse(name):
    def refuse(self):
        raise AssertionError(f"{name} called for F_{self.q}")
    return refuse


def _naive_zeros(items, p, nvars):
    """Projective zeros over F_p, by evaluating at every nonzero vector."""
    zeros = 0
    for v in itertools.product(range(p), repeat=nvars):
        if any(v) and sum(c * math.prod(pow(t, k, p) for t, k in zip(v, e))
                          for e, c in items) % p == 0:
            zeros += 1
    return zeros // (p - 1)


def test_prime_field_scans_build_no_tables_and_read_no_logs(monkeypatch):
    monkeypatch.setattr(FieldCtx, "packed_tables", _refuse("packed_tables"))
    monkeypatch.setattr(FieldCtx, "dlog_table", _refuse("dlog_table"))
    monkeypatch.setattr(FieldCtx, "primitive_root", _refuse("primitive_root"))
    for p in (3, 5, 7, 11, 13, 17, 29, 31, 61):
        assert count_quartic(fermat_quartic(), FieldCtx(p)) == \
            fermat_count_prediction(p)
    dense = Quartic(tuple(range(1, len(QUARTIC_EXPONENTS) + 1)))
    assert count_quartic(dense, FieldCtx(7)) == \
        _naive_zeros(dense.items(7), 7, 4)
    for p in (7, 13):
        for lam in range(p):
            assert is_smooth_quartic(dwork_pencil.member(lam), FieldCtx(p)) \
                == dwork_pencil.is_smooth_member(lam, p), (p, lam)


def test_sextic_counts_build_no_tables(monkeypatch):
    monkeypatch.setattr(FieldCtx, "packed_tables", _refuse("packed_tables"))
    f = DoubleSextic(tuple(range(1, 29)))
    for p in (7, 11):
        items = f.items(p)
        squares = {x * x % p for x in range(1, p)}
        want = 0
        for v in itertools.product(range(p), repeat=3):
            if any(v):
                val = sum(c * math.prod(pow(t, k, p) for t, k in zip(v, e))
                          for e, c in items) % p
                want += 1 + (0 if val == 0 else 1 if val in squares else -1)
        assert count_double_sextic(f, FieldCtx(p)) == want // (p - 1)


def test_sextic_over_f_2003_stays_small():
    # the two q x q int32 tables alone would be 32 MiB here; the count is
    # the one the table route gave
    ctx = FieldCtx(2003)
    f = DoubleSextic(tuple(range(1, 29)))
    tracemalloc.start()
    try:
        count = count_double_sextic(f, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx._tables is None
    assert peak < 8 * 2 ** 20
    assert count == 4011377


def test_scan_budget_is_the_table_budget():
    assert 8 * 5791 ** 2 <= TABLE_BYTES < 8 * 5801 ** 2  # consecutive primes
    assert count_mod._affine_scan([[((), 0)]], 0, FieldCtx(5791)) == 1
    with pytest.raises(UsageError, match=r"F_5801 need about 2\.69e\+8 bytes "
                                         r"\(cap 2\.68e\+8\)"):
        count_mod._affine_scan([[((), 0)]], 0, FieldCtx(5801))


@pytest.mark.parametrize("p, r", [(5801, 1), (3, 9), (7, 5)])
def test_over_budget_sextic_is_refused_before_its_logs(monkeypatch, p, r):
    def refuse(self):
        raise AssertionError("the discrete-log table was built")
    monkeypatch.setattr(FieldCtx, "dlog_table", refuse)
    ctx = FieldCtx(p, r)
    with pytest.raises(UsageError, match=f"F_{ctx.q} need"):
        count_double_sextic(DoubleSextic(tuple(range(1, 29))), ctx)


@pytest.mark.parametrize("sub", ["modularity", "sieve"])
def test_prime_range_past_the_budget_is_refused_before_enumeration(
        capsys, monkeypatch, sub):
    # priced from its bounds, one isprime an integer: no integer is tested
    tested = []
    isprime = ff_mod.isprime

    def counting_isprime(n):
        tested.append(n)
        return isprime(n)
    monkeypatch.setattr(ff_mod, "isprime", counting_isprime)
    monkeypatch.setattr(cmmod, "isprime", counting_isprime)
    assert main([sub, "--primes", "6000..20000000"]) == 2
    assert capsys.readouterr().err == (
        "k3: usage error: the primes in 6000..20000000 need about 2.0e+10 "
        "price units (cap 2.0e+9)\n")
    assert tested == []


def test_prime_range_below_the_budget_is_enumerated():
    # a range under the batch cap is listed whole: 5791 is the last prime
    # below 5801
    assert _primes_arg("5770..5800") == [5779, 5783, 5791]
    assert _primes_arg("-5..7") == [2, 3, 5, 7]
    # priced from 2, where the listing starts, not from the bound as given
    assert _primes_arg("-3000000..7") == [2, 3, 5, 7]


@pytest.mark.parametrize("argv, err", [
    (("modularity", "--primes", "10000121"),  # 300 p, and 200 p of series
     "the counts need about 5.0e+9 price units (cap 2.0e+9)"),
    (("sieve", "--primes", "5801"),
     "the counts need about 7.7e+10 price units (cap 2.0e+9)"),
    (("count", "--model", "quartic", "--coeffs", ",".join(["1"] * 35),
      "--p", "5801", "--force"),
     "q x q scan arrays over F_5801 need about 2.69e+8 bytes (cap 2.68e+8)"),
], ids=["argv0", "argv1", "argv2"])
def test_scans_beyond_the_budget_exit_2_before_any_grid(capsys, monkeypatch,
                                                        argv, err):
    # the modularity check and the sieve are refused by the price of the
    # counts that would take them (fibres, a torus tally), the scan by
    # the q x q budget; none builds a coefficient grid
    def refuse(*args):
        raise AssertionError("a coefficient grid was built")
    monkeypatch.setattr(count_mod, "_values", refuse)
    assert main(list(argv)) == 2
    assert capsys.readouterr().err == f"k3: usage error: {err}\n"
