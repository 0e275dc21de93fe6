"""The discrete-log list has a memory guard of its own.

`FieldCtx.dlog_table` refuses, before its walk, a field whose list would
pass TABLE_BYTES at 40 bytes an entry, so neither it nor the Jacobi-sum
count built on it can be asked for gigabytes; F_{5^12} would take about
9 GiB of logs and 33 GB for the whole Jacobi count.
"""

import tracemalloc

import pytest

from k3arith.count import count_diagonal_quartic_jacobi, fermat_quartic
from k3arith.errors import UsageError
from k3arith.ff import TABLE_BYTES, FieldCtx, isprime


def _refused_small(call):
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match="discrete logs of F_"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_logs_of_f_5_12_are_refused_before_the_walk():
    _refused_small(lambda: FieldCtx(5, 12).dlog_table())


def test_jacobi_count_over_f_5_12_is_refused_before_the_walk():
    _refused_small(lambda: count_diagonal_quartic_jacobi(fermat_quartic(),
                                                         FieldCtx(5, 12)))


def test_the_guard_sits_at_40_bytes_an_entry():
    p = next(n for n in range(TABLE_BYTES // 40 + 1, 10 ** 7) if isprime(n))
    assert p < TABLE_BYTES // 40 + 100
    _refused_small(lambda: FieldCtx(p).dlog_table())
    assert 40 * 3 ** 12 <= TABLE_BYTES  # measured at F_{3^12}: admitted
