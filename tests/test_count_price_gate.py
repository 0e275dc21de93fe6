"""One price per count: `count._route`'s price refuses work and hands out
workers.

`is_smooth_quartic` prices its scan of five polynomials as five quartic
scans and refuses past FEASIBILITY_CAP before it scans; `count_many` gives
`jobs` to a count only when its own price reaches _POOL_PRICE, so small
scans at `jobs = 2` start no pool and a dense quartic over F_251 starts one; the Jacobi sums are priced in O(q); and counts are
equal at one and two jobs.
"""

import concurrent.futures

import pytest

from k3arith import count
from k3arith.cmmod import cm_sieve, eta4_pow6_expansion, verify_modularity
from k3arith.count import (FEASIBILITY_CAP, DiagonalQuartic, Quartic,
                           _route, count_many, count_tower, dwork_pencil,
                           fermat_quartic, is_smooth_quartic)
from k3arith.errors import UsageError
from k3arith.ff import FieldCtx, isprime

DENSE = Quartic(tuple(range(1, 36)))
CONE = Quartic.from_dict({(4, 0, 0, 0): 1, (0, 4, 0, 0): 2,
                          (0, 0, 4, 0): 3})  # singular at (0:0:0:1)


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, maps in
    this thread."""
    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def shutdown(self, cancel_futures=False):
        pass

    def map(self, fn, payloads):
        return map(fn, payloads)


@pytest.fixture
def pools(monkeypatch):
    _RecordingPool.made = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(count.os, "cpu_count", lambda: 2)
    return _RecordingPool.made


@pytest.mark.parametrize("p, r", [(5, 3), (127, 1)])
def test_smoothness_is_admitted_over_f_125_and_f_127(p, r):
    ctx = FieldCtx(p, r)
    assert is_smooth_quartic(fermat_quartic(), ctx)
    assert not is_smooth_quartic(CONE, ctx)


def test_smoothness_prices_five_quartic_scans(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("scanned a field priced past the cap")

    monkeypatch.setattr(count, "_projective_scan", boom)
    for p, r in ((277, 1), (1009, 1), (3, 5), (2, 8)):
        assert 5 * _route(DENSE, p, r)[1] > FEASIBILITY_CAP
        with pytest.raises(UsageError, match=f"q = {p ** r}"):
            is_smooth_quartic(fermat_quartic(), FieldCtx(p, r))
    assert 5 * _route(DENSE, 271, 1)[1] <= FEASIBILITY_CAP
    assert 5 * _route(DENSE, 13, 2)[1] <= FEASIBILITY_CAP


def test_small_scans_at_two_jobs_start_no_pool(pools):
    report = verify_modularity([p for p in range(3, 102) if isprime(p)])
    assert report.all_agree
    cm_sieve(dwork_pencil, eta4_pow6_expansion(17), [5, 13, 17], jobs=2)
    assert pools == []


def test_a_dense_quartic_over_f_251_gets_its_workers(pools):
    tower = count_tower(DENSE, 251, 1, jobs=2)
    assert pools == [2]  # one pool, never more workers than CPUs
    assert tower == count_tower(DENSE, 251, 1)
    assert pools == [2]


def test_scans_at_r_above_1_are_priced_at_their_measured_cost(pools):
    """A scan through the operation tables runs about 3 times slower a
    point than one over F_p, so its price reaches the gate from a smaller
    q: F_125 gets workers, F_81 none."""
    assert _route(DENSE, 5, 3)[1] == 10 * 125 ** 3 + 2 * 125 ** 2
    for p, r, pool in ((3, 4, []), (5, 3, [2])):
        pools.clear()
        count_tower(DENSE, p, r, jobs=2)
        assert pools == pool, (p, r)


def test_a_direct_count_obeys_jobs_over_any_field(pools):
    """Only `count_many` gates: the kernel splits whenever it may."""
    for p in (3, 7):
        count.count_quartic(DENSE, FieldCtx(p), jobs=2)
    assert pools == [2, 2]


def test_jacobi_price_is_linear_in_q():
    fermat = fermat_quartic()
    # the levels r = 1 take the closed form or the fibre count
    prices = {p ** r: _route(fermat, p, r)[1]
              for p, r in ((5, 2), (13, 2), (3, 4), (17, 2), (5, 6))}
    assert all(price == prices[25] * q // 25 for q, price in prices.items())
    assert _route(DiagonalQuartic((1, 2, 3, 4)), 5, 4)[1] == 5000 * 625


def test_counts_are_equal_at_one_and_two_jobs(monkeypatch):
    monkeypatch.setattr(count.os, "cpu_count", lambda: 2)  # real processes
    target = eta4_pow6_expansion(101)
    runs = [(count_tower(DENSE, 181, 1, jobs=jobs),
             count_tower(DENSE, 13, 2, jobs=jobs),
             cm_sieve(dwork_pencil, target, [13, 101], jobs=jobs))
            for jobs in (1, 2)]
    assert runs[0] == runs[1]
