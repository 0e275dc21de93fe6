"""The fibre count: a quartic whose only monomials mod p are a_i x_i^4,
counted over F_p by the fibres of x -> x^4.

It must equal the scan kernel on every such quartic over F_p, p <= 79
(p = 2, zero coefficients, p | a_i and other monomials divisible by p
among them), and the eta(4 tau)^6 prediction for the Fermat quartic at
every odd prime below 2000.  It refuses extension fields and other
shapes.  It never builds a q x q array, so the scan budget does not bound
it: F_5801, past that budget, counts (as it did by Jacobi sums), and only
the byte guard `ff.check_bytes`, at 64 bytes a p, refuses, at the first
prime past it, before anything is built (its routes and price are pinned
in test_count_route_prices.py).
The modularity check counts by it and builds one eta expansion, through
its largest prime.
"""

import tracemalloc

import pytest

from k3arith import cmmod
from k3arith.cmmod import eta4_pow6_expansion, fermat_count_prediction
from k3arith.count import (DiagonalQuartic, Quartic,
                           count_diagonal_quartic_fibres, count_quartic,
                           count_tower, dwork_pencil, fermat_quartic)
from k3arith.errors import UnsupportedError, UsageError
from k3arith.ff import TABLE_BYTES, FieldCtx, isprime

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example = hypothesis.given, hypothesis.example

PRIMES = [p for p in range(2, 80) if isprime(p)]
FERMAT = fermat_quartic()


@given(st.sampled_from(PRIMES),
       st.lists(st.tuples(st.integers(-30, 30), st.booleans()),
                min_size=4, max_size=4),
       st.booleans())
@example(2, [(1, False), (0, False), (3, False), (1, True)], True)
@example(7, [(1, False), (2, False), (3, False), (1, True)], False)
@example(5, [(0, False)] * 4, True)
@example(79, [(1, False)] * 4, True)
def test_fibres_equal_the_scan(p, coeffs, plain):
    """a_i = c p where the flag is set; with plain, p x0^2 x1 x2 too, a
    monomial that vanishes mod p."""
    a = tuple(c * p if by_p else c for c, by_p in coeffs)
    surface = DiagonalQuartic(a) if not plain else Quartic.from_dict({
        (4, 0, 0, 0): a[0], (0, 4, 0, 0): a[1], (0, 0, 4, 0): a[2],
        (0, 0, 0, 4): a[3], (2, 1, 1, 0): p})
    ctx = FieldCtx(p)
    assert count_diagonal_quartic_fibres(surface, ctx) == count_quartic(
        surface, ctx)


def test_fibres_meet_the_prediction_at_every_odd_prime_below_2000():
    primes = [p for p in range(3, 2000) if isprime(p)]
    series = eta4_pow6_expansion(primes[-1])
    for p in primes:
        assert count_diagonal_quartic_fibres(FERMAT, FieldCtx(p)) == (
            fermat_count_prediction(p, series)), p


def test_fibres_refuse_extensions_other_shapes_and_past_the_byte_guard():
    with pytest.raises(UnsupportedError, match="fibre count"):
        count_diagonal_quartic_fibres(FERMAT, FieldCtx(3, 2))
    with pytest.raises(UnsupportedError, match="fibre count"):
        count_diagonal_quartic_fibres(dwork_pencil.member(1), FieldCtx(13))
    # past the scan budget, not past the byte guard
    assert count_diagonal_quartic_fibres(FERMAT, FieldCtx(5801)) == (
        fermat_count_prediction(5801))
    assert [rec.count for rec in count_tower(fermat_quartic(), 5801, 1)] == [
        fermat_count_prediction(5801)]
    past = next(p for p in range(TABLE_BYTES // 64 + 1, 10 ** 7)
                if isprime(p))
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match=rf"F_{past} need about "
                           r"2\.68436e\+8 bytes \(cap 2\.68435e\+8\)"):
            count_diagonal_quartic_fibres(FERMAT, FieldCtx(past))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_modularity_builds_one_eta_expansion(monkeypatch):
    built, real = [], cmmod.eta4_pow6_expansion

    def recording(n_max):
        built.append(n_max)
        return real(n_max)

    monkeypatch.setattr(cmmod, "eta4_pow6_expansion", recording)
    assert cmmod.verify_modularity([101, 3, 13, 5, 7]).all_agree
    assert built == [101]
