"""Trace extraction, P2 completion, Picard bounds, Artin-Tate values.

Polynomial arithmetic used as reference in this file is a local
convolution, kept separate from the package's own integer-polynomial
helpers.  The two surfaces pinned below are the diagonal quartics over F_5
(counts 0 and 1112, completed quadratic 1 + 6T + 25T^2, sign +1) and over
F_3 (counts 16 and 280, completed cofactor 1 - 9T^2, sign -1).
"""

import random
from fractions import Fraction

import pytest

from k3arith.count import CountRecord
from k3arith.errors import (DataError, IncompletenessError,
                            InconsistencyError, MultiplicityError,
                            UsageError)
from k3arith.zeta import (FrobeniusPoly, TraceVector, artin_tate_discriminant,
                          artin_tate_value, p2_from_traces,
                          picard_upper_bound, power_sums, square_class,
                          traces_from_counts, van_luijk_combine)


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


KNOWN_5 = tuple(_mul(_power([1, -5], 8), _power([1, 5], 12)))
KNOWN_3 = tuple(_mul(_power([1, -3], 11), _power([1, 3], 9)))


# --- traces from counts --------------------------------------------------------

def test_traces_from_counts_pinned():
    recs = [CountRecord("f", 5, 1, 0), CountRecord("f", 5, 2, 1112)]
    tr = traces_from_counts(recs)
    assert tr.q == 5 and tr.traces == (-26, 486)
    tr = traces_from_counts([CountRecord("g", 3, 1, 16)])
    assert tr.q == 3 and tr.traces == (6,)


def test_traces_from_counts_validation():
    with pytest.raises(UsageError):
        traces_from_counts([])
    with pytest.raises(UsageError):
        traces_from_counts([CountRecord("f", 5, 1, 0),
                            CountRecord("g", 5, 2, 1112)])
    with pytest.raises(UsageError):
        traces_from_counts([CountRecord("f", 5, 1, 0),
                            CountRecord("f", 7, 1, 57)])
    with pytest.raises(UsageError):
        traces_from_counts([CountRecord("f", 5, 1, 0),
                            CountRecord("f", 5, 3, 15751)])
    with pytest.raises(InconsistencyError):
        traces_from_counts([CountRecord("f", 5, 1, 0),
                            CountRecord("f", 5, 1, 4)])
    # a repeated identical count is not a conflict
    tr = traces_from_counts([CountRecord("f", 5, 1, 0),
                             CountRecord("f", 5, 1, 0)])
    assert tr.traces == (-26,)


def test_weil_bound_enforced():
    with pytest.raises(InconsistencyError):
        TraceVector(q=5, traces=(111,))  # |t_1| > 22 * 5
    with pytest.raises(InconsistencyError):
        traces_from_counts([CountRecord("f", 5, 1, 1000)])
    TraceVector(q=5, traces=(110, -550))  # extremes are allowed


# --- power sums -------------------------------------------------------------------

def test_power_sums_against_roots():
    rng = random.Random(17)
    for _ in range(10):
        roots = [rng.choice([-3, -2, -1, 1, 2, 3, 5])
                 for _ in range(rng.randrange(1, 6))]
        coeffs = [1]
        for a in roots:
            coeffs = _mul(coeffs, [1, -a])
        got = power_sums(coeffs, 6)
        want = [sum(a ** r for a in roots) for r in range(1, 7)]
        assert got == want


def test_power_sums_validation():
    with pytest.raises(UsageError):
        power_sums([], 3)
    with pytest.raises(UsageError):
        power_sums([2, 1], 3)


def test_frobenius_poly_basics():
    poly = FrobeniusPoly(q=5, coeffs=(1, 0, -25))
    assert poly.degree == 2 and not poly.complete
    assert poly.power_traces(3) == [0, 50, 0]
    assert poly.counts(2) == [1 + 25 + 0, 1 + 625 + 50]
    with pytest.raises(UsageError):
        FrobeniusPoly(q=5, coeffs=(2, 1))
    with pytest.raises(UsageError):
        FrobeniusPoly(q=5, coeffs=tuple([1] + [0] * 23))


def test_zeta_types_refuse_non_integers():
    # float traces of the Fermat quartic over F_5, its lines known, used to
    # complete to a float P2 with Picard bound 0 (ints give 20), and a
    # trace of -25.5 to end in an uncaught TypeError
    p2 = p2_from_traces(TraceVector(q=5, traces=(-26, 486)), KNOWN_5).coeffs
    assert picard_upper_bound(FrobeniusPoly(q=5, coeffs=p2))[0] == 20
    for q, traces in [(5, (-26.0, 486.0)), (5, (-25.5,)), (5, (True,)),
                      (5.0, (-26, 486))]:
        with pytest.raises(UsageError, match="must be integers"):
            TraceVector(q=q, traces=traces)
    for q, coeffs in [(5, tuple(map(float, p2))), (5, (True, -5)),
                      (5.0, (1, -5))]:
        with pytest.raises(UsageError, match="must be integers"):
            FrobeniusPoly(q=q, coeffs=coeffs)
    for known in [tuple(map(float, KNOWN_5)), (True, -5)]:
        with pytest.raises(UsageError, match="must be integers"):
            p2_from_traces(TraceVector(q=5, traces=(-26, 486)), known)


# --- P2 completion ------------------------------------------------------------------

def test_p2_completion_f5_quartic():
    tr = TraceVector(q=5, traces=(-26, 486))
    poly = p2_from_traces(tr, known_factor=KNOWN_5)
    assert poly.completed == (1, 6, 25)
    assert poly.epsilon == 1
    assert poly.complete
    assert poly.coeffs == tuple(_mul(list(KNOWN_5), [1, 6, 25]))
    assert poly.counts(2) == [0, 1112]


def test_p2_completion_f3_quartic():
    tr = TraceVector(q=3, traces=(6, 198))
    poly = p2_from_traces(tr, known_factor=KNOWN_3)
    assert poly.completed == (1, 0, -9)
    assert poly.epsilon == -1
    assert poly.coeffs == tuple(_mul(_power([1, -3], 12), _power([1, 3], 10)))
    assert picard_upper_bound(poly) == (22, [(1, 12), (2, 10)])


def test_p2_completion_needs_enough_traces():
    with pytest.raises(IncompletenessError) as info:
        p2_from_traces(TraceVector(q=5, traces=(-26,)))
    assert info.value.needed == 10  # bare degree-22 needs counts through r=11


def test_p2_completion_sign_ambiguity():
    # at q = 3 the known factor absorbs t_1 entirely, and both signs of
    # the functional equation keep the cofactor roots on |T| = 1/3
    with pytest.raises(IncompletenessError) as info:
        p2_from_traces(TraceVector(q=3, traces=(6,)), known_factor=KNOWN_3)
    assert info.value.needed == 1


def test_p2_completion_rejects_garbage():
    with pytest.raises(InconsistencyError):
        # e_2 = 39/2: these traces cannot come from an integer cofactor
        p2_from_traces(TraceVector(q=5, traces=(-25, 486)),
                       known_factor=KNOWN_5)
    with pytest.raises(DataError):
        # consistent integers, but no sign puts the roots on the circle
        p2_from_traces(TraceVector(q=5, traces=(-26, 400)),
                       known_factor=KNOWN_5)
    with pytest.raises(DataError):
        # functional equation closes (c = (1, 11, 25)) yet both roots of
        # the cofactor are real and off |T| = 1/5
        p2_from_traces(TraceVector(q=5, traces=(-31, 571)),
                       known_factor=KNOWN_5)
    with pytest.raises(UsageError):
        p2_from_traces(TraceVector(q=5, traces=(-26,)), known_factor=(2, 1))


def test_p2_completion_error_paths():
    with pytest.raises(UsageError, match="exceeds 22"):
        p2_from_traces(TraceVector(q=5, traces=(-26,)),
                       known_factor=(1,) + (0,) * 22 + (1,))
    good = p2_from_traces(TraceVector(q=5, traces=(-26, 486)),
                          known_factor=KNOWN_5)
    t3 = good.power_traces(3)[2]
    assert p2_from_traces(TraceVector(q=5, traces=(-26, 486, t3)),
                          known_factor=KNOWN_5) == good
    with pytest.raises(InconsistencyError, match="fails to reproduce t_3"):
        p2_from_traces(TraceVector(q=5, traces=(-26, 486, t3 + 5)),
                       known_factor=KNOWN_5)


def test_p2_completion_roundtrip_random():
    rng = random.Random(23)
    q = 3
    for _ in range(6):
        a = rng.randrange(0, 5)
        b = rng.randrange(0, 5)
        if (a + b) % 2:
            b += 1  # quadratic factors fill the rest: a + b must be even
        coeffs = _mul(_power([1, -q], a), _power([1, q], b))
        while (len(coeffs) - 1) < 22:
            c = rng.randrange(-2 * q + 1, 2 * q)  # conjugate pair, |alpha| = q
            coeffs = _mul(coeffs, [1, c, q * q])
        poly = FrobeniusPoly(q=q, coeffs=tuple(coeffs))
        counts = poly.counts(11)
        recs = [CountRecord("x", q, r, n) for r, n in enumerate(counts, 1)]
        rebuilt = p2_from_traces(traces_from_counts(recs))
        assert rebuilt.coeffs == poly.coeffs


# --- Picard bounds -------------------------------------------------------------------

def test_picard_bound_pinned_surfaces():
    tr = TraceVector(q=5, traces=(-26, 486))
    poly = p2_from_traces(tr, known_factor=KNOWN_5)
    assert picard_upper_bound(poly) == (20, [(1, 8), (2, 12)])


def test_picard_bound_full_unit():
    poly = FrobeniusPoly(q=7, coeffs=tuple(_power([1, -7], 22)))
    assert picard_upper_bound(poly) == (22, [(1, 22)])


def test_picard_bound_partial_slack():
    # degree-1 factor with eigenvalue q: 1 detected + 21 unknown = 22
    poly = FrobeniusPoly(q=5, coeffs=(1, -5))
    assert picard_upper_bound(poly) == (22, [(1, 1)])
    # eigenvalue 1 is not q times a root of unity: slack only, rounded even
    poly = FrobeniusPoly(q=5, coeffs=(1, -1))
    assert picard_upper_bound(poly) == (20, [])


# --- Artin-Tate -----------------------------------------------------------------------

def test_artin_tate_f5_quartic():
    poly = p2_from_traces(TraceVector(q=5, traces=(-26, 486)),
                          known_factor=KNOWN_5)
    value, cls = artin_tate_discriminant(poly, 8)
    assert value == 65536 and cls == 1


def test_artin_tate_unit_cofactor():
    # (1 - 7T)^2 R with R(1/7) = 1: special value is exactly q
    coeffs = tuple(_mul(_power([1, -7], 2), [1, 1, -7]))
    assert artin_tate_value(coeffs, 7, 2) == 7
    poly = FrobeniusPoly(q=7, coeffs=coeffs)
    assert artin_tate_discriminant(poly, 2) == (7, 7)


def test_artin_tate_validation():
    with pytest.raises(MultiplicityError):
        artin_tate_value((1, 1), 5, 1)
    with pytest.raises(MultiplicityError):
        # rho understates the multiplicity: the value collapses to 0
        artin_tate_discriminant(FrobeniusPoly(q=5, coeffs=(1, -10, 25)), 1)
    with pytest.raises(UsageError):
        artin_tate_value((1, -5), 5, 0)
    with pytest.raises(UsageError):
        artin_tate_value((), 5, 1)


def test_artin_tate_refuses_a_value_past_its_size_bound():
    # (1 - 5T)(1 + 100T): the value 5 (1 + 100/5) = 105 passes 5 * 2^1
    poly = FrobeniusPoly(q=5, coeffs=tuple(_mul([1, -5], [1, 100])))
    with pytest.raises(DataError, match="too large"):
        artin_tate_discriminant(poly, 1)


def test_square_class():
    assert square_class(12) == 3
    assert square_class(-18) == -2
    assert square_class(65536) == 1
    assert square_class(Fraction(4, 9)) == 1
    assert square_class(Fraction(2, 3)) == 6
    assert square_class(-4) == -1
    with pytest.raises(UsageError):
        square_class(0)


def test_van_luijk_combine():
    assert van_luijk_combine(2, 5, 2, 1) == 1
    assert van_luijk_combine(2, 5, 2, 5) == 2
    assert van_luijk_combine(2, 5, 2, 20) == 2  # 20 = 4 * 5, same class
    assert van_luijk_combine(3, 7, 2, 5) == 2
    assert van_luijk_combine(4, 5, 4, 1) == 3  # the argument at every rank
    assert van_luijk_combine(2, 3, 2, 12) == 2  # 12 = 4 * 3, same class
    assert van_luijk_combine(2, -3, 2, 3) == 1
    assert van_luijk_combine(10, 2, 10, 3) == 9
    assert van_luijk_combine(10, 2, 10, 8) == 10
    assert van_luijk_combine(20, -1, 20, 1) == 19
    assert van_luijk_combine(20, 7, 20, 63) == 20
    assert van_luijk_combine(20, 7, 22, 1) == 20
    assert van_luijk_combine(1, 2, 1, 3) == 1  # the hyperplane class
    with pytest.raises(UsageError):
        van_luijk_combine(0, 1, 2, 1)
    with pytest.raises(UsageError):
        van_luijk_combine(2, 1, 23, 1)


def test_van_luijk_checks_bounds_then_zero_only_at_equal_bounds():
    with pytest.raises(UsageError, match="bounds"):
        van_luijk_combine(0, 0, 2, 1)
    assert van_luijk_combine(3, 0, 2, 5) == 2
    with pytest.raises(UsageError, match="square class of 0"):
        van_luijk_combine(2, 5, 2, 0)


def test_van_luijk_agrees_with_square_classes():
    rng = random.Random(31)
    for _ in range(2000):
        c1 = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 4),
                      rng.randint(1, 100))
        c2 = c1 * rng.choice((1, -1, 2, 3, 6)) * Fraction(
            rng.randint(1, 50), rng.randint(1, 50)) ** 2
        b = rng.randint(1, 22)
        want = b if square_class(c1) == square_class(c2) else max(b - 1, 1)
        assert van_luijk_combine(b, c1, b, c2) == want, (c1, c2)


def test_van_luijk_compares_60_digit_classes_unfactored(monkeypatch):
    sympy = pytest.importorskip("sympy")

    def never(*args):
        raise AssertionError("factorint was called")
    monkeypatch.setattr(sympy, "factorint", never)
    c = 400000000000000000000000000069 * 700000000000000000000000000033
    assert van_luijk_combine(5, c, 5, 4 * c) == 5
    assert van_luijk_combine(5, c, 5, Fraction(c, 9)) == 5
    assert van_luijk_combine(5, c, 5, 3 * c) == 4
    assert van_luijk_combine(5, c, 5, -c) == 4
    assert van_luijk_combine(5, c, 5, c * (c + 2)) == 4
