"""Singular K3 lattices, CM periods, the j-function, and Inose pencils.

Frozen analytic values are the classical CM ones: j(i) = 1728,
j(2i) = 66^3 = 287496, j(i*sqrt(2)) = 20^3 = 8000, j(zeta_3) = 0.  The
period/form roundtrip is checked exactly in QuadIrr arithmetic, with the
j-side only entering through the pencil coefficients.
"""

import random
from fractions import Fraction

import pytest

from k3arith.bqf import BinaryQuadraticForm, reduce, reduced_forms
from k3arith.errors import DomainError, UsageError
from k3arith.singk3 import (InosePencil, PeriodPair, QuadIrr, _JSER,
                            _extend_jser, base_change_lattice,
                            form_from_periods, inose_coefficients,
                            inose_pencil_from_form, j_invariant,
                            kummer_double, ns_field_check, ring_class_degree,
                            shioda_mitani_periods)


# --- exact quadratic arithmetic ----------------------------------------------

def test_quad_irr_arithmetic():
    u = QuadIrr(-4, Fraction(1, 2), Fraction(1, 3))
    v = QuadIrr(-4, Fraction(1), Fraction(-1, 3))
    w = u * v
    # (1/2 + s/3)(1 - s/3) with s^2 = -4: rational part 1/2 + 4/9
    assert w.x == Fraction(1, 2) + Fraction(4, 9)
    assert w.y == Fraction(1, 3) - Fraction(1, 6)
    assert (u - u).is_zero()
    assert (2 * u).x == 1
    with pytest.raises(UsageError):
        u + QuadIrr(-8, Fraction(0), Fraction(1))
    with pytest.raises(DomainError):
        QuadIrr(4, Fraction(0), Fraction(1))


# --- periods -----------------------------------------------------------------

def test_periods_principal_form():
    pair = shioda_mitani_periods((1, 0, 1))
    assert pair.tau == QuadIrr(-4, Fraction(0), Fraction(1, 2))
    assert pair.tau_prime == pair.tau
    assert complex(pair.tau) == 1j


def test_periods_scaled_form():
    pair = shioda_mitani_periods((4, 0, 4))
    assert pair.tau == QuadIrr(-64, Fraction(0), Fraction(1, 8))
    assert pair.tau_prime == QuadIrr(-64, Fraction(0), Fraction(1, 2))
    assert complex(pair.tau) == 1j
    assert complex(pair.tau_prime) == 4j


def test_periods_satisfy_minimal_polynomials():
    rng = random.Random(7)
    forms = []
    for d in (-3, -4, -15, -20, -23, -56, -71):
        forms.extend(reduced_forms(d))
    for f in forms:
        pair = shioda_mitani_periods(f)
        tau, tau_p = pair.tau, pair.tau_prime
        d = f.disc
        lhs = f.a * (tau * tau) + f.b * tau
        assert QuadIrr(d, lhs.x + f.c, lhs.y).is_zero()
        lhs = tau_p * tau_p - f.b * tau_p
        assert QuadIrr(d, lhs.x + f.a * f.c, lhs.y).is_zero()
        assert tau.y > 0 and tau_p.y > 0  # upper half plane
    assert len(forms) >= 20 and rng  # sweep was not empty


def test_form_period_roundtrip():
    for d in (-3, -4, -12, -15, -20, -23, -64, -71, -84):
        for f in reduced_forms(d, primitive_only=False):
            pair = shioda_mitani_periods(f)
            assert form_from_periods(pair).astuple() == f.astuple()
            # same class after an SL2 change of basis
            g = f.transform(1, 1, 0, 1).transform(0, -1, 1, 0)
            back = form_from_periods(shioda_mitani_periods(g))
            assert back.astuple() == reduce(g).astuple() == f.astuple()


def test_form_from_periods_rejects_transcendental_tau():
    bad = PeriodPair(QuadIrr(-4, Fraction(0), Fraction(1, 3)),
                     QuadIrr(-4, Fraction(0), Fraction(1)))
    with pytest.raises(DomainError):
        form_from_periods(bad)  # 1/(2y) = 3/2 is not an integer


# --- lattice operations --------------------------------------------------------

def test_kummer_double():
    t = kummer_double((2, 0, 2))
    assert t.astuple() == (4, 0, 4)
    assert kummer_double(t).astuple() == (8, 0, 8)
    assert t.disc == 4 * BinaryQuadraticForm(2, 0, 2).disc
    assert BinaryQuadraticForm(2, 0, 2).gram() == ((4, 0), (0, 4))
    assert t.gram() == ((8, 0), (0, 8))


def test_base_change_lattice():
    t = BinaryQuadraticForm(1, 0, 1)
    assert base_change_lattice(t, 1).astuple() == (1, 0, 1)
    assert base_change_lattice(t, 2).astuple() == kummer_double(t).astuple()
    two_then_three = base_change_lattice(base_change_lattice(t, 2), 3)
    assert two_then_three.astuple() == base_change_lattice(t, 6).astuple()
    for n in (0, 7, -1):
        with pytest.raises(UsageError):
            base_change_lattice(t, n)
    with pytest.raises(DomainError):  # the form is read before the degree
        base_change_lattice((1, 0, -1), 0)


# --- j-function ----------------------------------------------------------------

def test_j_series_prefix():
    _extend_jser(3)
    assert _JSER[:4] == [1, 744, 196884, 21493760]


def test_j_series_first_seven_coefficients():
    _extend_jser(6)
    assert _JSER[:7] == [1, 744, 196884, 21493760, 864299970,
                         20245856256, 333202640600]


def test_j_special_values():
    assert abs(j_invariant(1j) - 1728) <= 1e-9 * 1728
    assert abs(j_invariant(2j) - 287496) <= 1e-9 * 287496
    assert abs(j_invariant(complex(0, 2 ** 0.5)) - 8000) <= 1e-9 * 8000
    zeta3 = complex(-0.5, 3 ** 0.5 / 2)
    assert abs(j_invariant(zeta3)) <= 1e-6


def test_j_modular_invariance():
    rng = random.Random(11)
    for _ in range(25):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
        j0 = j_invariant(tau)
        scale = max(1.0, abs(j0))
        assert abs(j_invariant(tau + 1) - j0) <= 1e-8 * scale
        assert abs(j_invariant(-1 / tau) - j0) <= 1e-8 * scale


def test_j_rejects_bad_input():
    with pytest.raises(DomainError):
        j_invariant(complex(0.3, -1.0))
    with pytest.raises(DomainError):
        j_invariant(0.5)


# --- Inose pencils ---------------------------------------------------------------

def test_inose_coefficients_special():
    pencil = inose_coefficients(1728, 1728)
    assert abs(pencil.A - 1) <= 1e-12
    assert abs(pencil.B) <= 1e-12
    pencil = inose_coefficients(0, 0)
    assert pencil.A == 0
    assert abs(pencil.B - 1) <= 1e-12


def test_inose_relations_random():
    rng = random.Random(3)
    for _ in range(25):
        j1 = complex(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000))
        j2 = complex(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000))
        pencil = inose_coefficients(j1, j2)
        d1, d2 = pencil.relation_defects()
        assert d1 <= 1e-10 * max(1.0, abs(j1 * j2) / 12 ** 6)
        assert d2 <= 1e-10 * max(1.0, abs(pencil.B) ** 2)


def test_inose_deterministic():
    j1, j2 = complex(13.5, -2.25), complex(-987.125, 44.0)
    first = inose_coefficients(j1, j2)
    again = inose_coefficients(j1, j2)
    assert (first.A, first.B) == (again.A, again.B)  # bit-identical


def test_inose_pencil_shape():
    pencil = InosePencil(2 + 0j, 3 + 0j, 0j, 0j)
    assert pencil.a4 == (0j, 0j, 0j, 0j, -6 + 0j)
    assert pencil.a6 == (0j, 0j, 0j, 0j, 0j, 1 + 0j, -6 + 0j, 1 + 0j)


def test_inose_pencil_from_form():
    pencil = inose_pencil_from_form((1, 0, 1))
    assert abs(pencil.A - 1) <= 1e-6
    assert abs(pencil.B) <= 1e-6
    # (1,0,2) has both periods at i*sqrt(2), j = 8000: A = 25/9, B = 98/27
    pencil = inose_pencil_from_form((1, 0, 2))
    assert abs(pencil.A - Fraction(25, 9)) <= 1e-6
    assert abs(pencil.B - Fraction(98, 27)) <= 1e-6


# --- class field bookkeeping ------------------------------------------------------

def test_ring_class_degree():
    assert ring_class_degree(-4) == 1
    assert ring_class_degree(-64) == 2
    assert ring_class_degree(-23) == 3


def test_ns_field_check():
    assert ns_field_check(-163, 2)
    assert ns_field_check(-4, 2)
    assert not ns_field_check(-23, 2)
    with pytest.raises(UsageError):
        ns_field_check(-4, 0)
