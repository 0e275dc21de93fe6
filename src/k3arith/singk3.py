"""Singular K3 surfaces through their transcendental lattices.

A positive definite even binary lattice is carried around as an integral
binary quadratic form (a, b, c) with Gram matrix ((2a, b), (b, 2c)).  The
period construction sends a form to the pair of CM points

    tau  = (-b + sqrt(d)) / (2a),    tau' = (b + sqrt(d)) / 2,

held exactly as x + y*sqrt(d) with rational x, y, so lattice identities are
checked without floats.  Floats enter only in the analytic direction: the
j-function is evaluated by an exact integer q-expansion after reduction to
the standard fundamental domain, which keeps |q| <= exp(-pi*sqrt(3)) and
makes the tail estimate honest.
"""

import cmath
import math
import sys
from fractions import Fraction

from ._intpoly import euler_product, mul
from .bqf import BinaryQuadraticForm, _coerce, class_number, reduce, scale
from .errors import (DomainError, InconsistencyError, PrecisionError,
                     UsageError, frozen)


@frozen
class QuadIrr:
    """Exact element x + y*sqrt(d) of an imaginary quadratic field."""
    d: int
    x: Fraction
    y: Fraction

    def __post_init__(self):
        if self.d >= 0:
            raise DomainError("discriminant must be negative")

    def _same(self, other):
        if not isinstance(other, QuadIrr) or other.d != self.d:
            raise UsageError("operands lie in different quadratic fields")
        return other

    def __add__(self, other):
        other = self._same(other)
        return QuadIrr(self.d, self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        other = self._same(other)
        return QuadIrr(self.d, self.x - other.x, self.y - other.y)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadIrr(self.d, self.x * other, self.y * other)
        other = self._same(other)
        return QuadIrr(self.d,
                       self.x * other.x + self.y * other.y * self.d,
                       self.x * other.y + self.y * other.x)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __complex__(self) -> complex:
        """Refuses a |d| or |x| past float range before any float."""
        for what, v in (("|d|", self.d), ("|x|", self.x)):
            if abs(v) > sys.float_info.max:
                raise _past_float_range(what, math.log10(int(abs(v))))
        return complex(float(self.x), float(self.y) * math.sqrt(-self.d))

    def __repr__(self):
        return f"({self.x} + {self.y}*sqrt({self.d}))"


@frozen
class PeriodPair:
    """CM periods (tau, tau') of a singular K3; both in the upper half
    plane, both generating the same imaginary quadratic field."""
    tau: QuadIrr
    tau_prime: QuadIrr


def shioda_mitani_periods(f) -> PeriodPair:
    """Periods of the singular K3 surface with transcendental form f:
    the surface is the fiber product construction over E_tau x E_tau'."""
    f = _coerce(f)
    d = f.disc
    tau = QuadIrr(d, Fraction(-f.b, 2 * f.a), Fraction(1, 2 * f.a))
    tau_p = QuadIrr(d, Fraction(f.b, 2), Fraction(1, 2))
    # a*tau^2 + b*tau + c = 0 and tau'^2 - b*tau' + ac = 0, exactly.
    lhs = f.a * (tau * tau) + f.b * tau
    if not QuadIrr(d, lhs.x + f.c, lhs.y).is_zero():
        raise InconsistencyError("period tau fails its minimal polynomial")
    lhs = tau_p * tau_p - f.b * tau_p
    if not QuadIrr(d, lhs.x + f.a * f.c, lhs.y).is_zero():
        raise InconsistencyError("period tau' fails its minimal polynomial")
    return PeriodPair(tau, tau_p)


def form_from_periods(pair: PeriodPair) -> BinaryQuadraticForm:
    """Reduced transcendental form recovered from a period pair."""
    tau = pair.tau
    inv = Fraction(1, 2) / tau.y
    if inv.denominator != 1 or inv <= 0:
        raise DomainError("tau is not a period of an integral form")
    a = int(inv)
    bq = -tau.x / tau.y
    if bq.denominator != 1:
        raise DomainError("tau is not a period of an integral form")
    b = int(bq)
    num = b * b - tau.d
    if num % (4 * a) != 0:
        raise DomainError("tau is not a period of an integral form")
    return reduce(BinaryQuadraticForm(a, b, num // (4 * a)))


def kummer_double(t) -> BinaryQuadraticForm:
    """T(Km(A)) = T(A)(2): the Kummer construction doubles the form."""
    return base_change_lattice(t, 2)


def base_change_lattice(t, n: int) -> BinaryQuadraticForm:
    """T(X^(n)) = T(X)(n) for the degree-n cyclic cover of the Inose
    pencil, n = 1..6 (the K3 range)."""
    t = _coerce(t)
    if not 1 <= n <= 6:
        raise UsageError("base-change degree must lie in 1..6")
    return scale(t, n)


# --- the elliptic j-function -------------------------------------------------

J_TOL = 1e-12  # relative accuracy of j_invariant
_JSER: list = []  # integer coefficients of j(q)*q = 1 + 744 q + 196884 q^2 + ...


def _extend_jser(n: int) -> None:
    """Fill _JSER through index n: coefficients of E4(q)^3 / (Delta(q)/q)."""
    if len(_JSER) > n:
        return
    size = n + 1
    e4 = [0] * size
    e4[0] = 1
    for k in range(1, size):
        e4[k] = 240 * sum(dd ** 3 for dd in range(1, k + 1) if k % dd == 0)
    e4_3 = mul(mul(e4, e4)[:size], e4)[:size]
    inv_delta = euler_product(-24, n)  # q/Delta(q) = prod (1-q^m)^-24
    _JSER[:] = mul(e4_3, inv_delta)[:size]


_LOG10_FLOAT_MAX = math.log10(sys.float_info.max)  # about 308.25


def _past_float_range(what: str, log10: float) -> DomainError:
    return DomainError(f"{what} is about 10^{log10:.1f}, past float range")


def _fundamental_domain(tau: complex) -> complex:
    """SL_2(Z)-translate with |Re| <= 1/2 and |tau| >= 1."""
    if tau.imag <= 0:
        raise DomainError("tau must lie in the upper half plane")
    for _ in range(512):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) < 1.0 - 1e-13:
            tau = -1 / tau
        else:
            return tau
    raise PrecisionError("fundamental domain reduction did not terminate")


def j_invariant(tau: complex) -> complex:
    """j(tau) by q-expansion, accurate to J_TOL relative to max(1, |j|).

    tau is first moved to the fundamental domain, so the expansion
    parameter satisfies |q| <= exp(-pi*sqrt(3)) ~ 0.00433 and a handful
    of exact integer coefficients suffice.  A tau whose |j| ~ exp(2 pi Im
    tau) would pass float range is refused with DomainError first."""
    tau = _fundamental_domain(complex(tau))
    log10_j = 2 * math.pi * tau.imag / math.log(10)
    if log10_j > _LOG10_FLOAT_MAX:
        raise _past_float_range("|j(tau)|", log10_j)
    q = cmath.exp(2j * cmath.pi * tau)
    _extend_jser(24)
    acc = 0j
    qpow = 1 / q
    small = 0
    n = 0
    while n < 400:
        if n >= len(_JSER):
            _extend_jser(2 * len(_JSER))
        term = _JSER[n] * qpow
        acc += term
        if abs(term) < 0.125 * J_TOL * max(1.0, abs(acc)):
            small += 1
            if small >= 2 and n >= 8:
                return acc
        else:
            small = 0
        qpow *= q
        n += 1
    raise PrecisionError("j-expansion did not reach its tolerance")


# --- Inose pencils -----------------------------------------------------------

@frozen
class InosePencil:
    """Elliptic pencil y^2 = x^3 - 3A t^4 x + t^5 (t^2 - 2B t + 1) with two
    II* fibers, realizing a Shioda-Inose partner of E_j1 x E_j2.  a4 and a6
    are the Weierstrass coefficients as polynomials in t, lowest degree
    first."""
    A: complex
    B: complex
    j1: complex
    j2: complex

    @property
    def a4(self) -> tuple:
        return (0j, 0j, 0j, 0j, -3 * self.A)

    @property
    def a6(self) -> tuple:
        return (0j, 0j, 0j, 0j, 0j, 1 + 0j, -2 * self.B, 1 + 0j)

    def relation_defects(self) -> tuple:
        """Absolute errors in A^3 = j1 j2 / 12^6 and
        B^2 = (1 - j1/12^3)(1 - j2/12^3)."""
        d1 = abs(self.A ** 3 - self.j1 * self.j2 / 12 ** 6)
        d2 = abs(self.B ** 2 - (1 - self.j1 / 12 ** 3) * (1 - self.j2 / 12 ** 3))
        return (d1, d2)


def inose_coefficients(j1: complex, j2: complex) -> InosePencil:
    """Pencil coefficients from the two j-invariants, on principal
    branches: cube root with argument in (-pi/3, pi/3], square root with
    argument in (-pi/2, pi/2].  A j1 j2 past float range is refused with
    DomainError; below it, |B^2| <= (1 + |j1|/12^3)(1 + |j2|/12^3) is
    finite too."""
    j1 = complex(j1)
    j2 = complex(j2)
    z = j1 * j2 / 12 ** 6
    w = (1 - j1 / 12 ** 3) * (1 - j2 / 12 ** 3)
    if not cmath.isfinite(z):
        raise _past_float_range("|j1 j2|", math.log10(abs(j1))
                                + math.log10(abs(j2)))
    a = 0j if z == 0 else cmath.exp(cmath.log(z) / 3)
    b = cmath.sqrt(w)
    return InosePencil(a, b, j1, j2)


def inose_pencil_from_form(f) -> InosePencil:
    """Inose pencil of the singular K3 with transcendental form f: j-values
    at the Shioda-Mitani periods feed inose_coefficients."""
    periods = shioda_mitani_periods(_coerce(f))
    return inose_coefficients(j_invariant(complex(periods.tau)),
                              j_invariant(complex(periods.tau_prime)))


# --- class field bookkeeping -------------------------------------------------

def ring_class_degree(d: int) -> int:
    """[H(d) : K] = h(d) for the ring class field H(d) of the order of
    discriminant d inside K = Q(sqrt(d))."""
    return class_number(d)


def ns_field_check(d: int, degree_L_sqrt_d_over_Q: int) -> bool:
    """Whether a field of the given degree over Q can contain H(d): the
    Neron-Severi generators of the singular K3 with discriminant d force
    L(sqrt(d)) to contain H(d), so [L(sqrt(d)):Q] >= [H(d):Q] = 2 h(d)."""
    if degree_L_sqrt_d_over_Q < 1:
        raise UsageError("field degree must be a positive integer")
    return degree_L_sqrt_d_over_Q >= 2 * ring_class_degree(d)
