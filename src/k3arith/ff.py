"""Prime fields, small extensions, multiplicative characters, Jacobi sums.

Conventions fixed here so that every count is reproducible across runs and
machines:

- F_{p^r} is built as F_p[x]/(f) where f is the lexicographically least
  monic irreducible of degree r, ordering candidates by the integer value
  sum c_i p^i of their non-leading coefficient vector (c_0, ..., c_{r-1}).
  For F_8 this picks x^3 + x + 1, for F_9 it picks x^2 + 1.
- Elements are coefficient vectors of length r, low degree first.  The
  packed integer sum c_i p^i doubles as a stable element index in [0, q).
- The fixed primitive root of F_q^* is the least element in packed order
  with full multiplicative order.  It and the discrete-log table are found
  on coefficient vectors by `_poly_powmod` and `_poly_mulmod`, in O(q).
- `_field(p, r)` keeps the one field `count` counts on.
- `FieldCtx.horner` evaluates polynomials on numpy arrays of packed
  elements for the scan kernel of `count`.  Over F_p it is int64
  arithmetic, reduced mod p only when the next step could reach 2^63, and
  needs neither tables nor discrete logs; its overflow guard bounds one
  evaluation.  For r > 1 it gathers from the q x q packed addition and
  multiplication tables, int32 arrays derived from the element arithmetic:
  multiplication from the discrete logs, addition digit by digit in base
  p.  They are built on first request.  `check_scan_budget` is the one
  q x q budget, for these tables and the double sextic's scan; a quartic
  scan is priced by the bytes of its grids in `count`.
- `check_bytes` prices bytes against TABLE_BYTES through the one guard,
  `errors.check_price`: the q x q budget, the discrete-log list, the
  quartic scans and fibre counts of `count` and the eta series of `cmmod`
  all refuse through it, before they build anything.
- chi(0) = 0 for every multiplicative character.
- Character values and Jacobi sums live exactly in Z[zeta_m], and the
  integer arithmetic, primality too, is `_intpoly`'s: no floats anywhere.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from . import _intpoly
from ._intpoly import isprime
from .errors import DomainError, UnsupportedError, UsageError, check_price

TABLE_BYTES = 256 * 2 ** 20  # the cap of check_bytes
_INT64_LIMIT = 2 ** 63  # int64 Horner keeps every partial value below it


def check_bytes(what: str, nbytes: int) -> None:
    """Refuse with UsageError, before it is built, whatever would take more
    than TABLE_BYTES (one q x q array, the discrete logs, a quartic scan's
    grids, the fibre counts' histograms and rows, an eta series)."""
    check_price(what, nbytes, TABLE_BYTES, "bytes")


def check_scan_budget(q: int) -> None:
    """Refuse F_q with UsageError, for the packed tables and the double
    sextic's scan alone, before they build anything, when one q x q int64
    array (8 q^2 bytes, as much as the two int32 tables of r > 1) would
    pass TABLE_BYTES.  A quartic scan is priced by the bytes it holds."""
    check_bytes(f"q x q scan arrays over F_{q}", 8 * q * q)


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p: Z[x] arithmetic of _intpoly, then mod p

def _poly_mulmod(u, v, f, p):
    return _intpoly.mod_p(_intpoly.mod_monic(_intpoly.mul(u, v), f), p)


def _poly_powmod(u, n, f, p):
    out = [1]
    while n:
        if n & 1:
            out = _poly_mulmod(out, u, f, p)
        u = _poly_mulmod(u, u, f, p)
        n >>= 1
    return out


def _poly_monic(v, p):
    inv = pow(v[-1], p - 2, p)
    return [c * inv % p for c in v]


def _poly_gcd(u, v, p):
    while v:
        u, v = v, _intpoly.mod_p(_intpoly.mod_monic(u, _poly_monic(v, p)), p)
    return _poly_monic(u, p) if u else []


def _is_irreducible(f, p):
    """f monic of degree r over F_p, low-first tuple of length r+1.

    Ben-Or's test: gcd(f, x^(p^k) - x) = 1 for k = 1..r/2, since a
    reducible f has an irreducible factor of degree k <= r/2, and that
    factor divides x^(p^k) - x."""
    t = [0, 1]
    for _ in range((len(f) - 1) // 2):
        t = _poly_powmod(t, p, f, p)
        t_minus_x = t + [0] * (2 - len(t))
        t_minus_x[1] -= 1
        if len(_poly_gcd(f, _intpoly.mod_p(t_minus_x, p), p)) != 1:
            return False
    return True


def _digits(n, p, r):
    """The base-p digits of n, low first: the vector of packed index n."""
    return tuple(n // p ** i % p for i in range(r))


def _least_irreducible(p, r):
    """Deterministic modulus: least monic irreducible in the packed order,
    skipping x | f at r >= 2 and the binomials x^r + c (n < p) when no one
    is irreducible (Lidl and Niederreiter, Finite Fields, Thm. 3.75)."""
    binomials = not (any(r % l == 0 and (p - 1) % l and isprime(l)
                         for l in range(2, r + 1))
                     or r % 4 == 0 and p % 4 == 3)
    for n in range(0 if binomials else p, p ** r):
        if r > 1 and n % p == 0:
            continue
        f = _digits(n, p, r) + (1,)
        if _is_irreducible(f, p):
            return f
    raise DomainError(f"no irreducible polynomial of degree {r} over F_{p}")


# ---------------------------------------------------------------------------
# field context and elements

class FieldCtx:
    """Immutable carrier for F_q = F_{p^r}; shareable across threads."""

    def __init__(self, p: int, r: int = 1):
        if not isprime(p):
            raise DomainError(f"{p} is not prime")
        if r < 1:
            raise UsageError("extension degree must be >= 1")
        self.p = p
        self.r = r
        self.modulus = _least_irreducible(p, r)
        self.q = p ** r
        self._tables = None
        self._dlog = None

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus))

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, r={self.r})"

    # -- element construction

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.ctx != self:
                raise UsageError("element belongs to a different field")
            return value
        if isinstance(value, int):
            value = (value,)
        vec = [int(c) % self.p for c in value]
        if len(vec) > self.r:
            raise UsageError("coefficient vector longer than the degree")
        return FieldElement(self, tuple(vec + [0] * (self.r - len(vec))))

    @property
    def zero(self):
        return self.element(0)

    @property
    def one(self):
        return self.element(1)

    def gen(self) -> "FieldElement":
        """The residue class of x (only meaningful for r > 1)."""
        if self.r == 1:
            raise UsageError("prime field has no extension generator")
        return self.element((0, 1))

    def from_packed(self, n: int) -> "FieldElement":
        return FieldElement(self, _digits(n, self.p, self.r))

    def elements(self):
        for n in range(self.q):
            yield self.from_packed(n)

    def _pack(self, vec) -> int:
        n = 0
        for c in reversed(vec):
            n = n * self.p + c
        return n

    # -- polynomial evaluation for the counting kernel

    def horner(self, coeffs, x):
        """sum_e coeffs[e] * x^e over packed elements, coeffs[e] and x
        numpy arrays (or ints) that broadcast together; coeffs is nonempty
        and its entries lie in [0, q).  Over F_p the result is computed in
        int64: a running bound on the partial values decides when to reduce
        mod p, only before a step that could reach 2^63, and once at the
        end.  Raises UsageError when p is too large for one step, that is
        when (p-1)^2 + (p-1) >= 2^63: a bound on this evaluation, far above
        the q the scans of count accept.  For r > 1 it gathers from
        packed_tables."""
        v = coeffs[-1]
        if self.r > 1:
            add, mul = self.packed_tables()
            for c in reversed(coeffs[:-1]):
                v = add[mul[x, v], c]
            return v
        import numpy as np
        p, top = self.p, self.p - 1
        if top * top + top >= _INT64_LIMIT:
            raise UsageError(f"int64 evaluation over F_{p} would overflow "
                             f"(p must be at most 3037000493)")
        x = np.asarray(x, dtype=np.int64)
        bound = top
        for c in reversed(coeffs[:-1]):
            if bound * top + top >= _INT64_LIMIT:
                v, bound = v % p, top
            v = v * x + c
            bound = bound * top + top
        return v % p if bound > top else v

    # -- packed operation tables for extension fields

    def packed_tables(self):
        """(add, mul) as q x q int32 numpy arrays over packed indices; built
        once, cached.  mul is read off the discrete logs (zero row and
        column), add digit by digit in base p.  Refused by
        `check_scan_budget` before anything is built."""
        if self._tables is None:
            import numpy as np
            p, q = self.p, self.q
            check_scan_budget(q)
            logs = np.array(self.dlog_table()[1:], dtype=np.int32)
            antilog = np.empty(2 * (q - 1), dtype=np.int32)
            antilog[logs] = antilog[logs + (q - 1)] = np.arange(1, q)
            mul = np.zeros((q, q), dtype=np.int32)
            mul[1:, 1:] = antilog[np.add.outer(logs, logs)]
            add = np.zeros((q, q), dtype=np.int32)
            idx = np.arange(q, dtype=np.int32)
            for place in (p ** i for i in range(self.r)):
                digit = idx // place % p
                add += np.add.outer(digit, digit) % p * place
            self._tables = (add, mul)
        return self._tables

    # -- discrete logs over the fixed primitive root

    def primitive_root(self) -> int:
        """Packed index of the least primitive root of F_q^*."""
        p, r, f, q = self.p, self.r, self.modulus, self.q
        exps = [(q - 1) // ell for ell in _intpoly.factor(q - 1)]
        return next(g for g in range(1, q) if all(
            _poly_powmod(_digits(g, p, r), e, f, p) != [1] for e in exps))

    def dlog_table(self):
        """dlog[a] = k with g^k = a for packed a != 0; dlog[0] = None.
        One `_poly_mulmod` walk over the powers of g: O(q) steps and memory.
        Refused by `check_bytes` before the walk when the list would pass
        TABLE_BYTES at 40 bytes an entry (tracemalloc read about 40 at
        q = 5^6, 17^4 and 3^12), that is for q > 6710886."""
        if self._dlog is None:
            check_bytes(f"discrete logs of F_{self.q}", 40 * self.q)
            g = _digits(self.primitive_root(), self.p, self.r)
            table = [None] * self.q
            acc = [1]
            for k in range(self.q - 1):
                table[self._pack(acc)] = k
                acc = _poly_mulmod(acc, g, self.modulus, self.p)
            self._dlog = table
        return self._dlog


@lru_cache(maxsize=1)
def _field(p: int, r: int) -> FieldCtx:
    """FieldCtx(p, r), the one field a process keeps: `count_many` counts
    each miss on it, so a run of keys over one (p, r) builds it once."""
    return FieldCtx(p, r)


@dataclass(frozen=True)
class FieldElement:
    """Plain value data: a coefficient vector relative to its ctx modulus."""
    ctx: FieldCtx
    vec: tuple

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.ctx != self.ctx:
            raise UsageError("operands come from different field contexts")

    def __add__(self, other):
        self._check(other)
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((a + b) % p for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other):
        self._check(other)
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((a - b) % p for a, b in zip(self.vec, other.vec)))

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple(-a % p for a in self.vec))

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        return ctx.element(_poly_mulmod(self.vec, other.vec, ctx.modulus,
                                        ctx.p))

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        ctx = self.ctx
        return ctx.element(_poly_powmod(self.vec, n, ctx.modulus, ctx.p))

    def inv(self):
        if self.is_zero():
            raise DomainError("inversion of zero")
        return self ** (self.ctx.q - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def frobenius(self):
        """a -> a^p, the arithmetic Frobenius."""
        return self ** self.ctx.p

    def is_zero(self):
        return all(c == 0 for c in self.vec)

    @property
    def packed(self) -> int:
        return self.ctx._pack(self.vec)

    def __repr__(self):
        return f"FieldElement({self.vec} over F_{self.ctx.q})"


# ---------------------------------------------------------------------------
# exact cyclotomic integers

@dataclass(frozen=True)
class CyclotomicInt:
    """Element of Z[zeta_m] in the power basis 1, zeta, ..., zeta^(phi(m)-1);
    coefficient tuples always have length deg Phi_m."""
    m: int
    coeffs: tuple

    @staticmethod
    def _reduce(m, raw):
        red = _intpoly.mod_monic(list(raw), list(_intpoly.cyclotomic(m)))
        d = len(_intpoly.cyclotomic(m)) - 1
        return tuple(red) + (0,) * (d - len(red))

    @classmethod
    def zero(cls, m):
        return cls(m, cls._reduce(m, []))

    @classmethod
    def integer(cls, m, n):
        return cls(m, cls._reduce(m, [n]))

    @classmethod
    def root_power(cls, m, e, mult=1):
        """mult * zeta_m^e."""
        e %= m
        return cls(m, cls._reduce(m, [0] * e + [mult]))

    def lift(self, big):
        """Embed into Z[zeta_big]; requires m | big."""
        if big % self.m:
            raise UsageError("target order must be a multiple of m")
        k = big // self.m
        raw = [0] * (max(1, len(self.coeffs)) * k + 1)
        for i, c in enumerate(self.coeffs):
            raw[i * k] += c
        return CyclotomicInt(big, self._reduce(big, raw))

    def _pair(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.integer(self.m, other)
        if self.m == other.m:
            return self, other
        big = lcm(self.m, other.m)
        return self.lift(big), other.lift(big)

    def __add__(self, other):
        a, b = self._pair(other)
        return CyclotomicInt(a.m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return CyclotomicInt(a.m, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self):
        return CyclotomicInt(self.m, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        a, b = self._pair(other)
        raw = _intpoly.mul(list(a.coeffs), list(b.coeffs))
        return CyclotomicInt(a.m, self._reduce(a.m, raw))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational() and self.rational_value() == other
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def conjugate(self):
        """Complex conjugation zeta -> zeta^(-1)."""
        raw = [0] * self.m
        for i, c in enumerate(self.coeffs):
            raw[(-i) % self.m] += c
        return CyclotomicInt(self.m, self._reduce(self.m, raw))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> int:
        if not self.is_rational():
            raise DomainError("value is not a rational integer")
        return self.coeffs[0] if self.coeffs else 0

    def abs_squared(self) -> int:
        """|z|^2 = z * conj(z); exact, must land in Z."""
        return (self * self.conjugate()).rational_value()

    def __repr__(self):
        return f"CyclotomicInt(m={self.m}, {self.coeffs})"


# ---------------------------------------------------------------------------
# multiplicative characters

@dataclass(frozen=True)
class MultChar:
    """chi with chi(g) = zeta_m^k for the ctx's fixed primitive root g;
    chi(0) = 0 by convention.  Exact order is m / gcd(m, k)."""
    ctx: FieldCtx
    m: int
    k: int = 1

    def __post_init__(self):
        if self.m < 1 or (self.ctx.q - 1) % self.m:
            raise DomainError(f"order {self.m} does not divide q - 1 = {self.ctx.q - 1}")

    @property
    def exact_order(self) -> int:
        kk = self.k % self.m
        return self.m // gcd(self.m, kk) if kk else 1

    def is_trivial(self) -> bool:
        return self.k % self.m == 0

    def pow(self, j: int) -> "MultChar":
        return MultChar(self.ctx, self.m, (self.k * j) % self.m)

    def log(self, a):
        """Exponent e with chi(a) = zeta_m^e, or None when a = 0."""
        if isinstance(a, FieldElement):
            a = a.packed
        d = self.ctx.dlog_table()[a]
        if d is None:
            return None
        return (d * self.k) % self.m

    def __call__(self, a) -> CyclotomicInt:
        e = self.log(a)
        if e is None:
            return CyclotomicInt.zero(self.m)
        return CyclotomicInt.root_power(self.m, e)

    def __mul__(self, other: "MultChar") -> "MultChar":
        if self.ctx != other.ctx:
            raise UsageError("characters live on different fields")
        big = lcm(self.m, other.m)
        return MultChar(self.ctx, big,
                        (self.k * (big // self.m) + other.k * (big // other.m)) % big)


def quadratic_character(a: FieldElement) -> int:
    """Legendre-symbol analogue on F_q: 0 at zero, otherwise +-1 computed as
    a^((q-1)/2) identified with its sign."""
    ctx = a.ctx
    if ctx.q % 2 == 0:
        raise UnsupportedError("quadratic character needs odd q")
    if a.is_zero():
        return 0
    s = a ** ((ctx.q - 1) // 2)
    # Lagrange: s is a square root of 1, so it is 1 or -1
    return 1 if s == ctx.one else -1


def jacobi_sum(chi1: MultChar, chi2: MultChar) -> CyclotomicInt:
    """J(chi1, chi2) = sum over x != 0, 1 of chi1(x) chi2(1 - x), exact in
    Z[zeta_lcm(m1, m2)].  Requires chi1, chi2 and chi1*chi2 all nontrivial,
    which forces |J|^2 = q."""
    if chi1.ctx != chi2.ctx:
        raise UsageError("characters live on different fields")
    if chi1.is_trivial() or chi2.is_trivial() or (chi1 * chi2).is_trivial():
        raise DomainError("jacobi_sum needs chi1, chi2 and chi1*chi2 nontrivial")
    ctx = chi1.ctx
    big = lcm(chi1.m, chi2.m)
    f1, f2 = big // chi1.m, big // chi2.m
    l1 = [chi1.log(x) for x in range(ctx.q)]
    l2 = [chi2.log(x) for x in range(ctx.q)]
    # packed index of 1 - x: negate every base-p digit, then add 1 to digit 0
    p = ctx.p
    neg = [0] * ctx.q
    for x in range(1, ctx.q):
        neg[x] = -x % p + p * neg[x // p]
    minus = [(1 - x) % p + p * neg[x // p] for x in range(ctx.q)]
    acc = [0] * big  # counts per exponent in Z[x]/(x^big - 1)
    for x in range(ctx.q):
        e1 = l1[x]
        e2 = l2[minus[x]]
        if e1 is None or e2 is None:
            continue
        acc[(e1 * f1 + e2 * f2) % big] += 1
    return CyclotomicInt(big, CyclotomicInt._reduce(big, acc))
