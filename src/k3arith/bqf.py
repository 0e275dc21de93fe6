"""Binary quadratic forms: reduction, proper equivalence, class groups, and
Gauss composition by Dirichlet's closed form (two extended gcds, no search).

A triple (a, b, c) stands for the form a x^2 + b x y + c y^2 with Gram
matrix (2a b; b 2c) and discriminant d = b^2 - 4ac.  Only positive definite
forms are admitted: a > 0, c > 0, d < 0.  "Reduced" means |b| <= a <= c
with b >= 0 whenever |b| = a or a = c; every proper (SL(2,Z)) class
contains exactly one reduced form, which is what makes form equality decide
isometry of transcendental lattices of singular K3 surfaces.

Equivalence here is oriented: SL(2,Z) only.  The opposite class of
(a, b, c) is (a, -b, c); a GL(2,Z) check is exposed separately for
diagnostics and is strictly coarser (first seen at d = -23).
"""

from dataclasses import dataclass
from math import gcd, isqrt, lcm

from .errors import DomainError, InconsistencyError, UsageError


@dataclass(frozen=True)
class BinaryQuadraticForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c):
            if not isinstance(v, int):
                raise UsageError("form entries must be integers")
        if self.a <= 0 or self.c <= 0 or self.disc >= 0:
            raise DomainError(f"({self.a},{self.b},{self.c}) is not positive definite")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def content(self) -> int:
        return gcd(gcd(self.a, self.b), self.c)

    @property
    def is_primitive(self) -> bool:
        return self.content == 1

    @property
    def is_reduced(self) -> bool:
        if not (abs(self.b) <= self.a <= self.c):
            return False
        if (abs(self.b) == self.a or self.a == self.c) and self.b < 0:
            return False
        return True

    def conjugate(self) -> "BinaryQuadraticForm":
        """The inverse class under composition."""
        return BinaryQuadraticForm(self.a, -self.b, self.c)

    def gram(self):
        return ((2 * self.a, self.b), (self.b, 2 * self.c))

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def transform(self, alpha, beta, gamma, delta) -> "BinaryQuadraticForm":
        """f(alpha x + beta y, gamma x + delta y); requires det = 1."""
        if alpha * delta - beta * gamma != 1:
            raise UsageError("transform matrix must have determinant 1")
        a2 = self(alpha, gamma)
        c2 = self(beta, delta)
        b2 = (2 * self.a * alpha * beta + self.b * (alpha * delta + beta * gamma)
              + 2 * self.c * gamma * delta)
        return BinaryQuadraticForm(a2, b2, c2)

    def astuple(self):
        return (self.a, self.b, self.c)

    def __repr__(self):
        return f"({self.a},{self.b},{self.c})"


def _coerce(f) -> BinaryQuadraticForm:
    if isinstance(f, BinaryQuadraticForm):
        return f
    return BinaryQuadraticForm(*f)


def reduce(f) -> BinaryQuadraticForm:
    """The unique reduced representative of the proper class of f.

    Alternates translations b -> b + 2ka (placing b in (-a, a]) with the
    inversion (a, b, c) -> (c, -b, a) whenever c < a; terminates because a
    strictly drops on every inversion."""
    f = _coerce(f)
    a, b, c = f.a, f.b, f.c
    while True:
        if b > a or b <= -a:
            k = (a - b) // (2 * a)
            c = c + k * (b + k * a)
            b = b + 2 * k * a
        if c < a:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return BinaryQuadraticForm(a, b, c)


def is_isomorphic_singular_k3(f, g) -> bool:
    """Oriented lattice-isometry test: true iff the reduced SL(2,Z)
    representatives coincide.  GL(2,Z) equivalence is NOT accepted; opposite
    classes like (2,1,3) and (2,-1,3) at d = -23 stay distinct."""
    return reduce(f) == reduce(g)


def gl_equivalent(f, g) -> bool:
    """Diagnostic: equivalence allowing orientation reversal."""
    rf, rg = reduce(f), reduce(g)
    return rf == rg or rf == reduce(rg.conjugate())


def scale(f, n: int) -> BinaryQuadraticForm:
    """Lattice rescaling T -> T[n]: (a, b, c) -> (na, nb, nc); the
    discriminant picks up n^2."""
    f = _coerce(f)
    if n < 1:
        raise UsageError("scale factor must be a positive integer")
    return BinaryQuadraticForm(n * f.a, n * f.b, n * f.c)


def principal_form(d: int) -> BinaryQuadraticForm:
    _check_disc(d)
    b0 = d & 1
    return BinaryQuadraticForm(1, b0, (b0 * b0 - d) // 4)


def _check_disc(d: int):
    if d >= 0 or d % 4 not in (0, 1):
        raise DomainError(f"{d} is not a negative discriminant (need d = 0, 1 mod 4)")


def compose(f, g) -> BinaryQuadraticForm:
    """Gauss composition by Dirichlet's closed form (Cohen, "A Course in
    Computational Algebraic Number Theory", 5.4): with s = (b1 + b2)/2 and
    e = gcd(a1, a2, s) = u a1 + v a2 + w s, the composite is
    (a1 a2 / e^2, (u a1 b2 + v a2 b1 + w (b1 b2 + d)/2) / e, *), reduced."""
    f, g = _coerce(f), _coerce(g)
    if f.disc != g.disc:
        raise DomainError("forms must share a discriminant")
    if not (f.is_primitive and g.is_primitive):
        raise DomainError("composition needs primitive forms")
    (a1, b1), (a2, b2), d = (f.a, f.b), (g.a, g.b), f.disc
    h, x, y = _egcd(a1, a2)
    e, z, w = _egcd(h, (b1 + b2) // 2)  # u = z x, v = z y
    A = a1 * a2 // (e * e)
    B, rem = divmod(z * (x * a1 * b2 + y * a2 * b1) + w * (b1 * b2 + d) // 2, e)
    if rem or (B * B - d) % (4 * A):
        raise InconsistencyError(f"composite of {f} and {g} is not integral")
    return reduce(BinaryQuadraticForm(A, B, (B * B - d) // (4 * A)))


def _egcd(a, b):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, u, v = _egcd(b, a % b)
    return (g, v, u - (a // b) * v)


def reduced_forms(d: int, primitive_only: bool = True):
    """All reduced forms of discriminant d, in (a, b, c) order.

    Enumeration: 0 < a <= sqrt(|d|/3), b in (-a, a] with b = d mod 2 and
    4a | b^2 - d, c = (b^2 - d)/(4a) >= a, plus the boundary sign rules."""
    _check_disc(d)
    out = []
    amax = isqrt(-d // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b - d) % 2:
                continue
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            form = BinaryQuadraticForm(a, b, c)
            if primitive_only and not form.is_primitive:
                continue
            out.append(form)
    return out


def class_number(d: int) -> int:
    return len(reduced_forms(d))


@dataclass(frozen=True)
class ClassGroup:
    """Cl(d): the reduced primitive forms of discriminant d with the full
    composition table (table[i][j] is an index into forms)."""
    d: int
    forms: tuple
    table: tuple
    identity_index: int

    @property
    def h(self) -> int:
        return len(self.forms)

    def order_of(self, i: int) -> int:
        e, n = self.identity_index, 1
        cur = i
        while cur != e:
            cur = self.table[cur][i]
            n += 1
        return n

    @property
    def exponent(self) -> int:
        return lcm(*(self.order_of(i) for i in range(self.h)))


def class_group(d: int) -> ClassGroup:
    """Builds Cl(d) by exhaustive reduced-form enumeration plus composition,
    and verifies the group axioms outright (closure and commutativity by
    table construction, identity, inverses, and associativity as one row
    identity (ab)c = a(bc) over all c per pair (a, b))."""
    forms = tuple(reduced_forms(d))
    ident = principal_form(d)
    idx = {f: i for i, f in enumerate(forms)}
    e = idx[ident]
    h = len(forms)
    table = [[None] * h for _ in range(h)]
    for i in range(h):
        for j in range(i, h):
            comp = compose(forms[i], forms[j])
            if comp not in idx:
                raise InconsistencyError("composition left the reduced set")
            table[i][j] = table[j][i] = idx[comp]
    for i in range(h):
        if table[e][i] != i:
            raise InconsistencyError("principal form failed as identity")
        if table[i][idx[reduce(forms[i].conjugate())]] != e:
            raise InconsistencyError(
                "conjugate is not the composition inverse")
    for i in range(h):
        for j in range(h):
            if table[table[i][j]] != [table[i][k] for k in table[j]]:
                raise InconsistencyError("composition is not associative")
    return ClassGroup(d, forms, tuple(tuple(row) for row in table), e)


def class_number_one_discriminants(bound: int):
    """All negative discriminants d with -bound <= d and h(d) = 1, fundamental
    or not, ordered from -3 downward."""
    if bound < 3:
        raise UsageError("bound must be at least 3")
    return [d for d in range(-3, -bound - 1, -1)
            if d % 4 in (0, 1) and class_number(d) == 1]
