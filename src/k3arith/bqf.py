"""Binary quadratic forms: reduction, proper equivalence, class groups, and
Gauss composition by Cohen's Algorithm 5.4.7 on integer triples (no search).

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

from itertools import islice
from math import gcd, isqrt, lcm

from .errors import (DomainError, InconsistencyError, UsageError, check_ints,
                     check_price, frozen)

CLASS_GROUP_STEPS = 10 ** 7  # cap on each price of this module, in steps


@frozen
class BinaryQuadraticForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        check_ints("form entries", (self.a, self.b, self.c))
        if self.a <= 0 or self.c <= 0 or self.disc >= 0:
            raise DomainError(f"({self.a},{self.b},{self.c}) is not positive definite")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def content(self) -> int:
        return gcd(self.a, self.b, self.c)

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
    """The unique reduced representative of the proper class of f."""
    f = _coerce(f)
    return BinaryQuadraticForm(*_reduce_abc(f.a, f.b, f.c))


def _reduce_abc(a, b, c):
    """Reduces the triple of a positive definite form on integers.

    Alternates translations b -> b + 2ka (placing b in (-a, a]) with the
    inversion (a, b, c) -> (c, -b, a) whenever c < a; terminates because a
    strictly drops on every inversion."""
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
        return a, b, c


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
    """The reduced composite of primitive forms of one discriminant, by
    `_compose_abc`: 0.8 us of the 1.7 us a small product takes (AMD EPYC)."""
    f, g = _coerce(f), _coerce(g)
    if g.disc != f.disc:
        raise DomainError("forms must share a discriminant")
    if not (f.is_primitive and g.is_primitive):
        raise DomainError("composition needs primitive forms")
    return BinaryQuadraticForm(*_compose_abc(f.a, f.b, f.c, g.a, g.b, g.c))


def _compose_abc(a1, b1, c1, a2, b2, c2):
    """Cohen 5.4.7 ("A Course in Computational Algebraic Number Theory"): for
    g = gcd(a1, a2), u a2 = g mod a1, s = (b1 + b2)/2 and e = gcd(g, s) =
    x s + y g, the reduced composite is (a1 a2/e^2, b2 + 2 r a2/e, *),
    r = -(u y (b2 - s) + x c2) mod a1/e.  Both u and, only when g does not
    divide s, x = (s/e)^-1 mod g/e come from `pow`, so y = (e - x s)/g."""
    s, g = (b1 + b2) // 2, gcd(a1, a2)
    try:
        u = pow(a2 // g, -1, a1 // g)
    except ValueError:  # a2/g and a1/g are coprime when g = gcd(a1, a2)
        raise InconsistencyError(f"{g} is not gcd({a1}, {a2})") from None
    e = gcd(s, g)
    x = pow(s // e, -1, g // e) if s % g else 0
    y = (e - x * s) // g
    v1, v2 = a1 // e, a2 // e
    r = -(u * y * (b2 - s) + x * c2) % v1
    c3, rem = divmod(c2 * e + r * (b2 + v2 * r), v1)
    if rem:
        raise InconsistencyError(f"composite of ({a1},{b1},{c1}) and "
                                 f"({a2},{b2},{c2}) is not integral")
    return _reduce_abc(v1 * v2, b2 + 2 * v2 * r, c3)


def _reduced_triples(d: int):
    """Every reduced (a, b, c) of discriminant d, primitive or not, in (a, b)
    order: 0 < a <= sqrt(|d|/3), b in (-a, a] with b = d mod 2 and
    4a | b^2 - d, c = (b^2 - d)/(4a) >= a, and b >= 0 when c = a.  About
    |d|/6 steps of b."""
    _check_disc(d)
    for a in range(1, isqrt(-d // 3) + 1):
        four_a = 4 * a
        for b in range(1 - a + ((a + 1 + d) & 1), a + 1, 2):
            num = b * b - d
            if num % four_a == 0:
                c = num // four_a
                if c > a or (c == a and b >= 0):
                    yield a, b, c


def reduced_forms(d: int, primitive_only: bool = True):
    """All reduced forms of discriminant d, in (a, b, c) order; the
    imprimitive ones too when primitive_only is false."""
    check_price(f"the forms of Cl({d})", -d // 6, CLASS_GROUP_STEPS,
                "enumeration steps")
    return [BinaryQuadraticForm(a, b, c) for a, b, c in _reduced_triples(d)
            if not primitive_only or gcd(a, b, c) == 1]


def class_number(d: int) -> int:
    return len(reduced_forms(d))


@frozen
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


def _generating_set(table, e):
    """Indices S such that e and S, closed under right multiplication by S,
    reach every index: greedily, each new generator is the first index not
    yet reached.  The closure is read off the table, not assumed."""
    gens, reached = [], {e}
    for i in range(len(table)):
        if i in reached:
            continue
        gens.append(i)
        reached.add(i)
        frontier = list(reached)
        while frontier:
            row = table[frontier.pop()]
            for s in gens:
                if row[s] not in reached:
                    reached.add(row[s])
                    frontier.append(row[s])
    return gens


def class_group(d: int) -> ClassGroup:
    """Builds Cl(d) from the reduced primitive forms and their composition
    table, and verifies the group axioms outright.

    Checked: closure (every product is one of the forms), commutativity (by
    construction of the table), the identity row of the principal form,
    conjugates as inverses, and associativity by Light's test.  The set A
    of classes a with (xa)y = x(ay) for all x, y is closed under products
    and holds the identity; so if every s of a generating set S has
    (xs)y = x(sy) for all x, y (one row comparison per x), A is the whole
    table.  S comes from `_generating_set`, whose closure is computed on
    the table itself.

    Cost: about |d|/6 enumeration steps, h(h+1)/2 compositions on triples
    (about 0.8 us each on an AMD EPYC core), and |S| h^2 table reads for
    associativity, with |S| <= log2 h.  Each of |d|/6 and h(h+1)/2 + h^2
    is priced before the work starts (|d|/6 by `reduced_forms`) and refused
    past CLASS_GROUP_STEPS."""
    ident = principal_form(d)
    forms = tuple(reduced_forms(d))
    h = len(forms)
    check_price(f"the products in Cl({d})", h * (h + 1) // 2 + h * h,
                CLASS_GROUP_STEPS, "compositions and table cells")
    abc = [f.astuple() for f in forms]
    idx = {t: i for i, t in enumerate(abc)}
    e = idx[ident.astuple()]
    table = [[None] * h for _ in range(h)]
    for i, (a1, b1, c1) in enumerate(abc):
        for j in range(i, h):
            k = idx.get(_compose_abc(a1, b1, c1, *abc[j]))
            if k is None:
                raise InconsistencyError("composition left the reduced set")
            table[i][j] = table[j][i] = k
    for i, (a, b, c) in enumerate(abc):
        if table[e][i] != i:
            raise InconsistencyError("principal form failed as identity")
        if table[i][idx[_reduce_abc(a, -b, c)]] != e:
            raise InconsistencyError(
                "conjugate is not the composition inverse")
    for s in _generating_set(table, e):
        for row in table:
            if table[row[s]] != [row[k] for k in table[s]]:
                raise InconsistencyError("composition is not associative")
    return ClassGroup(d, forms, tuple(tuple(row) for row in table), e)


def class_number_one_discriminants(bound: int):
    """All negative discriminants d with -bound <= d and h(d) = 1, fundamental
    or not, ordered from -3 downward.  Each enumeration stops at the second
    primitive form: 3.4 steps per unit of bound at 3 x 10^5, priced at 4."""
    if bound < 3:
        raise UsageError("bound must be at least 3")
    check_price(f"the class numbers to d = -{bound}", 4 * bound,
                CLASS_GROUP_STEPS, "enumeration steps")

    def one_class(d):
        primitive = (t for t in _reduced_triples(d) if gcd(*t) == 1)
        return next(islice(primitive, 1, None), None) is None

    return [d for d in range(-3, -bound - 1, -1)
            if d % 4 in (0, 1) and one_class(d)]
