"""Exact point counts over finite fields for the surface models used here:
quartics in P^3, double covers of P^2 branched over a sextic, and diagonal
quartics, which admit a Jacobi-sum fast path.

Models carry integer coefficients in a fixed sorted monomial order, so the
canonical serialization (and the cache hash derived from it) is stable.
The stratum scans reduce the coefficients mod p and work in packed field
elements (integers 0..q-1 indexing the addition and multiplication tables
of ff).  The Jacobi fast path needs no tables: each of its 21 three-
character sums factors into two-character sums, O(q) each over the
discrete logs of ff (Weil, "Numbers of solutions of equations in finite
fields", 1949).

Projective points are enumerated without quotienting, by strata on the
first nonzero coordinate (x_0 = 1; then x_0 = 0, x_1 = 1; and so on).
Each affine stratum specializes one variable at a time and finishes with a
Horner evaluation in the last one.  The dominant stratum can be chunked
over its leading coordinate across worker processes; chunk subtotals are
exact integers added in chunk order, so the worker count never changes the
result.
"""

import json
import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, InconsistencyError, UnsupportedError, UsageError
from .ff import CyclotomicInt, FieldCtx, MultChar, jacobi_sum

FEASIBILITY_CAP = 300_000_000  # rough elementary field operations


@lru_cache(maxsize=None)
def monomial_exponents(nvars: int, degree: int) -> tuple:
    """All exponent tuples of the given total degree, sorted ascending."""
    if nvars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree + 1):
        for rest in monomial_exponents(nvars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(sorted(out))


QUARTIC_EXPONENTS = monomial_exponents(4, 4)
SEXTIC_EXPONENTS = monomial_exponents(3, 6)


def _check_coeffs(coeffs, n, what):
    if len(coeffs) != n:
        raise UsageError(f"{what} takes {n} coefficients, got {len(coeffs)}")
    for c in coeffs:
        if not isinstance(c, int) or isinstance(c, bool):
            raise UsageError(f"{what} coefficients must be integers")


def _hash_canonical(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Quartic:
    """Quartic surface in P^3: coefficients in the order QUARTIC_EXPONENTS."""
    coeffs: tuple

    def __post_init__(self):
        _check_coeffs(self.coeffs, len(QUARTIC_EXPONENTS), "Quartic")

    @classmethod
    def from_dict(cls, d) -> "Quartic":
        coeffs = [0] * len(QUARTIC_EXPONENTS)
        index = {e: i for i, e in enumerate(QUARTIC_EXPONENTS)}
        for exps, c in d.items():
            key = tuple(exps)
            if key not in index:
                raise UsageError(f"not a degree-4 monomial in 4 variables: {key}")
            coeffs[index[key]] += c
        return cls(tuple(coeffs))

    def to_quartic(self) -> "Quartic":
        return self

    def items(self, p: int):
        """Nonzero (exponents, coefficient mod p) pairs."""
        return [(e, c % p) for e, c in zip(QUARTIC_EXPONENTS, self.coeffs)
                if c % p]

    def surface_hash(self) -> str:
        return _hash_canonical({"model": "quartic", "coeffs": list(self.coeffs)})


@dataclass(frozen=True)
class DiagonalQuartic:
    """a0 x0^4 + a1 x1^4 + a2 x2^4 + a3 x3^4 = 0 in P^3."""
    a: tuple

    def __post_init__(self):
        _check_coeffs(self.a, 4, "DiagonalQuartic")

    def to_quartic(self) -> Quartic:
        return Quartic.from_dict({
            (4, 0, 0, 0): self.a[0], (0, 4, 0, 0): self.a[1],
            (0, 0, 4, 0): self.a[2], (0, 0, 0, 4): self.a[3]})

    def surface_hash(self) -> str:
        # hash as the quartic it is, so fast and direct counts share records
        return self.to_quartic().surface_hash()


def fermat_quartic() -> DiagonalQuartic:
    return DiagonalQuartic((1, 1, 1, 1))


@dataclass(frozen=True)
class DoubleSextic:
    """Double plane w^2 = F(x0, x1, x2), F a sextic with coefficients in
    the order SEXTIC_EXPONENTS."""
    coeffs: tuple

    def __post_init__(self):
        _check_coeffs(self.coeffs, len(SEXTIC_EXPONENTS), "DoubleSextic")

    @classmethod
    def from_dict(cls, d) -> "DoubleSextic":
        coeffs = [0] * len(SEXTIC_EXPONENTS)
        index = {e: i for i, e in enumerate(SEXTIC_EXPONENTS)}
        for exps, c in d.items():
            key = tuple(exps)
            if key not in index:
                raise UsageError(f"not a degree-6 monomial in 3 variables: {key}")
            coeffs[index[key]] += c
        return cls(tuple(coeffs))

    def items(self, p: int):
        return [(e, c % p) for e, c in zip(SEXTIC_EXPONENTS, self.coeffs)
                if c % p]

    def surface_hash(self) -> str:
        return _hash_canonical({"model": "double_sextic",
                                "coeffs": list(self.coeffs)})


class DworkPencil:
    """x0^4 + x1^4 + x2^4 + x3^4 = lam * x0 x1 x2 x3."""

    def member(self, lam: int) -> Quartic:
        if not isinstance(lam, int) or isinstance(lam, bool):
            raise UsageError("pencil parameter must be an integer")
        d = {e: 1 for e in ((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4))}
        d[(1, 1, 1, 1)] = -lam
        return Quartic.from_dict(d)

    def good_reduction(self, p: int) -> bool:
        return p != 2

    def is_smooth_member(self, lam: int, p: int) -> bool:
        """Smooth over F_p-bar iff lam^4 != 256 (char p > 2)."""
        if not self.good_reduction(p):
            return False
        return (pow(lam, 4, p) - 256) % p != 0


dwork_pencil = DworkPencil()


# --- affine stratum scans ----------------------------------------------------

def _pow_table(ctx: FieldCtx, maxdeg: int):
    mul = ctx.packed_tables()[1]
    pw = []
    for x in range(ctx.q):
        row = [1]
        for _ in range(maxdeg):
            row.append(mul[row[-1]][x])
        pw.append(row)
    return pw


def _chi_table(ctx: FieldCtx):
    if ctx.q % 2 == 0:
        raise UnsupportedError("quadratic character needs odd characteristic")
    mul = ctx.packed_tables()[1]
    squares = {mul[x][x] for x in range(1, ctx.q)}
    return [0] + [1 if x in squares else -1 for x in range(1, ctx.q)]


def _affine_scan(items, k, ctx, mode, lo=0, hi=None):
    """Scan the k-variable affine stratum of the polynomial given by items
    (list of (exponent tuple, packed coefficient)).  mode "zeros" counts
    zeros; mode "chi" sums the quadratic character of the values."""
    q = ctx.q
    add, mul = ctx.packed_tables()
    table = _chi_table(ctx) if mode == "chi" else None
    if hi is None:
        hi = q

    if k == 0:
        v = 0
        for _, c in items:
            v = add[v][c]
        return (1 if v == 0 else 0) if mode == "zeros" else table[v]

    maxdeg = max((e[-1] for e, _ in items), default=0)
    pw = _pow_table(ctx, max(max((max(e) for e, _ in items), default=0), 1))

    def scan1(items1, rng):
        cv = [0] * (maxdeg + 1)
        for (e,), c in items1:
            cv[e] = add[cv[e]][c]
        acc = 0
        for x in rng:
            v = cv[maxdeg]
            for e in range(maxdeg - 1, -1, -1):
                v = add[mul[v][x]][cv[e]]
            acc += (v == 0) if mode == "zeros" else table[v]
        return acc

    if k == 1:
        return scan1(items, range(lo, hi))

    def scan2(items2, rng):
        acc = 0
        for b in rng:
            pb = pw[b]
            cv = [0] * (maxdeg + 1)
            for (e1, e2), c in items2:
                cb = mul[c][pb[e1]]
                if cb:
                    cv[e2] = add[cv[e2]][cb]
            for x in range(q):
                v = cv[maxdeg]
                for e in range(maxdeg - 1, -1, -1):
                    v = add[mul[v][x]][cv[e]]
                acc += (v == 0) if mode == "zeros" else table[v]
        return acc

    if k == 2:
        return scan2(items, range(lo, hi))

    acc = 0
    for a in range(lo, hi):
        pa = pw[a]
        spec = {}
        for (e1, e2, e3), c in items:
            ca = mul[c][pa[e1]]
            if ca:
                key = (e2, e3)
                spec[key] = add[spec.get(key, 0)][ca]
        acc += scan2(list(spec.items()), range(q))
    return acc


def _scan_worker(payload):
    p, r, modulus, items, k, mode, lo, hi = payload
    ctx = FieldCtx(p, r, modulus)
    return _affine_scan(items, k, ctx, mode, lo, hi)


def _scan_stratum(items, k, ctx, mode, jobs):
    """Scan with optional process parallelism over the outermost variable."""
    if jobs <= 1 or k < 2 or ctx.q < 8:
        return _affine_scan(items, k, ctx, mode)
    q = ctx.q
    nchunks = min(q, 4 * jobs)
    bounds = [q * i // nchunks for i in range(nchunks + 1)]
    payloads = [(ctx.p, ctx.r, ctx.modulus, items, k, mode, bounds[i], bounds[i + 1])
                for i in range(nchunks)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        subtotals = list(pool.map(_scan_worker, payloads))
    # ordered reduction: exact integers, chunk order fixed above
    total = 0
    for s in subtotals:
        total += s
    return total


def _strata_items(items, nvars, s):
    """Restrict to the stratum x_0 = ... = x_{s-1} = 0, x_s = 1."""
    out = {}
    for exps, c in items:
        if any(exps[i] for i in range(s)):
            continue
        key = exps[s + 1:]
        out[key] = out.get(key, 0) + c
    return [(e, c) for e, c in out.items()]


def count_quartic(surface, ctx: FieldCtx, jobs: int = 1) -> int:
    """#X(F_q) for a quartic surface in P^3 by stratified enumeration.
    Works for any quartic; smoothness is never assumed."""
    quartic = surface.to_quartic()
    items = quartic.items(ctx.p)
    total = 0
    for s in range(4):
        sub = _strata_items(items, 4, s)
        sub = [(e, c % ctx.p) for e, c in sub if c % ctx.p]
        total += _scan_stratum(sub, 3 - s, ctx, "zeros", jobs if s == 0 else 1)
    return total


def _partial_items(items, i, p):
    """Items of d/dx_i applied to the polynomial given by items, mod p."""
    out = []
    for exps, c in items:
        cc = (c * exps[i]) % p
        if cc:
            e = list(exps)
            e[i] -= 1
            out.append((tuple(e), cc))
    return out


def is_smooth_quartic(surface, ctx: FieldCtx) -> bool:
    """Jacobian criterion checked at every F_q-rational point: returns False
    when some rational point of the quartic also kills all four partials.
    A True answer certifies only the rational points; a singular point seen
    first over an extension needs a re-run at larger r."""
    quartic = surface.to_quartic()
    p, q = ctx.p, ctx.q
    if 200 * q ** 3 > FEASIBILITY_CAP:
        raise UsageError(f"rational-point smoothness scan infeasible at q = {q}")
    f_items = quartic.items(p)
    partials = [_partial_items(f_items, i, p) for i in range(4)]
    add, mul = ctx.packed_tables()
    pw = _pow_table(ctx, 4)

    def ev(items, coords):
        v = 0
        for exps, c in items:
            t = c
            for i, e in enumerate(exps):
                if e:
                    t = mul[t][pw[coords[i]][e]]
                    if not t:
                        break
            v = add[v][t]
        return v

    one = ctx.one.packed
    for s in range(4):
        free = 3 - s
        for rest in range(q ** free):
            coords = [0] * s + [one]
            x = rest
            for _ in range(free):
                coords.append(x % q)
                x //= q
            if ev(f_items, coords):
                continue
            if all(ev(pi, coords) == 0 for pi in partials):
                return False
    return True


def count_double_sextic(surface: DoubleSextic, ctx: FieldCtx, jobs: int = 1) -> int:
    """#X(F_q) for the double plane w^2 = F: each P^2 point contributes
    1 + chi(F(P)) fibers, chi the quadratic character with chi(0) = 0."""
    if ctx.p == 2:
        raise UnsupportedError("double covers need odd characteristic")
    items = surface.items(ctx.p)
    q = ctx.q
    total = q * q + q + 1
    for s in range(3):
        sub = _strata_items(items, 3, s)
        sub = [(e, c % ctx.p) for e, c in sub if c % ctx.p]
        total += _scan_stratum(sub, 2 - s, ctx, "chi", jobs if s == 0 else 1)
    return total


# --- Jacobi-sum fast path for diagonal quartics ------------------------------

def _jacobi_tuples():
    out = []
    for j0 in range(1, 4):
        for j1 in range(1, 4):
            for j2 in range(1, 4):
                for j3 in range(1, 4):
                    if (j0 + j1 + j2 + j3) % 4 == 0:
                        out.append((j0, j1, j2, j3))
    return out


def count_diagonal_quartic_jacobi(surface: DiagonalQuartic, ctx: FieldCtx):
    """(count, Frobenius eigenvalues on H^2) for a diagonal quartic via
    Jacobi sums in Z[i].  Needs q = 1 mod 4 (so the quartic character
    exists over F_q) and characteristic prime to 4 and to the
    coefficients."""
    if not isinstance(surface, DiagonalQuartic):
        raise UsageError("fast path applies to diagonal quartics only")
    q = ctx.q
    if ctx.p == 2 or any(a % ctx.p == 0 for a in surface.a):
        raise UnsupportedError("characteristic divides 4 or a coefficient")
    if q % 4 != 1:
        raise UnsupportedError("Jacobi fast path needs q = 1 mod 4; "
                               "use direct counting instead")
    chi = MultChar(ctx, 4, 1)
    l_minus1 = chi.log(-ctx.one)
    l_a = [chi.log(ctx.element(a)) for a in surface.a]

    @lru_cache(maxsize=None)
    def pair_sum(a, b):  # J(chi^a, chi^b) in O(q); 6 distinct pairs occur
        return jacobi_sum(chi.pow(a), chi.pow(b))

    eigs = []
    total = CyclotomicInt.integer(4, 0)
    for (j0, j1, j2, j3) in _jacobi_tuples():
        # J(chi^j0, chi^j1, chi^j2), the sum over x + y + z = 1 of
        # chi^j0(x) chi^j1(y) chi^j2(z), is J(chi^j0, chi^j1) J(chi^(j0+j1),
        # chi^j2) when chi^(j0+j1) is nontrivial and chi^j0(-1) q otherwise
        if (j0 + j1) % 4:
            j3sum = pair_sum(j0, j1) * pair_sum((j0 + j1) % 4, j2)
        else:
            j3sum = CyclotomicInt.root_power(4, j0 * l_minus1, q)
        twist = (j3 * l_minus1 - j0 * l_a[0] - j1 * l_a[1]
                 - j2 * l_a[2] - j3 * l_a[3]) % 4
        alpha = CyclotomicInt.root_power(4, twist) * j3sum
        if alpha.abs_squared() != q * q:
            raise InconsistencyError("Jacobi eigenvalue off the Weil circle")
        eigs.append(alpha)
        total = total + alpha
    if not total.is_rational():
        raise InconsistencyError("eigenvalue sum is not rational")
    count = q * q + q + 1 + total.rational_value()
    eigs.sort(key=lambda zval: zval.coeffs)
    return count, [CyclotomicInt.integer(4, q)] + eigs


# --- towers ------------------------------------------------------------------

@dataclass(frozen=True)
class CountRecord:
    """One exact count: #X(F_{p^r}) for the surface with the given hash."""
    surface: str
    p: int
    r: int
    count: int

    @property
    def q(self) -> int:
        return self.p ** self.r

    @property
    def trace(self) -> int:
        """t_r = #X(F_{q^r}) - 1 - q^{2r}."""
        return self.count - 1 - self.q * self.q


def _fast_path_ok(surface, p, r) -> bool:
    return (isinstance(surface, DiagonalQuartic) and p != 2
            and all(a % p for a in surface.a) and (p ** r) % 4 == 1)


def _tower_cost(surface, p, r_max) -> int:
    est = 0
    for r in range(1, r_max + 1):
        q = p ** r
        if _fast_path_ok(surface, p, r):
            est += 25 * q * q
        elif isinstance(surface, DoubleSextic):
            est += 8 * q * q
        else:
            est += 3 * q ** 3
        est += 2 * q * q  # arithmetic tables
    return est


def count_tower(surface, p: int, r_max: int, cache=None, jobs: int = 1,
                force: bool = False):
    """Counts #X(F_{p^r}) for r = 1..r_max, consulting and filling the
    cache when one is supplied.  Refuses towers whose estimated cost
    exceeds the feasibility cap unless force is set."""
    if r_max < 1:
        raise UsageError("r_max must be at least 1")
    est = _tower_cost(surface, p, r_max)
    if est > FEASIBILITY_CAP and not force:
        raise UsageError(
            f"tower needs about {est:.1e} field operations "
            f"(cap {FEASIBILITY_CAP:.1e}); pass force=True to override")
    h = surface.surface_hash()
    records = []
    for r in range(1, r_max + 1):
        cached = cache.lookup(h, p, r) if cache is not None else None
        if cached is not None:
            records.append(CountRecord(h, p, r, cached))
            continue
        ctx = FieldCtx(p, r)
        if isinstance(surface, DoubleSextic):
            n = count_double_sextic(surface, ctx, jobs)
        elif _fast_path_ok(surface, p, r):
            n, _ = count_diagonal_quartic_jacobi(surface, ctx)
        else:
            n = count_quartic(surface, ctx, jobs)
        if cache is not None:
            cache.record(h, p, r, n)
        records.append(CountRecord(h, p, r, n))
    return records
