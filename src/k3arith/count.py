"""Exact point counts over finite fields for the two surface models used
here: quartics in P^3 (`Quartic`; `DiagonalQuartic` and `fermat_quartic`
build diagonal ones) and double covers of P^2 branched over a sextic
(`DoubleSextic`).  Each scan refuses a surface of the other model.  A
quartic whose only monomials mod p are a_i x_i^4 counts without a scan:
in closed form at p = 2, or at q = 3 mod 4 with p prime to each a_i; else
over F_p by the fibres of x -> x^4, O(p) in Python integers; else by
Jacobi sums when p is prime to each a_i; it is scanned only at r > 1 with
p | a_i.  With e x0 x1 x2 x3 too, e nonzero (a Dwork member), it counts by
fibres on the torus at r = 1, whatever p.  `_route` picks the count and
price of each level.

Models carry integer coefficients in a fixed sorted monomial order, so the
canonical serialization (and the cache hash derived from it) is stable.
The stratum scans reduce the coefficients mod p and work in packed field
elements (integers 0..q-1), evaluated by `FieldCtx.horner`: int64
arithmetic mod p over prime fields, gathers from the q x q operation
tables of ff only for r > 1.  The Jacobi fast path needs no tables: each of
its 21 three-character sums factors into two-character sums, O(q) each
over the discrete logs of ff (Weil, "Numbers of solutions of equations in
finite fields", 1949).

`_projective_scan` enumerates projective points without quotienting, by
strata on the first nonzero coordinate (x_0 = 1; then x_0 = 0, x_1 = 1;
and so on), for every count and the smoothness scan.  One kernel,
`_affine_scan`, serves every stratum of every model: the coefficients of
the leading variable are evaluated as numpy grids over the other (at most
two) variables, and Horner's rule in the leading variable runs over blocks
of its values.  Every block's tally is a function of (values, shape):
`_zeros` counts common zeros (quartics, the smoothness scan), `_chi_sum`
sums the quadratic character (double sextics).  Only a scan takes
workers: its dominant stratum can be chunked over its leading coordinate
across worker threads (`pool_map`) that share its grids and the field;
chunk subtotals are exact, added in chunk order, so the worker count never
changes the result.  `count_many` is the one walk behind towers, the
modularity check and the CM sieve: it routes each (surface, p, r) key
once, pricing a capped batch first.
"""

import json
import hashlib
import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, product
from math import gcd, prod

from .cache import CountRecord
from .errors import (InconsistencyError, UnsupportedError, UsageError,
                     check_ints, check_price)
from .ff import (CyclotomicInt, FieldCtx, MultChar, _field, check_bytes,
                 check_scan_budget, isprime, jacobi_sum)

FEASIBILITY_CAP = 300_000_000  # `_route` price units, about 1 ns each
BATCH_CAP = 2_000_000_000  # `_route` price units, about 2 s of torus tallies
_POOL_PRICE = 12_000_000  # `_route` price from which a count gets workers


@lru_cache(maxsize=None)
def monomial_exponents(nvars: int, degree: int) -> tuple:
    """All exponent tuples of the given total degree, sorted ascending."""
    return tuple(e for e in product(range(degree + 1), repeat=nvars)
                 if sum(e) == degree)


QUARTIC_EXPONENTS = monomial_exponents(4, 4)
SEXTIC_EXPONENTS = monomial_exponents(3, 6)


def _check_coeffs(coeffs, n, what):
    if len(coeffs) != n:
        raise UsageError(f"{what} takes {n} coefficients, got {len(coeffs)}")
    check_ints(f"{what} coefficients", coeffs)


def _hash_canonical(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class _DenseModel:
    """Integer coefficients in the order of the subclass's EXPONENTS; the
    subclass's MODEL names it in the surface hash."""
    coeffs: tuple
    EXPONENTS = ()
    MODEL = ""

    def __post_init__(self):
        _check_coeffs(self.coeffs, len(self.EXPONENTS), type(self).__name__)

    @classmethod
    def from_dict(cls, d):
        coeffs = [0] * len(cls.EXPONENTS)
        index = {e: i for i, e in enumerate(cls.EXPONENTS)}
        for exps, c in d.items():
            key = tuple(exps)
            if key not in index:
                e = cls.EXPONENTS[0]
                raise UsageError(f"not a degree-{sum(e)} monomial in "
                                 f"{len(e)} variables: {key}")
            coeffs[index[key]] += c
        return cls(tuple(coeffs))

    def items(self, p: int):
        """Nonzero (exponents, coefficient mod p) pairs."""
        return [(e, c % p) for e, c in zip(self.EXPONENTS, self.coeffs)
                if c % p]

    def surface_hash(self) -> str:
        return _hash_canonical({"model": self.MODEL, "coeffs": list(self.coeffs)})


class Quartic(_DenseModel):
    """Quartic surface in P^3: coefficients in the order QUARTIC_EXPONENTS."""
    EXPONENTS = QUARTIC_EXPONENTS
    MODEL = "quartic"


def DiagonalQuartic(a) -> Quartic:
    """The quartic a0 x0^4 + a1 x1^4 + a2 x2^4 + a3 x3^4 = 0 in P^3, named
    like the model constructors `cli._MODELS` lists it beside."""
    _check_coeffs(a, 4, "DiagonalQuartic")
    return Quartic.from_dict({(4, 0, 0, 0): a[0], (0, 4, 0, 0): a[1],
                              (0, 0, 4, 0): a[2], (0, 0, 0, 4): a[3]})


def fermat_quartic() -> Quartic:
    return DiagonalQuartic((1, 1, 1, 1))


class DoubleSextic(_DenseModel):
    """Double plane w^2 = F(x0, x1, x2), F a sextic with coefficients in
    the order SEXTIC_EXPONENTS."""
    EXPONENTS = SEXTIC_EXPONENTS
    MODEL = "double_sextic"


class DworkPencil:
    """x0^4 + x1^4 + x2^4 + x3^4 = lam * x0 x1 x2 x3."""

    def member(self, lam: int) -> Quartic:
        check_ints("pencil parameters", (lam,))
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


# --- the scan kernel ---------------------------------------------------------

_SCAN_BLOCK = 2 ** 14  # grid points per numpy pass; bounds the temporaries


def pool_map(fn, payloads, jobs):
    """[fn(x) for x in payloads] in payload order, so a reduction over them
    is deterministic, on min(jobs, payloads, CPUs) threads (numpy releases
    the GIL) or serially below two; when a call raises or the wait is
    interrupted, the calls not yet started never run."""
    workers = min(jobs, len(payloads), os.cpu_count() or 1)
    if workers < 2:
        return [fn(x) for x in payloads]
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, payloads))
    finally:
        pool.shutdown(cancel_futures=True)


def _by_leading_degree(items):
    """[items of the coefficient of x^e, leading exponent dropped] for
    e = 0..deg in the leading variable; [[]] for the zero polynomial."""
    parts = [[] for _ in range(1 + max((e[0] for e, _ in items), default=0))]
    for e, c in items:
        parts[e[0]].append((e[1:], c))
    return parts


def _values(items, n, ctx):
    """The polynomial given by items (exponent tuples of length n, packed
    coefficients) at every point of F_q^n, as an array that broadcasts to
    shape (q,) * n.  At n = 0 it is the constant term: restrictions and
    partials keep distinct monomials, so items holds at most one."""
    if n == 0:
        return items[0][1] if items else 0
    import numpy as np
    x = np.arange(ctx.q).reshape((-1,) + (1,) * (n - 1))
    return ctx.horner([_values(part, n - 1, ctx)
                       for part in _by_leading_degree(items)], x)


def _zeros(vals, shape):
    """The common zeros of vals, each array broadcast to the grid shape."""
    import numpy as np
    hit = np.ones(shape, dtype=bool)
    for v in vals:
        hit &= v == 0
    return int(np.count_nonzero(hit))


def _chi_sum(chi, vals, shape):
    """The sum of the table chi over vals[0], broadcast to the grid shape."""
    import numpy as np
    return int(np.broadcast_to(chi[vals[0]], shape).sum())


def _affine_scan(polys, k, ctx, tally=_zeros, jobs=1):
    """Scan the affine stratum F_q^k for the polynomials in polys (lists of
    (exponent tuple, coefficient mod p)): tally(vals, shape) summed over
    the blocks, `_zeros` by default.

    The coefficients of the leading variable are evaluated once as grids
    over the other k - 1 <= 2 variables; Horner's rule in the leading
    variable then runs over blocks of its values, one numpy grid each.
    With w = min(jobs, CPUs) >= 2 the leading coordinate is cut into
    min(q, 4 w) chunks for `pool_map`, which share the grids; subtotals
    are exact.  Checks no budget: `_projective_scan` prices the grids."""
    import numpy as np
    q = ctx.q
    if k == 0:  # the single point of F_q^0
        return tally([_values(f, 0, ctx) for f in polys], ())
    coeffs = [[_values(part, k - 1, ctx) for part in _by_leading_degree(f)]
              for f in polys]
    step = max(1, _SCAN_BLOCK // q ** (k - 1))

    def chunk(bounds):
        lo, hi = bounds
        total = 0
        for a in range(lo, hi, step):
            x = np.arange(a, min(a + step, hi)).reshape((-1,) + (1,) * (k - 1))
            total += tally([ctx.horner(c, x) for c in coeffs],
                           (len(x),) + (q,) * (k - 1))
        return total
    w = min(jobs, os.cpu_count() or 1)
    m = min(q, 4 * w) if w > 1 else 1
    return sum(pool_map(chunk, [(q * i // m, q * (i + 1) // m)
                                for i in range(m)], jobs))


def _projective_scan(polys, n, ctx, tally=_zeros, jobs=1):
    """_affine_scan summed over the strata x_0 = ... = x_{s-1} = 0,
    x_s = 1 of P^n, s = n down to 0; only the dominant s = 0 takes jobs.
    The homogeneous polys restrict to distinct monomials, nonzero mod p.
    Refused by `check_bytes` before numpy loads, at the s = 0 stratum's
    bytes b, 8 an entry: a q^(n-1) grid for each degree of x_1 in each
    poly, Horner's two blocks, and 64 KiB of Python objects.  At most
    TABLE_BYTES // b workers run, as if each held its own grids, but at
    least one, so a scan admitted at one job is admitted at any.  Over
    F_{p^r} the smaller strata build the logs and q x q tables first, in
    the calling thread, and the workers share them."""
    q, total = ctx.q, 0
    grid = q ** (n - 1)
    parts = sum(len({e[1] for e, _ in f}) for f in polys)
    held = 2 ** 16 + 8 * grid * (parts + 2 * max(1, _SCAN_BLOCK // grid))
    check_bytes(f"the scan grids over F_{q}", held)
    from .ff import TABLE_BYTES  # read where ff owns it, not copied here
    jobs = min(jobs, max(1, TABLE_BYTES // held))
    for s in range(n, -1, -1):
        rest = [[(e[s + 1:], c) for e, c in f if not any(e[:s])]
                for f in polys]
        total += _affine_scan(rest, n - s, ctx, tally, jobs if s == 0 else 1)
    return total


def _model_items(surface, model, p):
    """surface.items(p), refused with UsageError unless surface is the
    model (`Quartic` or `DoubleSextic`) whose scan reads them."""
    if not isinstance(surface, model):
        raise UsageError(f"a {model.__name__} scan cannot count a "
                         f"{type(surface).__name__}")
    return surface.items(p)


def count_quartic(surface: Quartic, ctx: FieldCtx, jobs: int = 1) -> int:
    """#X(F_q) for a quartic surface in P^3 by stratified enumeration.
    Works for any quartic; smoothness is never assumed."""
    return _projective_scan([_model_items(surface, Quartic, ctx.p)], 3, ctx,
                            jobs=jobs)


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


def is_smooth_quartic(surface: Quartic, ctx: FieldCtx) -> bool:
    """Jacobian criterion checked at every F_q-rational point: returns False
    when some rational point of the quartic also kills all four partials.
    A True answer certifies only the rational points; a singular point seen
    first over an extension needs a re-run at larger r.  Priced as five
    quartic scans (`_scan_price`)."""
    p, q = ctx.p, ctx.q
    f_items = _model_items(surface, Quartic, p)
    check_price(f"the smoothness scans at q = {q}", 5 * _scan_price(q, ctx.r),
                FEASIBILITY_CAP, "price units")
    polys = [f_items] + [_partial_items(f_items, i, p) for i in range(4)]
    return _projective_scan(polys, 3, ctx) == 0


def count_double_sextic(surface: DoubleSextic, ctx: FieldCtx, jobs: int = 1) -> int:
    """#X(F_q) for the double plane w^2 = F: each P^2 point contributes
    1 + chi(F(P)) fibers, chi the quadratic character with chi(0) = 0,
    read off the squares x^2 that `FieldCtx.horner` gives."""
    items = _model_items(surface, DoubleSextic, ctx.p)
    if ctx.p == 2:
        raise UnsupportedError("double covers need odd characteristic")
    check_scan_budget(ctx.q)  # before the O(q) arrays of squares and chi
    import numpy as np
    chi = np.full(ctx.q, -1, dtype=np.int8)
    chi[ctx.horner([0, 0, 1], np.arange(ctx.q))] = 1
    chi[0] = 0
    return ctx.q ** 2 + ctx.q + 1 + _projective_scan(
        [items], 2, ctx, partial(_chi_sum, chi), jobs)


# --- closed forms for diagonal quartics: Jacobi sums, quadrics, planes -------

def count_diagonal_quartic_jacobi(surface, ctx: FieldCtx):
    """(count, Frobenius eigenvalues on H^2) for a quartic whose only
    monomials mod p are a_i x_i^4, via Jacobi sums in Z[i].  Needs q = 1
    mod 4 (so the quartic character exists over F_q and p is odd) and p
    prime to each a_i, read off one `_diagonal_shape`."""
    p, q = ctx.p, ctx.q
    a = _diagonal_shape(surface, p)
    if a is None or not all(a) or q % 4 != 1:
        raise UnsupportedError("Jacobi fast path needs a diagonal quartic, "
                               "q = 1 mod 4 and p odd and prime to each a_i")
    chi = MultChar(ctx, 4, 1)
    l_minus1 = chi.log(p - 1)  # -1 and a mod p are packed as in F_p
    l_a = [chi.log(c) for c in a]

    @lru_cache(maxsize=None)
    def pair_sum(a, b):  # J(chi^a, chi^b) in O(q); 6 distinct pairs occur
        return jacobi_sum(chi.pow(a), chi.pow(b))

    eigs = []
    total = CyclotomicInt.integer(4, 0)
    for (j0, j1, j2, j3) in product(range(1, 4), repeat=4):
        if (j0 + j1 + j2 + j3) % 4:
            continue
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


def count_diagonal_quartic_quadric(surface, ctx: FieldCtx,
                                   jobs: int = 1) -> int:
    """#X(F_q) for a quartic whose only monomials mod p are a_i x_i^4, where
    gcd(4, q - 1) < 4 (supersingular then: Shioda and Katsura, "On Fermat
    varieties", 1979).  At p = 2, sum a_i x_i^4 = (sum a_i x_i)^4: a
    plane, or P^3 if every a_i is even.  At q = 3 mod 4, p prime to every
    a_i, squaring permutes the squares (a group of odd order), so x^4 and
    y^2 take each value equally often: X has the q^2 + q + 1 + eta(a0 a1
    a2 a3) q points of sum a_i y_i^2 = 0, eta the Legendre symbol mod p: r
    is odd, so (q - 1)/(p - 1) is odd and F_p has the same squares in F_q
    as in itself."""
    q, a = ctx.q, _diagonal_shape(surface, ctx.p)
    if a is None or not (ctx.p == 2 or q % 4 == 3 and all(a)):
        raise UnsupportedError("the closed form needs a diagonal quartic and "
                               "p = 2, or q = 3 mod 4 and p prime to each a_i")
    if ctx.p == 2:
        return q * q + q + 1 + q ** 3 * (not any(a))
    eta = 1 if pow(prod(a), (ctx.p - 1) // 2, ctx.p) == 1 else -1
    return q * q + q + 1 + eta * q


def _torus_shape(surface, p):
    """(a, e) when the quartic's only monomials mod p are a_i x_i^4 and
    e x0 x1 x2 x3, a = [a0, a1, a2, a3] and e mod p, else None."""
    if not isinstance(surface, Quartic):
        return None
    a, e = [0] * 4, 0
    for x, c in surface.items(p):
        if x == (1, 1, 1, 1):
            e = c
        elif 4 in x:
            a[x.index(4)] = c
        else:
            return None
    return a, e


def _diagonal_shape(surface, p):
    """The a of `_torus_shape` when e = 0, else None: a_i x_i^4 alone."""
    a, e = _torus_shape(surface, p) or (None, 1)
    return None if e else a


def count_diagonal_quartic_fibres(surface, ctx: FieldCtx, jobs: int = 1) -> int:
    """#X(F_p) for a quartic whose only monomials mod p are a_i x_i^4, by
    the fibres of x -> x^4 (Weil 1949; Ireland and Rosen, "A Classical
    Introduction to Modern Number Theory", ch. 8).  With H01(w) the points
    of a0 x0^4 + a1 x1^4 = w and H23 those of a2 x2^4 + a3 x3^4 = w, the
    affine cone has N = H01(0) H23(0) + (p - 1)/d sum_{w in R} H01(w)
    H23(-w) points: scaling (x0, x1) by s takes w to s^4 w, so H01 and H23
    are constant on the classes of F_p^* mod fourth powers, d = gcd(4,
    p - 1) of them, R one w from each.  #X = (N - 1)/(p - 1).  O(p) in
    Python integers: no numpy and no field tables; refused by `check_bytes`
    past 64 bytes a p (tracemalloc read at most 62 over F_1009 to F_10^6,
    the most at p = 3 mod 4, where half of F_p^* are fourth powers)."""
    p = ctx.p
    check_bytes(f"fibres of x -> x^4 over F_{p}", 64 * p)
    a = _diagonal_shape(surface, p)
    if ctx.r > 1 or a is None:
        raise UnsupportedError("the fibre count needs r = 1 and a quartic "
                               "whose only monomials mod p are a_i x_i^4")
    d = gcd(4, p - 1)
    reps = {}  # w^((p - 1)/d) names the class of w
    for w in range(1, p):
        reps.setdefault(pow(w, (p - 1) // d, p), w)
        if len(reps) == d:
            break
    # x^4 -> its number of roots: d for each nonzero fourth power (the
    # kernel of x -> x^4 on F_p^*), hit by some x <= p/2 as (-x)^4 = x^4
    powers = dict.fromkeys((pow(x, 4, p) for x in range(1, p // 2 + 1)), d)
    powers[0] = 1

    def fibres(c0, c1):  # w -> #{(x, y) : c0 x^4 + c1 y^4 = w}, 0 <= w < p
        h1 = [0] * p
        for v, k in powers.items():
            h1[c1 * v % p] += k
        # h1[w - u], u = c0 v mod p, is h1[(w - u) mod p]: negative
        # indices wrap
        return lambda w: sum(k * h1[w - c0 * v % p]
                             for v, k in powers.items())

    h01, h23 = fibres(a[0], a[1]), fibres(a[2], a[3])
    n = h01(0) * h23(0) + (p - 1) // d * sum(
        h01(w) * h23(p - w) for w in reps.values())
    if (n - 1) % (p - 1):
        raise InconsistencyError("affine cone count is not 1 mod p - 1")
    return (n - 1) // (p - 1)


@lru_cache(maxsize=1)
def _torus_tally(a, p):
    """(#D(F_p), W), W(w) = #{u in U^3 : S(u)^4/(u1 u2 u3) = w}, U the nonzero
    fourth powers, S(u) = a0 + a1 u1 + a2 u2 + a3 u3: rows (c + a3 u3)^4/u3 of
    the pairs (u1, u2), c = S - a3 u3, tallied by v = u1 u2 and scaled by
    1/v.  U is read off the x <= p/2, as (-x)^4 = x^4.  Only the last tally
    is kept, so a run of counts with one (a, p), such as a pencil's members
    over one F_p, builds it once, and `count_many` charges it once a run."""
    a0, a1, a2, a3 = a
    us = {pow(x, 4, p) for x in range(1, p // 2 + 1)}
    inv = {u: pow(u, -1, p) for u in us}
    res = list(range(p))  # one int object per residue, shared by the rows
    by_v = defaultdict(list)  # v -> c over the pairs (u1, u2)
    for u1 in us:
        for u2 in us:
            by_v[u1 * u2 % p].append(res[(a0 + a1 * u1 + a2 * u2) % p])
    rows = [tuple([res[(c + a3 * u) ** 4 * inv[u] % p] for u in us])
            for c in res]
    w = Counter()
    for v, cs in by_v.items():
        tally = Counter(chain.from_iterable(map(rows.__getitem__, cs)))
        for x, n in tally.items():
            w[x * inv[v] % p] += n
    return count_diagonal_quartic_fibres(DiagonalQuartic(a), _field(p, 1)), w


def count_torus_fibres(surface, ctx: FieldCtx, jobs: int = 1) -> int:
    """#X(F_p), X: D + e x0 x1 x2 x3 = 0, D = sum a_i x_i^4, e nonzero mod p,
    as in the Dwork pencil (Candelas, de la Ossa and Rodriguez-Villegas,
    "Calabi-Yau manifolds over finite fields, I"), at every p.  Off the
    torus X and D agree; on it, x0 = 1, u_i = x_i^4 in U, the m = (p - 1)/d
    nonzero fourth powers, d = gcd(4, p - 1) (U is the squares at p = 3 mod
    4, {1} at p = 2): the d^3 preimages of u have t = x1 x2 x3 run over the
    d fourth roots of u1 u2 u3, d^2 times each, on X iff t = -S(u)/e:
    #X = #D - d^3 W[0] + d^2 W[e^4] (`_torus_tally`), O(m^3), no numpy or
    tables; refused by `check_bytes` past 16 B a p m (tracemalloc: 10.4 to
    12.2 over F_401 to F_3001 at d = 4, 12.8 to 14.8 over F_211 to F_1019
    at d = 2), from p = 5807 at p = 3 mod 4 and p = 8209 at p = 1 mod 4."""
    p = ctx.p
    a, e = _torus_shape(surface, p) or (None, 0)
    if ctx.r > 1 or not e:
        raise UnsupportedError("the torus count needs r = 1 and monomials "
                               "a_i x_i^4, e x0 x1 x2 x3, e != 0")
    d = gcd(4, p - 1)
    check_bytes(f"fibres on the torus over F_{p}", 16 * p * (p - 1) // d)
    n_d, w = _torus_tally(tuple(a), p)
    return n_d - d ** 3 * w[0] + d * d * w[pow(e, 4, p)]


# --- towers ------------------------------------------------------------------

def _count_by_jacobi(surface, ctx, jobs=1):
    """The count alone, in the form `_route` hands counts out."""
    return count_diagonal_quartic_jacobi(surface, ctx)[0]


def _scan_price(q, r):
    """The price of one quartic scan over F_q, q = p^r: see `_route`."""
    return 3 * q ** 3 if r == 1 else 10 * q ** 3 + 2 * q * q


def _route(surface, p, r):
    """(count(surface, ctx, jobs), price) for the level F_{p^r}: the one
    price that refuses work and hands out workers, a unit about 1 ns (2-core
    x86, in-process, a fresh `FieldCtx` each).  A quartic goes by its
    monomials mod p, `_torus_shape` read once, never by its class: when
    its only monomials mod p are a_i x_i^4, (1) by the closed form at
    p = 2, or at q = 3 mod 4 with every a_i nonzero mod p; else (2) by the
    fibre count at r = 1; else (3) by Jacobi sums when every a_i is nonzero
    mod p (left: r > 1, q = 1 mod 4); with e x0 x1 x2 x3 too, e nonzero,
    (4) by the torus count at r = 1; else (5) by the scan, as any quartic.
    Prices: the closed form, 1000 r^3, builds F_{2^r}, r <= 200, in 700 r^3
    ns or less; the fibre count, 300 p, ran at 0.60 to 1.21 ns a unit over
    F_101 to F_1000033 (best of 3); the torus count, 25 m^3 + 10 p^2,
    m = (p - 1)/gcd(4, p - 1), at 0.8 to 1.6 over F_97 to F_1009 at p = 1
    mod 4 (best of 5) and 0.68 to 0.82 over F_211 to F_1019 at p = 3 mod 4
    (median of 5); Jacobi sums, 5000 q, at 4.2 to 7.2 us an element of F_169
    to F_{3^10}; a scan over F_p, 3 q^3, at 1.3 to 1.8 ns a unit over F_101
    to F_251; over F_{p^r}, r > 1, 10 q^3 for the table gathers plus 2 q^2
    for the tables, at 1.2 to 2.0 over F_64 to F_343; a double sextic, 10
    q^2, at 0.7 to 1.2 over F_1009 to F_4001 and 4.4 to 10 over F_{5^4} to
    F_{5^5}.  Counts are module globals read at call time."""
    q = p ** r
    if isinstance(surface, DoubleSextic):
        return count_double_sextic, 10 * q * q
    a, e = _torus_shape(surface, p) or (None, 0)
    if a is not None and not e:
        if p == 2 or q % 4 == 3 and all(a):
            return count_diagonal_quartic_quadric, 1000 * r ** 3
        if r == 1:
            return count_diagonal_quartic_fibres, 300 * p
        if all(a):  # left: r > 1, p odd, q = 1 mod 4
            return _count_by_jacobi, 5000 * q
    elif a is not None and r == 1:
        m = (p - 1) // gcd(4, p - 1)
        return count_torus_fibres, 25 * m ** 3 + 10 * p * p
    return count_quartic, _scan_price(q, r)


def count_many(keys, cache=None, jobs: int = 1, cap=BATCH_CAP, total=0,
               what="the counts"):
    """#X(F_{p^r}) for each (surface, p, r) key, in order, each routed by
    `_route` once.  Under a cap, the running price from total (a torus key
    pays for its tally unless its (a, p) is the last torus key's, the one
    tally `_torus_tally` keeps: Dwork members over one F_p, drawn in a run,
    pay once) is refused by `errors.check_price` at the first key past cap,
    before any count; with cap None each key is counted as it is drawn, so
    a forced tower ends at its first refused count.  Misses count on
    `_field(p, r)` and are recorded.  The one place that hands out `jobs`:
    a count gets them only when its price reaches _POOL_PRICE.  On threads
    a dense quartic took 38.1 ms at 1 job and 28.6 at 2 over F_151 (price
    1.0e7), 53.0 and 32.1 over F_167 (1.4e7), so they pay below it too."""
    return list(count_each(keys, cache, jobs, cap, total, what))


def count_each(keys, cache=None, jobs: int = 1, cap=BATCH_CAP, total=0,
               what="the counts"):
    """`count_many`'s walk: keys priced at the call, counts made as drawn."""
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    def walk(total, last):
        for surface, p, r in keys:
            count, price = _route(surface, p, r)
            if cap is not None:
                if count is count_torus_fibres:  # a tally a run of (a, p)
                    tally = (tuple(_torus_shape(surface, p)[0]), p)
                    price *= tally != last
                    last = tally
                total += price
                check_price(what, total, cap, "price units")
            yield surface, p, r, count, jobs if price >= _POOL_PRICE else 1
    routed = walk(total, None)
    if cap is not None:
        routed = list(routed)  # every key priced before any count
    def counted():
        for surface, p, r, count, workers in routed:
            h = surface.surface_hash()
            n = None if cache is None else cache.lookup(h, p, r)
            if n is None:
                n = count(surface, _field(p, r), workers)
                if cache is not None:
                    cache.record(h, p, r, n)
            yield n
    return counted()


def count_tower(surface, p: int, r_max: int, cache=None, jobs: int = 1,
                force: bool = False):
    """Counts #X(F_{p^r}) for r = 1..r_max by one `count_many` walk over
    the levels, refused at the first level where the running price passes
    FEASIBILITY_CAP, or under force at the first count that refuses."""
    if r_max < 1:
        raise UsageError("r_max must be at least 1")
    if not isprime(p):
        raise UsageError(f"p = {p} is not prime")
    counts = count_many(((surface, p, r) for r in range(1, r_max + 1)), cache,
                        jobs, None if force else FEASIBILITY_CAP,
                        what="the tower's levels (force=True, k3 count "
                        "--force, lifts the cap)")
    h = surface.surface_hash()
    return [CountRecord(h, p, r, n) for r, n in enumerate(counts, 1)]
