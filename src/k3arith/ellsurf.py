"""Kodaira fiber bookkeeping and Mordell-Weil rank arithmetic for elliptic
surfaces, specialized to the cyclic covers of an Inose pencil.

Fiber types carry their component count m and Euler number e as fixed
constants.  The two numbers drive everything else: the Shioda-Tate formula
rho = 2 + rank(MW) + sum_v (m_v - 1), and the K3 criterion sum_v e_v = 24.
"""

from functools import lru_cache

from .errors import InconsistencyError, UsageError, frozen

NOT_ISOGENOUS = "not_isogenous"
ISOGENOUS_NO_CM = "isogenous_no_cm"
ISOGENOUS_CM = "isogenous_cm"
RELATIONS = (NOT_ISOGENOUS, ISOGENOUS_NO_CM, ISOGENOUS_CM)


@lru_cache(maxsize=None)
def _constants(tag: str):
    """(m, e) for a normalized Kodaira tag."""
    table = {"II": (1, 2), "III": (2, 3), "IV": (3, 4),
             "IV*": (7, 8), "III*": (8, 9), "II*": (9, 10)}
    if tag in table:
        return table[tag]
    star = tag.endswith("*")
    body = tag[:-1] if star else tag
    if body.startswith("I") and body[1:].isdigit():
        n = int(body[1:])
        if star:
            return (n + 5, n + 6)
        return (n, n) if n >= 1 else (1, 0)
    raise UsageError(f"unknown Kodaira fiber tag {tag!r}")


@frozen
class KodairaFiberType:
    """One of I_n (n >= 0), I_n* (n >= 0), II, III, IV, II*, III*, IV*.
    Tags are plain strings like "I2", "I0*", "II*"."""
    tag: str

    def __post_init__(self):
        # "I_2" and "I_0*" are accepted as input aliases but the stored tag is
        # canonical ("I2", "I0*") so equality and dict keys are well defined.
        if self.tag.startswith("I_"):
            object.__setattr__(self, "tag", "I" + self.tag[2:])
        _constants(self.tag)  # validates

    @property
    def m(self) -> int:
        """Number of irreducible components of the fiber."""
        return _constants(self.tag)[0]

    @property
    def e(self) -> int:
        """Local Euler number contribution."""
        return _constants(self.tag)[1]

    @property
    def is_smooth(self) -> bool:
        return self.tag == "I0"

    def __repr__(self):
        return self.tag


def I(n: int) -> KodairaFiberType:
    return KodairaFiberType(f"I{n}")


def I_star(n: int) -> KodairaFiberType:
    return KodairaFiberType(f"I{n}*")


II = KodairaFiberType("II")
III = KodairaFiberType("III")
IV = KodairaFiberType("IV")
II_STAR = KodairaFiberType("II*")
III_STAR = KodairaFiberType("III*")
IV_STAR = KodairaFiberType("IV*")


@frozen
class FiberConfiguration:
    """Multiset of singular fibers as sorted (type, multiplicity) pairs."""
    entries: tuple

    @classmethod
    def of(cls, items) -> "FiberConfiguration":
        """items: mapping or iterable of (tag-or-type, multiplicity)."""
        counts = {}
        pairs = items.items() if hasattr(items, "items") else items
        for key, mult in pairs:
            fiber = key if isinstance(key, KodairaFiberType) else KodairaFiberType(key)
            if mult < 0:
                raise UsageError("multiplicities must be nonnegative")
            if mult:
                counts[fiber] = counts.get(fiber, 0) + mult
        return cls(tuple(sorted(counts.items(), key=lambda kv: kv[0].tag)))

    def euler(self) -> int:
        return sum(f.e * mult for f, mult in self.entries)

    def sum_m_minus_1(self) -> int:
        return sum((f.m - 1) * mult for f, mult in self.entries)

    def as_dict(self):
        return {f.tag: mult for f, mult in self.entries}

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        if not self.entries:
            return "FiberConfiguration()"
        return " + ".join(f"{mult} {f.tag}" for f, mult in self.entries)


def euler_number(config: FiberConfiguration) -> int:
    """Total Euler number of the singular fibers; 24 characterizes K3."""
    return config.euler()


def shioda_tate_rank(rho: int, config: FiberConfiguration) -> int:
    """Mordell-Weil rank r = rho - 2 - sum_v (m_v - 1)."""
    if not 2 <= rho <= 20:
        raise UsageError("rho must lie in 2..20 for a complex elliptic surface")
    r = rho - 2 - config.sum_m_minus_1()
    if r < 0:
        raise InconsistencyError(
            f"configuration forces rank {r} < 0: incompatible with rho = {rho}")
    return r


_BASE_CHANGE = {0: I(0), 1: II_STAR, 2: IV_STAR, 3: I_star(0), 4: IV, 5: II}


def base_change_fiber(n: int) -> KodairaFiberType:
    """Pullback type of a II* fiber under a cyclic base change of degree n
    (characteristic outside 2, 3).  Depends only on n mod 6:
    0 -> I0, 1 -> II*, 2 -> IV*, 3 -> I0*, 4 -> IV, 5 -> II."""
    if n < 1:
        raise UsageError("degree must be a positive integer")
    return _BASE_CHANGE[n % 6]


def rho_kummer_product(relation: str) -> int:
    """rho(Km(E x E')) = 18 + rank Hom(E, E'): 18, 19 or 20 according to
    E, E' not isogenous / isogenous without CM / isogenous with CM."""
    key = relation.replace("-", "_")
    if key not in RELATIONS:
        raise UsageError(f"relation must be one of {RELATIONS}")
    return {NOT_ISOGENOUS: 18, ISOGENOUS_NO_CM: 19, ISOGENOUS_CM: 20}[key]


def kuwata_row(n: int, relation: str, isomorphic: bool = False):
    """Fiber configuration and Mordell-Weil rank of the degree-n cyclic
    cover of an Inose pencil attached to (E, E'), j-invariants outside
    {0, 1728}.

    The cover replaces the two II* fibers by two base_change_fiber(n)
    fibers (dropped entirely at n = 6 where they become smooth) and
    acquires 4n I_1 fibers, which collide into n I_2 plus 2n I_1 when
    E and E' are isomorphic.  The rank comes out of shioda_tate_rank with
    rho = rho_kummer_product(relation)."""
    if not 1 <= n <= 6:
        raise UsageError("base-change degree must lie in 1..6: beyond 6 the "
                         "cover is no longer K3")
    rho = rho_kummer_product(relation)
    key = relation.replace("-", "_")
    if isomorphic and key == NOT_ISOGENOUS:
        raise UsageError("isomorphic curves are in particular isogenous")
    entries = []
    bc = base_change_fiber(n)
    if not bc.is_smooth:
        entries.append((bc, 2))
    if isomorphic:
        entries.append((I(2), n))
        entries.append((I(1), 2 * n))
    else:
        entries.append((I(1), 4 * n))
    config = FiberConfiguration.of(entries)
    return config, shioda_tate_rank(rho, config)
