"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes by class: UsageError, DomainError and
UnsupportedError (the input is at fault) or one raised from an OSError -> 2;
everything else that reaches the top level -> 1 (verification failure).

`check_ints` is the one rule for integer arguments.  `check_price` is the
one guard by size: every layer refuses over-size work through it, before
the work starts, against a cap of its own in its own units (price units,
enumeration steps, residue combinations, bytes, digits).  `frozen` is the
one record decorator, in place of `dataclasses`, whose import loads
`inspect` and costs a short `k3` job more than any layer of its own.
"""


class K3ArithError(Exception):
    """Base class for all toolkit errors."""


class UsageError(K3ArithError):
    """Caller passed arguments outside an operation's contract."""


class DomainError(K3ArithError):
    """Input is syntactically fine but mathematically inadmissible
    (zero inversion, non-positive-definite form, trivial character...)."""


class UnsupportedError(K3ArithError):
    """Operation not available for these parameters (e.g. even q for a
    quadratic character, q != 1 mod 4 for the quartic-character fast path)."""


class DataError(K3ArithError):
    """Computed or supplied data violates a hard invariant
    (Weil bound, non-integral Newton output, no functional-equation sign)."""


class InconsistencyError(DataError):
    """A configuration contradicts a claimed invariant (negative MW rank)."""


class MultiplicityError(DataError):
    """A claimed factor does not divide to the claimed multiplicity."""


class IncompletenessError(K3ArithError):
    """Not enough data to finish; `needed` says how many more items."""

    def __init__(self, message, needed=1):
        super().__init__(message)
        self.needed = needed


class PrecisionError(K3ArithError):
    """A requested tolerance cannot be met within the configured limits."""


class IntegrityError(K3ArithError):
    """Persistent store holds conflicting records for one key."""


def check_ints(what: str, values) -> None:
    """Refuse with UsageError any value that is not an int, bool included."""
    if any(not isinstance(v, int) or isinstance(v, bool) for v in values):
        raise UsageError(f"{what} must be integers")


def check_price(what: str, amount: int, cap: int, unit: str) -> None:
    """Refuse with UsageError, before the work starts, an amount past cap.
    Amount and cap are written in scientific notation (through Decimal, as
    an amount may pass float range) at the fewest decimals, at least one,
    at which they differ, so a refusal never reads as its cap."""
    if amount > cap:
        from decimal import Decimal
        amount, cap, k = Decimal(amount), Decimal(cap), 1
        while f"{amount:.{k}e}" == f"{cap:.{k}e}":
            k += 1
        raise UsageError(f"{what} need about {amount:.{k}e} {unit} "
                         f"(cap {cap:.{k}e})")


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a `frozen` record."""


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen(cls):
    """Class decorator giving what `dataclass(frozen=True)` gives a record.

    The fields are the class's own annotations, in order; a class
    attribute of a field's name is its default, and defaults come last.
    __init__ sets the fields, then runs __post_init__ if the class has one;
    __eq__ holds only between instances of one class, __hash__ hashes the
    fields, and __repr__ reads Name(field=value, ...).  A method the class
    defines itself is kept, and so is its __hash__ unless Python set it to
    None beside the class's own __eq__.  Assignment and deletion raise
    FrozenInstanceError.  The methods are compiled from one source string,
    so construction costs what a hand-written __init__ does."""
    own = cls.__dict__
    names = tuple(own.get("__annotations__", {}))
    defaults = tuple(own[n] for n in names if n in own)
    if any(n not in own for n in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default "
                        f"follows one with a default")
    keep_hash = "__hash__" in own and not (own["__hash__"] is None
                                           and "__eq__" in own)
    mine = "".join(f"self.{n}," for n in names)
    theirs = "".join(f"other.{n}," for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = (
        f"def __init__(self, {', '.join(names)}):\n"
        + "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
        + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__")
           else "")
        + "def __eq__(self, other):\n"
          "    if other.__class__ is self.__class__:\n"
          f"        return ({mine}) == ({theirs})\n"
          "    return NotImplemented\n"
          "def __hash__(self):\n"
          f"    return hash(({mine}))\n"
          "def __repr__(self):\n"
          f"    return f'{{self.__class__.__qualname__}}({shown})'\n")
    made = {}
    exec(source, {"_set": object.__setattr__}, made)
    made["__init__"].__defaults__ = defaults
    if keep_hash:
        del made["__hash__"]
    made.update(__setattr__=_refuse_set, __delattr__=_refuse_del)
    for name, fn in made.items():
        if name == "__hash__" or name not in own:
            setattr(cls, name, fn)
    return cls
