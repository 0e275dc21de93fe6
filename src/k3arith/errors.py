"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes by class: UsageError, DomainError and
UnsupportedError (the input is at fault) or one raised from an OSError -> 2;
everything else that reaches the top level -> 1 (verification failure).

`check_ints` is the one rule for integer arguments.  `check_price` is the
one guard by size: every layer refuses over-size work through it, before
the work starts, against a cap of its own in its own units (price units,
enumeration steps, residue combinations, bytes, digits).
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
