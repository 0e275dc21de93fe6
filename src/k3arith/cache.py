"""Append-only persistent store for point counts.

One JSON record per line: {"surface": hex-hash, "p": P, "r": R, "count": N},
with N serialized as a decimal string when it exceeds 53-bit JSON safety.
Loading deduplicates identical records and rejects conflicting counts for
the same key as corruption; a file it cannot read or write, or a line that
is not UTF-8 or not a record, raises DataError naming the path and the line.
A line with a "meta" key, such as the {"meta": "verify", "verified": true}
events older files hold, is skipped.  `as_records` hands the counts out as
CountRecord values, defined here so that reading a count file never loads
the counting layer.

Each record is one os.write of its whole line on an O_APPEND descriptor,
opened at the first append, so several processes may share a file as long
as at most one writes a given (surface, p, r) key.
"""

import json
import os
import weakref

from .errors import DataError, IntegrityError, frozen

_BIG = 2 ** 53  # JSON number safety line


@frozen
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


def _encode_count(n: int):
    """n itself below 2^53, else its decimal string: past Python's limit on
    int-to-str digits (sys.get_int_max_str_digits) through Decimal, which
    ignores it."""
    if abs(n) < _BIG:
        return n
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(n))


def _decode_count(v, where: str) -> int:
    if isinstance(v, bool):
        raise DataError(f"{where}: count must be an integer")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError:
            digits = v[v[:1] in ("+", "-"):]
            if digits.isascii() and digits.isdigit():  # past the digit limit
                from decimal import Decimal
                return int(Decimal(v))
            raise DataError(f"{where}: unparsable count {v!r}") from None
    raise DataError(f"{where}: count must be an integer or decimal string")


class CountCache:
    """In-memory index over an optional append-only LDJSON file."""

    def __init__(self, path=None):
        self.path = os.fspath(path) if path is not None else None
        self._store = {}
        self._fd = None
        self.hits = 0
        self.misses = 0
        if self.path and os.path.exists(self.path):
            self._load()

    def _load(self):
        try:
            with open(self.path, "rb") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise DataError(f"{self.path}: {exc.strerror}") from None
        for lineno, raw in enumerate(lines, start=1):
            where = f"{self.path}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise DataError(f"{where}: not UTF-8") from None
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise DataError(f"{where}: record must be an object")
            if "meta" in obj:
                continue
            key = (obj.get("surface"), obj.get("p"), obj.get("r"))
            if not (isinstance(key[0], str) and all(
                    type(v) is int for v in key[1:])):
                raise DataError(f"{where}: record needs a string surface "
                                f"and integer p and r")
            count = _decode_count(obj.get("count"), where)
            if key in self._store and self._store[key] != count:
                raise IntegrityError(
                    f"{where}: conflicting counts for {key}: "
                    f"{self._store[key]} vs {count}")
            self._store[key] = count

    def _append(self, obj) -> None:
        if self.path is None:
            return
        line = (json.dumps(obj, sort_keys=True) + "\n").encode()
        try:
            if self._fd is None:
                os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
                self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND
                                   | os.O_CREAT, 0o666)
                weakref.finalize(self, os.close, self._fd)
            if os.write(self._fd, line) != len(line):
                raise OSError(0, "short write of a count record")
        except OSError as exc:
            raise DataError(
                f"cannot write {self.path}: {exc.strerror}") from exc

    def lookup(self, surface: str, p: int, r: int):
        """Stored count or None; tallies hit/miss statistics."""
        val = self._store.get((surface, p, r))
        if val is None:
            self.misses += 1
        else:
            self.hits += 1
        return val

    def record(self, surface: str, p: int, r: int, count: int) -> None:
        key = (surface, p, r)
        existing = self._store.get(key)
        if existing is not None:
            if existing != count:
                raise IntegrityError(
                    f"conflicting counts for {key}: cached {existing}, "
                    f"recording {count}")
            return  # benign duplicate, nothing to append
        self._store[key] = count
        self._append({"surface": surface, "p": p, "r": r,
                      "count": _encode_count(count)})

    def __len__(self) -> int:
        return len(self._store)

    def as_records(self):
        """All cached counts as CountRecord values, sorted by key."""
        return [CountRecord(surface=s, p=p, r=r, count=c)
                for (s, p, r), c in sorted(self._store.items())]

    @property
    def stats(self):
        return {"entries": len(self._store), "hits": self.hits,
                "misses": self.misses}
