"""Core data model for allocation of indivisible goods.

All values are non-negative integers on a per-instance grid: an instance with
``scale = S`` reads value ``v`` as the rational ``v / S``.  Every comparison a
solver makes happens on integers or on :class:`fractions.Fraction`, never on
floats, so results are exact and reproducible bit for bit.

Agents and goods are indexed from 0 in code.  The JSON file formats index
goods (and agents in certificate rows) from 1; the loaders and dumpers here do
the translation.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Number = Union[int, Fraction]


class InputError(ValueError):
    """Malformed instance, allocation, or parameter (CLI exit code 2)."""


class PartitionError(InputError):
    """Bundles that do not form a partition of the good set."""


class GuaranteeError(RuntimeError):
    """A solver's self-checked guarantee failed to hold (CLI exit code 1)."""


def record(cls):
    """Make cls an immutable record of the fields its body annotates.

    It behaves as a frozen dataclass does, without generating code: the
    constructor takes each field by position or keyword, falling back to
    the value the class body assigns it; assigning or deleting a field
    raises AttributeError; records are equal when they are of one class and
    their fields are equal, and hash as the tuple of their fields; the repr
    reads ``Name(field=value, ...)``.  Fields live in the instance
    ``__dict__``, in order.  A ``__post_init__`` the class defines is looked
    up and called after every construction.  Every CLI command builds these
    classes at start-up, where a frozen dataclass costs about a millisecond
    each to generate and ``dataclasses`` imports ``inspect``.

    >>> @record
    ... class Pair:
    ...     left: int
    ...     right: int = 0
    >>> Pair(1), Pair(1) == Pair(left=1, right=0)
    (Pair(left=1, right=0), True)
    """
    names = tuple(vars(cls).get("__annotations__", {}))
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    count = len(names)
    post_init = "__post_init__" in vars(cls)

    def __init__(self, *args, **kwargs):
        if len(args) == count and not kwargs:
            fields = zip(names, args)
        elif not args and tuple(kwargs) == names:
            fields = kwargs.items()
        else:
            fields = _bind(cls, defaults, args, kwargs).items()
        for name, value in fields:
            # One by one, so the instance keeps its compact attribute storage.
            object.__setattr__(self, name, value)
        if post_init:
            self.__post_init__()

    cls.__match_args__ = names
    cls.__init__ = __init__
    cls.__repr__ = _record_repr
    cls.__eq__ = _record_eq
    cls.__hash__ = _record_hash
    cls.__setattr__ = _record_setattr
    cls.__delattr__ = _record_delattr
    return cls


def _bind(cls, defaults: dict, args: tuple, kwargs: dict) -> dict:
    """A record's fields, in order, from constructor arguments that are not
    simply every field by position or every field by keyword in order."""
    names, name = cls.__match_args__, cls.__qualname__
    if len(args) > len(names):
        raise TypeError(
            f"{name}() takes {len(names)} positional arguments "
            f"but {len(args)} were given"
        )
    given = dict(zip(names, args))
    for key, value in kwargs.items():
        if key not in names:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in given:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        given[key] = value
    missing = [key for key in names if key not in given and key not in defaults]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
    return {key: given[key] if key in given else defaults[key] for key in names}


def _record_values(self) -> tuple:
    return tuple(getattr(self, name) for name in self.__match_args__)


def _record_repr(self) -> str:
    fields = ", ".join(
        f"{name}={getattr(self, name)!r}" for name in self.__match_args__
    )
    return f"{type(self).__qualname__}({fields})"


def _record_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _record_values(self) == _record_values(other)


def _record_hash(self) -> int:
    return hash(_record_values(self))


def _record_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


@record
class Instance:
    """An additive valuation profile: ``valuations[i][j]`` is agent i's value
    for good j, an integer on the grid ``1/scale``.

    >>> inst = Instance.from_rows([[4, 3, 2, 1], [1, 1, 1, 1]])
    >>> inst.n, inst.m
    (2, 4)
    """

    n: int
    m: int
    scale: int
    valuations: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError(f"need at least one agent, got n={self.n}")
        if self.m < 0:
            raise InputError(f"negative number of goods: m={self.m}")
        if self.scale < 1:
            raise InputError(f"scale must be a positive integer, got {self.scale}")
        if len(self.valuations) != self.n:
            raise InputError(
                f"valuation matrix has {len(self.valuations)} rows, expected n={self.n}"
            )
        for i, row in enumerate(self.valuations):
            if len(row) != self.m:
                raise InputError(
                    f"valuation row {i} has {len(row)} entries, expected m={self.m}"
                )
            for j, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InputError(f"valuation[{i}][{j}] is not an integer: {v!r}")
                if v < 0:
                    raise InputError(f"valuation[{i}][{j}] is negative: {v}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], scale: int = 1) -> "Instance":
        rows_t = tuple(tuple(row) for row in rows)
        n = len(rows_t)
        m = len(rows_t[0]) if rows_t else 0
        return cls(n=n, m=m, scale=scale, valuations=rows_t)

    @property
    def agents(self) -> range:
        return range(self.n)

    @property
    def goods(self) -> range:
        return range(self.m)

    def row(self, agent: int) -> tuple[int, ...]:
        if not 0 <= agent < self.n:
            raise InputError(f"agent index {agent} out of range for n={self.n}")
        return self.valuations[agent]


@record
class Allocation:
    """An ordered tuple of bundles, one per agent; ``bundles[i]`` holds agent
    i's goods as a frozenset of good indices."""

    bundles: tuple[frozenset[int], ...]

    @classmethod
    def of(cls, bundles: Iterable[Iterable[int]]) -> "Allocation":
        return cls(tuple(frozenset(b) for b in bundles))

    @classmethod
    def checked(cls, bundles: Iterable[Iterable[int]], m: int) -> "Allocation":
        """Build an allocation and verify it partitions goods 0..m-1."""
        alloc = cls.of(bundles)
        alloc.require_partition(m)
        return alloc

    def require_partition(self, m: int) -> None:
        seen: dict[int, int] = {}
        for i, bundle in enumerate(self.bundles):
            for g in bundle:
                if not 0 <= g < m:
                    raise PartitionError(f"good index {g} out of range for m={m}")
                if g in seen:
                    raise PartitionError(
                        f"good {g} appears in bundles {seen[g]} and {i}"
                    )
                seen[g] = i
        if len(seen) != m:
            missing = sorted(set(range(m)) - seen.keys())
            raise PartitionError(f"goods missing from allocation: {missing}")

    def __iter__(self):
        return iter(self.bundles)

    def __len__(self) -> int:
        return len(self.bundles)


def bundle_value(instance: Instance, agent: int, goods: Iterable[int]) -> int:
    """Agent's total value for a set of goods, as an exact scaled integer.

    >>> inst = Instance.from_rows([[4, 3, 2, 1], [1, 1, 1, 1]])
    >>> bundle_value(inst, 0, {0, 2})
    6
    """
    row = instance.row(agent)
    total = 0
    for g in goods:
        if not 0 <= g < instance.m:
            raise InputError(f"good index {g} out of range for m={instance.m}")
        total += row[g]
    return total


@record
class Certificate:
    """One agent's guarantee row: her bundle value and the threshold the
    solver promises it meets; ``ok`` says whether it does."""

    agent: int
    value: int
    threshold: Fraction

    @property
    def ok(self) -> bool:
        return self.value >= self.threshold

    @property
    def threshold_int(self) -> int:
        return math.ceil(self.threshold)


@record
class VerificationReport:
    checks: tuple[Certificate, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[Certificate, ...]:
        return tuple(c for c in self.checks if not c.ok)


def verify_allocation(
    instance: Instance,
    allocation: Allocation,
    thresholds: Sequence[Number],
) -> VerificationReport:
    """Check that every agent's bundle meets a per-agent value threshold.

    Structural problems (wrong bundle count, overlap, missing goods) raise
    :class:`PartitionError` before any value comparison.  Thresholds may be
    integers or Fractions; comparisons are exact.

    >>> inst = Instance.from_rows([[4, 3, 2, 1], [1, 1, 1, 1]])
    >>> alloc = Allocation.of([{0, 2}, {1, 3}])
    >>> verify_allocation(inst, alloc, [5, 2]).ok
    True
    >>> report = verify_allocation(inst, alloc, [7, 2])
    >>> [c.agent for c in report.failures()]
    [0]
    """
    if len(allocation.bundles) != instance.n:
        raise PartitionError(
            f"allocation has {len(allocation.bundles)} bundles, expected n={instance.n}"
        )
    allocation.require_partition(instance.m)
    if len(thresholds) != instance.n:
        raise InputError(
            f"got {len(thresholds)} thresholds for n={instance.n} agents"
        )
    checks = []
    for i in instance.agents:
        value = bundle_value(instance, i, allocation.bundles[i])
        threshold = Fraction(thresholds[i])
        checks.append(Certificate(agent=i, value=value, threshold=threshold))
    return VerificationReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# JSON file formats.  Instances: {"n", "m", "scale", "valuations"}.
# Allocations: {"bundles": [[good, ...], ...], "certificates": [...]} with
# goods and agents indexed from 1 in files.  Certificate thresholds are stored
# as the integer ceiling of the exact rational threshold; since bundle values
# are integers, v >= p/q holds exactly when v >= ceil(p/q), so the stored
# check is equivalent to the exact one.
# ---------------------------------------------------------------------------


def instance_to_json(instance: Instance) -> str:
    payload = {
        "n": instance.n,
        "m": instance.m,
        "scale": instance.scale,
        "valuations": [list(row) for row in instance.valuations],
    }
    return json.dumps(payload, indent=2) + "\n"


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _read(path: str, kind: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{kind} file is not UTF-8 text: {exc}") from exc


def _decode(text: str, kind: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer past the interpreter's digit limit
        raise InputError(f"{kind} file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"{kind} file nests too deeply to decode") from None


def instance_from_json(text: str) -> Instance:
    payload = _decode(text, "instance")
    if not isinstance(payload, dict):
        raise InputError("instance file must contain a JSON object")
    missing = {"n", "m", "scale", "valuations"} - payload.keys()
    if missing:
        raise InputError(f"instance file missing keys: {sorted(missing)}")
    n, m, scale = payload["n"], payload["m"], payload["scale"]
    rows = payload["valuations"]
    if not (_is_int(n) and _is_int(m) and _is_int(scale)):
        raise InputError("instance n, m, scale must be integers")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("instance valuations must be a list of lists")
    rows = tuple(tuple(r) for r in rows)
    instance = Instance(n=n, m=m, scale=scale, valuations=rows)
    for i, row in enumerate(rows):
        try:
            str(sum(row))
        except ValueError:  # past the int digit limit, so no bundle value prints
            raise InputError(f"valuation row {i} totals too many digits") from None
    return instance


def load_instance(path: str) -> Instance:
    """Read an instance file."""
    return instance_from_json(_read(path, "instance"))


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(instance))


def allocation_payload(
    allocation: Allocation, certificates: Sequence[Certificate] = ()
) -> dict:
    """The allocation file's JSON object, with 1-based goods and agents."""
    return {
        "bundles": [sorted(g + 1 for g in bundle) for bundle in allocation.bundles],
        "certificates": [
            {"agent": c.agent + 1, "value": c.value, "threshold": c.threshold_int}
            for c in certificates
        ],
    }


def allocation_to_json(
    allocation: Allocation, certificates: Sequence[Certificate] = ()
) -> str:
    return json.dumps(allocation_payload(allocation, certificates), indent=2) + "\n"


def allocation_from_json(text: str) -> tuple[Allocation, tuple[Certificate, ...]]:
    payload = _decode(text, "allocation")
    if not isinstance(payload, dict) or "bundles" not in payload:
        raise InputError("allocation file must be a JSON object with a 'bundles' key")
    raw_bundles = payload["bundles"]
    if not isinstance(raw_bundles, list) or not all(
        isinstance(b, list) for b in raw_bundles
    ):
        raise InputError("allocation bundles must be a list of lists")
    bundles = []
    for b in raw_bundles:
        for g in b:
            if not _is_int(g) or g < 1:
                raise InputError(f"good index {g!r} is not a positive integer")
        bundles.append(frozenset(g - 1 for g in b))
    certs = []
    rows = payload.get("certificates", [])
    if not isinstance(rows, list):
        raise InputError("allocation certificates must be a list")
    for row in rows:
        try:
            fields = [row["agent"], row["value"], row["threshold"]]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed certificate row: {row!r}") from exc
        if not all(map(_is_int, fields)):
            raise InputError(f"malformed certificate row: {row!r}")
        agent, value, threshold = fields
        certs.append(Certificate(agent - 1, value, Fraction(threshold)))
    return Allocation(tuple(bundles)), tuple(certs)


def load_allocation(path: str) -> tuple[Allocation, tuple[Certificate, ...]]:
    """Read an allocation file and its certificate rows."""
    return allocation_from_json(_read(path, "allocation"))
