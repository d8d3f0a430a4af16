"""Core data model for allocation of indivisible goods.

All values are non-negative integers on a per-instance grid: an instance with
``scale = S`` reads value ``v`` as the rational ``v / S``.  Every comparison a
solver makes happens on integers or on :class:`fractions.Fraction`, never on
floats, so results are exact and reproducible bit for bit.

An allocation is a :data:`Partition`, as a maximin witness is: one ascending
tuple of goods per agent.  :func:`verify_allocation` judges any bundles.

Agents and goods are indexed from 0 in code.  The JSON file formats index
goods (and agents in certificate rows) from 1; the loaders and dumpers here do
the translation.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

Number = Union[int, Fraction]

#: The grid of a generated instance, and the algorithms and success
#: predicates of a Monte Carlo trial.  The command line parser reads them,
#: so they live here, not in the experiments module it would have to run.
DEFAULT_SCALE = 10**6
TRIAL_ALGORITHMS = ("rr", "rr-modified")
PREDICATES = ("proportional", "mms")


class InputError(ValueError):
    """Malformed instance, allocation, or parameter (CLI exit code 2)."""


class PartitionError(InputError):
    """Bundles that do not form a partition of the good set."""


class GuaranteeError(RuntimeError):
    """A solver's self-checked guarantee failed to hold (CLI exit code 1)."""


def record(cls):
    """Make cls an immutable record of the fields its body annotates: a
    subclass of their named tuple with no ``__dict__``, which equals only
    records of its own class and hashes as the tuple of its fields.  A value
    the body assigns a field is its default, so defaults trail.  A
    ``__post_init__`` the class defines is looked up at each construction,
    ``_make`` and ``_replace`` included, and returns the record to keep: to
    convert a field it builds one by ``tuple.__new__``, which checks
    nothing.  ``dataclasses`` would import ``inspect`` at start-up.

    >>> @record
    ... class Pair:
    ...     left: int
    ...     right: int = 0
    >>> Pair(1), Pair(1) == Pair(left=1, right=0), Pair(1) == (1, 0)
    (Pair(left=1, right=0), True, False)
    """
    names = tuple(vars(cls).get("__annotations__", {}))
    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    defaults = [body.pop(name) for name in names if name in body]
    base = namedtuple(cls.__name__, names, defaults=defaults)
    body.update(__slots__=(), __eq__=_same, __ne__=_differ, __hash__=tuple.__hash__)
    if "__post_init__" in body:
        def __new__(cls, *args, **kwargs):
            return cls.__post_init__(base.__new__(cls, *args, **kwargs))
        body.update(__new__=__new__, _make=classmethod(lambda cls, it: cls(*it)))
    return type(cls.__name__, (base,), body)


def _same(self, other) -> bool:
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _differ(self, other) -> bool:
    return not _same(self, other)


_INT = frozenset((int,))


def is_int(value) -> bool:
    """An int that is not a bool: the one test of every integer input."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_values(values: Sequence, label: str, i: int = 0) -> None:
    """Raise InputError unless every value is a non-negative int, naming the
    first bad one ``label.format(i=i, j=j)`` for its position j.  Only a row
    that fails the one pass over its types and one ``min`` is walked."""
    if _INT.issuperset(map(type, values)) and (not values or min(values) >= 0):
        return
    for j, v in enumerate(values):
        if not is_int(v):
            raise InputError(f"{label.format(i=i, j=j)} is not an integer: {v!r}")
        if v < 0:
            raise InputError(f"{label.format(i=i, j=j)} is negative: {v}")


def as_rational(value, label: str, i: int = 0) -> Fraction:
    """value as a Fraction; InputError naming it ``label.format(i=i)`` when
    it is no rational, as with None, "abc", "1/0" or an infinite float.

    A Fraction, an int or a float is taken as given, and a Decimal is read
    through its text.  Text, read here alone in the package as Fraction
    reads it, has too many digits to print when its numerator or
    denominator passes ``sys.get_int_max_str_digits()``: an exponent that
    passes it by more than the text before it decides so before any power
    of ten is built, so "1e-99999999" ends at once.  With the limit off (0)
    no text is too long.
    """
    if type(value) is Fraction:
        return value
    name = label.format(i=i)
    try:
        is_text = isinstance(value, (str, Decimal))
        frac = _read_rational(str(value)) if is_text else Fraction(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"{name} is not a rational: {value!r}") from exc
    if frac is None:
        raise InputError(f"{name} has too many digits to print, got {value!r}")
    return frac


def _read_rational(text: str) -> Optional[Fraction]:
    """Fraction(text), or None when it has too many digits to print."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # none before 3.10.7
    mantissa, e, exponent = text.lower().partition("e")
    if limit and e and abs(int(exponent)) - len(mantissa) >= limit:
        # Past 10**(limit + len(mantissa)) or below its inverse, unless 0:
        # the text with a short exponent of the same form says which.
        return Fraction(0) if Fraction(f"{mantissa}e{exponent[0]}0") == 0 else None
    frac = Fraction(text)
    try:
        str(frac)
    except ValueError:  # a numerator or denominator past the limit
        return None
    return frac


def check_count(value, name: str, least: Optional[int], most: Optional[int] = None) -> None:
    """Raise InputError unless value is an int from least to most, an end
    that is None left open: the one rule of every size, count, seed and
    index.  A seed for random.Random starts at 0, as it reads -s as s.  Each
    index is checked from 0 to its size - 1 where a caller hands it in:
    Instance.row, bundle_value, _require_partition, matching and orders."""
    if not is_int(value):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InputError(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise InputError(f"{name} must be at most {most}, got {value}")


def as_tuple(items, name: str) -> tuple:
    """items as a tuple; InputError naming it when it is no iterable, as
    with None or an int where a caller's container of indices or values
    belongs: the one conversion of each such container."""
    try:
        return tuple(items)
    except TypeError:
        raise InputError(f"{name} must be a sequence, got {items!r}") from None


@record
class Instance:
    """An additive valuation profile: ``valuations[i][j]`` is agent i's value
    for good j, an integer on the grid ``1/scale``.  The rows are kept as a
    tuple of tuples, so no row changes after it is checked.

    >>> inst = Instance.from_rows([[4, 3, 2, 1], [1, 1, 1, 1]])
    >>> inst.n, inst.m
    (2, 4)
    """

    n: int
    m: int
    scale: int
    valuations: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> Instance:
        check_count(self.n, "n", 1)
        check_count(self.m, "m", 0)
        check_count(self.scale, "scale", 1)
        try:
            rows = tuple(map(tuple, self.valuations))
        except TypeError:
            raise InputError("valuations must be a sequence of rows") from None
        if len(rows) != self.n:
            raise InputError(
                f"valuation matrix has {len(rows)} rows, expected n={self.n}"
            )
        for i, row in enumerate(rows):
            if len(row) != self.m:
                raise InputError(
                    f"valuation row {i} has {len(row)} entries, expected m={self.m}"
                )
            check_values(row, "valuation[{i}][{j}]", i)
        return tuple.__new__(Instance, (self.n, self.m, self.scale, rows))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], scale: int = 1) -> "Instance":
        try:
            rows = tuple(rows)
            m = len(rows[0]) if rows else 0
        except TypeError:
            raise InputError("valuations must be a sequence of rows") from None
        return cls(len(rows), m, scale, rows)

    @property
    def agents(self) -> range:
        return range(self.n)

    @property
    def goods(self) -> range:
        return range(self.m)

    def row(self, agent: int) -> tuple[int, ...]:
        """Agent's valuation row; agent is checked by core.check_count."""
        check_count(agent, "agent", 0, self.n - 1)
        return self.valuations[agent]


#: An allocation or a witness: one ascending tuple of goods per bundle.
Partition = tuple[tuple[int, ...], ...]


def partition(bundles: Iterable[Iterable[int]]) -> Partition:
    """Each bundle as the ascending tuple of the goods it lists, a repeat
    kept, with nothing checked: the one normaliser of solver output,
    witnesses and allocation files.

    >>> partition([{2, 0}, [1]])
    ((0, 2), (1,))
    """
    return tuple(map(tuple, map(sorted, bundles)))


def _require_partition(
    bundles: Sequence[Iterable], m: int, first: int = 0, n: Optional[int] = None
) -> None:
    """Raise PartitionError unless bundles, n of them if n is given, list
    each of m goods once, goods and bundles numbered from first (0 in code,
    1 in files), naming a wrong count of bundles, else the first good out
    of range (by core.check_count, so before it is hashed), listed twice or
    missing: the one judge of a partition.  m comes from a checked Instance."""
    if n is not None and len(bundles) != n:
        raise PartitionError(f"allocation has {len(bundles)} bundles, expected n={n}")
    seen: dict[int, int] = {}
    for i, bundle in enumerate(bundles, first):
        for g in bundle:
            try:
                check_count(g, "good", first, m - 1 + first)
            except InputError as exc:
                raise PartitionError(str(exc)) from None
            if g in seen:
                if seen[g] == i:
                    raise PartitionError(f"good {g} appears twice in bundle {i}")
                raise PartitionError(f"good {g} appears in bundles {seen[g]} and {i}")
            seen[g] = i
    if len(seen) != m:
        missing = sorted(set(range(first, m + first)) - seen.keys())
        raise PartitionError(f"goods missing from allocation: {missing}")


def bundle_value(instance: Instance, agent: int, goods: Iterable[int]) -> int:
    """Agent's total value for a set of goods, as an exact scaled integer.
    The agent and each good are checked by core.check_count.

    >>> inst = Instance.from_rows([[4, 3, 2, 1], [1, 1, 1, 1]])
    >>> bundle_value(inst, 0, {0, 2})
    6
    """
    row = instance.row(agent)
    total = 0
    for g in as_tuple(goods, "goods"):
        check_count(g, "good", 0, instance.m - 1)
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


def verify_allocation(
    instance: Instance,
    allocation: Sequence[Iterable[int]],
    thresholds: Sequence[Number],
) -> tuple[Certificate, ...]:
    """Check every agent's bundle against a per-agent value threshold, and
    return one certificate row per agent, in agent order.

    The allocation, and each of its bundles, is any sequence; one that is
    no sequence raises :class:`InputError` naming it.  Structural problems
    (wrong bundle count, a good out of range, listed twice or missing) raise
    :class:`PartitionError` before any value comparison.  Thresholds may be
    integers or Fractions; comparisons are exact.  A threshold that is no
    rational raises :class:`InputError` naming its agent.

    >>> inst = Instance.from_rows([[4, 3, 2, 1], [1, 1, 1, 1]])
    >>> alloc = ((0, 2), (1, 3))
    >>> all(row.ok for row in verify_allocation(inst, alloc, [5, 2]))
    True
    >>> rows = verify_allocation(inst, alloc, [7, 2])
    >>> [row.agent for row in rows if not row.ok]
    [0]
    """
    listed = as_tuple(allocation, "allocation")
    bundles = [as_tuple(b, f"bundle {i}") for i, b in enumerate(listed)]
    _require_partition(bundles, instance.m, n=instance.n)
    thresholds = as_tuple(thresholds, "thresholds")
    if len(thresholds) != instance.n:
        raise InputError(f"got {len(thresholds)} thresholds for n={instance.n} agents")
    label = "threshold of agent {i}"
    # The partition is judged, so each good is summed unchecked.
    return tuple(
        Certificate(i, sum(map(row.__getitem__, b)), as_rational(t, label, i))
        for i, (row, b, t) in enumerate(zip(instance.valuations, bundles, thresholds))
    )


# ---------------------------------------------------------------------------
# JSON file formats.  Instances: {"n", "m", "scale", "valuations"}.
# Allocations: {"bundles": [[good, ...], ...], "certificates": [...]} with
# goods and agents indexed from 1 in files.  Certificate thresholds are stored
# as the integer ceiling of the exact rational threshold; since bundle values
# are integers, v >= p/q holds exactly when v >= ceil(p/q), so the stored
# check is equivalent to the exact one.
# ---------------------------------------------------------------------------


#: What json.dumps(..., indent=2) puts between two values of a row.
_VALUE_SEPARATOR = ",\n      "


def instance_pieces(
    n: int, m: int, scale: int, rows: Iterable[Sequence[int]]
) -> Iterator[str]:
    """An instance file's text, the text of ``json.dumps(payload, indent=2)
    + "\n"``, as a head, one piece per row and a tail.  Each row is read
    only when its piece is asked for, so whoever writes the pieces holds one
    row's text at a time, and the rows may be drawn as they are written.
    The caller vouches for the fields: n >= 1 rows of m ints.  A value too
    long to print raises ValueError once the pieces before it are out."""
    yield f'{{\n  "n": {n},\n  "m": {m},\n  "scale": {scale},\n  "valuations": [\n'
    separator = ""
    for row in rows:
        values = _VALUE_SEPARATOR.join(map(str, row))
        yield separator + (f"    [\n      {values}\n    ]" if row else "    []")
        separator = ",\n"
    yield "\n  ]\n}\n"


def instance_to_json(instance: Instance) -> str:
    return "".join(
        instance_pieces(instance.n, instance.m, instance.scale, instance.valuations)
    )


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
    rows = payload["valuations"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("instance valuations must be a list of lists")
    instance = Instance(payload["n"], payload["m"], payload["scale"], rows)
    for i, row in enumerate(instance.valuations):
        try:
            str(sum(row))
        except ValueError:  # past the int digit limit, so no bundle value prints
            raise InputError(f"valuation row {i} totals too many digits") from None
    return instance


def load_instance(path: str) -> Instance:
    """Read an instance file."""
    return instance_from_json(_read(path, "instance"))


def save_instance(instance: Instance, path: str) -> None:
    """Write an instance file one row at a time (see instance_pieces)."""
    rows = instance.valuations
    pieces = instance_pieces(instance.n, instance.m, instance.scale, rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def allocation_payload(
    allocation: Partition, certificates: Sequence[Certificate] = ()
) -> dict:
    """The allocation file's JSON object, with 1-based goods and agents."""
    return {
        "bundles": [[g + 1 for g in bundle] for bundle in allocation],
        "certificates": [
            {"agent": c.agent + 1, "value": c.value, "threshold": c.threshold_int}
            for c in certificates
        ],
    }


def allocation_to_json(
    allocation: Partition, certificates: Sequence[Certificate] = ()
) -> str:
    return json.dumps(allocation_payload(allocation, certificates), indent=2) + "\n"


def allocation_from_json(text: str) -> tuple[Partition, tuple[Certificate, ...]]:
    payload = _decode(text, "allocation")
    if not isinstance(payload, dict) or "bundles" not in payload:
        raise InputError("allocation file must be a JSON object with a 'bundles' key")
    raw_bundles = payload["bundles"]
    if not isinstance(raw_bundles, list) or not all(
        isinstance(b, list) for b in raw_bundles
    ):
        raise InputError("allocation bundles must be a list of lists")
    for b in raw_bundles:
        for g in b:
            if not is_int(g) or g < 1:
                raise InputError(f"good index {g!r} is not a positive integer")
    certs = []
    rows = payload.get("certificates", [])
    if not isinstance(rows, list):
        raise InputError("allocation certificates must be a list")
    for row in rows:
        try:
            fields = [row["agent"], row["value"], row["threshold"]]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed certificate row: {row!r}") from exc
        if not all(map(is_int, fields)):
            raise InputError(f"malformed certificate row: {row!r}")
        agent, value, threshold = fields
        certs.append(Certificate(agent - 1, value, Fraction(threshold)))
    return partition([g - 1 for g in b] for b in raw_bundles), tuple(certs)


def load_allocation(path: str) -> tuple[Partition, tuple[Certificate, ...]]:
    """Read an allocation file and its certificate rows."""
    return allocation_from_json(_read(path, "allocation"))
