"""Exact maximin allocation when every value is 0, 1, or 2.

The solver works on a sorted copy of the instance in which each agent's
values are non-increasing by position, so all agents rank positions the
same way.  Positions are padded with zero-value dummies to a multiple of n
and laid out row-major into a k x n bucket matrix; bucket j is column j.
Each agent's per-row value pattern is classified from two counters (her
number of 2s and her number of nonzeros).  An agent is at risk only when
she has both a row mixing 2s and 1s and a row mixing 1s and 0s; each such
agent contributes one edge joining those two rows in a multigraph on rows.
A greedy two-coloring of the rows bounds the monochromatic edges, every
red row is reversed, and edge colors decide whether an at-risk agent must
sit in a leftmost bucket, a rightmost bucket, or anywhere.  Everyone else
is safe in any bucket.  Finally dummies are stripped and the bucket
contents are lifted back to original goods, each owner picking her
most-valued remaining good in decreasing position order.  Every agent ends
with at least her full maximin share, with no approximation loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .core import Allocation, GuaranteeError, InputError, Instance

if TYPE_CHECKING:
    import numpy as np

ROW_2 = "2"
ROW_1 = "1"
ROW_0 = "0"
ROW_21 = "2/1"
ROW_10 = "1/0"
ROW_210 = "2/1/0"

_MIXED_TYPES = (ROW_21, ROW_10, ROW_210)


@dataclass(frozen=True)
class BucketMatrix:
    """Row-major layout of sorted positions into k rows by n columns.

    Position ``r*n + c`` sits in row r, column c when row r is forward;
    reversing a row mirrors its columns.  Column j collects one position
    per row and is called bucket j.
    """

    n: int
    k: int
    reversed_rows: tuple[bool, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError(f"bucket matrix needs n >= 1 columns, got {self.n}")
        if self.k < 0:
            raise InputError(f"bucket matrix needs k >= 0 rows, got {self.k}")
        if len(self.reversed_rows) != self.k:
            raise InputError(
                f"{len(self.reversed_rows)} reversal flags for k={self.k} rows"
            )

    def position(self, row: int, col: int) -> int:
        if not 0 <= row < self.k:
            raise InputError(f"row {row} out of range for k={self.k}")
        if not 0 <= col < self.n:
            raise InputError(f"column {col} out of range for n={self.n}")
        c = self.n - 1 - col if self.reversed_rows[row] else col
        return row * self.n + c

    def bucket(self, col: int) -> tuple[int, ...]:
        """All positions of bucket ``col``, one per row."""
        return tuple(self.position(r, col) for r in range(self.k))


@dataclass(frozen=True)
class RowProfile:
    """Per-row value patterns of one agent over the sorted padded layout.

    ``row_21`` and ``row_10`` are set only when the agent has a dedicated
    2-and-1 row and a dedicated 1-and-0 row; a single row mixing 2s with 0s
    leaves both unset.  At most one row of each mixed kind can exist since
    the agent's values are non-increasing by position.
    """

    agent: int
    row_types: tuple[str, ...]
    row_21: Optional[int]
    row_10: Optional[int]

    @property
    def classified(self) -> bool:
        """True when the agent needs an edge in the row multigraph."""
        return self.row_21 is not None and self.row_10 is not None


@dataclass(frozen=True)
class RowGraph:
    """Multigraph on the k rows, one edge per classified agent."""

    k: int
    edges: tuple[tuple[int, int], ...]
    agents: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.agents) != len(self.edges):
            raise InputError("each edge needs exactly one owning agent")
        for u, v in self.edges:
            if not (0 <= u < self.k and 0 <= v < self.k):
                raise InputError(f"edge ({u}, {v}) out of range for k={self.k}")


@dataclass(frozen=True)
class RowColoring:
    """Red/blue row colors with the monochromatic edge counts."""

    red: tuple[bool, ...]
    blue_blue: int
    red_red: int


def _boundary_row(count: int, n: int) -> Optional[int]:
    """Row index whose interior contains the value boundary after ``count``
    positions, or None when the boundary falls between rows."""
    return count // n if count % n else None


def _profile_from_counts(agent: int, c2: int, c21: int, k: int, n: int) -> RowProfile:
    r2 = _boundary_row(c2, n)
    r1 = _boundary_row(c21, n)
    types = []
    for r in range(k):
        if r2 is not None and r2 == r1 == r:
            types.append(ROW_210)
        elif r == r2:
            types.append(ROW_21)
        elif r == r1:
            types.append(ROW_10)
        elif (r + 1) * n <= c2:
            types.append(ROW_2)
        elif r * n >= c21:
            types.append(ROW_0)
        else:
            types.append(ROW_1)
    both_distinct = r2 is not None and r1 is not None and r2 != r1
    return RowProfile(
        agent=agent,
        row_types=tuple(types),
        row_21=r2 if both_distinct else None,
        row_10=r1 if both_distinct else None,
    )


def profile_rows(sorted_row: Sequence[int], n_buckets: int, agent: int = 0) -> RowProfile:
    """Classify the rows of one agent's non-increasing padded value vector.

    >>> profile_rows([2, 2, 2, 1, 1, 0], 2).row_types
    ('2', '2/1', '1/0')
    >>> profile_rows([2, 2, 2, 1, 1, 0], 2).classified
    True
    >>> profile_rows([1, 1, 1, 0], 2).row_types
    ('1', '1/0')
    """
    vals = list(sorted_row)
    if n_buckets < 1:
        raise InputError(f"need n >= 1 buckets, got {n_buckets}")
    if len(vals) % n_buckets:
        raise InputError(
            f"padded length {len(vals)} is not a multiple of n={n_buckets}"
        )
    if any(v not in (0, 1, 2) for v in vals):
        raise InputError("values must be 0, 1, or 2")
    if any(vals[p] < vals[p + 1] for p in range(len(vals) - 1)):
        raise InputError("values must be non-increasing by position")
    c2 = sum(1 for v in vals if v == 2)
    c21 = sum(1 for v in vals if v >= 1)
    return _profile_from_counts(agent, c2, c21, len(vals) // n_buckets, n_buckets)


def sort_reduce(instance: Instance) -> tuple[Instance, tuple[tuple[int, ...], ...]]:
    """Sort each agent's values non-increasing; return the sorted instance
    and per-agent maps from sorted position to original good.

    Ties go to the lower original index.

    >>> inst, sigmas = sort_reduce(Instance.from_rows([[0, 2, 1]]))
    >>> inst.row(0), sigmas
    ((2, 1, 0), ((1, 2, 0),))
    """
    sigmas = []
    rows = []
    for i in instance.agents:
        row = instance.row(i)
        order = sorted(instance.goods, key=lambda g: (-row[g], g))
        sigmas.append(tuple(order))
        rows.append([row[g] for g in order])
    return Instance.from_rows(rows, scale=instance.scale), tuple(sigmas)


def color_rows(graph: RowGraph) -> RowColoring:
    """Two-color the rows: start all blue, recolor rows red in ascending
    index until at most half the edges are blue on both ends.

    Stopping at the first such step leaves strictly fewer than half the
    edges red on both ends.

    >>> color_rows(RowGraph(k=2, edges=(), agents=())).red
    (False, False)
    >>> color_rows(RowGraph(k=3, edges=((1, 2),), agents=(0,))).red
    (True, True, False)
    """
    e = len(graph.edges)
    red = [False] * graph.k
    blue_blue = e
    nxt = 0
    while 2 * blue_blue > e and nxt < graph.k:
        red[nxt] = True
        nxt += 1
        blue_blue = sum(1 for u, v in graph.edges if not red[u] and not red[v])
    red_red = sum(1 for u, v in graph.edges if red[u] and red[v])
    if 2 * blue_blue > e:
        raise GuaranteeError(f"{blue_blue} of {e} row edges left blue on both ends")
    if e and 2 * red_red >= e:
        raise GuaranteeError(f"{red_red} of {e} row edges red on both ends")
    return RowColoring(red=tuple(red), blue_blue=blue_blue, red_red=red_red)


def lift_allocation(
    original: Instance,
    sorted_alloc: Allocation,
    permutations: Sequence[Sequence[int]],
) -> Allocation:
    """Map an allocation of sorted positions back to original goods.

    Positions are processed in increasing index (most valuable first) and
    the owner of each position picks her most-valued remaining original
    good, ties to the lowest index.  Each agent's lifted value is at least
    her bundle value in the sorted instance.

    >>> inst = Instance.from_rows([[2, 1], [1, 2]])
    >>> alloc = lift_allocation(inst, Allocation.of([[0], [1]]), [(0, 1), (1, 0)])
    >>> sorted(alloc.bundles[0]), sorted(alloc.bundles[1])
    ([0], [1])
    """
    n, m = original.n, original.m
    if len(sorted_alloc.bundles) != n:
        raise InputError(
            f"allocation has {len(sorted_alloc.bundles)} bundles, expected n={n}"
        )
    sorted_alloc.require_partition(m)
    if len(permutations) != n:
        raise InputError(f"{len(permutations)} permutations for n={n} agents")
    for i, sigma in enumerate(permutations):
        if sorted(sigma) != list(range(m)):
            raise InputError(f"permutation {i} is not a permutation of 0..{m - 1}")
    owner = [0] * m
    for i, bundle in enumerate(sorted_alloc.bundles):
        for p in bundle:
            owner[p] = i
    prefs = []
    for i in range(n):
        row = original.row(i)
        prefs.append(sorted(range(m), key=lambda g: (-row[g], g)))
    pointers = [0] * n
    taken = bytearray(m)
    out: list[list[int]] = [[] for _ in range(n)]
    for position in range(m):
        i = owner[position]
        p = pointers[i]
        while taken[prefs[i][p]]:
            p += 1
        good = prefs[i][p]
        taken[good] = 1
        pointers[i] = p + 1
        out[i].append(good)
    return Allocation.of(out)


def _lift_ternary(
    values: np.ndarray, bundles_positions: Sequence[Sequence[int]], m: int
) -> list[list[int]]:
    """Lift for ternary values using per-class good bitsets.

    Within one value class every agent prefers lower good indices, so an
    agent's next pick is the lowest available bit of her highest nonempty
    class mask.  Each pick costs a few word-parallel big-integer ops.
    """
    import numpy as np

    n = len(bundles_positions)
    owner = [0] * m
    for i, bundle in enumerate(bundles_positions):
        for p in bundle:
            owner[p] = i
    class_masks: list[list[int]] = []
    for i in range(n):
        row = values[i]
        per_class = []
        for cls in (2, 1, 0):
            members = row == cls
            if members.any():
                per_class.append(
                    int.from_bytes(
                        np.packbits(members, bitorder="little").tobytes(), "little"
                    )
                )
        class_masks.append(per_class)
    available = (1 << m) - 1
    out: list[list[int]] = [[] for _ in range(n)]
    for position in range(m):
        per_class = class_masks[owner[position]]
        while True:
            hits = per_class[0] & available
            if hits:
                break
            per_class.pop(0)
        lowest = hits & -hits
        available ^= lowest
        out[owner[position]].append(lowest.bit_length() - 1)
    return out


def exact_mms_012(instance: Instance, trace: Optional[list] = None) -> Allocation:
    """Allocate an instance whose values are all 0, 1, or 2 so that every
    agent receives at least her exact maximin share.

    Raises InputError when any value lies outside {0, 1, 2}.

    >>> alloc = exact_mms_012(Instance.from_rows([[2, 2, 1, 1]] * 2))
    >>> sorted(sum(2 if g < 2 else 1 for g in b) for b in alloc.bundles)
    [3, 3]
    """
    # numpy costs tens of ms to import, so only this solver pays for it.
    import numpy as np

    n, m = instance.n, instance.m
    values = np.empty((n, m), dtype=np.int8)
    for i, row in enumerate(instance.valuations):
        try:
            wide = np.fromiter(row, dtype=np.int64, count=m)
        except OverflowError:
            raise InputError("values must be 0, 1, or 2 in scaled units") from None
        if m and int(wide.max()) > 2:
            raise InputError("values must be 0, 1, or 2 in scaled units")
        values[i] = wide.astype(np.int8)
    if m == 0:
        if trace is not None:
            trace.append(
                {
                    "rows": 0,
                    "dummies": 0,
                    "sorted_applied": False,
                    "edges": (),
                    "edge_agents": (),
                    "red_rows": (),
                    "left": (),
                    "right": (),
                    "seats": tuple(range(n)),
                }
            )
        return Allocation.of([()] * n)

    k = -(-m // n)
    m_padded = k * n
    is_sorted = m < 2 or bool(np.all(values[:, 1:] <= values[:, :-1]))
    if is_sorted:
        sorted_vals = values
    else:
        sorted_vals = -np.sort(-values, axis=1)
    padded = np.zeros((n, m_padded), dtype=np.int8)
    padded[:, :m] = sorted_vals
    cube = padded.reshape(n, k, n)

    bucket_values = cube.sum(axis=1, dtype=np.int64)
    gaps = bucket_values[:, 0] - bucket_values[:, -1]
    if int(gaps.min()) < 0 or int(gaps.max()) > 2:
        raise GuaranteeError("first-to-last bucket gap outside [0, 2]")
    count_2 = np.count_nonzero(padded == 2, axis=1)
    count_12 = np.count_nonzero(padded >= 1, axis=1)
    # Rows whose first and last entries agree are constant for that agent,
    # so reversing them cannot change any of her bucket values.
    mixed = cube[:, :, 0] != cube[:, :, -1]

    profiles = []
    edges = []
    edge_agents = []
    for i in range(n):
        profile = _profile_from_counts(i, int(count_2[i]), int(count_12[i]), k, n)
        profiles.append(profile)
        expected_mixed = {
            r for r, t in enumerate(profile.row_types) if t in _MIXED_TYPES
        }
        if {int(r) for r in np.nonzero(mixed[i])[0]} != expected_mixed:
            raise GuaranteeError(f"agent {i}: mixed rows disagree with her profile")
        if profile.classified:
            if int(gaps[i]) != 2:
                raise GuaranteeError(
                    f"agent {i}: classified with bucket gap {int(gaps[i])}, not 2"
                )
            edges.append((profile.row_21, profile.row_10))
            edge_agents.append(i)

    graph = RowGraph(k=k, edges=tuple(edges), agents=tuple(edge_agents))
    coloring = color_rows(graph)
    red = coloring.red

    left = []
    right = []
    anywhere = []
    for i in range(n):
        profile = profiles[i]
        if profile.classified:
            u_red, v_red = red[profile.row_21], red[profile.row_10]
            if not u_red and not v_red:
                left.append(i)
            elif u_red and v_red:
                right.append(i)
            else:
                anywhere.append(i)
        else:
            anywhere.append(i)
    n_left, n_right = len(left), len(right)
    if n_left != coloring.blue_blue or n_right != coloring.red_red:
        raise GuaranteeError(
            f"{n_left} left and {n_right} right agents for a coloring with "
            f"{coloring.blue_blue} blue and {coloring.red_red} red edges"
        )
    if n_left > n // 2:
        raise GuaranteeError(f"{n_left} agents need a leftmost bucket, n={n}")
    if n_right > (n - 1) // 2:
        raise GuaranteeError(f"{n_right} agents need a rightmost bucket, n={n}")

    seat = [0] * n
    for col, i in enumerate(left):
        seat[i] = col
    for offset, i in enumerate(right):
        seat[i] = n - n_right + offset
    for col, i in zip(range(n_left, n - n_right), anywhere):
        seat[i] = col

    matrix = BucketMatrix(n=n, k=k, reversed_rows=tuple(bool(r) for r in red))
    bundles_positions = [
        sorted(p for p in matrix.bucket(seat[i]) if p < m) for i in range(n)
    ]
    if is_sorted:
        bundles = bundles_positions
    else:
        bundles = _lift_ternary(values, bundles_positions, m)
    if trace is not None:
        trace.append(
            {
                "rows": k,
                "dummies": m_padded - m,
                "sorted_applied": not is_sorted,
                "edges": tuple(edges),
                "edge_agents": tuple(edge_agents),
                "red_rows": tuple(bool(r) for r in red),
                "left": tuple(left),
                "right": tuple(right),
                "seats": tuple(seat),
            }
        )
    return Allocation.checked(bundles, m)
