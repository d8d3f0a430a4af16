"""Exact maximin allocation when every value is 0, 1, or 2.

Each agent's values are read as one ``bytes`` row.  The solver works on a
sorted layout in which her values are non-increasing by position, so all
agents rank positions the same way: built from her counts of 2s and 1s, it
holds her 2s, then her 1s, then zeros, padded with zero-value dummies to a
multiple of n and read row-major as k rows of n columns; bucket c is
column c.  Each agent's per-row value pattern is classified from two
counters (her number of 2s and her number of nonzeros) and checked against
the first and last column of her layout.  An agent is at risk only when
she has both a row mixing 2s and 1s and a row mixing 1s and 0s; each such
agent contributes one edge joining those two rows in a multigraph on rows.
A greedy two-coloring of the rows (:func:`color_rows`) bounds the
monochromatic edges, every red row is reversed, so bucket c takes position
r*n + (n-1-c) from a red row r and r*n + c from a blue one, and edge colors
decide whether an at-risk agent must sit in a leftmost bucket, a rightmost
bucket, or anywhere.  Everyone else is safe in any bucket.  Finally
dummies are stripped and, unless the rows came sorted, the bucket contents
are lifted back to original goods (:func:`_lift_ternary`), each owner
picking her most-valued remaining good in decreasing position order.
Every agent ends with at least her full maximin share, with no
approximation loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Allocation, GuaranteeError, InputError, Instance

_NOT_TERNARY = "values must be 0, 1, or 2 in scaled units"

# One table per value class 2, 1, 0: it maps that byte to b"1" and every
# other byte to b"0", so a translated row reads as a binary numeral.
_CLASS_TABLES = tuple(b"0" * cls + b"1" + b"0" * (255 - cls) for cls in (2, 1, 0))

ROW_2 = "2"
ROW_1 = "1"
ROW_0 = "0"
ROW_21 = "2/1"
ROW_10 = "1/0"
ROW_210 = "2/1/0"

_MIXED_TYPES = (ROW_21, ROW_10, ROW_210)


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


def _boundary_row(count: int, n: int) -> Optional[int]:
    """Row index whose interior contains the value boundary after ``count``
    positions, or None when the boundary falls between rows."""
    return count // n if count % n else None


def _profile_from_counts(agent: int, c2: int, c21: int, k: int, n: int) -> RowProfile:
    """The row profile of an agent whose non-increasing padded values, k
    rows of n, hold c2 twos and c21 nonzeros."""
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


def color_rows(
    k: int, edges: Sequence[tuple[int, int]]
) -> tuple[list[bool], int, int]:
    """Two-color the k rows of the row multigraph: start all blue, recolor
    rows red in ascending index until at most half the edges are blue on
    both ends.  Returns the red flags and the counts of edges blue on both
    ends and red on both ends.

    Stopping at the first such step leaves strictly fewer than half the
    edges red on both ends.

    >>> color_rows(2, [])
    ([False, False], 0, 0)
    >>> color_rows(3, [(1, 2)])
    ([True, True, False], 0, 0)
    """
    e = len(edges)
    red = [False] * k
    blue_blue = e
    nxt = 0
    while 2 * blue_blue > e and nxt < k:
        red[nxt] = True
        nxt += 1
        blue_blue = sum(1 for u, v in edges if not red[u] and not red[v])
    red_red = sum(1 for u, v in edges if red[u] and red[v])
    if 2 * blue_blue > e:
        raise GuaranteeError(f"{blue_blue} of {e} row edges left blue on both ends")
    if e and 2 * red_red >= e:
        raise GuaranteeError(f"{red_red} of {e} row edges red on both ends")
    return red, blue_blue, red_red


def _lift_ternary(
    rows: Sequence[bytes], bundles_positions: Sequence[Sequence[int]], m: int
) -> list[list[int]]:
    """Lift for ternary values using per-class good bitsets.

    Within one value class every agent prefers lower good indices, so an
    agent's next pick is the lowest available bit of her highest nonempty
    class mask.  A class mask is her byte row translated to the digits
    ``0``/``1`` and read backwards in base 2, so good j is bit j.  Each pick
    costs a few word-parallel big-integer ops.
    """
    n = len(bundles_positions)
    owner = [0] * m
    for i, bundle in enumerate(bundles_positions):
        for p in bundle:
            owner[p] = i
    class_masks: list[list[int]] = []
    for raw in rows:
        masks = (int(raw.translate(table)[::-1], 2) for table in _CLASS_TABLES)
        class_masks.append([mask for mask in masks if mask])
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
    n, m = instance.n, instance.m
    k = -(-m // n)
    rows = []
    is_sorted = True
    profiles = []
    edges = []
    edge_agents = []
    for i, row in enumerate(instance.valuations):
        try:
            raw = bytes(row)
        except ValueError:
            raise InputError(_NOT_TERNARY) from None
        c2, c1 = raw.count(2), raw.count(1)
        if c2 + c1 + raw.count(0) != m:
            raise InputError(_NOT_TERNARY)
        rows.append(raw)
        padded = b"\x02" * c2 + b"\x01" * c1 + bytes(k * n - c2 - c1)
        is_sorted = is_sorted and raw == padded[:m]
        firsts, lasts = padded[0::n], padded[n - 1 :: n]
        gap = sum(firsts) - sum(lasts)
        if not 0 <= gap <= 2:
            raise GuaranteeError(
                f"agent {i}: first-to-last bucket gap {gap} outside [0, 2]"
            )
        profile = _profile_from_counts(i, c2, c2 + c1, k, n)
        profiles.append(profile)
        # Rows whose first and last entries agree are constant for that agent,
        # so reversing them cannot change any of her bucket values.
        mixed = {r for r, (a, b) in enumerate(zip(firsts, lasts)) if a != b}
        expected_mixed = {
            r for r, t in enumerate(profile.row_types) if t in _MIXED_TYPES
        }
        if mixed != expected_mixed:
            raise GuaranteeError(f"agent {i}: mixed rows disagree with her profile")
        if profile.classified:
            if gap != 2:
                raise GuaranteeError(
                    f"agent {i}: classified with bucket gap {gap}, not 2"
                )
            edges.append((profile.row_21, profile.row_10))
            edge_agents.append(i)

    red, blue_blue, red_red = color_rows(k, edges)

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
    if n_left != blue_blue or n_right != red_red:
        raise GuaranteeError(
            f"{n_left} left and {n_right} right agents for a coloring with "
            f"{blue_blue} blue and {red_red} red edges"
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

    # Agent i's bucket is column c = seat[i] of the k x n grid of sorted
    # positions, mirrored in red rows; dummies (positions m and up) go.
    bundles_positions = []
    for c in seat:
        cells = (r * n + (n - 1 - c if red[r] else c) for r in range(k))
        bundles_positions.append([p for p in cells if p < m])
    if is_sorted:
        bundles = bundles_positions
    else:
        bundles = _lift_ternary(rows, bundles_positions, m)
    if trace is not None:
        trace.append(
            {
                "rows": k,
                "dummies": k * n - m,
                "sorted_applied": not is_sorted,
                "edges": tuple(edges),
                "edge_agents": tuple(edge_agents),
                "red_rows": tuple(r for r in range(k) if red[r]),
                "left": tuple(left),
                "right": tuple(right),
                "seats": tuple(seat),
            }
        )
    return Allocation.checked(bundles, m)
