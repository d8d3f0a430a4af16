"""Exact maximin allocation when every value is 0, 1, or 2.

Each agent's values are read as one ``bytes`` row.  The solver works on a
sorted layout in which her values are non-increasing by position, so all
agents rank positions the same way: built from her counts of 2s and 1s, it
holds her 2s, then her 1s, then zeros, padded with zero-value dummies to a
multiple of n and read row-major as k rows of n columns; bucket c is
column c.  Each agent's mixed rows are the rows holding her two value
boundaries, found from two counters (her number of 2s and her number of
nonzeros) and checked against the first and last column of her layout.
An agent is at risk only when those are two distinct rows, one mixing 2s
and 1s and one mixing 1s and 0s; each such agent contributes one edge
joining those two rows in a multigraph on rows.
A greedy two-coloring of the rows (:func:`color_rows`) bounds the
monochromatic edges, every red row is reversed, so bucket c takes position
r*n + (n-1-c) from a red row r and r*n + c from a blue one, and edge colors
decide whether an at-risk agent must sit in a leftmost bucket, a rightmost
bucket, or anywhere.  Everyone else is safe in any bucket.  Finally
dummies are stripped and the bucket contents are lifted back to original
goods (:func:`_lift_ternary`), each owner picking her most-valued
remaining good in increasing position order; on rows that came sorted
the lift leaves every position where it is.
Every agent ends with at least her full maximin share, with no
approximation loss.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    GuaranteeError, InputError, Instance, Partition, _require_partition, as_tuple,
    check_count, partition,
)

_NOT_TERNARY = "values must be 0, 1, or 2 in scaled units"

# One table per value class 2, 1, 0: it maps that byte to b"1" and every
# other byte to b"0", so a translated row reads as a binary numeral.
_CLASS_TABLES = tuple(b"0" * cls + b"1" + b"0" * (255 - cls) for cls in (2, 1, 0))

def _boundary_row(count: int, n: int) -> Optional[int]:
    """Row index whose interior contains the value boundary after ``count``
    positions, or None when the boundary falls between rows."""
    return count // n if count % n else None


def color_rows(
    k: int, edges: Sequence[tuple[int, int]]
) -> tuple[list[bool], int, int]:
    """Two-color the k rows of the row multigraph: start all blue, recolor
    rows red in ascending index until at most half the edges are blue on
    both ends.  Returns the red flags and the counts of edges blue on both
    ends and red on both ends.

    Stopping at the first such step leaves strictly fewer than half the
    edges red on both ends.  Raises InputError unless k is a count and each
    edge is a pair of rows from 0 to k - 1.

    >>> color_rows(2, [])
    ([False, False], 0, 0)
    >>> color_rows(3, [(1, 2)])
    ([True, True, False], 0, 0)
    """
    check_count(k, "k", 0)
    edges = [
        as_tuple(edge, f"edge {p}") for p, edge in enumerate(as_tuple(edges, "edges"))
    ]
    for p, edge in enumerate(edges):
        if len(edge) != 2:
            raise InputError(f"edge {p} must hold two rows, got {edge!r}")
        for end, row in zip(("first", "second"), edge):
            check_count(row, f"{end} row of edge {p}", 0, k - 1)
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
        masks = (int(raw.translate(table)[::-1] or b"0", 2) for table in _CLASS_TABLES)
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


def exact_mms_012(instance: Instance, trace: Optional[list] = None) -> Partition:
    """Allocate an instance whose values are all 0, 1, or 2 so that every
    agent receives at least her exact maximin share.

    Raises InputError when any value lies outside {0, 1, 2}.

    >>> alloc = exact_mms_012(Instance.from_rows([[2, 2, 1, 1]] * 2))
    >>> sorted(sum(2 if g < 2 else 1 for g in b) for b in alloc)
    [3, 3]
    """
    n, m = instance.n, instance.m
    k = -(-m // n)
    rows = []
    is_sorted = True
    edge_of: dict[int, tuple[int, int]] = {}
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
        # Rows whose first and last entries agree are constant for that agent,
        # so reversing them cannot change any of her bucket values.  The
        # others are the rows holding her 2/1 and her 1/0 boundary.
        mixed = {r for r, (a, b) in enumerate(zip(firsts, lasts)) if a != b}
        r21, r10 = _boundary_row(c2, n), _boundary_row(c2 + c1, n)
        if mixed != {r21, r10} - {None}:
            raise GuaranteeError(f"agent {i}: mixed rows disagree with her counts")
        if r21 is not None and r10 is not None and r21 != r10:
            if gap != 2:
                raise GuaranteeError(
                    f"agent {i}: classified with bucket gap {gap}, not 2"
                )
            edge_of[i] = (r21, r10)

    edges = tuple(edge_of.values())
    red, blue_blue, red_red = color_rows(k, edges)

    left = []
    right = []
    anywhere = []
    for i in range(n):
        if i in edge_of:
            u_red, v_red = (red[r] for r in edge_of[i])
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
    bundles = _lift_ternary(rows, bundles_positions, m)
    if trace is not None:
        trace.append(
            {
                "rows": k,
                "dummies": k * n - m,
                "sorted_applied": not is_sorted,
                "edges": edges,
                "edge_agents": tuple(edge_of),
                "red_rows": tuple(r for r in range(k) if red[r]),
                "left": tuple(left),
                "right": tuple(right),
                "seats": tuple(seat),
            }
        )
    _require_partition(bundles, m)
    return partition(bundles)
