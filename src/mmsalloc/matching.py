"""Bipartite preference graphs between agents and candidate bundles.

Agents sit on the left, bundles on the right, and an edge records that the
agent values the bundle at or above her threshold.  On top of a maximum
matching, :func:`compute_x_plus` extracts the canonical Hall violator: the
set of left vertices reachable from the unmatched ones along alternating
paths.  It is empty exactly when the matching covers the left side, and
otherwise it has more members than neighbors, while the rest of the matching
pairs the remaining agents with bundles outside that neighborhood.

Everything is deterministic: neighbors are kept sorted and searches run in
ascending index order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import GuaranteeError, InputError, Number, record


@record
class PreferenceGraph:
    """Bipartite graph with ``n_left`` agents, ``n_right`` bundles, and
    ``adj[i]`` the ascending bundle indices agent i accepts."""

    n_left: int
    n_right: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n_left < 0 or self.n_right < 0:
            raise InputError("graph side sizes must be non-negative")
        if len(self.adj) != self.n_left:
            raise InputError(
                f"adjacency has {len(self.adj)} rows for {self.n_left} left vertices"
            )
        for i, nbrs in enumerate(self.adj):
            prev = -1
            for v in nbrs:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InputError(f"neighbor {v!r} of {i} is not an integer")
                if not 0 <= v < self.n_right:
                    raise InputError(f"neighbor {v} of {i} is out of range")
                if v <= prev:
                    raise InputError(
                        f"neighbors of {i} must be strictly ascending"
                    )
                prev = v


def build_preference_graph(
    rows: Sequence[Sequence[int]],
    bundles: Sequence[Iterable[int]],
    thresholds: Sequence[Number],
) -> PreferenceGraph:
    """Edge (i, j) whenever agent i values bundle j at least thresholds[i].

    ``rows`` are full valuation rows; bundles hold good positions into them.
    Comparisons are exact, so thresholds may be Fractions.
    """
    if len(thresholds) != len(rows):
        raise InputError(
            f"{len(thresholds)} thresholds for {len(rows)} agents"
        )
    bundle_lists = [sorted(b) for b in bundles]
    adj = []
    for i, row in enumerate(rows):
        nbrs = []
        for j, bundle in enumerate(bundle_lists):
            value = 0
            for g in bundle:
                if not 0 <= g < len(row):
                    raise InputError(
                        f"bundle {j} refers to good {g} outside agent {i}'s row"
                    )
                value += row[g]
            if value >= thresholds[i]:
                nbrs.append(j)
        adj.append(tuple(nbrs))
    return PreferenceGraph(
        n_left=len(rows), n_right=len(bundle_lists), adj=tuple(adj)
    )


def _augment(
    graph: PreferenceGraph, u: int, match_right: list[int], visited: set[int]
) -> bool:
    """Look for an augmenting path from left vertex u, depth first over each
    vertex's neighbors in ascending order, and flip it into match_right.

    The walk keeps its own stack, so a long path cannot exhaust Python's
    recursion limit.  stack[i] is a left vertex with its remaining
    neighbors, and via[i] the bundle it reached stack[i + 1] through.
    """
    stack = [(u, iter(graph.adj[u]))]
    via: list[int] = []
    while stack:
        x, nbrs = stack[-1]
        for v in nbrs:
            if v not in visited:
                visited.add(v)
                break
        else:
            stack.pop()
            if via:
                via.pop()
            continue
        if match_right[v] == -1:
            match_right[v] = x
            for (y, _), w in zip(stack, via):
                match_right[w] = y
            return True
        via.append(v)
        stack.append((match_right[v], iter(graph.adj[match_right[v]])))
    return False


def maximum_matching(graph: PreferenceGraph) -> tuple[tuple[int, int], ...]:
    """A maximum matching as sorted (left, right) pairs, via augmenting paths
    tried from each left vertex in ascending order."""
    match_right = [-1] * graph.n_right
    for u in range(graph.n_left):
        _augment(graph, u, match_right, set())
    return tuple(
        sorted((u, v) for v, u in enumerate(match_right) if u != -1)
    )


@record
class XPlusDecomposition:
    """The Hall-violator side of a maximum matching.

    ``x_plus`` holds the left vertices reachable from unmatched left vertices
    along alternating paths (free edge right, matched edge left), ``gamma``
    their joint neighborhood, and ``restricted_matching`` the matched pairs
    whose left vertex lies outside ``x_plus``.
    """

    x_plus: tuple[int, ...]
    gamma: tuple[int, ...]
    restricted_matching: tuple[tuple[int, int], ...]


def compute_x_plus(
    graph: PreferenceGraph, matching: Sequence[tuple[int, int]]
) -> XPlusDecomposition:
    """Decompose the left side around a maximum matching.

    Raises InputError if ``matching`` is not a matching of graph edges or is
    not maximum.
    """
    match_left = [-1] * graph.n_left
    match_right = [-1] * graph.n_right
    for u, v in matching:
        if not (0 <= u < graph.n_left and 0 <= v < graph.n_right):
            raise InputError(f"pair ({u}, {v}) is out of range")
        if v not in graph.adj[u]:
            raise InputError(f"pair ({u}, {v}) is not an edge")
        if match_left[u] != -1 or match_right[v] != -1:
            raise InputError(f"pair ({u}, {v}) reuses a matched vertex")
        match_left[u] = v
        match_right[v] = u

    reached = _alternating_reach(graph, match_left, match_right)
    x_plus = tuple(u for u in range(graph.n_left) if reached[u])
    gamma = tuple(sorted({v for u in x_plus for v in graph.adj[u]}))
    restricted = tuple(
        (u, match_left[u])
        for u in range(graph.n_left)
        if not reached[u] and match_left[u] != -1
    )

    if x_plus and len(x_plus) <= len(gamma):
        raise GuaranteeError(
            f"X+ has {len(x_plus)} agents and {len(gamma)} neighbors, "
            "so it is no Hall violator"
        )
    gamma_set = set(gamma)
    for u in range(graph.n_left):
        if reached[u]:
            continue
        if match_left[u] == -1:
            raise GuaranteeError(f"agent {u} lies outside X+ but is unmatched")
        if match_left[u] in gamma_set:
            raise GuaranteeError(
                f"agent {u} outside X+ is matched to bundle {match_left[u]}, "
                "a neighbor of X+"
            )
    return XPlusDecomposition(
        x_plus=x_plus, gamma=gamma, restricted_matching=restricted
    )


def _alternating_reach(
    graph: PreferenceGraph, match_left: list[int], match_right: list[int]
) -> list[bool]:
    """Which left vertices the unmatched ones reach along alternating paths
    (free edge right, matched edge left).  Raises InputError if one reaches
    an unmatched right vertex, since the path to it augments the matching."""
    reached = [False] * graph.n_left
    queue = [u for u in range(graph.n_left) if match_left[u] == -1]
    for u in queue:
        reached[u] = True
    for u in queue:  # the list grows as it is walked, first in first out
        for v in graph.adj[u]:
            w = match_right[v]
            if w == -1:
                raise InputError("matching is not maximum: an augmenting path exists")
            if not reached[w]:
                reached[w] = True
                queue.append(w)
    return reached
