"""Reference computations the benchmark checks the package against.

None of this imports the package.  Each function is the plainest method
that is fast enough at the sizes the workloads check, and
``bench/test_reference.py`` tests each against brute force.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Optional, Sequence


def exhaustive_share(values: Sequence[int], k: int) -> int:
    """Maximin share over k bundles by dynamic programming on subsets.

    ``best[j][S]`` is the best worst-bundle value of a j-way split of S;
    the bundle holding S's lowest good is tried in every shape.  Empty
    bundles are allowed, as in the definition.  Cost is about k * 3^m / 2,
    so keep m at 12 or below.
    """
    m = len(values)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    size = 1 << m
    sums = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    best = sums
    full = size - 1
    for j in range(2, k + 1):
        masks = [full] if j == k else range(1, size)
        nxt = [0] * size
        for mask in masks:
            low = mask & -mask
            rest = mask ^ low
            top = 0
            sub = rest
            while True:
                with_low = sub | low
                v = sums[with_low]
                if v > top:  # else this split cannot beat the best so far
                    w = best[mask ^ with_low]
                    if w < v:
                        v = w
                    if v > top:
                        top = v
                if not sub:
                    break
                sub = (sub - 1) & rest
            nxt[mask] = top
        best = nxt
    return best[full]


def two_way_share(values: Sequence[int]) -> int:
    """Maximin share over 2 bundles: the largest subset sum not above half
    the total, found with a bitset of reachable sums."""
    reach = 1
    for v in values:
        reach |= reach << v
    half = sum(values) // 2
    return (reach & ((1 << (half + 1)) - 1)).bit_length() - 1


def _ternary_feasible(c2: int, c1: int, n: int, t: int) -> bool:
    """Can n bundles each reach t from c2 goods worth 2 and c1 worth 1?

    A bundle that cannot lose a good and stay at t is worth exactly t when
    it holds a 1 (else a 1 could go), or is (t+1)/2 twos for odd t.  For
    even t every such bundle holds an even number of 1s; for odd t, x
    bundles hold an odd number of 1s each and the rest are all twos.  Using
    as many 1s as parity and supply allow minimises the 2s needed.
    """
    if t <= 0:
        return True
    if t % 2 == 0:
        ones = min(c1, n * t)
        ones -= ones % 2
        return (n * t - ones) // 2 <= c2
    for x in range(min(n, c1) + 1):
        ones = min(c1, x * t)
        if ones % 2 != x % 2:
            ones -= 1
        if ones < x:
            continue
        if (n - x) * (t + 1) // 2 + (x * t - ones) // 2 <= c2:
            return True
    return False


def ternary_share(c2: int, c1: int, n: int) -> int:
    """Maximin share over n bundles of a row holding c2 goods worth 2 and c1
    worth 1 (the rest worth 0), from the counts alone."""
    lo, hi = 0, (2 * c2 + c1) // n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _ternary_feasible(c2, c1, n, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def heap_floor(values: Sequence[int], k: int) -> int:
    """Worst bundle of the longest-first greedy split into k bundles, each
    good going to the currently lightest bundle.  Any split's worst bundle
    is at most the maximin share, so this is a lower bound on it."""
    loads = [(0, b) for b in range(k)]
    for v in sorted(values, reverse=True):
        load, b = heapq.heappop(loads)
        heapq.heappush(loads, (load + v, b))
    return min(load for load, _ in loads)


def partition_error(
    bundles: Sequence[Sequence[int]], m: int, count: int, base: int = 0
) -> Optional[str]:
    """None when ``bundles`` are ``count`` disjoint sets covering goods
    base..base+m-1, else what is wrong."""
    if len(bundles) != count:
        return f"{len(bundles)} bundles, expected {count}"
    seen = set()
    for bundle in bundles:
        for g in bundle:
            if not base <= g < base + m:
                return f"good {g} out of range"
            if g in seen:
                return f"good {g} given twice"
            seen.add(g)
    if len(seen) != m:
        return f"{m - len(seen)} goods not given"
    return None


def bundle_values(
    rows: Sequence[Sequence[int]], bundles: Sequence[Sequence[int]], base: int = 0
) -> list[int]:
    """Each agent's value for her own bundle; goods numbered from ``base``."""
    return [sum(rows[i][g - base] for g in bundle) for i, bundle in enumerate(bundles)]


def rr_floor(row: Sequence[int], n: int) -> Fraction:
    """Round robin's promise to one agent: total/n minus her largest value."""
    return max(Fraction(0), Fraction(sum(row), n) - max(row, default=0))
