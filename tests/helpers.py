"""Shared test utilities: an exhaustive maximin oracle and instance suites.

The exhaustive oracle enumerates every assignment of goods to k bundles
with symmetry breaking, so it is an independent check on the search-based
oracle in the package. Suite builders produce the seeded random instances
used across tests, so every test that says "random suite" means the same
instances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from hypothesis import strategies as st

from mmsalloc import Allocation, Instance, bundle_value


def exhaustive_mms(values: Sequence[int], k: int) -> int:
    """Maximin share by trying every partition of the goods into k bundles.

    Empty bundles are allowed, which matches the definition: with fewer
    goods than bundles the worst bundle is empty and the share is 0.
    Symmetry breaking: good 0 goes to bundle 0, and good i may only open
    bundle u+1 when bundles 0..u are already in use.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    m = len(values)
    if m == 0:
        return 0
    best = 0

    def place(good: int, loads: list[int], used: int) -> None:
        nonlocal best
        if good == m:
            score = min(loads)
            if score > best:
                best = score
            return
        limit = min(used + 1, k)
        for b in range(limit):
            loads[b] += values[good]
            place(good + 1, loads, max(used, b + 1))
            loads[b] -= values[good]

    place(0, [0] * k, 0)
    return best


# Values 0..30, with zeros and equal values common.
_VALUES = st.one_of(st.integers(0, 30), st.sampled_from((0, 0, 5, 5, 12)))


def instances(agents, max_goods: int = 8, values=_VALUES):
    """Hypothesis strategy: instances with a number of agents drawn from the
    strategy ``agents``, 0..max_goods goods and values drawn from
    ``values``, small enough for exhaustive_mms and shrinkable."""
    return st.tuples(agents, st.integers(0, max_goods)).flatmap(
        lambda nm: st.lists(
            st.lists(values, min_size=nm[1], max_size=nm[1]),
            min_size=nm[0], max_size=nm[0],
        )
    ).map(Instance.from_rows)


def assert_shares_met(instance: Instance, allocation: Allocation, factor) -> None:
    """The allocation partitions the goods and gives every agent at least
    factor times its maximin share, found by exhaustive_mms."""
    allocation.require_partition(instance.m)
    for i in instance.agents:
        share = exhaustive_mms(instance.row(i), instance.n)
        got = bundle_value(instance, i, allocation.bundles[i])
        assert got >= Fraction(factor) * share, (i, got, share, factor)


def random_instance(
    rng: random.Random, n: int, m: int, low: int = 0, high: int = 9
) -> Instance:
    rows = [[rng.randint(low, high) for _ in range(m)] for _ in range(n)]
    return Instance.from_rows(rows)


def random_suite(count: int = 300, seed: int = 90125) -> list[Instance]:
    """Seeded suite: n in 2..6, m in n..12, values uniform in 0..9."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 6)
        m = rng.randint(n, 12)
        out.append(random_instance(rng, n, m))
    return out


def small_oracle_suite(count: int = 200, seed: int = 31337) -> list[Instance]:
    """Instances small enough for the exhaustive oracle: n in 1..3, m in 1..8."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        m = rng.randint(1, 8)
        out.append(random_instance(rng, n, m))
    return out


def binary_suite(count: int = 100, seed: int = 60901) -> list[Instance]:
    """Random 0/1 instances with n in 2..4 and m in n..12."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        m = rng.randint(n, 12)
        out.append(random_instance(rng, n, m, low=0, high=1))
    return out


def ternary_suite(count: int = 200, seed: int = 11235) -> list[Instance]:
    """Random 0/1/2 instances with n in 1..5 and m in 1..15."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 5)
        m = rng.randint(1, 15)
        out.append(random_instance(rng, n, m, low=0, high=2))
    return out


def three_agent_suite(count: int = 200, seed: int = 424242) -> list[Instance]:
    """3-agent instances with m in 3..10, cycling three generation styles.

    The styles push instances toward different solver branches: iid rows,
    nearly shared rows (one common draw plus per-agent noise), and rows
    from a narrow value band where no single good dominates.
    """
    rng = random.Random(seed)
    out = []
    for t in range(count):
        m = 3 + (t % 8)
        style = t % 3
        if style == 0:
            rows = [[rng.randint(0, 9) for _ in range(m)] for _ in range(3)]
        elif style == 1:
            base = [rng.randint(0, 9) for _ in range(m)]
            rows = [
                [min(9, max(0, v + rng.randint(-1, 1))) for v in base]
                for _ in range(3)
            ]
        else:
            rows = [[rng.randint(1, 4) for _ in range(m)] for _ in range(3)]
        out.append(Instance.from_rows(rows))
    return out


def record_searches(monkeypatch) -> list[tuple]:
    """Record every maximin search, one call of oracle._maximin, as (mode,
    values, k, eps).  A share a memo answers makes no search, so a query
    recorded twice was searched twice."""
    import mmsalloc.oracle as oracle

    searches: list[tuple] = []
    real = oracle._maximin

    def recorded(values, k, mode, eps=None):
        searches.append((mode, tuple(values), k, eps))
        return real(values, k, mode, eps)

    monkeypatch.setattr(oracle, "_maximin", recorded)
    return searches
