"""Brute-force tests of the benchmark's reference computations.

Run with ``python3 -m pytest bench/test_reference.py`` from the repository
root; nothing here imports the package.
"""

from __future__ import annotations

import itertools
import random

import pytest

from reference import (
    bundle_values,
    exhaustive_share,
    heap_floor,
    partition_error,
    ternary_share,
    two_way_share,
)


def brute_share(values, k):
    """Best worst bundle over every assignment of goods to k bundles."""
    best = 0
    for owners in itertools.product(range(k), repeat=len(values)):
        loads = [0] * k
        for v, b in zip(values, owners):
            loads[b] += v
        best = max(best, min(loads))
    return best


def rows(seed, count, m_range, high):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.choice(m_range)
        yield [rng.randint(0, high) for _ in range(m)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exhaustive_share_matches_brute_force(k):
    for row in rows(100 + k, 25, range(0, 8), 20):
        assert exhaustive_share(row, k) == brute_share(row, k), row


def test_two_way_share_matches_brute_force():
    for row in rows(7, 60, range(0, 11), 50):
        assert two_way_share(row) == brute_share(row, 2), row


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ternary_share_matches_brute_force(n):
    for row in rows(200 + n, 40, range(0, 9), 2):
        assert ternary_share(row.count(2), row.count(1), n) == brute_share(row, n), row


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_heap_floor_is_a_lower_bound_attained_by_a_split(k):
    for row in rows(300 + k, 40, range(0, 8), 30):
        floor = heap_floor(row, k)
        assert floor <= brute_share(row, k), row
        assert floor >= brute_share(row, k) - max(row, default=0)


def test_partition_and_bundle_values():
    table = [[5, 1, 2], [0, 4, 4]]
    assert partition_error([[1], [2, 3]], 3, 2, base=1) is None
    assert bundle_values(table, [[1], [2, 3]], base=1) == [5, 8]
    assert "twice" in partition_error([[1, 2], [2, 3]], 3, 2, base=1)
    assert "not given" in partition_error([[1], [2]], 3, 2, base=1)
    assert "out of range" in partition_error([[0], [1, 2]], 3, 2, base=1)
    assert "expected" in partition_error([[1, 2, 3]], 3, 2, base=1)
