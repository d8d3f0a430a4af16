"""Round-robin picking procedures.

In a round-robin pass the agents take turns in a fixed order, and on each
turn the agent claims her highest-valued remaining good (lowest index on
ties).  The resulting bundle of every agent i is worth at least
v_i(M)/n - max_g v_i(g) to her, she envies nobody by more than one good, and
with 0/1 values she receives her full maximin share.

The modified variant first lets randomly chosen agents grab a single good
and leave while goods are scarce (fewer than two per remaining agent), then
runs the plain pass for everyone left.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from .core import InputError, Instance, Partition, as_tuple, check_count, partition


def _take_turns(
    rows: Sequence[Sequence[int]],
    order: Sequence[int],
    goods: Iterable[int],
) -> dict[int, list[int]]:
    """Allocate ``goods`` to the agents in ``order`` by repeated picking
    rounds.  Returns a bundle list per agent id in ``order``."""
    pool = sorted(goods)
    # A reverse sort is stable and the pool ascends, so ties keep index order.
    prefs = {
        a: sorted(pool, key=rows[a].__getitem__, reverse=True) for a in set(order)
    }
    ptr = dict.fromkeys(prefs, 0)
    taken: set[int] = set()
    bundles: dict[int, list[int]] = {a: [] for a in order}
    remaining = len(pool)
    while remaining:
        for a in order:
            if not remaining:
                break
            i = ptr[a]
            pref = prefs[a]
            while pref[i] in taken:
                i += 1
            ptr[a] = i + 1
            taken.add(pref[i])
            bundles[a].append(pref[i])
            remaining -= 1
    return bundles


def greedy_round_robin(
    instance: Instance, order: Optional[Sequence[int]] = None
) -> Partition:
    """Allocate all goods by round-robin picking in ``order`` (default: agents
    in ascending index order).

    >>> inst = Instance.from_rows([[9, 5, 4, 1], [6, 8, 3, 2]])
    >>> [sorted(b) for b in greedy_round_robin(inst)]
    [[0, 2], [1, 3]]
    """
    if order is None:
        order = tuple(instance.agents)
    else:
        order = as_tuple(order, "order")
        for agent in order:
            check_count(agent, "order entry", 0, instance.n - 1)
        if sorted(order) != list(instance.agents):
            raise InputError(
                f"order must be a permutation of 0..{instance.n - 1}, got {order!r}"
            )
    rows = [instance.row(i) for i in instance.agents]
    bundles = _take_turns(rows, order, instance.goods)
    return partition(bundles[i] for i in instance.agents)


def modified_greedy_round_robin(instance: Instance, seed: int) -> Partition:
    """Round-robin with a scarcity phase.

    While the remaining goods number fewer than twice the remaining agents, a
    uniformly random remaining agent takes her single favorite remaining good
    and exits.  The agents still present then run the plain round-robin pass
    in ascending order on what is left.  The seed must be an int of at
    least 0 (see :func:`core.check_count`).

    >>> inst = Instance.from_rows([[9, 5], [6, 8], [7, 7]])
    >>> len(modified_greedy_round_robin(inst, seed=0))
    3
    """
    check_count(seed, "seed", 0)
    rng = random.Random(seed)
    rows = [instance.row(i) for i in instance.agents]
    active = list(instance.agents)
    pool = list(instance.goods)
    final: dict[int, list[int]] = {i: [] for i in instance.agents}
    while active and len(pool) < 2 * len(active):
        a = active.pop(rng.randrange(len(active)))
        if pool:
            g = max(pool, key=lambda g: (rows[a][g], -g))
            pool.remove(g)
            final[a].append(g)
    for a, bundle in _take_turns(rows, tuple(active), pool).items():
        final[a].extend(bundle)
    return partition(final[i] for i in instance.agents)
