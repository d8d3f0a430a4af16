"""Half-guarantee solver: strip high-value singletons, then round-robin.

Phase 1 repeatedly looks for an active agent i and an unallocated good j
worth at least half of her proportional share alpha_i = v_i(S)/|N| over the
current residual (S, N).  Such an agent exits with that single good, and all
alpha values are recomputed.  Phase 2 runs the round-robin pass for the
agents still active.  Every agent ends with at least half of her n-way
maximin value over the full good set: exiting agents by the proportional
upper bound, remaining agents because every residual good is now worth less
than alpha_i/2, so the round-robin additive loss stays below half the
residual proportional share.  Shrinking the instance never lowers anyone's
maximin value, which carries the bound back to the original instance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .core import Instance, Partition, partition
from .round_robin import _take_turns


def apx_mms_half(
    instance: Instance, trace: Optional[list] = None
) -> Partition:
    """Allocate with the singleton-stripping strategy described above.

    When several (agent, good) pairs qualify in phase 1, the lowest agent
    index and then the lowest good index wins.  If the last active agent
    exits through phase 1, the leftover goods are appended to her bundle
    (extra goods never hurt).  ``trace``, if given, receives one dict per
    phase-1 exit recording the agent, the good, and her alpha at that time.

    >>> inst = Instance.from_rows([[10, 1, 1], [10, 1, 1]])
    >>> [sorted(b) for b in apx_mms_half(inst)]
    [[0], [1, 2]]
    """
    rows = [instance.row(i) for i in instance.agents]
    active = list(instance.agents)
    pool = list(instance.goods)
    # left[i] = v_i(S), kept up to date as goods leave the pool.
    left = [sum(row) for row in rows]
    bundles: dict[int, list[int]] = {i: [] for i in instance.agents}
    last_exit: Optional[int] = None
    while active and pool:
        pick = None
        for i in active:
            # 2*v >= alpha_i = v_i(S)/|N| exactly when v reaches need.
            row, need = rows[i], -(-left[i] // (2 * len(active)))
            g = next((g for g in pool if row[g] >= need), None)
            if g is not None:
                pick = (i, g)
                break
        if pick is None:
            break
        i, g = pick
        if trace is not None:
            trace.append(
                {"agent": i, "good": g, "alpha": Fraction(left[i], len(active))}
            )
        bundles[i].append(g)
        active.remove(i)
        pool.remove(g)
        for a in active:
            left[a] -= rows[a][g]
        last_exit = i
    for a, extra in _take_turns(rows, tuple(active) or (last_exit,), pool).items():
        bundles[a].extend(extra)
    return partition(bundles[i] for i in instance.agents)
