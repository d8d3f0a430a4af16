"""Dedicated solver for exactly three agents with a 7/8 guarantee.

The plan has three branches over one primitive, cut-and-choose: a cutter
splits a pool in two by her 2-way share, and a chooser takes her preferred
half.  If some agent values a single good at 7/8 of her maximin estimate,
she takes it and the other two cut and choose the rest (branch b).
Otherwise agent 0 lays out a 3-way partition; if two of its sets can be
handed to agents 1 and 2 at 7/8 of their estimates, done (branch c).
Otherwise exactly two of the sets are bad for agent 1, and she cuts her
good set together with each bad set in turn, keeping the split with the
larger minimum; agent 2 chooses from the kept split, agent 1 takes the
other half, and agent 0 takes the untouched set, which is one of her own
bundles (branch d).

:func:`~mmsalloc.oracle.share` answers the three estimates and every
two-way split, with no memo of approximate shares.  With exact oracle calls
every agent ends at or above 7/8 of her true three-way maximin value; in
ptas mode with parameter eps the factor is (7/8 - eps), with internal
accuracy eps' = 8*eps/7 for branch d's two-way splits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .core import GuaranteeError, InputError, Instance, Partition, partition
from .oracle import RationalLike, _accuracy, _as_eps, share

_ORDERED_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def _cut_and_choose(
    rows: Sequence[Sequence[int]], cutter: int, chooser: int,
    pool: Sequence[int], eps: Optional[Fraction],
) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """The cutter's 2-way split of the ascending goods in pool at eps, as
    (her split value, the two halves as ascending tuples of goods, the index
    of the half the chooser values more, the first on ties)."""
    cert = share([rows[cutter][g] for g in pool], 2, eps)
    halves = tuple(tuple(pool[p] for p in part) for part in cert.witness)
    pick = max(range(2), key=lambda j: (sum(rows[chooser][g] for g in halves[j]), -j))
    return cert.value, halves, pick


def apx_3_mms(
    instance: Instance,
    eps: RationalLike,
    oracle_mode: str = "ptas",
    trace: Optional[list] = None,
) -> Partition:
    """Allocate a three-agent instance with per-agent guarantee
    (7/8 - eps) times her maximin value ((7/8) times it in exact mode).

    eps must lie in (0, 7/8); ``oracle_mode`` is ``"exact"`` or ``"ptas"``.
    :func:`~mmsalloc.oracle.share` answers the three estimates and the
    two-way splits, and no split repeats a query.
    ``trace``, if given, receives one dict naming the branch taken ("b",
    "c", or "d") and its intermediate data.

    >>> inst = Instance.from_rows([[7, 1, 1, 1, 1, 1, 1, 1]] * 3)
    >>> alloc = apx_3_mms(inst, Fraction(1, 10), oracle_mode="exact")
    >>> sorted(map(len, alloc))
    [1, 3, 4]
    """
    if instance.n != 3:
        raise InputError(f"this solver needs exactly 3 agents, got n={instance.n}")
    eps = _accuracy(oracle_mode, _as_eps(eps, Fraction(7, 8)))
    rows = [instance.row(i) for i in instance.agents]
    certs = [share(row, 3, eps) for row in rows]
    xi = [cert.value for cert in certs]

    # Branch b: a single good already worth 7/8 of someone's estimate.
    for i in range(3):
        for g in instance.goods:
            if 8 * rows[i][g] >= 7 * xi[i]:
                rest = [h for h in instance.goods if h != g]
                cutter, chooser = [a for a in range(3) if a != i]
                _, halves, pick = _cut_and_choose(rows, cutter, chooser, rest, eps)
                if trace is not None:
                    trace.append(
                        {"branch": "b", "agent": i, "good": g, "cutter": cutter,
                         "chooser": chooser, "halves": halves}
                    )
                bundles = {i: [g], chooser: halves[pick], cutter: halves[1 - pick]}
                return partition(bundles[a] for a in range(3))

    # Branch c: agent 0 partitions; try to seat agents 1 and 2 directly.
    # Agent 0's row covers every good, so her positions are the goods.
    a_sets = certs[0].witness
    value_of = lambda agent, part: sum(rows[agent][g] for g in part)
    for j1, j2 in _ORDERED_PAIRS:
        if (
            8 * value_of(1, a_sets[j1]) >= 7 * xi[1]
            and 8 * value_of(2, a_sets[j2]) >= 7 * xi[2]
        ):
            j0 = 3 - j1 - j2
            if trace is not None:
                trace.append(
                    {"branch": "c", "a_sets": a_sets, "seats": (j0, j1, j2)}
                )
            return partition([a_sets[j0], a_sets[j1], a_sets[j2]])

    # Branch d: exactly two of the sets are bad for agent 1; she cuts her
    # good set with each bad set, keeps the better split, and agent 2 chooses.
    bad = [j for j in range(3) if 8 * value_of(1, a_sets[j]) < 7 * xi[1]]
    if len(bad) != 2:
        raise GuaranteeError(
            f"expected exactly two sets below agent 1's threshold, found {len(bad)}"
        )
    (good_j,) = [j for j in range(3) if j not in bad]
    eps_prime = None if eps is None else 8 * eps / 7
    pools = [sorted(a_sets[good_j] + a_sets[j]) for j in bad]
    splits = [_cut_and_choose(rows, 1, 2, pool, eps_prime) for pool in pools]
    x = max(range(2), key=lambda x: (splits[x][0], -x))
    _, halves, pick = splits[x]
    if trace is not None:
        trace.append(
            {"branch": "d", "a_sets": a_sets, "base": good_j, "kept_with": bad[x],
             "kept_value": splits[x][0], "discarded_value": splits[1 - x][0],
             "halves": halves}
        )
    bundles = {0: a_sets[bad[1 - x]], 2: halves[pick], 1: halves[1 - pick]}
    return partition(bundles[a] for a in range(3))
