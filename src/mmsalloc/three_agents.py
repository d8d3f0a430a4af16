"""Dedicated solver for exactly three agents with a 7/8 guarantee.

The plan has three branches.  If some agent values a single good at 7/8 of
her maximin estimate, she takes it and the other two split the rest by
cut-and-choose (branch b).  Otherwise agent 0 lays out a 3-way partition;
if two of its sets can be handed to agents 1 and 2 at 7/8 of their
estimates, done (branch c).  Otherwise exactly two of the sets are bad for
agent 1, and she repartitions her good set together with each bad set in
turn, keeping the split with the larger minimum; agent 2 picks her
preferred half of the kept split, agent 1 takes the other half, and agent 0
takes the untouched set, which is one of her own bundles (branch d).

With exact oracle calls every agent ends at or above 7/8 of her true
three-way maximin value; in ptas mode with parameter eps the factor is
(7/8 - eps), with internal accuracy eps' = 8*eps/7 for branch d's two-way
repartitions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .core import Allocation, GuaranteeError, InputError, Instance
from .oracle import RationalLike, ShareOracle, xi_vector

_ORDERED_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def apx_3_mms(
    instance: Instance,
    eps: RationalLike,
    oracle_mode: str = "ptas",
    trace: Optional[list] = None,
) -> Allocation:
    """Allocate a three-agent instance with per-agent guarantee
    (7/8 - eps) times her maximin value ((7/8) times it in exact mode).

    eps must lie in (0, 7/8); ``oracle_mode`` is ``"exact"`` or ``"ptas"``.
    Exact shares live in one process memo; approximate ones in the oracle
    of one solve or one xi_vector call, and the two-way splits never repeat
    an estimate's query.
    ``trace``, if given, receives one dict naming the branch taken ("b",
    "c", or "d") and its intermediate data.

    >>> inst = Instance.from_rows([[7, 1, 1, 1, 1, 1, 1, 1]] * 3)
    >>> alloc = apx_3_mms(inst, Fraction(1, 10), oracle_mode="exact")
    >>> sorted(map(len, alloc))
    [1, 3, 4]
    """
    if instance.n != 3:
        raise InputError(f"this solver needs exactly 3 agents, got n={instance.n}")
    eps = Fraction(eps)
    if not 0 < eps < Fraction(7, 8):
        raise InputError(f"eps must be in (0, 7/8), got {eps}")
    certs = xi_vector(instance, 3, eps, oracle_mode)
    oracle = ShareOracle(oracle_mode)
    eps_prime = 8 * eps / 7
    rows = [instance.row(i) for i in instance.agents]
    xi = [cert.value for cert in certs]

    # Branch b: a single good already worth 7/8 of someone's estimate.
    for i in range(3):
        for g in instance.goods:
            if 8 * rows[i][g] >= 7 * xi[i]:
                rest = [h for h in instance.goods if h != g]
                cutter, chooser = [a for a in range(3) if a != i]
                cert = oracle.share([rows[cutter][h] for h in rest], 2, eps)
                halves = [
                    sorted(rest[pos] for pos in part) for part in cert.witness
                ]
                pick = max(
                    range(2),
                    key=lambda j: (sum(rows[chooser][h] for h in halves[j]), -j),
                )
                bundles = {
                    i: [g],
                    chooser: halves[pick],
                    cutter: halves[1 - pick],
                }
                if trace is not None:
                    trace.append(
                        {
                            "branch": "b",
                            "agent": i,
                            "good": g,
                            "cutter": cutter,
                            "chooser": chooser,
                            "halves": tuple(tuple(h) for h in halves),
                        }
                    )
                return Allocation.of(bundles[a] for a in range(3))

    # Branch c: agent 0 partitions; try to seat agents 1 and 2 directly.
    a_sets = tuple(tuple(sorted(part)) for part in certs[0].witness)
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
            return Allocation.of([a_sets[j0], a_sets[j1], a_sets[j2]])

    # Branch d: exactly two of the sets are bad for agent 1; she repartitions
    # her good set with each bad set and keeps the better split.
    bad = [j for j in range(3) if 8 * value_of(1, a_sets[j]) < 7 * xi[1]]
    if len(bad) != 2:
        raise GuaranteeError(
            f"expected exactly two sets below agent 1's threshold, found {len(bad)}"
        )
    (good_j,) = [j for j in range(3) if j not in bad]
    base = a_sets[good_j]
    candidates = []
    for j in bad:
        pool = sorted(base + a_sets[j])
        cert = oracle.share([rows[1][g] for g in pool], 2, eps_prime)
        halves = tuple(
            tuple(sorted(pool[pos] for pos in part)) for part in cert.witness
        )
        candidates.append((cert.value, halves))
    x = max(range(2), key=lambda x: (candidates[x][0], -x))
    halves = candidates[x][1]
    pick = max(
        range(2), key=lambda j: (sum(rows[2][g] for g in halves[j]), -j)
    )
    if trace is not None:
        trace.append(
            {
                "branch": "d",
                "a_sets": a_sets,
                "base": good_j,
                "kept_with": bad[x],
                "kept_value": candidates[x][0],
                "discarded_value": candidates[1 - x][0],
                "halves": halves,
            }
        )
    bundles = {0: a_sets[bad[1 - x]], 2: halves[pick], 1: halves[1 - pick]}
    return Allocation.of(bundles[a] for a in range(3))
