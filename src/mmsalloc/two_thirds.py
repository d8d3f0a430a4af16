"""Recursive bundle-matching solver with a rho(n) guarantee.

apx_mms asks one ShareOracle for every agent's n-way maximin estimate xi_i,
and from it sets her threshold (1 - eps') * rho(n) * xi_i; every level
partitions with the same oracle at eps'.  Exact shares: one process memo;
approximate shares: that oracle's, for the one solve.  It then recursively
satisfies agents, each level taking only its active agents K and the goods
left: the lowest-indexed active agent partitions those goods into |K|
bundles as well as she can, a bipartite preference graph records which
active agents accept which bundles at their thresholds, and a maximum
matching hands bundles to every agent outside the Hall violator X+.  The
agents in X+ recurse on the unallocated goods.  The guarantee rests on a
balance invariant: entering any level, the goods already gone are worth at
most (n - |K|) * rho(n) * xi_i to each remaining agent, so the partitioner's
own |K|-maximin value over the residual is still at least rho(n) * xi_i and
her bundles all clear her threshold.

With an exact oracle each agent ends with at least rho(n) times her true
maximin value; rho(n) = 2*odd(n) / (3*odd(n) - 1) exceeds 2/3 for every
n >= 2.  In ptas mode with parameter eps the guarantee is (2/3 - eps).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

from .core import Allocation, GuaranteeError, InputError, Instance
from .matching import build_preference_graph, compute_x_plus, maximum_matching
from .oracle import MaximinCertificate, RationalLike, ShareOracle


def rho(n: int) -> Fraction:
    """Guarantee factor for n >= 2 agents, always above 2/3: with odd(n) the
    largest odd integer <= n, it is 2*odd(n) / (3*odd(n) - 1).

    >>> rho(3)
    Fraction(3, 4)
    >>> rho(2)
    Fraction(1, 1)
    >>> rho(5)
    Fraction(5, 7)
    """
    if n < 2:
        raise InputError(f"the guarantee factor needs n >= 2, got n={n}")
    odd = n if n % 2 == 1 else n - 1
    return Fraction(2 * odd, 3 * odd - 1)


def rec_mms(
    instance: Instance,
    agents: tuple[int, ...],
    goods: tuple[int, ...],
    thresholds: Sequence[Fraction],
    oracle: Callable[[list[int], int], MaximinCertificate],
    trace: Optional[list] = None,
) -> dict[int, frozenset[int]]:
    """Allocate goods among the active agents recursively.

    Returns a bundle per active agent; the bundles partition goods.
    ``thresholds[i]`` is agent i's threshold (1 - eps') * rho(n) * xi_i,
    and ``oracle(values, k)`` is the level oracle, both fixed by apx_mms
    for the whole recursion; there the oracle is its ShareOracle at eps',
    and a memo answers the first level, the partitioner's own xi query.
    Raises GuaranteeError if the partitioner fails her own threshold on one
    of her bundles or ends up unmatched, which the balance invariant rules
    out for inputs reachable from apx_mms.
    """
    if len(agents) == 1:
        return {agents[0]: frozenset(goods)}

    partitioner = agents[0]
    k = len(agents)
    cert = oracle([instance.row(partitioner)[g] for g in goods], k)
    bundles = tuple(
        tuple(sorted(goods[pos] for pos in bundle)) for bundle in cert.witness
    )

    level_thresholds = tuple(thresholds[i] for i in agents)
    rows = [instance.row(i) for i in agents]
    graph = build_preference_graph(rows, bundles, level_thresholds)
    if graph.adj[0] != tuple(range(k)):
        raise GuaranteeError(
            f"agent {partitioner}'s own partition misses her threshold; "
            "the balance invariant does not hold for this call"
        )
    matching = maximum_matching(graph)
    decomposition = compute_x_plus(graph, matching)
    if 0 in decomposition.x_plus:
        raise GuaranteeError(
            f"agent {partitioner} ended up in the deferred set of her own level"
        )
    if trace is not None:
        trace.append({
            "agents": agents,
            "goods": goods,
            "partitioner": partitioner,
            "partition": bundles,
            "thresholds": level_thresholds,
            "adjacency": graph.adj,
            "matching": matching,
            "x_plus": tuple(agents[u] for u in decomposition.x_plus),
            "gamma": decomposition.gamma,
            "restricted_matching": tuple(
                (agents[u], v) for u, v in decomposition.restricted_matching
            ),
        })

    result: dict[int, frozenset[int]] = {}
    taken = set()
    for left, right in decomposition.restricted_matching:
        result[agents[left]] = frozenset(bundles[right])
        taken.add(right)
    if decomposition.x_plus:
        leftover = tuple(
            sorted(
                g
                for j, bundle in enumerate(bundles)
                if j not in taken
                for g in bundle
            )
        )
        deferred = tuple(agents[u] for u in decomposition.x_plus)
        result.update(
            rec_mms(instance, deferred, leftover, thresholds, oracle, trace)
        )
    return result


def apx_mms(
    instance: Instance,
    eps: RationalLike,
    oracle_mode: str = "ptas",
    trace: Optional[list] = None,
) -> Allocation:
    """Allocate all goods with per-agent guarantee (2/3 - eps) times her
    maximin value, or rho(n) times it when the oracle is exact.

    eps must lie in (0, 1/3) so the advertised factor stays above 1/3.
    ``oracle_mode`` is ``"exact"`` or ``"ptas"``.  In ptas mode the internal
    accuracy is eps' = 3*eps/4, spent once on the xi estimates and once on
    each level's partition.  ``trace``, if given, collects a dict per
    recursion level: its agents, goods, partition, thresholds, preference
    graph, matchings and X+.

    >>> inst = Instance.from_rows([[4, 3, 2, 1], [1, 1, 1, 1]])
    >>> alloc = apx_mms(inst, Fraction(1, 10), oracle_mode="exact")
    >>> sorted(len(b) for b in alloc)
    [2, 2]
    """
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 3):
        raise InputError(f"eps must be in (0, 1/3), got {eps}")
    oracle = ShareOracle(oracle_mode)
    if instance.n == 1:
        return Allocation.of([tuple(instance.goods)])
    eps_prime = oracle.loss(3 * eps / 4)
    factor = (1 - eps_prime) * rho(instance.n)
    thresholds = tuple(
        factor * oracle.share(instance.row(i), instance.n, eps_prime).value
        for i in instance.agents
    )
    result = rec_mms(
        instance, tuple(instance.agents), tuple(instance.goods), thresholds,
        partial(oracle.share, eps=eps_prime), trace,
    )
    return Allocation.of(result[i] for i in instance.agents)
