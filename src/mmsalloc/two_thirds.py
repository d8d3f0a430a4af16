"""Bundle-matching solver with a rho(n) guarantee, one level at a time.

apx_mms asks :func:`~mmsalloc.oracle.share` at eps' for every agent's n-way
maximin estimate xi_i, and from it sets her threshold (1 - eps') * rho(n) *
xi_i; every level partitions with the same call, which keeps no memo of
approximate shares.  It then runs levels
until every agent is seated, each level taking only its active agents K and
the goods left: the lowest-indexed active agent partitions those goods into
|K| bundles as well as she can, a bipartite preference graph records which
active agents accept which bundles at their thresholds, and a maximum
matching hands bundles to every agent outside the Hall violator X+.  The
agents in X+ and the goods of the unseated bundles make the next level.
The guarantee rests on a balance invariant: entering any level, the goods
already gone are worth at most (n - |K|) * rho(n) * xi_i to each remaining
agent, so the partitioner's own |K|-maximin value over the residual is
still at least rho(n) * xi_i and her bundles all clear her threshold.

With an exact oracle each agent ends with at least rho(n) times her true
maximin value; rho(n) = 2*odd(n) / (3*odd(n) - 1) exceeds 2/3 for every
n >= 2.  In ptas mode with parameter eps the guarantee is (2/3 - eps).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

from .core import GuaranteeError, Instance, Partition, check_count, partition
from .matching import build_preference_graph, compute_x_plus, maximum_matching
from .oracle import MaximinCertificate, RationalLike, _accuracy, _as_eps, share


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
    check_count(n, "n", 2)
    odd = n if n % 2 == 1 else n - 1
    return Fraction(2 * odd, 3 * odd - 1)


def rec_mms(
    instance: Instance,
    agents: tuple[int, ...],
    goods: tuple[int, ...],
    thresholds: Sequence[Fraction],
    oracle: Callable[[list[int], int], MaximinCertificate],
    trace: Optional[list] = None,
) -> tuple[dict[int, tuple[int, ...]], tuple[int, ...], tuple[int, ...]]:
    """Run one level on the active agents and the goods left, ascending.

    Returns the bundles it seats, by agent; the agents of X+, who make the
    next level; and the sorted goods of the bundles it did not seat, which
    that level shares.  ``thresholds[i]`` is agent i's threshold
    (1 - eps') * rho(n) * xi_i, and ``oracle(values, k)`` is the level
    oracle, both fixed by apx_mms for every level; there the oracle is
    :func:`~mmsalloc.oracle.share` at eps', and the first level asks the
    partitioner's own xi query again.  Raises GuaranteeError if the
    partitioner fails her own threshold on one of her bundles or ends up in
    X+, which the balance invariant rules out for inputs reachable from
    apx_mms.
    """
    partitioner = agents[0]
    k = len(agents)
    cert = oracle([instance.row(partitioner)[g] for g in goods], k)
    # goods ascend, so each bundle's goods ascend as its positions do.
    bundles = tuple(tuple(goods[pos] for pos in bundle) for bundle in cert.witness)

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
    deferred = tuple(agents[u] for u in decomposition.x_plus)
    if trace is not None:
        trace.append({
            "agents": agents,
            "goods": goods,
            "partitioner": partitioner,
            "partition": bundles,
            "thresholds": level_thresholds,
            "adjacency": graph.adj,
            "matching": matching,
            "x_plus": deferred,
            "gamma": decomposition.gamma,
            "restricted_matching": tuple(
                (agents[u], v) for u, v in decomposition.restricted_matching
            ),
        })
    pairs = decomposition.restricted_matching
    taken = {v for _, v in pairs}
    leftover = tuple(sorted(
        g for j, bundle in enumerate(bundles) if j not in taken for g in bundle
    ))
    return {agents[u]: bundles[v] for u, v in pairs}, deferred, leftover


def apx_mms(
    instance: Instance,
    eps: RationalLike,
    oracle_mode: str = "ptas",
    trace: Optional[list] = None,
) -> Partition:
    """Allocate all goods with per-agent guarantee (2/3 - eps) times her
    maximin value, or rho(n) times it when the oracle is exact.

    eps must lie in (0, 1/3) so the advertised factor stays above 1/3.
    ``oracle_mode`` is ``"exact"`` or ``"ptas"``.  In ptas mode the internal
    accuracy is eps' = 3*eps/4, spent once on the xi estimates and once on
    each level's partition.  Each rec_mms call runs one level; its seated
    bundles are kept, and its X+ agents and left-over goods make the next.
    The loop ends: every level seats its partitioner, which rec_mms checks,
    so each level has fewer agents than the last.  ``trace``, if given,
    collects a dict per level: its agents, goods, partition, thresholds,
    preference graph, matchings and X+.

    >>> inst = Instance.from_rows([[4, 3, 2, 1], [1, 1, 1, 1]])
    >>> alloc = apx_mms(inst, Fraction(1, 10), oracle_mode="exact")
    >>> sorted(len(b) for b in alloc)
    [2, 2]
    """
    eps = _as_eps(eps, Fraction(1, 3))
    eps_prime = _accuracy(oracle_mode, 3 * eps / 4)
    if instance.n == 1:
        return partition([tuple(instance.goods)])
    factor = (1 - (eps_prime or 0)) * rho(instance.n)
    thresholds = tuple(
        factor * share(instance.row(i), instance.n, eps_prime).value
        for i in instance.agents
    )
    level_oracle = partial(share, eps=eps_prime)
    agents, goods = tuple(instance.agents), tuple(instance.goods)
    bundles: dict[int, tuple[int, ...]] = {}
    while agents:
        seated, agents, goods = rec_mms(
            instance, agents, goods, thresholds, level_oracle, trace
        )
        bundles.update(seated)
    return partition(bundles[i] for i in instance.agents)
