"""Single-agent maximin partition oracles.

Given one agent's values for a set of goods and a bundle count k, the maximin
value is the best worst-bundle total achievable by any k-partition.  Both
oracles are one routine (:func:`_maximin`) in two modes.  It starts from a
proven upper bound U on the value: strip the goods worth more than the
average of what is left, and U is that average over the remaining bundles
(:func:`_upper_bound`).  Every certificate carries U.  Both modes raise the
greedy split by moves and swaps toward a bar, U or (1-eps)*U.

* :func:`mms_exact` searches for the largest achievable floor, deciding each
  candidate with a bundle-by-bundle search over minimal covers, whose
  rules the decision core below states.  It climbs from the raised split's
  worst bundle: each cover found lifts the floor to that cover's worst
  bundle, and the first failed candidate ends the search.  U is not tried
  first, as the share rarely meets it.  Bisection takes over after
  O(log gap) climbs.  The last cover found is the witness, the one the
  search at the answer finds; when the raised split beats the greedy one,
  the climb starts one below it, so its first candidate finds that cover.
* :func:`mms_approx` runs the same search from the raised split and stops
  it once the best split's worst bundle reaches (1-eps) times the bound:
  U, lowered by each failed candidate, so never below the share.  A raised
  split that reaches (1-eps)*U settles the query with no candidate.  The
  certificate value is the witness's true minimum, so it is at least
  (1-eps) times the exact optimum and never above it.  Such a query costs
  O(m log m) for m goods, in validation, sort, greedy split and witness
  check: 42-51 us a row of 105 goods at k = 10 on a 2-core Xeon under
  CPython 3.11.

Exact shares: one process memo, under :func:`mms_exact`, of the last 512
distinct queries, keyed on the validated values and k, at most about 0.94
MB: under 2 KB an entry, 1.8 KB at the worst case, 22 goods and k = 22,
where the witness is 22 one-good tuples.  A certificate of 105 goods at
k = 10 takes 1.6 KB.  A share asked again, by the same command or a later
one in the process, is not searched again.  Errors are never kept.
Approximate shares: the memo of the :class:`ShareOracle` of one solve or
one :func:`xi_vector` call, gone with that oracle.

All arithmetic is on integers and Fractions; no floats touch any decision.
"""

from __future__ import annotations

import functools
import heapq
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from typing import Iterator, Optional, Sequence, Union

from .core import (
    GuaranteeError, InputError, Instance, as_rational, as_tuple, check_count,
    check_values, record,
)

#: Exact search refuses instances with more goods than this.  Beyond it, use
#: mms_approx.
EXACT_ITEM_CAP = 22

RationalLike = Union[int, str, Fraction]

Item = tuple[int, int]  # (value, position), kept sorted by value desc


@record
class MaximinCertificate:
    """A maximin query answer: the value, the bundle count, and a witness
    k-partition whose worst bundle attains exactly ``value``, and ``upper``,
    a proven upper bound on the exact share.  The witness is a tuple of k
    bundles, each a tuple of positions into the queried value sequence in
    ascending order, so equal partitions give equal witnesses."""

    value: int
    k: int
    witness: tuple[tuple[int, ...], ...]
    mode: str
    upper: int
    eps: Optional[Fraction] = None


def _validated_values(values: Sequence[int], k: int) -> tuple[int, ...]:
    check_count(k, "k", 1)
    vals = as_tuple(values, "values")
    check_values(vals, "value at position {j}")
    return vals


def _as_eps(eps: RationalLike, bound: Fraction = Fraction(1)) -> Fraction:
    """eps as a Fraction strictly between 0 and bound: every entry point's
    one conversion and range check of its accuracy."""
    frac = as_rational(eps, "eps")
    p, q = frac.numerator, frac.denominator
    # A Fraction's denominator is positive.
    if not 0 < p * bound.denominator < bound.numerator * q:
        raise InputError(f"eps must be in (0, {bound}), got {frac}")
    return frac


_value = itemgetter(0)


def _desc_items(vals: Sequence[int]) -> list[Item]:
    # A reverse sort is stable, so equal values keep their positions' order.
    return sorted(
        filter(_value, zip(vals, range(len(vals)))), key=_value, reverse=True
    )


def _lpt(items: list[Item], k: int) -> tuple[list[int], list[list[int]]]:
    """Longest-processing-time first: each item goes to the currently lightest
    bundle (ties to the lowest index).  Deterministic and a decent incumbent.

    A heap finds that bundle in O(log k) per item.  It holds load*k + index
    for each bundle, which orders as the pair (load, index) does.
    """
    bundles: list[list[int]] = [[] for _ in range(k)]
    heap = list(range(k))
    for v, j in items:
        x = heap[0]
        bundles[x % k].append(j)
        heapq.heapreplace(heap, x + v * k)
    loads = [0] * k
    for x in heap:
        loads[x % k] = x // k
    return loads, bundles


def _upper_bound(items: list[Item], total: int, k: int) -> int:
    """U = min over 0 <= j < k of (total - the j largest values) // (k - j).

    The j largest goods lie in at most j bundles, so some k - j bundles hold
    none of them, and the worst of those is at most their average.  Over
    descending values the averages fall while the next good is worth more
    than the current average and rise from then on, so the walk stops there.
    """
    bins = k
    for v, _ in items:
        if v * bins <= total:
            break
        total -= v
        bins -= 1
    return total // bins


def _raise_worst(
    vals: Sequence[int], loads: list[int], bundles: list[list[int]], target: int
) -> None:
    """Raise the worst bundle of a split, in place, until it reaches target
    or no step raises it.

    A step moves one good into the worst bundle (the first of equals), or
    swaps one of its goods for a larger one from another bundle.  Of the
    steps that leave both bundles above the worst one's load it takes the
    one whose lower bundle ends highest, the first found on ties.  Each step
    lowers the sum of squared loads, so the steps end.
    """
    while True:
        low = min(loads)
        if low >= target:
            return
        w = loads.index(low)
        mine = [vals[x] for x in bundles[w]]
        best, step = low, None
        for b, load in enumerate(loads):
            if (load + low) // 2 <= best:
                continue
            for at, y in enumerate(bundles[b]):
                vy = vals[y]
                # A shift of d into the worst bundle leaves both bundles
                # above best exactly when best - low < d < load - best.
                if best - low < vy < load - best:
                    best, step = min(low + vy, load - vy), (b, at, -1)
                for swap, vx in enumerate(mine):
                    if best - low < vy - vx < load - best:
                        best = min(low + vy - vx, load - vy + vx)
                        step = (b, at, swap)
        if step is None:
            return
        b, at, swap = step
        y = bundles[b][at]
        if swap < 0:
            del bundles[b][at]
            bundles[w].append(y)
            d = vals[y]
        else:
            x = bundles[w][swap]
            bundles[b][at], bundles[w][swap] = x, y
            d = vals[y] - vals[x]
        loads[w] += d
        loads[b] -= d


# ---------------------------------------------------------------------------
# Decision core: can the pool be split into k bundles each worth >= t?
#
# Bundles are built one at a time.  Each is the one containing the largest
# remaining item, and only minimal covers are tried: supersets of a cover
# waste items the later bundles may need, so if any partition at floor t
# exists, one with a minimal first cover does too.  The last bundle takes
# whatever is left, where it can only help.
#
# The lead goods.  A good worth t or more is a bundle of its own; no probe
# exceeds the upper bound U, so the goods left after such bundles are always
# worth the rest's floors.  The pool is sorted, so such goods lead it, and
# once a cover is built every later head is below t: they are split off
# once, before the first level, at most k - 1 of them.
#
# The cap.  A cover is worth at most cap = total - (k-1)*t.  A cover worth
# more leaves a remainder worth less than (k-1)*t, which cannot give the
# other k-1 bundles t each, so the search under it would fail at once.  As
# the cap only drops failing branches, the covers kept come in the same
# order and the first one that succeeds, hence the answer and the witness,
# is unchanged.
#
# The memo.  Equal values are interchangeable: when the walk declines an
# item it declines all equal-valued followers at once, and a pool whose
# covers all failed is remembered in the fail memo, which maps (bundle
# count, values) to the least floor that pool failed at.  A pool that fails
# at t fails at every higher floor, so one memo serves every probe of a
# search, and it only ever cuts failing branches.
#
# No recursion.  The search keeps its open levels in a list, each with one
# cover walk, and each walk keeps its own stack of skip points, so the depth
# of a search is bounded by k and the size of the pool, not by the
# interpreter's recursion limit, and no call leaves a reference cycle.
# ---------------------------------------------------------------------------


def _cover_walk(
    vals: Sequence[int], t: int, cap: int
) -> Iterator[tuple[int, list[int]]]:
    """(worth, chosen) for each minimal cover of t drawn from the descending
    values vals that contains vals[0], worth at most cap, in depth-first
    order, where vals[0] alone is worth less than t.  chosen holds the
    indices of the cover's other members in ascending order; it is the
    walk's own list, valid until the next step.

    Minimal means no member other than the forced first one could be dropped
    with the total still at t or above.  Every cover built is minimal: items
    are taken largest first and a cover ends as soon as it reaches t, so its
    last member is its smallest and is worth more than the excess over t.

    The walk takes each value that fits under cap; coming back, it declines
    that value together with every equal one after it.  Those skip points
    wait on a stack as (index, worth so far, members chosen), so coming back
    is one pop, and a branch that cannot reach t is never pushed.
    """
    n = len(vals)
    suffix = list(accumulate(reversed(vals), initial=0))[::-1]
    skip = list(range(1, n + 1))
    for i in range(n - 2, 0, -1):
        if vals[i] == vals[i + 1]:
            skip[i] = skip[i + 1]
    chosen: list[int] = []
    stack = [(1, vals[0], 0)]
    while stack:
        i, acc, depth = stack.pop()
        del chosen[depth:]
        while acc < t:
            if acc + suffix[i] < t:
                break
            v = vals[i]
            if acc + v <= cap:
                if acc + suffix[skip[i]] >= t:
                    stack.append((skip[i], acc, len(chosen)))
                chosen.append(i)
                acc += v
                i += 1
            else:
                i = skip[i]
        else:
            yield acc, chosen


def _cover_search(
    pool: list[Item], k: int, t: int, fail_memo: dict
) -> Optional[list[list[int]]]:
    """Split pool into k bundles each totalling at least t > 0, or None.

    After the lead goods, the search is one loop over open levels, each
    holding its pool, that pool's total, its memo key and its cover walk.
    A pool is searched only when it is worth need*t for the need bundles
    left; with one bundle left, it is that bundle.  With more, each of its
    goods is worth less than t, so it holds more goods than bundles, and it
    opens a level unless fail_memo holds it at t or below.  The deepest
    level's next cover is the next bundle and what it leaves is the next
    level's pool; a level whose walk runs out goes into fail_memo and is
    dropped.
    """
    lead = 0
    while lead < min(len(pool), k - 1) and pool[lead][0] >= t:
        lead += 1
    bundles = [[j] for _, j in pool[:lead]]
    pool = pool[lead:]
    total = sum(v for v, _ in pool)
    levels: list[tuple] = []
    while True:
        need = k - len(bundles)
        if total >= need * t:
            if need == 1:
                bundles.append([j for _, j in pool])
                return bundles
            # Via a list, so the memo's key is allocated at its exact size.
            vals = tuple([v for v, _ in pool])
            key = (need, vals)
            if fail_memo.get(key, t + 1) > t:
                walk = _cover_walk(vals, t, total - (need - 1) * t)
                levels.append((pool, total, key, walk))
        while levels:
            pool, total, key, walk = levels[-1]
            got = next(walk, None)
            if got is not None:
                break
            fail_memo[key] = t
            levels.pop()
        else:
            return None
        worth, chosen = got
        del bundles[lead + len(levels) - 1:]
        bundles.append([pool[0][1]] + [pool[c][1] for c in chosen])
        left: list[Item] = []
        start = 1
        for c in chosen:
            left += pool[start:c]
            start = c + 1
        left += pool[start:]
        pool, total = left, total - worth


def _search_maximin(
    vals: Sequence[int], items: list[Item], k: int, lo: int,
    witness: Optional[list[list[int]]], hi: int, loss: Fraction,
) -> tuple[int, Optional[list[list[int]]]]:
    """(lo, witness) for the best k-cover floor found from a known
    achievable lo, once lo >= (1 - loss)*hi: the largest floor at loss 0.

    hi starts at the upper bound U, and each failed probe t lowers it to
    t - 1, so it never falls below the share; each cover found lifts lo to
    its own worst bundle in vals.  The stop rule, for loss = p/q, is
    q*lo >= (q - p)*hi.  The search probes lo + 1 until a probe fails or
    the rule holds, so an exact climb that ends below U ends on its one
    failed probe; after (U - lo).bit_length() climbs it bisects, so the
    probes stay O(log(U - lo)) and share one fail memo.  The witness is
    the last cover found (the given one when none is); at loss 0 it is the
    cover the search finds at the answer itself (see below).
    """
    # A cover found at floor t with worst bundle w is the cover the
    # search finds at floor w too, so the answer needs no search of its own:
    # - Its first bundle reaches t only with its last member and is worth at
    #   least w, so the walk at w builds it as well, and the other bundles,
    #   each worth at least w, keep it within w's cap.  A good that is a
    #   bundle of its own at one floor is one at the other.
    # - Any cover built at w before it starts with a prefix that first
    #   reaches t.  That prefix is a cover at t, within t's cap, which is no
    #   smaller than w's, and it comes before the found bundle in the walk at
    #   t, which therefore tried it and failed on its remainder.
    # - Feasibility only falls as the pool shrinks or the floor rises, so
    #   the earlier cover's remainder fails at w, and level by level the
    #   search at w makes the same choices as the one at t.
    p, q = loss.numerator, loss.denominator
    memo: dict = {}
    climbs = (hi - lo).bit_length()
    while q * lo < (q - p) * hi:
        t = lo + 1 if climbs > 0 else (lo + hi + 1) // 2
        climbs -= 1
        got = _cover_search(items, k, t, memo)
        if got is None:
            hi = t - 1
        else:
            witness = got
            lo = min(sum(map(vals.__getitem__, b)) for b in got)
    return lo, witness


def _checked_witness(
    vals: Sequence[int], bundles: list[list[int]], value: int
) -> tuple[tuple[int, ...], ...]:
    """The bundles as a witness, each sorted into a tuple, checked to have
    its worst bundle at value."""
    witness = tuple(map(tuple, map(sorted, bundles)))
    worst = min(sum(map(vals.__getitem__, b)) for b in bundles)
    if worst != value:
        raise GuaranteeError(
            f"witness's worst bundle is worth {worst}, not the share {value}"
        )
    return witness


def _maximin(
    vals: Sequence[int], k: int, mode: str, eps: Optional[RationalLike] = None
) -> MaximinCertificate:
    """The maximin certificate over k bundles of vals, values that
    :func:`_validated_values` has passed, from one search stopped at
    (1 - loss) times its bound: loss 0, the exact share, in ``exact`` mode
    and eps in ``ptas`` mode.  Ptas mode starts at the raised split, its
    witness until a cover beats it.  Exact mode starts one below the raised
    split's value when that beats greedy, else at greedy, and its witness
    is the greedy split when that attains the share, else the cover found
    at the share."""
    loss = Fraction(0) if mode == "exact" else _as_eps(eps)
    if not loss and len(vals) > EXACT_ITEM_CAP:
        raise InputError(
            f"{len(vals)} goods exceeds the exact search cap of "
            f"{EXACT_ITEM_CAP}; use mms_approx"
        )
    items = _desc_items(vals)
    upper = _upper_bound(items, sum(vals), k)
    p, q = loss.numerator, loss.denominator
    bar = -(-(q - p) * upper // q)  # the least value with q*value >= (q-p)*U
    loads, greedy = _lpt(items, k)
    floor = min(loads)
    # The exact search may still need the greedy split as its witness.
    best = greedy if loss else [list(b) for b in greedy]
    _raise_worst(vals, loads, best, bar)
    lo = min(loads)
    witness = best if loss else greedy
    if not loss and lo > floor:
        lo, witness = lo - 1, None
    value, best = _search_maximin(vals, items, k, lo, witness, upper, loss)
    if best is None:
        raise GuaranteeError(f"no cover found at the raised value {value + 1}")

    if value > upper:
        raise GuaranteeError(f"share {value} exceeds the upper bound {upper}")
    if len(items) < len(vals):
        best[0].extend(j for j, v in enumerate(vals) if v == 0)
    witness = _checked_witness(vals, best, value)
    return MaximinCertificate(value, k, witness, mode, upper, loss or None)


def mms_exact(values: Sequence[int], k: int) -> MaximinCertificate:
    """Exact maximin over k bundles, with a witness and ``upper`` = U.

    Validated first, then answered from the process-wide memo when among
    its last 512 distinct queries (see the module docstring).

    >>> mms_exact([4, 3, 2, 1], 2).value
    5
    """
    return _exact_memo(_validated_values(values, k), k)


# Validation lets only ints through as values and k, and certificates are
# immutable, so a kept answer is the one a new search would give.
@functools.lru_cache(maxsize=512)
def _exact_memo(vals: tuple[int, ...], k: int) -> MaximinCertificate:
    return _maximin(vals, k, "exact")


def mms_approx(
    values: Sequence[int], k: int, eps: RationalLike
) -> MaximinCertificate:
    """Maximin over k bundles to within a factor (1 - eps), with a witness
    and ``upper`` = U: the exact search, stopped at (1 - eps) times its
    bound.  The certificate value is the witness's true minimum, so it
    never exceeds the optimum either.

    >>> mms_approx([1, 1, 1, 1], 2, Fraction(1, 10)).value
    2
    """
    return _maximin(_validated_values(values, k), k, "ptas", eps)


def greedy_floor(values: Sequence[int], k: int) -> int:
    """Fast certified lower bound on the k-maximin share: the minimum
    bundle value of the longest-first greedy partition.

    Any concrete partition's worst bundle is at most the maximin value, so
    this is always sound, and it has no item-count cap.

    >>> greedy_floor([3, 1, 1, 1], 2)
    3
    >>> greedy_floor([5, 1], 3)
    0
    """
    vals = _validated_values(values, k)
    loads, _ = _lpt(_desc_items(vals), k)
    return min(loads)


class ShareOracle:
    """A share oracle, ``exact`` or ``ptas``.  :meth:`share` answers by
    :func:`mms_exact`, or in ptas mode by :func:`mms_approx` at eps, and
    :meth:`lower` is a certified lower bound on the share for any number of
    goods.  Exact shares: one process memo, under :func:`mms_exact`;
    approximate shares: this oracle's own memo, which lives for one solve
    or one :func:`xi_vector` call.  All are called through this module's
    names, so wrapping those sees every query.
    """

    def __init__(self, mode: str) -> None:
        if mode not in ("exact", "ptas"):
            raise InputError(f"oracle mode must be 'exact' or 'ptas', got {mode!r}")
        self.mode = mode
        self._memo: dict[tuple, MaximinCertificate] = {}

    def loss(self, eps: RationalLike) -> Fraction:
        """The accuracy :meth:`share` gives up when asked at eps."""
        return Fraction(0) if self.mode == "exact" else _as_eps(eps)

    def share(
        self, values: Sequence[int], k: int, eps: Optional[RationalLike] = None
    ) -> MaximinCertificate:
        if self.mode == "exact":
            return mms_exact(values, k)
        key = (_validated_values(values, k), k, _as_eps(eps))
        cert = self._memo.get(key)
        if cert is None:
            cert = self._memo[key] = mms_approx(*key)
        return cert

    def lower(self, values: Sequence[int], k: int) -> int:
        """The exact share for up to EXACT_ITEM_CAP goods, and the greedy
        floor beyond, where the exact search is out of reach."""
        vals = _validated_values(values, k)
        if len(vals) <= EXACT_ITEM_CAP:
            return mms_exact(vals, k).value
        return greedy_floor(vals, k)


def xi_vector(
    instance: Instance,
    k: int,
    eps: Optional[RationalLike] = None,
    mode: str = "ptas",
) -> tuple[MaximinCertificate, ...]:
    """Per-agent maximin certificates over all goods and k bundles, from a
    fresh :class:`ShareOracle` in ``mode``.  Exact shares come from the
    process memo under :func:`mms_exact`; approximate ones from that
    oracle's memo, so agents with identical rows cost one search, and a
    later call searches again."""
    oracle = ShareOracle(mode)
    return tuple(oracle.share(instance.row(i), k, eps) for i in instance.agents)
