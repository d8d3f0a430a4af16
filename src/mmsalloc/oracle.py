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
* :func:`mms_approx` returns the raised split as soon as its worst bundle
  reaches (1-eps)*U: the share is at most U, so that certifies it.  Only
  otherwise does it run the same search, from that split, on values rounded
  down to a grain chosen so the rounding loss stays under half of eps times
  the optimum.  Either way the certificate value is the true minimum of
  the witness, so it is at least (1-eps) times the exact optimum and never
  above it.

Exact shares: one process memo, under :func:`mms_exact`, of the last 512
distinct queries, keyed on the validated values and k, at most about 2.8 MB
(5.5 KB an entry at the worst case, 22 goods and k = 22).  A share asked
again, by the same command or a later one in the process, is not searched
again.  Errors are never kept.  Approximate shares: the memo of the
:class:`ShareOracle` of one solve or one :func:`xi_vector` call, gone with
that oracle.

All arithmetic is on integers and Fractions; no floats touch any decision.
"""

from __future__ import annotations

import functools
import heapq
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Optional, Sequence, Union

from .core import GuaranteeError, InputError, Instance, record

#: Exact search refuses instances with more goods than this.  Beyond it, use
#: mms_approx.
EXACT_ITEM_CAP = 22

RationalLike = Union[int, str, Fraction]

Item = tuple[int, int]  # (value, position), kept sorted by value desc


@record
class MaximinCertificate:
    """A maximin query answer: the value, the bundle count, and a witness
    k-partition (bundles of positions into the queried value sequence) whose
    worst bundle attains exactly ``value``, and ``upper``, a proven upper
    bound on the exact share."""

    value: int
    k: int
    witness: tuple[frozenset[int], ...]
    mode: str
    upper: int
    eps: Optional[Fraction] = None


def _validated_values(values: Sequence[int], k: int) -> list[int]:
    if k < 1:
        raise InputError(f"bundle count must be positive, got k={k}")
    vals = list(values)
    for j, v in enumerate(vals):
        if not isinstance(v, int) or isinstance(v, bool):
            raise InputError(f"value at position {j} is not an integer: {v!r}")
        if v < 0:
            raise InputError(f"value at position {j} is negative: {v}")
    return vals


def _as_eps(eps: RationalLike) -> Fraction:
    try:
        frac = Fraction(eps)
    except (TypeError, ValueError) as exc:
        raise InputError(f"eps is not a rational: {eps!r}") from exc
    if not 0 < frac < 1:
        raise InputError(f"eps must lie strictly between 0 and 1, got {frac}")
    return frac


def _desc_items(vals: Sequence[int]) -> list[Item]:
    # A reverse sort is stable, so equal values keep their positions' order.
    order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
    return [(vals[j], j) for j in order if vals[j] > 0]


def _lpt(items: list[Item], k: int) -> tuple[list[int], list[list[int]]]:
    """Longest-processing-time first: each item goes to the currently lightest
    bundle (ties to the lowest index).  Deterministic and a decent incumbent.

    A heap of (load, index) pairs finds that bundle in O(log k) per item.
    """
    loads = [0] * k
    bundles: list[list[int]] = [[] for _ in range(k)]
    heap = [(0, b) for b in range(k)]
    for v, j in items:
        load, b = heap[0]
        loads[b] = load + v
        bundles[b].append(j)
        heapq.heapreplace(heap, (load + v, b))
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
    items: list[Item], k: int, lo: int, lo_witness: Optional[list[list[int]]]
) -> tuple[int, Optional[list[list[int]]]]:
    """Largest t with a k-cover at floor t, from a known achievable lo.

    The search climbs from lo up to the upper bound U: it probes lo + 1
    until a probe fails or lo reaches U.  So a climb that ends below U ends
    on its one failed probe.  After (U - lo).bit_length() climbs it
    bisects what is left, so the probe count stays O(log(U - lo)).  Every
    cover found, climbing or bisecting, lifts lo to that cover's own worst
    bundle, and every failed probe t lowers U to t - 1.  All probes share
    the fail memo the search makes itself.  The witness is the last cover
    found (lo_witness when nothing beats lo); it is the cover the search
    finds at the answer itself (see below), whatever the probes before it.
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
    hi = _upper_bound(items, sum(v for v, _ in items), k)
    value_of = {j: v for v, j in items}
    memo: dict = {}
    witness = lo_witness
    climbs = (hi - lo).bit_length()
    while lo < hi:
        t = lo + 1 if climbs > 0 else (lo + hi + 1) // 2
        climbs -= 1
        got = _cover_search(items, k, t, memo)
        if got is None:
            hi = t - 1
        else:
            witness = got
            lo = min(sum(value_of[j] for j in b) for b in got)
    return lo, witness


def _checked_witness(
    vals: Sequence[int], bundles: list[list[int]], value: int
) -> tuple[frozenset[int], ...]:
    """The bundles as a witness, checked to have its worst bundle at value."""
    witness = tuple(frozenset(b) for b in bundles)
    worst = min(sum(vals[j] for j in b) for b in witness)
    if worst != value:
        raise GuaranteeError(
            f"witness's worst bundle is worth {worst}, not the share {value}"
        )
    return witness


def _rounded_search(
    vals: Sequence[int], items: list[Item], k: int, frac: Fraction,
    bundles: list[list[int]],
) -> tuple[int, list[list[int]]]:
    """The maximin search on values rounded down, started from bundles: the
    better of the split it finds and bundles, with its true worst bundle.

    Values are rounded down to multiples of a grain u <= eps*G/(2m), where G
    is the worst bundle of the given split (so G never exceeds the optimum)
    and m counts the positive values.  An optimal bundle loses less than
    m*u <= eps/2 times the optimum to rounding, hence the exact search on
    rounded values yields a split whose true minimum is at least (1 - eps)
    times the optimum.  Goods worth less than u go to its worst bundle.
    """
    p, q = frac.numerator, frac.denominator
    value = min(sum(vals[j] for j in b) for b in bundles)
    grain = max(1, (p * value) // (2 * len(items) * q))
    rounded = [(v // grain, j) for v, j in items if v >= grain]
    dust = [j for v, j in items if v < grain]
    start = [[j for j in b if vals[j] >= grain] for b in bundles]
    lo = min(sum(vals[j] // grain for j in b) for b in start)
    _, found = _search_maximin(rounded, k, lo, start)
    sums = [sum(vals[j] for j in b) for b in found]
    if dust:
        dump = sums.index(min(sums))
        found[dump].extend(dust)
        sums[dump] += sum(vals[j] for j in dust)
    if min(sums) > value:
        return min(sums), found
    return value, bundles


def _maximin(
    values: Sequence[int], k: int, mode: str, eps: Optional[RationalLike] = None
) -> MaximinCertificate:
    """The maximin certificate over k bundles, exact in ``exact`` mode and
    within a factor (1 - eps) in ``ptas`` mode.  The exact search climbs from
    one below the raised split's value when that beats greedy, else from it.
    Its witness is the greedy split when that attains the share, and
    otherwise the cover found at the share."""
    vals = _validated_values(values, k)
    frac = None if mode == "exact" else _as_eps(eps)
    if frac is None and len(vals) > EXACT_ITEM_CAP:
        raise InputError(
            f"{len(vals)} goods exceeds the exact search cap of "
            f"{EXACT_ITEM_CAP}; use mms_approx"
        )
    items = _desc_items(vals)
    upper = bar = _upper_bound(items, sum(v for v, _ in items), k)
    if frac is not None:
        p, q = frac.numerator, frac.denominator
        bar = -(-(q - p) * upper // q)  # the least value with q*value >= (q-p)*U
    loads, greedy = _lpt(items, k)
    floor = min(loads)
    best = [list(b) for b in greedy]
    _raise_worst(vals, loads, best, bar)
    value = min(loads)
    if frac is None:
        start, witness = (value - 1, None) if value > floor else (value, greedy)
        value, best = _search_maximin(items, k, start, witness)
        if best is None:
            raise GuaranteeError(f"no cover found at the raised value {value + 1}")
    elif value < bar:
        value, best = _rounded_search(vals, items, k, frac, best)

    if value > upper:
        raise GuaranteeError(f"share {value} exceeds the upper bound {upper}")
    best[0].extend(j for j, v in enumerate(vals) if v == 0)
    witness = _checked_witness(vals, best, value)
    return MaximinCertificate(
        value=value, k=k, witness=witness, mode=mode, upper=upper, eps=frac
    )


def mms_exact(values: Sequence[int], k: int) -> MaximinCertificate:
    """Exact maximin over k bundles, with a witness and ``upper`` = U.

    Validated first, then answered from the process-wide memo when among
    its last 512 distinct queries (see the module docstring).

    >>> mms_exact([4, 3, 2, 1], 2).value
    5
    """
    return _exact_memo(tuple(_validated_values(values, k)), k)


# Answers are pure functions of (values, k) and certificates are immutable,
# so a kept answer is the one a new search would give.  typed: a k of
# another type, such as True or 2.0, is not answered from the entry for the
# equal int, whose certificate carries that int.
@functools.lru_cache(maxsize=512, typed=True)
def _exact_memo(vals: tuple[int, ...], k: int) -> MaximinCertificate:
    return _maximin(vals, k, "exact")


def mms_approx(
    values: Sequence[int], k: int, eps: RationalLike
) -> MaximinCertificate:
    """Maximin over k bundles to within a factor (1 - eps), with a witness
    and ``upper`` = U.  The certificate value is the witness's true
    minimum, so it never exceeds the optimum either.

    >>> mms_approx([1, 1, 1, 1], 2, Fraction(1, 10)).value
    2
    """
    return _maximin(values, k, "ptas", eps)


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
        return Fraction(0) if self.mode == "exact" else Fraction(eps)

    def share(
        self, values: Sequence[int], k: int, eps: Optional[RationalLike] = None
    ) -> MaximinCertificate:
        if self.mode == "exact":
            return mms_exact(values, k)
        key = (tuple(values), k, eps)
        cert = self._memo.get(key)
        if cert is None:
            cert = self._memo[key] = mms_approx(values, k, eps)
        return cert

    def lower(self, values: Sequence[int], k: int) -> int:
        """The exact share for up to EXACT_ITEM_CAP goods, and the greedy
        floor beyond, where the exact search is out of reach."""
        if len(values) <= EXACT_ITEM_CAP:
            return mms_exact(values, k).value
        return greedy_floor(values, k)


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
