"""Maximin share oracles: exact search, approximation scheme, bounds."""

import doctest
import gc
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmsalloc
import mmsalloc.oracle as oracle
from helpers import exhaustive_mms, record_searches
from mmsalloc import (
    EXACT_ITEM_CAP,
    GuaranteeError,
    InputError,
    Instance,
    ShareOracle,
    greedy_floor,
    mms_approx,
    mms_exact,
    xi_vector,
)
from mmsalloc.cli import main


def test_module_doctests():
    result = doctest.testmod(oracle)
    assert result.failed == 0


# Hand-checked shares, each verified against exhaustive_mms below as well.
KNOWN_SHARES = [
    ([5, 4, 3, 2, 1], 2, 7),
    ([9, 8, 7, 6, 5, 4], 3, 13),
    ([3, 3, 3], 3, 3),
    ([1, 1, 1, 1, 1, 1, 1], 3, 2),
    ([10, 1], 3, 0),
    ([4, 4, 4, 4], 2, 8),
    ([7, 1, 1, 1, 1, 1, 1, 1], 3, 3),
    ([], 2, 0),
    ([6], 1, 6),
    ([0, 0, 0], 2, 0),
]


@pytest.mark.parametrize("values,k,expected", KNOWN_SHARES)
def test_exact_known_values(values, k, expected):
    assert exhaustive_mms(values, k) == expected
    cert = mms_exact(values, k)
    assert cert.value == expected
    assert cert.mode == "exact"


def test_no_cover_search_when_greedy_meets_the_upper_bound():
    # The share lies between greedy's worst bundle and U, so when the two
    # meet the greedy split is the witness and nothing is searched.
    met = []
    for values, k, expected in KNOWN_SHARES:
        items = oracle._desc_items(values)
        loads, _ = oracle._lpt(items, k)
        if min(loads) < oracle._upper_bound(items, sum(values), k):
            continue
        with patch.object(
            oracle, "_cover_search", wraps=oracle._cover_search
        ) as cover_search:
            assert mms_exact(values, k).value == expected
        assert cover_search.call_count == 0, (values, k)
        met.append((values, k))
    assert ([5, 4, 3, 2, 1], 2) in met and ([9, 8, 7, 6, 5, 4], 3) in met


def assert_witness_certifies(values, k, cert):
    # The one witness form: a tuple of k tuples of ascending positions,
    # which together list every position of the row once.
    witness = cert.witness
    assert type(witness) is tuple and len(witness) == k
    for bundle in witness:
        assert type(bundle) is tuple and list(bundle) == sorted(set(bundle))
    seen = sorted(g for bundle in witness for g in bundle)
    assert seen == list(range(len(values)))
    worst = min(sum(values[g] for g in bundle) for bundle in witness)
    assert worst >= cert.value


def test_a_frozenset_witness_is_not_the_witness_form():
    cert = mms_exact([4, 3, 2, 1], 2)
    assert_witness_certifies([4, 3, 2, 1], 2, cert)
    as_sets = oracle.MaximinCertificate(
        cert.value, 2, tuple(map(frozenset, cert.witness)), "exact", cert.upper
    )
    with pytest.raises(AssertionError):
        assert_witness_certifies([4, 3, 2, 1], 2, as_sets)


def test_exact_witness_achieves_value():
    rng = random.Random(4)
    for _ in range(100):
        m = rng.randint(0, 9)
        k = rng.randint(1, 4)
        values = [rng.randint(0, 12) for _ in range(m)]
        cert = mms_exact(values, k)
        assert cert.value == exhaustive_mms(values, k)
        assert_witness_certifies(values, k, cert)
        worst = min(sum(values[g] for g in b) for b in cert.witness)
        assert worst == cert.value


def test_approx_bounds_and_witness():
    rng = random.Random(17)
    eps = Fraction(1, 10)
    for _ in range(100):
        m = rng.randint(0, 10)
        k = rng.randint(1, 4)
        values = [rng.randint(0, 20) for _ in range(m)]
        exact = mms_exact(values, k).value
        cert = mms_approx(values, k, eps)
        assert cert.mode == "ptas" and cert.eps == eps
        assert cert.value <= exact
        assert 10 * cert.value >= 9 * exact
        assert_witness_certifies(values, k, cert)


def test_approx_eps_validation():
    with pytest.raises(InputError):
        mms_approx([1, 2], 2, Fraction(0))
    with pytest.raises(InputError):
        mms_approx([1, 2], 2, Fraction(1))
    with pytest.raises(InputError):
        mms_approx([1, 2], 2, Fraction(-1, 5))


def test_exact_item_cap_enforced():
    values = [1] * (EXACT_ITEM_CAP + 1)
    with pytest.raises(InputError):
        mms_exact(values, 2)
    cert = mms_approx(values, 2, Fraction(1, 10))
    assert cert.value >= 9  # exact share is 11


def test_input_validation():
    with pytest.raises(InputError):
        mms_exact([1, -1], 2)
    with pytest.raises(InputError):
        mms_exact([1, 2], 0)
    with pytest.raises(InputError):
        mms_exact([1.5], 1)


_THREE = Instance.from_rows([[3, 2, 2, 1]] * 3)

#: Each entry point that takes an accuracy, and the bound eps must lie below.
_EPS_ENTRY_POINTS = {
    "mms_approx": (lambda eps: mms_approx([3, 2, 2, 1], 2, eps), Fraction(1)),
    "xi_vector": (lambda eps: xi_vector(_THREE, 2, eps, mode="ptas"), Fraction(1)),
    "share": (lambda eps: ShareOracle("ptas").share([3, 2, 2, 1], 2, eps), 1),
    "loss": (lambda eps: ShareOracle("ptas").loss(eps), 1),
    "apx_mms": (lambda eps: mmsalloc.apx_mms(_THREE, eps), Fraction(1, 3)),
    "apx_3_mms": (lambda eps: mmsalloc.apx_3_mms(_THREE, eps), Fraction(7, 8)),
}


@pytest.mark.parametrize("entry", _EPS_ENTRY_POINTS)
@pytest.mark.parametrize(
    "eps", ["abc", "1/0", None, float("inf"), float("nan"), 0, Fraction(-1, 2),
            "bound"],
    ids=repr,
)
def test_every_entry_point_rejects_a_bad_eps(entry, eps):
    call, bound = _EPS_ENTRY_POINTS[entry]
    with pytest.raises(InputError):
        call(bound if eps == "bound" else eps)


@pytest.mark.parametrize("query", [
    mms_exact, greedy_floor, lambda values, k: mms_approx(values, k, "1/10"),
], ids=["mms_exact", "greedy_floor", "mms_approx"])
@pytest.mark.parametrize("k", [0, -1, True, 2.0, "2", None], ids=repr)
def test_every_entry_point_rejects_a_bad_k(query, k):
    with pytest.raises(InputError):
        query([3, 2, 2, 1], k)


#: Each entry point that reads a row of values, at k = 2.
_ROW_ENTRY_POINTS = {
    "mms_exact": lambda values: mms_exact(values, 2),
    "mms_approx": lambda values: mms_approx(values, 2, "1/2"),
    "greedy_floor": lambda values: greedy_floor(values, 2),
    "exact share": lambda values: ShareOracle("exact").share(values, 2),
    "ptas share": lambda values: ShareOracle("ptas").share(values, 2, "1/2"),
    "exact lower": lambda values: ShareOracle("exact").lower(values, 2),
    "ptas lower": lambda values: ShareOracle("ptas").lower(values, 2),
}


@pytest.mark.parametrize("entry", _ROW_ENTRY_POINTS)
@pytest.mark.parametrize("values", [None, 3, [[1], 2], [1, None]], ids=repr)
def test_every_entry_point_rejects_a_row_that_is_no_row_of_ints(entry, values):
    with pytest.raises(InputError):
        _ROW_ENTRY_POINTS[entry](values)


@pytest.mark.parametrize("eps", ["1e-99999999", "1e99999999"])
@pytest.mark.parametrize("call", [
    lambda eps: mms_approx([1, 2, 3], 2, eps),
    lambda eps: mmsalloc.apx_mms(_THREE, eps),
    lambda eps: ShareOracle("ptas").share([1, 2, 3], 2, eps),
], ids=["mms_approx", "apx_mms", "share"])
def test_eps_with_a_huge_exponent_is_refused_at_once(call, eps):
    # Building 10**99999999 to read such an eps would take minutes.
    started = time.perf_counter()
    with pytest.raises(InputError, match="^eps has too many digits to print"):
        call(eps)
    assert time.perf_counter() - started < 0.5


def test_greedy_floor_is_sound_lower_bound():
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randint(0, 10)
        k = rng.randint(1, 4)
        values = [rng.randint(0, 30) for _ in range(m)]
        assert greedy_floor(values, k) <= mms_exact(values, k).value


def test_greedy_floor_handles_large_inputs():
    rng = random.Random(29)
    values = [rng.randint(0, 10**6) for _ in range(5000)]
    floor = greedy_floor(values, 7)
    assert 0 <= floor * 7 <= sum(values)


def test_xi_vector_exact_matches_per_row_oracle():
    inst = Instance.from_rows([[5, 4, 3, 2, 1], [2, 2, 2, 2, 2], [9, 0, 0, 1, 8]])
    certs = xi_vector(inst, 3, mode="exact")
    assert [c.value for c in certs] == [
        mms_exact(inst.row(i), 3).value for i in inst.agents
    ]


def test_xi_vector_ptas_within_band():
    inst = Instance.from_rows([[5, 4, 3, 2, 1], [2, 2, 2, 2, 2]])
    eps = Fraction(1, 8)
    certs = xi_vector(inst, 2, eps=eps, mode="ptas")
    for i in inst.agents:
        exact = mms_exact(inst.row(i), 2).value
        assert certs[i].value <= exact
        assert certs[i].value >= (1 - eps) * exact


def test_xi_vector_reuses_identical_rows(monkeypatch):
    rows = [[4, 3, 2, 1]] * 3
    searches = record_searches(monkeypatch)
    certs = xi_vector(Instance.from_rows(rows), 3, mode="exact")
    assert len(searches) == 1
    assert certs[0].value == certs[1].value == certs[2].value


def test_approximate_shares_are_not_kept_past_their_oracle(monkeypatch):
    # Approximate shares live in the oracle of one xi_vector call: within
    # the call identical rows search once, and a second call searches again.
    inst = Instance.from_rows([[9, 7, 5, 3, 1]] * 2 + [[1, 3, 5, 7, 9]])
    searches = record_searches(monkeypatch)
    first = xi_vector(inst, 2, eps=Fraction(1, 10), mode="ptas")
    assert len(searches) == 2
    assert xi_vector(inst, 2, eps=Fraction(1, 10), mode="ptas") == first
    assert len(searches) == 4
    assert searches[2:] == searches[:2]


def test_one_ptas_query_is_one_search_whatever_its_form(monkeypatch):
    # A list row at "1/10" and a tuple row at Fraction(1, 10) ask one
    # question, so the oracle's memo answers the second.
    share = ShareOracle("ptas").share
    searches = record_searches(monkeypatch)
    first = share([9, 7, 5, 3, 1], 2, "1/10")
    assert share((9, 7, 5, 3, 1), 2, Fraction(1, 10)) is first
    assert len(searches) == 1


def test_xi_vector_takes_only_a_mode_string():
    inst = Instance.from_rows([[4, 3, 2, 1]])
    for bad_mode in ("fast", ShareOracle("exact")):
        with pytest.raises(InputError):
            xi_vector(inst, 2, mode=bad_mode)


# ---------------------------------------------------------------------------
# The process-wide memo under mms_exact.
# ---------------------------------------------------------------------------


def test_a_later_command_reuses_the_shares_an_earlier_one_asked(
    tmp_path, capsys
):
    # Each agent's exact share decides the thresholds of solve --algo half,
    # and on these rows greedy misses U, so the first solve searches.  A
    # second solve in the same process finds every share in the memo.
    rows = [[4, 18, 2, 8, 3, 15, 14, 15], [20, 12, 6, 3, 15, 0, 12, 13],
            [19, 0, 14, 8, 7, 18, 3, 10]]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(
        {"n": 3, "m": 8, "scale": 1, "valuations": rows}
    ))
    argv = ["solve", "--instance", str(path), "--algo", "half"]
    runs = []
    for _ in range(2):
        with patch.object(
            oracle, "_cover_search", wraps=oracle._cover_search
        ) as searched:
            assert main(argv) == 0
        runs.append((searched.call_count, capsys.readouterr()))
    (first, out), (second, again) = runs
    assert first > 0 and second == 0
    assert again == out


def test_exact_memo_keys_on_the_validated_row():
    with patch.object(oracle, "_maximin", wraps=oracle._maximin) as searched:
        cert = mms_exact([7, 5, 4, 3, 3], 2)
        assert mms_exact((7, 5, 4, 3, 3), 2) is cert
        assert searched.call_count == 1
        assert mms_exact([7, 5, 4, 3, 3], 1).k == 1
        # A k equal to a cached int but of another type is no query at all.
        with pytest.raises(InputError):
            mms_exact([7, 5, 4, 3, 3], True)
    assert searched.call_count == 2


def test_exact_memo_never_answers_an_invalid_query():
    mms_exact([1, 2, 3], 2)
    for values, k in (([True, 2, 3], 2), ([[1], 2, 3], 2), ([-1, 2, 3], 2),
                      ([1, 2, 3], 0)):
        with pytest.raises(InputError):
            mms_exact(values, k)


def test_exact_memo_keeps_no_error(monkeypatch):
    mms_exact([1, 2, 3], 2)
    size = oracle._exact_memo.cache_info().currsize
    with pytest.raises(InputError):
        mms_exact([1] * (EXACT_ITEM_CAP + 1), 2)
    assert oracle._exact_memo.cache_info().currsize == size
    with monkeypatch.context() as patched:
        patched.setattr(oracle, "_search_maximin", _overstated)
        with pytest.raises(GuaranteeError):
            mms_exact([5, 4, 3, 2, 1], 2)
    assert oracle._exact_memo.cache_info().currsize == size
    assert mms_exact([5, 4, 3, 2, 1], 2).value == 7


def test_exact_memo_drops_its_oldest_query_past_its_bound():
    size = oracle._exact_memo.cache_info().maxsize
    for v in range(size + 1):
        mms_exact([v], 1)
    assert oracle._exact_memo.cache_info().currsize == size
    with patch.object(oracle, "_maximin", wraps=oracle._maximin) as searched:
        mms_exact([size], 1)
        assert searched.call_count == 0
        mms_exact([0], 1)
        assert searched.call_count == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(queries=st.lists(
    st.tuples(
        st.one_of(
            st.lists(st.integers(0, 60), max_size=12),
            st.lists(st.integers(0, 10**6), max_size=12),
        ),
        st.integers(1, 4),
    ),
    min_size=1, max_size=5,
))
def test_exact_memo_answers_as_a_fresh_search(queries):
    # Each query is asked twice with the others in between; the memo stays
    # warm from one example to the next.
    for values, k in queries + queries:
        assert mms_exact(values, k) == oracle._maximin(values, k, "exact")


def _lpt_by_scan(items, k):
    """The greedy split as a linear scan for the lightest bundle per item,
    ties to the lowest index: the reference for the heap in oracle._lpt."""
    loads = [0] * k
    bundles = [[] for _ in range(k)]
    for v, j in items:
        b = min(range(k), key=lambda x: (loads[x], x))
        loads[b] += v
        bundles[b].append(j)
    return loads, bundles


def _desc_items_by_key(vals):
    """The items sorted on (-value, position): the reference for the
    reverse sort in oracle._desc_items."""
    return sorted(
        ((v, j) for j, v in enumerate(vals) if v > 0), key=lambda t: (-t[0], t[1])
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    values=st.lists(
        st.one_of(st.sampled_from((0, 1, 1, 2, 5, 5)), st.integers(0, 10**6)),
        max_size=40,
    )
)
def test_desc_items_keep_equal_values_in_position_order(values):
    assert oracle._desc_items(values) == _desc_items_by_key(values)


def test_lpt_heap_matches_linear_scan():
    rng = random.Random(41)

    def few():
        # Few distinct values, so loads tie often and the tie rule shows.
        return rng.choice((0, 1, 1, 2, 3, 3, 5))

    def large():
        # Loads past 2**64, so the heap's load*k + index is a large int.
        return rng.choice((rng.randint(0, 10**6), rng.randint(2**64, 2**70)))

    for k in range(1, 41):
        for draw in (few,) * 5 + (large,) * 2:
            m = rng.randint(0, 3 * k + 10)
            values = [draw() for _ in range(m)]
            items = oracle._desc_items(values)
            loads, bundles = _lpt_by_scan(items, k)
            assert oracle._lpt(items, k) == (loads, bundles)
            assert greedy_floor(values, k) == min(loads)


# ---------------------------------------------------------------------------
# The maximin search against plain bisection.
# ---------------------------------------------------------------------------


def _bisection_search(vals, items, k, lo, lo_witness, hi=None, loss=Fraction(0)):
    """Plain bisection between lo and the averaging bound, in place of the
    caller's hi, stopped by the same rule as oracle._search_maximin: the
    reference the climbing search must agree with exactly, value and
    witness, at loss 0.  The value is the witness's worst bundle, which a
    bisection stopped early can find above its floor."""
    hi = sum(v for v, _ in items) // k
    p, q = loss.numerator, loss.denominator
    witness = lo_witness
    while q * lo < (q - p) * hi:
        mid = (lo + hi + 1) // 2
        got = oracle._cover_search(items, k, mid, {})
        if got is None:
            hi = mid - 1
        else:
            lo = mid
            witness = got
    if witness is not None:
        lo = min(sum(map(vals.__getitem__, b)) for b in witness)
    return lo, witness


def _with_probe_counts(query, *args):
    """query(*args), with the gap of each maximin search it made and its
    count of full-pool probes.

    The gap is the averaging bound minus the search's starting floor.  A
    full-pool probe is a call of the cover search, which only the maximin
    search makes, and only on its whole item list.
    """
    gaps, probes = [], 0
    search, cover_search = oracle._search_maximin, oracle._cover_search

    def counted_search(vals, items, k, lo, lo_witness, hi, loss):
        gaps.append(sum(v for v, _ in items) // k - lo)
        return search(vals, items, k, lo, lo_witness, hi, loss)

    def counted_cover_search(pool, k, t, fail_memo):
        nonlocal probes
        probes += 1
        return cover_search(pool, k, t, fail_memo)

    # An empty memo under mms_exact, so the query searches here.
    oracle._exact_memo.cache_clear()
    with patch.object(oracle, "_search_maximin", counted_search), \
            patch.object(oracle, "_cover_search", counted_cover_search):
        cert = query(*args)
    return cert, gaps, probes


def _assert_same_as_bisection(query, *args):
    cert, gaps, probes = _with_probe_counts(query, *args)
    oracle._exact_memo.cache_clear()
    with patch.object(oracle, "_search_maximin", _bisection_search):
        assert query(*args) == cert
    assert probes <= 2 * max(gaps, default=0).bit_length() + 2
    return cert, gaps, probes


# Values 0..60, mixed with a few repeated ones so zeros and runs of equal
# values come up often.
_values = st.lists(
    st.one_of(st.integers(0, 60), st.sampled_from((0, 0, 7, 7, 30))), max_size=9
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=_values, k=st.integers(1, 4))
def test_exact_search_matches_bisection_and_exhaustive(values, k):
    cert, _, _ = _assert_same_as_bisection(mms_exact, values, k)
    assert cert.value == exhaustive_mms(values, k)
    assert_witness_certifies(values, k, cert)


def _approx_rows():
    # Rows on which greedy misses the averaging bound.  mms_approx settles
    # them by its raised split, so the tests below run its search on them
    # directly, from the greedy split.
    rng = random.Random(3)
    for m, k in ((40, 4), (60, 5), (90, 5), (105, 10)):
        yield [rng.randint(0, 10**6) for _ in range(m)], k


def _stopped_search_from_greedy(values, k, eps):
    """The search of mms_approx at eps, started from the greedy split."""
    items = oracle._desc_items(values)
    loads, bundles = oracle._lpt(items, k)
    upper = oracle._upper_bound(items, sum(values), k)
    return oracle._search_maximin(
        values, items, k, min(loads), bundles, upper, loss=eps
    )


# Probes of the search on each row above at eps 1/10 and 1/700, by (m, k).
# Greedy already lies within 1/10 of U on every row, so at 1/10 the search
# makes no probe and its witness is the greedy split.
_APPROX_PROBES = {(40, 4): (0, 16), (60, 5): (0, 15), (90, 5): (0, 15),
                  (105, 10): (0, 17)}


@pytest.mark.parametrize("values,k", list(_approx_rows()))
def test_approx_search_matches_bisection(values, k):
    counts = []
    for eps in (Fraction(1, 10), Fraction(1, 700)):
        (value, witness), gaps, probes = _with_probe_counts(
            _stopped_search_from_greedy, values, k, eps
        )
        assert min(sum(values[j] for j in b) for b in witness) == value
        assert value <= sum(values) // k
        assert probes <= 2 * max(gaps).bit_length() + 2
        counts.append(probes)
        # Bisection stops by the same rule.  Each value is within (1 - eps)
        # of the share, which no value exceeds, so the two are within it too.
        with patch.object(oracle, "_search_maximin", _bisection_search):
            other, _ = _stopped_search_from_greedy(values, k, eps)
        assert (1 - eps) * other <= value and (1 - eps) * value <= other
    assert tuple(counts) == _APPROX_PROBES[len(values), k]


def _heavy_rows(m, k, count, seed=5):
    """Heavy-tailed rows with two goods per bundle whose raised greedy
    split misses (1 - eps)*U at eps 1/10, so mms_approx runs its search."""
    rng = random.Random(seed)
    rows = []
    while len(rows) < count:
        row = [int(1000 * rng.paretovariate(1.2)) for _ in range(m)]
        items = oracle._desc_items(row)
        loads, bundles = oracle._lpt(items, k)
        upper = oracle._upper_bound(items, sum(row), k)
        oracle._raise_worst(row, loads, bundles, upper)
        if 10 * min(loads) < 9 * upper:
            rows.append(row)
    return rows


_HEAVY = [(row, k) for m, k in ((8, 4), (12, 6), (16, 8)) for row in _heavy_rows(m, k, 3)]


@pytest.mark.parametrize("values,k", _HEAVY)
def test_approx_search_from_the_witness_matches_bisection(values, k):
    # Climbing and bisection stop at different floors, each within
    # (1 - eps) of the exact share.
    exact = mms_exact(values, k).value
    cert, gaps, _ = _with_probe_counts(mms_approx, values, k, Fraction(1, 10))
    assert len(gaps) == 1
    with patch.object(oracle, "_search_maximin", _bisection_search):
        other = mms_approx(values, k, Fraction(1, 10))
    for value in (cert.value, other.value):
        assert 9 * exact <= 10 * value <= 10 * exact


def test_stopped_search_probes_only_in_its_climb():
    # mms_approx hands its raised split to the search, which climbs from it
    # and stops once the best split found reaches 9/10 of hi, U lowered by
    # each failed probe.  On these rows it stops within its climbs, before
    # any bisection.
    counts = []
    for values, k in _HEAVY:
        cert, (gap,), probes = _with_probe_counts(
            mms_approx, values, k, Fraction(1, 10)
        )
        start = sum(values) // k - gap
        assert probes <= (cert.upper - start).bit_length()
        counts.append(probes)
    assert counts == [1, 1, 3, 6, 2, 1, 2, 1, 1]


def _probes_with_slowest_climb(opt, loss=Fraction(0), n=2000):
    """(value, probes) of _search_maximin at loss on n unit items and
    k = 2, when covers exist up to opt only and each cover found has its
    worst bundle exactly at the probed floor, so that every climb gains
    just 1."""
    probes = []

    def cover_search(pool, k, t, fail_memo):
        probes.append(t)
        if t > opt:
            return None
        return [[j for _, j in pool[:t]], [j for _, j in pool[t:]]]

    items = [(1, j) for j in range(n)]
    with patch.object(oracle, "_cover_search", cover_search):
        value, witness = oracle._search_maximin(
            [1] * n, items, 2, 0, [[], list(range(n))], n // 2, loss
        )
    assert value == max(t for t in probes if t <= opt)
    assert witness == [list(range(value)), list(range(value, n))]
    return value, probes


def test_climb_stops_at_the_first_failed_probe():
    assert _probes_with_slowest_climb(5) == (5, [1, 2, 3, 4, 5, 6])


def test_climbs_are_capped_then_bisection_finishes():
    value, probes = _probes_with_slowest_climb(900)
    assert value == 900
    # Ten climbs (the bit length of the gap 1000), then bisection.
    assert probes[:10] == list(range(1, 11))
    assert len(probes) <= 2 * (1000).bit_length() + 2


def test_search_stops_once_within_its_loss():
    value, probes = _probes_with_slowest_climb(900, Fraction(1, 10))
    # Ten climbs, then bisection until 10*lo >= 9*hi: 877 is the first
    # floor found with 10*877 >= 9*938, once the probe at 939 fails.
    assert probes == list(range(1, 11)) + [505, 753, 877, 939]
    assert value == 877
    # The rule held after no earlier probe.
    lo, hi = 0, 1000
    for t in probes:
        assert 10 * lo < 9 * hi
        lo, hi = (t, hi) if t <= 900 else (lo, t - 1)
    assert 10 * lo >= 9 * hi


def test_witness_is_the_cover_found_at_the_answer():
    # The climb lifts its floor to the worst bundle of each cover it finds,
    # so its last cover is often found below the answer.  That cover is the
    # one a search at the answer finds, as bisection's is.
    rng = random.Random(17)
    search = oracle._cover_search
    below = 0
    for _ in range(300):
        values = [rng.randint(0, 1000) for _ in range(rng.randint(6, 11))]
        k = rng.randint(2, 4)
        items = oracle._desc_items(values)
        loads, bundles = oracle._lpt(items, k)
        upper = oracle._upper_bound(items, sum(values), k)
        found = []

        def recorded(pool, k, t, fail_memo):
            got = search(pool, k, t, fail_memo)
            if got is not None:
                found.append(t)
            return got

        with patch.object(oracle, "_cover_search", recorded):
            value, witness = oracle._search_maximin(
                values, items, k, min(loads), bundles, upper, Fraction(0)
            )
        if found and value not in found:
            below += 1
            assert witness == search(items, k, value, {})
        assert (value, witness) == \
            _bisection_search(values, items, k, min(loads), bundles)
    assert below >= 100


# ---------------------------------------------------------------------------
# The raised start against the greedy start.
# ---------------------------------------------------------------------------


def _mms_exact_from_greedy(values, k):
    """(value, witness, upper) of mms_exact with the search started from the
    plain greedy split: the reference the raised start must agree with
    exactly."""
    items = oracle._desc_items(values)
    total = sum(values)
    if k == 1:
        return total, (tuple(range(len(values))),), total
    loads, bundles = oracle._lpt(items, k)
    upper = oracle._upper_bound(items, total, k)
    value, best = oracle._search_maximin(
        values, items, k, min(loads), bundles, upper, Fraction(0)
    )
    best[0].extend(j for j, v in enumerate(values) if v == 0)
    witness = tuple(tuple(sorted(bundle)) for bundle in best)
    return value, witness, upper


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    values=st.one_of(_values, st.lists(st.integers(0, 10**6), max_size=12)),
    k=st.integers(1, 5),
)
def test_raised_start_keeps_values_and_witnesses(values, k):
    cert = mms_exact(values, k)
    assert (cert.value, cert.witness, cert.upper) == _mms_exact_from_greedy(values, k)


def test_first_climb_finds_the_witness_when_the_raised_split_attains_it():
    # When the raised split is already optimal and above the greedy floor,
    # it is not the witness.  The climb starts one below it, so its first
    # probe, at the share, finds the cover the greedy start would have
    # ended with; no further search fetches it.
    rng = random.Random(19)
    attained = 0
    for _ in range(400):
        values = [rng.randint(0, 1000) for _ in range(rng.randint(6, 11))]
        k = rng.randint(2, 4)
        items = oracle._desc_items(values)
        loads, bundles = oracle._lpt(items, k)
        floor = min(loads)
        oracle._raise_worst(
            values, loads, bundles, oracle._upper_bound(items, sum(values), k)
        )
        cert = mms_exact(values, k)
        if floor < cert.value == min(loads):
            attained += 1
        assert (cert.value, cert.witness, cert.upper) == \
            _mms_exact_from_greedy(values, k)
    assert attained >= 100


def test_exact_share_costs_one_failed_probe():
    # Uniform rows rarely meet U, so a probe at U would fail on nearly
    # every row.  Without it each share is proved by one failed probe, and
    # the raised split's cover comes from the first climb, not from a
    # search of its own.
    rng = random.Random(18)
    search = oracle._cover_search
    calls = failed = 0

    def counted(pool, k, t, fail_memo):
        nonlocal calls, failed
        got = search(pool, k, t, fail_memo)
        calls += 1
        failed += got is None
        return got

    with patch.object(oracle, "_cover_search", counted):
        for _ in range(500):
            mms_exact([rng.randint(0, 10**6) for _ in range(12)], 3)
    assert failed == 500
    assert calls <= 2006


def test_bisection_lifts_its_floor_to_the_worst_bundle_found():
    # Past the capped climbs, a cover found at a bisection probe lifts the
    # floor to its own worst bundle, not to the probe, so later probes
    # start higher.  Probing from the probed floor took 15 cover searches.
    search = oracle._cover_search
    calls = 0

    def counted(pool, k, t, fail_memo):
        nonlocal calls
        calls += 1
        return search(pool, k, t, fail_memo)

    values = [1809, 1896, 1066, 1035, 1012, 3473, 1132, 1115, 1499, 23793,
              6104, 1367, 4170, 1076]
    with patch.object(oracle, "_cover_search", counted):
        cert = mms_exact(values, 4)
    assert cert.value == 8912
    assert calls <= 12


# ---------------------------------------------------------------------------
# The capped cover search against the uncapped enumeration.
# ---------------------------------------------------------------------------


def _minimal_covers_uncapped(pool, t):
    """Every minimal cover of t that contains pool[0], in depth-first order,
    with no upper bound on its worth: the reference for
    oracle._cover_walk."""
    first = pool[0]
    rest = pool[1:]
    n = len(rest)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + rest[i][0]
    chosen = []

    def go(i, acc):
        if acc >= t:
            over = acc - t
            if all(rest[c][0] > over for c in chosen):
                yield [first] + [rest[c] for c in chosen]
            return
        if i == n or acc + suffix[i] < t:
            return
        chosen.append(i)
        yield from go(i + 1, acc + rest[i][0])
        chosen.pop()
        skip = i + 1
        while skip < n and rest[skip][0] == rest[i][0]:
            skip += 1
        yield from go(skip, acc)

    yield from go(0, first[0])


def _cover_search_uncapped(pool, k, t, fail_memo):
    """The cover search over every minimal cover, summing each pool afresh:
    the reference oracle._cover_search must agree with exactly."""
    if t <= 0:
        bundles = [[j for _, j in pool]]
        bundles.extend([] for _ in range(k - 1))
        return bundles
    total = sum(v for v, _ in pool)
    if total < k * t or len(pool) < k:
        return None
    if k == 1:
        return [[j for _, j in pool]]
    if pool[0][0] >= t:
        sub = _cover_search_uncapped(pool[1:], k - 1, t, fail_memo)
        if sub is None:
            return None
        return [[pool[0][1]]] + sub
    key = (k, tuple(v for v, _ in pool))
    if key in fail_memo:
        return None
    for cover in _minimal_covers_uncapped(pool, t):
        taken = {j for _, j in cover}
        remainder = [it for it in pool if it[1] not in taken]
        sub = _cover_search_uncapped(remainder, k - 1, t, fail_memo)
        if sub is not None:
            return [[j for _, j in cover]] + sub
    fail_memo.add(key)
    return None


def _floors(pool, k):
    """Floors 1..total//k + 1 that between them show every behaviour of the
    cover search on pool.

    The search compares t only with numbers floor(S/j), S a subset sum of
    pool and j in 1..k, so two floors that no such number separates run the
    same way.  Every floor is listed when there are at most 2000 of them;
    beyond that, one floor per gap between those numbers.
    """
    top = sum(v for v, _ in pool) // k + 1
    if top <= 2000:
        return list(range(1, top + 1))
    sums = {0}
    for v, _ in pool:
        sums |= {s + v for s in sums}
    cuts = {s // j for s in sums for j in range(1, k + 1)}
    return sorted(t for t in cuts | {c + 1 for c in cuts} | {1} if 1 <= t <= top)


# Up to 8 values 0..60, with zeros and repeats, and up to two up to 10**6.
_pools = st.builds(
    lambda small, big: oracle._desc_items(small + big),
    st.lists(
        st.one_of(st.integers(0, 60), st.sampled_from((0, 0, 7, 7, 30))),
        max_size=8,
    ),
    st.lists(st.integers(0, 10**6), max_size=2),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pool=_pools, k=st.integers(1, 5))
def test_cover_search_matches_uncapped_search(pool, k):
    for t in _floors(pool, k):
        got = oracle._cover_search(pool, k, t, {})
        assert got == _cover_search_uncapped(pool, k, t, set())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pool=_pools, k=st.integers(2, 5))
def test_cover_found_is_the_cover_at_its_worst_bundle(pool, k):
    # The property that lets the maximin search keep the cover a climb
    # found below its answer: the search at any floor from the one it was
    # found at up to its worst bundle finds it again.
    value_of = {j: v for v, j in pool}
    for t in _floors(pool, k):
        got = oracle._cover_search(pool, k, t, {})
        if got is not None:
            worst = min(sum(value_of[j] for j in b) for b in got)
            for floor in {worst, (t + worst) // 2}:
                assert oracle._cover_search(pool, k, floor, {}) == got


def test_minimal_covers_are_the_uncapped_ones_up_to_cap():
    rng = random.Random(43)
    for _ in range(400):
        values = [rng.choice((0, 1, 2, 2, 3, 5, 8, 8, 13)) for _ in range(10)]
        pool = oracle._desc_items(values)
        total = sum(values)
        if not pool or pool[0][0] == total:
            continue
        # The cover search asks only for covers of more than its first item.
        t = rng.randint(pool[0][0] + 1, total)
        for cap in range(total + 2):
            expected = [
                cover for cover in _minimal_covers_uncapped(pool, t)
                if sum(v for v, _ in cover) <= cap
            ]
            got = [
                [pool[0]] + [pool[c] for c in chosen]
                for _, chosen in oracle._cover_walk([v for v, _ in pool], t, cap)
            ]
            assert got == expected


def _recorded_cover_search(query, *args):
    """query(*args), with (pool, k, t) for every probe of the cover search,
    and (probe, vals, t, cap, worth) for every cover its walks yield, which
    is every cover the search takes as a bundle."""
    probes, covers = [], []
    search, walk = oracle._cover_search, oracle._cover_walk

    def recorded_search(pool, k, t, fail_memo):
        probes.append((pool, k, t))
        return search(pool, k, t, fail_memo)

    def recorded_walk(vals, t, cap):
        for worth, chosen in walk(vals, t, cap):
            covers.append((probes[-1], vals, t, cap, worth))
            yield worth, chosen

    with patch.object(oracle, "_cover_search", recorded_search), \
            patch.object(oracle, "_cover_walk", recorded_walk):
        query(*args)
    return probes, covers


@pytest.mark.parametrize("query,args", [
    (mms_approx, (_heavy_rows(16, 8, 1)[0], 8, Fraction(1, 10))),
    (mms_exact, (random.Random(5).choices(range(10**6), k=14), 3)),
    # One good worth more than the other bundles could spare at the
    # averaging bound: U leaves it out, and the search makes it a bundle of
    # its own.
    (mms_exact, ([90, 5, 5, 4, 4, 4], 3)),
])
def test_no_cover_leaves_the_other_bundles_short(query, args):
    probes, covers = _recorded_cover_search(query, *args)
    assert probes and covers
    for pool, k, t in probes:
        # No probe exceeds the upper bound U of the pool it searches.
        assert t <= _upper_by_definition([v for v, _ in pool], k)
    for (_, k, probe_t), vals, t, cap, worth in covers:
        assert t == probe_t
        # The cap keeps t for each of the bundles still to build after the
        # cover, so its remainder is worth them all.
        after, rest = divmod(sum(vals) - cap, t)
        assert rest == 0 and 1 <= after < k
        assert vals[0] < t <= worth <= cap
        assert sum(vals) - worth >= after * t


def test_fail_memo_saves_the_search_its_repeated_pools():
    # Rows of two goods per bundle, on which a pool that failed comes back
    # again and again: the search makes 75,837 cover-walk yields on them
    # with the memo, and 7,609,299 without it.  The count stops the search
    # at twice the first figure, so a broken memo fails here at once.
    rng = random.Random("memo 22/11")
    rows = [[rng.randint(0, 10**6) for _ in range(22)] for _ in range(8)]
    bound, yields = 150_000, 0
    walk = oracle._cover_walk

    def counted(vals, t, cap):
        nonlocal yields
        for cover in walk(vals, t, cap):
            yields += 1
            if yields > bound:
                raise AssertionError(f"more than {bound} cover-walk yields")
            yield cover

    with patch.object(oracle, "_cover_walk", counted):
        for row in rows:
            mms_exact(row, 11)
    assert 0 < yields <= bound


# ---------------------------------------------------------------------------
# The upper bound U, the raised greedy witness and the certificate.
# ---------------------------------------------------------------------------


def _upper_by_definition(values, k):
    """min over 0 <= j < k of (total - the j largest values) // (k - j)."""
    desc = sorted(values, reverse=True)
    return min((sum(values) - sum(desc[:j])) // (k - j) for j in range(k))


# 3/40 is the eps' that solve --algo twothirds --eps 1/10 asks its shares at.
_eps = st.sampled_from((
    Fraction(1, 100), Fraction(3, 40), Fraction(1, 10), Fraction(1, 3),
    Fraction(9, 10),
))


# Large goods mixed with goods worth 1-3, which decide the last few units
# of the share, where the raised split often falls short.
_dusty_values = st.lists(
    st.one_of(st.integers(100, 400), st.integers(1, 3)), min_size=3, max_size=9
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.one_of(_values, _dusty_values), k=st.integers(1, 4), eps=_eps)
# The raised split's 201 misses the bar 225 of U = 250; the search's one
# probe, at 202, fails, which proves 201 the share.
@example(values=[200, 200, 100, 1], k=2, eps=Fraction(1, 10))
# The raised split's 7188 misses the bar 7439; the search climbs to the
# exact share 7218, whose worst bundle holds the good worth 1, and stops
# when its probe at 7219 fails.
@example(
    values=[4076, 1, 3945, 1371, 2823, 4699, 3141, 2488], k=3, eps=Fraction(1, 100)
)
def test_upper_bound_and_approximate_share(values, k, eps):
    share = exhaustive_mms(values, k)
    upper = _upper_by_definition(values, k)
    assert upper >= share
    cert = mms_approx(values, k, eps)
    assert (1 - eps) * share <= cert.value <= share
    assert cert.upper == upper == mms_exact(values, k).upper
    assert_witness_certifies(values, k, cert)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=_values, k=st.integers(1, 5), target=st.integers(0, 200))
def test_raise_worst_keeps_a_split_and_stops_where_it_should(values, k, target):
    items = oracle._desc_items(values)
    loads, bundles = oracle._lpt(items, k)
    before = min(loads)
    oracle._raise_worst(values, loads, bundles, target)
    assert sorted(j for b in bundles for j in b) == sorted(j for _, j in items)
    assert loads == [sum(values[j] for j in b) for b in bundles]
    low = min(loads)
    assert low >= before
    if low < target:
        # No move into the worst bundle, and no swap of one of its goods
        # for a larger one, leaves both bundles above its load.
        w = loads.index(low)
        for b, load in enumerate(loads):
            for y in bundles[b] if b != w else ():
                for d in [values[y]] + [values[y] - values[x] for x in bundles[w]]:
                    assert not 0 < d < load - low


def test_raised_witness_settles_rows_greedy_misses():
    # Uniform rows with three goods per bundle on which greedy alone stays
    # under 9/10 of U; moves and swaps lift them over, so no search runs.
    rng = random.Random("30/10")
    rows = [[rng.randint(0, 1000) for _ in range(30)] for _ in range(40)]
    missed = [
        row for row in rows
        if 10 * greedy_floor(row, 10)
        < 9 * oracle._upper_bound(oracle._desc_items(row), sum(row), 10)
    ]
    assert missed
    with patch.object(oracle, "_cover_search", side_effect=AssertionError):
        for row in missed:
            cert = mms_approx(row, 10, Fraction(1, 10))
            assert 10 * cert.value >= 9 * cert.upper


def test_approx_on_large_uniform_rows_makes_no_cover_search():
    # 105 goods at k = 10: the raised split meets (1 - eps)*U on every row,
    # so a query costs its validation, sort, greedy split and witness check.
    rng = random.Random("105/10")
    rows = [[rng.randint(0, 10**6) for _ in range(105)] for _ in range(100)]
    with patch.object(
        oracle, "_cover_search", wraps=oracle._cover_search
    ) as cover_search:
        for row in rows:
            cert = mms_approx(row, 10, Fraction(1, 10))
            assert 10 * cert.value >= 9 * cert.upper
    assert cover_search.call_count == 0


def test_fail_memo_keeps_the_least_failing_floor():
    pool = oracle._desc_items([5, 5, 5])
    memo = {}
    assert oracle._cover_search(pool, 2, 7, memo) is None
    assert memo == {(2, (5, 5, 5)): 7}
    assert oracle._cover_search(pool, 2, 6, memo) is None
    assert memo == {(2, (5, 5, 5)): 6}
    # A pool that failed is not searched again at the same or a higher floor.
    with patch.object(oracle, "_cover_walk", side_effect=AssertionError):
        assert oracle._cover_search(pool, 2, 7, memo) is None
        assert oracle._cover_search(pool, 2, 6, memo) is None
    assert oracle._cover_search(pool, 2, 5, memo) == [[0], [1, 2]]


def test_minimal_covers_leave_no_reference_cycles():
    pool = oracle._desc_items([8, 7, 6, 5, 4, 3, 2, 1])
    vals = [v for v, _ in pool]
    gc.collect()
    gc.disable()
    try:
        assert len(list(oracle._cover_walk(vals, 12, 20))) > 1
        # Stopped after its first cover, as the cover search stops it.
        assert next(oracle._cover_walk(vals, 12, 20))
        assert oracle._cover_search(pool, 3, 11, {}) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture
def default_recursion_limit():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(before)


def test_cover_search_needs_no_recursion_limit(default_recursion_limit):
    # 3000 bundles of one good each, and 1100 bundles of two goods each: a
    # search 1100 levels deep.
    got = oracle._cover_search(oracle._desc_items([1] * 3000), 3000, 1, {})
    assert got == [[j] for j in range(3000)]
    got = oracle._cover_search(oracle._desc_items([1] * 2200), 1100, 2, {})
    assert got == [[2 * j, 2 * j + 1] for j in range(1100)]


def test_goods_worth_the_floor_cost_one_pool_copy():
    # 3000 bundles of one good each.  Goods worth the floor are split off
    # once, before the first level; a level per good would keep a slice of
    # the pool per level, a peak that grows as the square of the count.
    items = oracle._desc_items([1] * 3000)
    tracemalloc.start()
    try:
        got = oracle._cover_search(items, 3000, 1, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [[j] for j in range(3000)]
    assert peak < 2 * 2**20


def _bytes_kept_per_query(query, rows):
    """The memory query(row) leaves behind, on average over rows, as
    tracemalloc counts it: the answer, and what a memo keeps with it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [query(row) for row in rows]
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) == len(rows)
    return (after - before) / len(rows)


def test_a_memo_entry_stays_under_its_stated_bound():
    # The module docstring's bound of 2 KB an entry, at the worst case of
    # the exact memo, 22 goods and k = 22 (one bundle a good), and for a
    # certificate of 105 goods at k = 10.  Averaged over 64 queries, so the
    # growth of the memo's own table is shared out.
    rng = random.Random(23)
    rows = [[rng.randint(1, 10**6) for _ in range(22)] for _ in range(64)]
    oracle._exact_memo.cache_clear()
    try:
        exact = _bytes_kept_per_query(lambda row: mms_exact(row, 22), rows)
        assert oracle._exact_memo.cache_info().currsize == len(rows)
    finally:
        oracle._exact_memo.cache_clear()
    rows = [[rng.randint(0, 10**6) for _ in range(105)] for _ in range(64)]
    ptas = _bytes_kept_per_query(
        lambda row: mms_approx(row, 10, Fraction(1, 10)), rows
    )
    assert exact < 2000 and ptas < 2000


def test_oracles_leave_the_recursion_limit_alone(default_recursion_limit):
    # Rows on which both oracles run the maximin search.
    with patch.object(
        oracle, "_search_maximin", wraps=oracle._search_maximin
    ) as searched:
        assert mms_exact([90, 5, 5, 4, 4, 4], 3).value == 10
        mms_approx(_HEAVY[0][0], _HEAVY[0][1], Fraction(1, 10))
    assert searched.call_count == 2
    assert sys.getrecursionlimit() == 1000


_LARGE_SHAPES = """
import random, sys
from fractions import Fraction
from mmsalloc import mms_approx
m, k = int(sys.argv[1]), int(sys.argv[2])
rng = random.Random(f"{m}/{k}")
for _ in range(3):
    row = [rng.randint(0, 10**6) for _ in range(m)]
    cert = mms_approx(row, k, Fraction(1, 10))
    print(cert.value, cert.upper, sum(row) // k)
"""


@pytest.mark.parametrize("m,k", [(60, 20), (120, 40)])
def test_approx_finishes_with_three_goods_per_bundle(m, k):
    # A fresh interpreter under a time limit, so a search that runs away
    # fails this test instead of hanging the suite.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", _LARGE_SHAPES, str(m), str(k)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    for line in lines:
        value, upper, average = map(int, line.split())
        assert 9 * upper <= 10 * value <= 10 * upper <= 10 * average


# ---------------------------------------------------------------------------
# Guarantee checks run as code, not as assert statements.
# ---------------------------------------------------------------------------


def _overstated(*args):
    value, witness = _bisection_search(*args)
    return value + 1, witness


def _every_item_in_every_bundle(vals, items, k, lo, lo_witness, hi, loss):
    # Each bundle is worth the whole row, which no share can reach.
    return sum(vals), [[j for _, j in items] for _ in range(k)]


def test_exact_witness_check_raises(monkeypatch):
    monkeypatch.setattr(oracle, "_search_maximin", _overstated)
    with pytest.raises(GuaranteeError):
        mms_exact([5, 4, 3, 2, 1], 2)


def test_exact_search_missing_the_raised_split_raises(monkeypatch):
    # The raised split of this row reaches 6, above greedy's 5, so the
    # climb's first probe, at 6, must find a cover.
    monkeypatch.setattr(oracle, "_cover_search", lambda pool, k, t, memo: None)
    with pytest.raises(GuaranteeError, match="raised value 6"):
        mms_exact([3, 3, 2, 2, 2], 2)


def test_approx_upper_bound_check_raises(monkeypatch):
    # U is 7 here but the share is 5, so no split meets the bar of 9/10 of
    # U and the search is asked to improve greedy's 5 | 10.
    monkeypatch.setattr(oracle, "_search_maximin", _every_item_in_every_bundle)
    with pytest.raises(GuaranteeError, match="exceeds the upper bound 7"):
        mms_approx([5, 5, 5], 2, Fraction(1, 10))


def test_oracle_guarantee_failure_exits_one(monkeypatch, tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(
        {"n": 2, "m": 5, "scale": 5, "valuations": [[5, 4, 3, 2, 1]] * 2}
    ))
    monkeypatch.setattr(oracle, "_search_maximin", _overstated)
    argv = ["mms", "--instance", str(path), "--agent", "1", "--k", "2", "--exact"]
    assert main(argv) == 1
    assert "guarantee violation" in capsys.readouterr().err
