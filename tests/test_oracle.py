"""Maximin share oracles: exact search, approximation scheme, bounds."""

import doctest
import json
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmsalloc.oracle as oracle
from helpers import exhaustive_mms
from mmsalloc import (
    EXACT_ITEM_CAP,
    GuaranteeError,
    InputError,
    Instance,
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


def assert_witness_certifies(values, k, cert):
    assert len(cert.witness) == k
    seen = sorted(g for bundle in cert.witness for g in bundle)
    assert seen == list(range(len(values)))
    worst = min(sum(values[g] for g in bundle) for bundle in cert.witness)
    assert worst >= cert.value


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


def test_xi_vector_reuses_identical_rows():
    rows = [[4, 3, 2, 1]] * 3
    certs = xi_vector(Instance.from_rows(rows), 3, mode="exact")
    assert certs[0].value == certs[1].value == certs[2].value


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


def test_lpt_heap_matches_linear_scan():
    rng = random.Random(41)
    for k in range(1, 41):
        for _ in range(5):
            # Few distinct values, so loads tie often and the tie rule shows.
            m = rng.randint(0, 3 * k + 10)
            values = [rng.choice((0, 1, 1, 2, 3, 3, 5)) for _ in range(m)]
            items = oracle._desc_items(values)
            loads, bundles = _lpt_by_scan(items, k)
            assert oracle._lpt(items, k) == (loads, bundles)
            assert greedy_floor(values, k) == min(loads)


# ---------------------------------------------------------------------------
# The maximin search against plain bisection.
# ---------------------------------------------------------------------------


def _bisection_search(items, k, lo, lo_witness):
    """Plain bisection between lo and the averaging bound: the reference the
    bound-first, climbing oracle._search_maximin must agree with exactly,
    value and witness."""
    hi = sum(v for v, _ in items) // k
    witness = lo_witness
    while lo < hi:
        mid = (lo + hi + 1) // 2
        got = oracle._cover_search(items, k, mid, set())
        if got is None:
            hi = mid - 1
        else:
            lo = mid
            witness = got
    return lo, witness


def _with_probe_counts(query, *args):
    """query(*args), with [gap, full-pool probes] for each search it made.

    The gap is the averaging bound minus the starting floor.  A full-pool
    probe is a call of the cover search on the whole item list; the cover
    search only recurses on smaller pools.
    """
    searches = []
    search, cover_search = oracle._search_maximin, oracle._cover_search

    def counted_search(items, k, lo, lo_witness):
        searches.append([sum(v for v, _ in items) // k - lo, 0, len(items)])
        return search(items, k, lo, lo_witness)

    def counted_cover_search(pool, k, t, fail_memo):
        if len(pool) == searches[-1][2]:
            searches[-1][1] += 1
        return cover_search(pool, k, t, fail_memo)

    with patch.object(oracle, "_search_maximin", counted_search), \
            patch.object(oracle, "_cover_search", counted_cover_search):
        cert = query(*args)
    return cert, [(gap, probes) for gap, probes, _ in searches]


def _assert_same_as_bisection(query, *args):
    cert, searches = _with_probe_counts(query, *args)
    with patch.object(oracle, "_search_maximin", _bisection_search):
        assert query(*args) == cert
    for gap, probes in searches:
        assert probes <= 2 * gap.bit_length() + 2
    return cert, searches


# Values 0..60, mixed with a few repeated ones so zeros and runs of equal
# values come up often.
_values = st.lists(
    st.one_of(st.integers(0, 60), st.sampled_from((0, 0, 7, 7, 30))), max_size=9
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=_values, k=st.integers(1, 4))
def test_exact_search_matches_bisection_and_exhaustive(values, k):
    cert, _ = _assert_same_as_bisection(mms_exact, values, k)
    assert cert.value == exhaustive_mms(values, k)


def _approx_rows():
    # Rows on which greedy misses the averaging bound, so the search runs.
    rng = random.Random(3)
    for m, k in ((40, 4), (60, 5), (90, 5), (105, 10)):
        yield [rng.randint(0, 10**6) for _ in range(m)], k


@pytest.mark.parametrize("values,k", list(_approx_rows()))
def test_approx_search_matches_bisection(values, k):
    cert, searches = _assert_same_as_bisection(
        mms_approx, values, k, Fraction(1, 10)
    )
    # The rounded share meets the averaging bound: one probe settles it.
    assert [probes for _, probes in searches] == [1]
    assert cert.value <= sum(values) // k


def _probes_with_slowest_climb(opt, n=2000):
    """The floors _search_maximin probes on n unit items and k = 2, when
    covers exist up to opt only and each cover found has its worst bundle
    exactly at the probed floor, so that every climb gains just 1."""
    probes = []

    def cover_search(pool, k, t, fail_memo):
        probes.append(t)
        if t > opt:
            return None
        return [[j for _, j in pool[:t]], [j for _, j in pool[t:]]]

    items = [(1, j) for j in range(n)]
    with patch.object(oracle, "_cover_search", cover_search):
        value, witness = oracle._search_maximin(items, 2, 0, [[], list(range(n))])
    assert value == opt and witness == [list(range(opt)), list(range(opt, n))]
    return probes


def test_climb_stops_at_the_first_failed_probe():
    assert _probes_with_slowest_climb(5) == [1000, 1, 2, 3, 4, 5, 6]


def test_climbs_are_capped_then_bisection_finishes():
    probes = _probes_with_slowest_climb(900)
    # Ten climbs (the bit length of the gap 999), then bisection.
    assert probes[:11] == [1000] + list(range(1, 11))
    assert len(probes) <= 2 * (1000).bit_length() + 2


def test_witness_is_the_cover_found_at_the_answer():
    # Covers exist up to floor 5.  The one found at floor 1 is already worth
    # 5 but is not the one found at floor 5, which bisection returns.
    def cover_search(pool, k, t, fail_memo):
        if t > 5:
            return None
        first = [j for _, j in (pool[:5] if t < 5 else pool[5:10])]
        return [first, [j for _, j in pool if j not in first]]

    items = [(1, j) for j in range(20)]
    args = (items, 2, 0, [[], list(range(20))])
    with patch.object(oracle, "_cover_search", cover_search):
        expected = _bisection_search(*args)
        assert expected[1][0] == [5, 6, 7, 8, 9]
        assert oracle._search_maximin(*args) == expected


# ---------------------------------------------------------------------------
# Guarantee checks run as code, not as assert statements.
# ---------------------------------------------------------------------------


def _overstated(items, k, lo, lo_witness):
    value, witness = _bisection_search(items, k, lo, lo_witness)
    return value + 1, witness


def _every_item_in_every_bundle(items, k, lo, lo_witness):
    return lo, [[j for _, j in items] for _ in range(k)]


def test_exact_witness_check_raises(monkeypatch):
    monkeypatch.setattr(oracle, "_search_maximin", _overstated)
    with pytest.raises(GuaranteeError):
        mms_exact([5, 4, 3, 2, 1], 2)


def test_approx_upper_bound_check_raises(monkeypatch):
    # Greedy gives 9 | 5 here, which the search is asked to improve.
    monkeypatch.setattr(oracle, "_search_maximin", _every_item_in_every_bundle)
    with pytest.raises(GuaranteeError):
        mms_approx([9, 1, 1, 1, 1, 1], 2, Fraction(1, 10))


def test_oracle_guarantee_failure_exits_one(monkeypatch, tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(
        {"n": 2, "m": 5, "scale": 5, "valuations": [[5, 4, 3, 2, 1]] * 2}
    ))
    monkeypatch.setattr(oracle, "_search_maximin", _overstated)
    argv = ["mms", "--instance", str(path), "--agent", "1", "--k", "2", "--exact"]
    assert main(argv) == 1
    assert "guarantee violation" in capsys.readouterr().err
