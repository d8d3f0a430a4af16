"""Three-agent allocation with the 7/8 factor and its three branches."""

import doctest
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmsalloc.three_agents as ta_mod
from helpers import (
    assert_shares_met,
    instances,
    record_searches,
    three_agent_suite,
)

from mmsalloc import (
    Instance,
    InputError,
    apx_3_mms,
    bundle_value,
    mms_exact,
)
from mmsalloc.core import _require_partition

BIG_GOOD_ROWS = [[7, 1, 1, 1, 1, 1, 1, 1]] * 3
UNIFORM_ROWS = [[1] * 9] * 3
REPARTITION_ROWS = [
    [1, 2, 4, 3, 3, 4, 2, 2],
    [3, 3, 1, 4, 3, 1, 3, 4],
    [3, 4, 3, 3, 2, 1, 3, 4],
]


def test_module_doctests():
    assert doctest.testmod(ta_mod).failed == 0


def run_traced(rows):
    inst = Instance.from_rows(rows)
    trace = []
    alloc = apx_3_mms(inst, Fraction(1, 10), oracle_mode="exact", trace=trace)
    return inst, alloc, trace


def assert_seven_eighths(inst, alloc):
    for i in inst.agents:
        share = mms_exact(inst.row(i), 3).value
        assert 8 * bundle_value(inst, i, alloc[i]) >= 7 * share


def test_big_single_good_branch():
    inst, alloc, trace = run_traced(BIG_GOOD_ROWS)
    step = trace[-1]
    assert step["branch"] == "b"
    assert step["agent"] == 0 and step["good"] == 0
    assert alloc[0] == (0,)
    assert_seven_eighths(inst, alloc)


def test_accepted_partition_branch():
    inst, alloc, trace = run_traced(UNIFORM_ROWS)
    step = trace[-1]
    assert step["branch"] == "c"
    assert sorted(step["seats"]) == [0, 1, 2]
    assert sorted(len(b) for b in alloc) == [3, 3, 3]
    assert_seven_eighths(inst, alloc)


def test_repartition_branch():
    inst, alloc, trace = run_traced(REPARTITION_ROWS)
    step = trace[-1]
    assert step["branch"] == "d"
    assert [sorted(b) for b in alloc] == [[4, 5], [0, 1, 6], [2, 3, 7]]
    assert step["kept_value"] >= step["discarded_value"]
    assert_seven_eighths(inst, alloc)


def test_repartition_kept_half_beats_discarded():
    # In the repartition branch agent 1 keeps the better of her two
    # candidate repartitions, so the kept certificate dominates.
    inst, _, trace = run_traced(REPARTITION_ROWS)
    step = trace[-1]
    assert step["kept_with"] != step["base"]
    halves = step["halves"]
    assert len(halves) == 2
    untouched = 3 - step["base"] - step["kept_with"]
    merged = [g for h in halves for g in h] + list(step["a_sets"][untouched])
    assert sorted(merged) == list(inst.goods)


def test_guarantee_on_generated_suite():
    for inst in three_agent_suite(count=60, seed=515151):
        alloc = apx_3_mms(inst, Fraction(1, 10), oracle_mode="exact")
        _require_partition(alloc, inst.m)
        assert_seven_eighths(inst, alloc)


def test_ptas_mode_guarantee():
    eps = Fraction(1, 16)
    for inst in three_agent_suite(count=30, seed=626262):
        alloc = apx_3_mms(inst, eps, oracle_mode="ptas")
        _require_partition(alloc, inst.m)
        for i in inst.agents:
            share = mms_exact(inst.row(i), 3).value
            got = bundle_value(inst, i, alloc[i])
            assert got >= (Fraction(7, 8) - eps) * share


def test_input_validation():
    with pytest.raises(InputError):
        apx_3_mms(Instance.from_rows([[1, 2], [2, 1]]), Fraction(1, 10))
    inst4 = Instance.from_rows([[1, 1, 1]] * 4)
    with pytest.raises(InputError):
        apx_3_mms(inst4, Fraction(1, 10))
    inst3 = Instance.from_rows([[1, 1, 1]] * 3)
    for bad in (Fraction(0), Fraction(7, 8), Fraction(-1, 4), Fraction(9, 10)):
        with pytest.raises(InputError):
            apx_3_mms(inst3, bad)
    for bad_mode in ("quick", SimpleNamespace(mode="exact")):
        with pytest.raises(InputError):
            apx_3_mms(inst3, Fraction(1, 10), oracle_mode=bad_mode)


def test_deterministic():
    for rows in (BIG_GOOD_ROWS, UNIFORM_ROWS, REPARTITION_ROWS):
        inst = Instance.from_rows(rows)
        a = apx_3_mms(inst, Fraction(1, 10), oracle_mode="exact")
        b = apx_3_mms(inst, Fraction(1, 10), oracle_mode="exact")
        assert a == b


@pytest.mark.parametrize("rows", [UNIFORM_ROWS, REPARTITION_ROWS])
@pytest.mark.parametrize("mode", ["exact", "ptas"])
def test_no_oracle_query_is_repeated(monkeypatch, rows, mode):
    # No query is searched twice, but for the approximate share of a row
    # that several agents hold: approximate shares keep no memo.
    searches = record_searches(monkeypatch)
    apx_3_mms(Instance.from_rows(rows), Fraction(1, 10), oracle_mode=mode)
    held_again = 3 - len(set(map(tuple, rows))) if mode == "ptas" else 0
    assert len(searches) - len(set(searches)) == held_again


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instance=instances(st.just(3)))
def test_exact_mode_factor_against_exhaustive_shares(instance):
    alloc = apx_3_mms(instance, Fraction(1, 10), oracle_mode="exact")
    assert_shares_met(instance, alloc, Fraction(7, 8))
