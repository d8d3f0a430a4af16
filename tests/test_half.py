"""Half-share allocation via singleton stripping plus round robin."""

import doctest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import mmsalloc.half as half_mod
from helpers import assert_shares_met, instances, random_suite

from mmsalloc import Instance, apx_mms_half, bundle_value, mms_exact
from mmsalloc.core import _require_partition


def test_module_doctests():
    assert doctest.testmod(half_mod).failed == 0


def test_half_guarantee_on_random_instances():
    for inst in random_suite(count=80, seed=5577):
        alloc = apx_mms_half(inst)
        _require_partition(alloc, inst.m)
        for i in inst.agents:
            share = mms_exact(inst.row(i), inst.n).value
            assert 2 * bundle_value(inst, i, alloc[i]) >= share


def test_big_good_peels_off_first():
    inst = Instance.from_rows([[10, 1, 1], [10, 1, 1]])
    trace = []
    alloc = apx_mms_half(inst, trace=trace)
    assert alloc[0] == (0,)
    assert trace[0]["agent"] == 0 and trace[0]["good"] == 0
    assert trace[0]["alpha"] == Fraction(12, 2)


def test_trace_alphas_use_current_pool():
    # After agent 0 leaves with good 0, agent 1's alpha is over the rest.
    inst = Instance.from_rows([[10, 1, 1], [1, 10, 1]])
    trace = []
    apx_mms_half(inst, trace=trace)
    assert [t["agent"] for t in trace] == [0, 1]
    assert trace[1]["alpha"] == Fraction(11, 1)


def test_no_qualifying_pair_falls_back_to_round_robin():
    # Five equal goods for two agents: no single good reaches half the
    # proportional slice, so picking rounds split them three and two.
    inst = Instance.from_rows([[1, 1, 1, 1, 1], [1, 1, 1, 1, 1]])
    trace = []
    alloc = apx_mms_half(inst, trace=trace)
    assert trace == []
    assert sorted(len(b) for b in alloc) == [2, 3]


def test_last_agent_keeps_leftovers():
    inst = Instance.from_rows([[9, 1, 1]])
    alloc = apx_mms_half(inst)
    assert alloc[0] == (0, 1, 2)


def test_deterministic():
    for inst in random_suite(count=20, seed=6688):
        assert apx_mms_half(inst) == apx_mms_half(inst)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instance=instances(st.integers(1, 4)))
def test_half_factor_against_exhaustive_shares(instance):
    assert_shares_met(instance, apx_mms_half(instance), Fraction(1, 2))
