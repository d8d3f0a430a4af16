"""Recursive matching allocation with the rho(n) factor."""

import doctest
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmsalloc.two_thirds as tt_mod
from helpers import (
    assert_shares_met,
    instances,
    random_suite,
    record_searches,
)

from mmsalloc import (
    InputError,
    Instance,
    ShareOracle,
    apx_mms,
    bundle_value,
    mms_exact,
    rho,
)


def test_module_doctests():
    assert doctest.testmod(tt_mod).failed == 0


def test_rho_known_values():
    assert rho(2) == Fraction(1)
    assert rho(3) == Fraction(3, 4)
    assert rho(4) == Fraction(3, 4)
    assert rho(5) == Fraction(5, 7)
    assert rho(6) == Fraction(5, 7)
    assert rho(7) == Fraction(7, 10)
    assert rho(101) == Fraction(202, 302)
    assert all(type(rho(n)) is Fraction for n in range(2, 8))


def test_rho_stays_above_two_thirds():
    for n in range(2, 60):
        assert rho(n) > Fraction(2, 3)


def test_rho_requires_two_agents():
    with pytest.raises(InputError):
        rho(1)
    with pytest.raises(InputError):
        rho(0)


def test_eps_domain():
    inst = Instance.from_rows([[1, 2], [2, 1]])
    for bad in (Fraction(0), Fraction(1, 3), Fraction(-1, 10), Fraction(1)):
        with pytest.raises(InputError):
            apx_mms(inst, bad)
    # A mode is a string; an oracle object is not one.
    for bad_mode in ("fast", ShareOracle("exact")):
        with pytest.raises(InputError):
            apx_mms(inst, Fraction(1, 10), oracle_mode=bad_mode)


def test_single_agent_takes_everything():
    inst = Instance.from_rows([[3, 1, 4]])
    alloc = apx_mms(inst, Fraction(1, 10))
    assert alloc.bundles == (frozenset({0, 1, 2}),)


def test_two_agents_exact_reach_full_share():
    # rho(2) = 1, so exact mode must give both agents their full share.
    for inst in random_suite(count=40, seed=8142):
        if inst.n != 2:
            continue
        alloc = apx_mms(inst, Fraction(1, 10), oracle_mode="exact")
        for i in inst.agents:
            share = mms_exact(inst.row(i), 2).value
            assert bundle_value(inst, i, alloc.bundles[i]) >= share


def test_exact_mode_guarantee_on_random_instances():
    for inst in random_suite(count=60, seed=9219):
        alloc = apx_mms(inst, Fraction(1, 10), oracle_mode="exact")
        alloc.require_partition(inst.m)
        factor = rho(inst.n) if inst.n >= 2 else Fraction(1)
        for i in inst.agents:
            share = mms_exact(inst.row(i), inst.n).value
            got = bundle_value(inst, i, alloc.bundles[i])
            assert got >= factor * share


def test_ptas_mode_guarantee_on_random_instances():
    eps = Fraction(1, 20)
    for inst in random_suite(count=30, seed=10307):
        alloc = apx_mms(inst, eps, oracle_mode="ptas")
        alloc.require_partition(inst.m)
        for i in inst.agents:
            share = mms_exact(inst.row(i), inst.n).value
            got = bundle_value(inst, i, alloc.bundles[i])
            assert got >= (Fraction(2, 3) - eps) * share


def test_balance_inequality_holds_at_every_level():
    # Entering any level with active set K, the goods already gone are
    # worth at most (n - |K|) * rho(n) * share_i to every i in K.
    for inst in random_suite(count=40, seed=11395):
        trace = []
        apx_mms(inst, Fraction(1, 10), oracle_mode="exact", trace=trace)
        factor = rho(inst.n)
        shares = [mms_exact(inst.row(i), inst.n).value for i in inst.agents]
        for level in trace:
            gone = set(inst.goods) - set(level["goods"])
            for i in level["agents"]:
                spent = bundle_value(inst, i, gone)
                assert spent <= (inst.n - len(level["agents"])) * factor * shares[i]


def test_trace_structure():
    inst = Instance.from_rows([[4, 3, 2, 1], [1, 1, 1, 1], [2, 2, 2, 2]])
    trace = []
    alloc = apx_mms(inst, Fraction(1, 10), oracle_mode="exact", trace=trace)
    alloc.require_partition(inst.m)
    assert trace, "at least one level must be traced"
    top = trace[0]
    assert top["agents"] == (0, 1, 2)
    assert top["partitioner"] == 0
    assert len(top["partition"]) == 3
    assert len(top["thresholds"]) == 3
    # The partitioner accepts every bundle of her own partition.
    assert top["adjacency"][0] == (0, 1, 2)


def test_deterministic():
    for inst in random_suite(count=15, seed=12483):
        a = apx_mms(inst, Fraction(1, 12), oracle_mode="exact")
        b = apx_mms(inst, Fraction(1, 12), oracle_mode="exact")
        assert a == b


@pytest.mark.parametrize("mode", ["exact", "ptas"])
def test_first_level_reuses_the_partitioner_share(monkeypatch, mode):
    searches = record_searches(monkeypatch)
    rows = [[5, 4, 3, 2, 1, 1], [1, 2, 3, 4, 5, 1], [2, 2, 2, 2, 2, 2]]
    apx_mms(Instance.from_rows(rows), Fraction(1, 10), oracle_mode=mode)
    assert len(searches) == len(set(searches))
    assert searches[0][1:3] == (tuple(rows[0]), 3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instance=instances(st.integers(2, 4)))
def test_exact_mode_factor_against_exhaustive_shares(instance):
    alloc = apx_mms(instance, Fraction(1, 10), oracle_mode="exact")
    assert_shares_met(instance, alloc, rho(instance.n))
