"""Round-robin picking: additive guarantee, envy bound, scarcity variant."""

import doctest
import random
from types import SimpleNamespace

import mmsalloc.round_robin as rr_mod
from helpers import binary_suite, exhaustive_mms, random_suite

import pytest

from mmsalloc import (
    GuaranteeError,
    InputError,
    Instance,
    bundle_value,
    greedy_round_robin,
    modified_greedy_round_robin,
)


def test_module_doctests():
    assert doctest.testmod(rr_mod).failed == 0


def test_identical_descending_rows_split_by_rank():
    inst = Instance.from_rows([[4, 3, 2, 1], [4, 3, 2, 1]])
    alloc = greedy_round_robin(inst)
    assert alloc.bundles == (frozenset({0, 2}), frozenset({1, 3}))


def test_order_changes_first_pick():
    inst = Instance.from_rows([[9, 1], [9, 1]])
    assert greedy_round_robin(inst, order=[1, 0]).bundles == (
        frozenset({1}),
        frozenset({0}),
    )


def test_order_must_be_permutation():
    inst = Instance.from_rows([[1, 2], [3, 4]])
    for bad in ([0], [0, 0], [0, 2], [1, 0, 1]):
        with pytest.raises(InputError):
            greedy_round_robin(inst, order=bad)


def test_additive_floor_on_random_instances():
    for inst in random_suite(count=60, seed=1118):
        alloc = greedy_round_robin(inst)
        for i in inst.agents:
            row = inst.row(i)
            got = bundle_value(inst, i, alloc.bundles[i])
            assert inst.n * got >= sum(row) - inst.n * max(row)


def test_envy_bounded_by_one_good():
    for inst in random_suite(count=60, seed=2236):
        alloc = greedy_round_robin(inst)
        for i in inst.agents:
            own = bundle_value(inst, i, alloc.bundles[i])
            biggest = max(inst.row(i))
            for j in inst.agents:
                other = bundle_value(inst, i, alloc.bundles[j])
                assert own >= other - biggest


def test_binary_values_reach_full_share():
    for inst in binary_suite(count=40, seed=3354):
        alloc = greedy_round_robin(inst)
        for i in inst.agents:
            share = exhaustive_mms(inst.row(i), inst.n)
            assert bundle_value(inst, i, alloc.bundles[i]) >= share


class TestModifiedRoundRobin:
    def test_partition_and_determinism(self):
        rng = random.Random(44)
        for _ in range(50):
            n = rng.randint(1, 6)
            m = rng.randint(0, 3 * n)
            rows = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
            inst = Instance.from_rows(rows)
            first = modified_greedy_round_robin(inst, seed=9)
            second = modified_greedy_round_robin(inst, seed=9)
            assert first == second
            first.require_partition(inst.m)

    def test_scarcity_phase_gives_single_goods(self):
        # Four agents, three goods: every agent with a good holds exactly one.
        inst = Instance.from_rows([[5, 4, 3]] * 4)
        alloc = modified_greedy_round_robin(inst, seed=1)
        sizes = sorted(len(b) for b in alloc)
        assert sizes == [0, 1, 1, 1]

    def test_plentiful_goods_match_plain_round_robin_support(self):
        # With m >= 2n the scarcity phase never triggers.
        inst = Instance.from_rows([[3, 1, 4, 1, 5, 9], [2, 6, 5, 3, 5, 8]])
        assert modified_greedy_round_robin(inst, seed=5) == greedy_round_robin(inst)

    def test_seed_selects_exiting_agent(self):
        inst = Instance.from_rows([[9, 2], [9, 3], [9, 4]])
        seen = {modified_greedy_round_robin(inst, seed=s) for s in range(12)}
        assert len(seen) > 1

    def test_rejects_negative_seed(self):
        inst = Instance.from_rows([[9, 2], [9, 3], [9, 4]])
        with pytest.raises(InputError):
            modified_greedy_round_robin(inst, seed=-3)

    def test_leftovers_without_an_agent_raise(self):
        # A stand-in for an instance with no agents, which Instance refuses.
        nobody = SimpleNamespace(agents=range(0), goods=range(1))
        with pytest.raises(GuaranteeError):
            modified_greedy_round_robin(nobody, seed=0)
