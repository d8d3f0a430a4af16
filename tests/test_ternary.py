"""Exact allocation for two-valued and three-valued instances."""

import doctest
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmsalloc.ternary as ternary_mod
from helpers import assert_shares_met, instances, ternary_suite

from mmsalloc import (
    Allocation,
    GuaranteeError,
    InputError,
    Instance,
    bundle_value,
    exact_mms_012,
    mms_exact,
)
from mmsalloc.cli import main


def test_module_doctests():
    assert doctest.testmod(ternary_mod).failed == 0


class TestProfileRows:
    # An agent's mixed rows are the rows holding her two value boundaries,
    # after her c2 twos and after her c21 nonzeros; she gets an edge in the
    # row multigraph when they are two distinct rows.  Each case names the
    # padded non-increasing row, which all n agents share.

    @staticmethod
    def boundaries(layout, n):
        c2, c21 = layout.count(2), len(layout) - layout.count(0)
        pair = (ternary_mod._boundary_row(c2, n), ternary_mod._boundary_row(c21, n))
        firsts, lasts = layout[0::n], layout[n - 1 :: n]
        mixed = {r for r, (a, b) in enumerate(zip(firsts, lasts)) if a != b}
        assert mixed == set(pair) - {None}
        trace = []
        exact_mms_012(Instance.from_rows([layout] * n), trace=trace)
        return pair, trace[0]["edges"]

    def test_both_mixed_rows(self):
        # Rows 2 | 2 1 | 1 0: row 1 holds the 2/1 boundary, row 2 the 1/0 one.
        pair, edges = self.boundaries([2, 2, 2, 1, 1, 0], 2)
        assert pair == (1, 2)
        assert edges == ((1, 2), (1, 2))

    def test_clean_boundaries_are_unclassified(self):
        # Rows 2 2 | 1 1 | 0 0: no row is mixed.
        pair, edges = self.boundaries([2, 2, 1, 1, 0, 0], 2)
        assert pair == (None, None)
        assert edges == ()

    def test_shared_mixed_row_is_unclassified(self):
        # 2s and 1s both end inside row 0, so it holds all three values
        # and the agent cannot be classified.
        pair, edges = self.boundaries([2, 1, 0, 0, 0, 0], 3)
        assert pair == (0, 0)
        assert edges == ()

    def test_single_mixed_row_is_unclassified(self):
        # Rows 2 1 | 0 0: only the upper boundary is mixed; the 1/0 split
        # is clean.
        pair, edges = self.boundaries([2, 1, 0, 0], 2)
        assert pair == (0, None)
        assert edges == ()


class TestLift:
    def test_lift_round_trip_preserves_value(self):
        # Lifting an allocation of the sorted rows back to the original
        # goods never lowers anyone's value.
        rng = random.Random(314)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = rng.randint(n, 12)
            rows = [[rng.randint(0, 2) for _ in range(m)] for _ in range(n)]
            inst = Instance.from_rows(rows)
            reduced = Instance.from_rows([sorted(row, reverse=True) for row in rows])
            sorted_alloc = exact_mms_012(reduced)
            lifted = ternary_mod._lift_ternary(
                [bytes(row) for row in rows], sorted_alloc.bundles, m
            )
            Allocation.checked(lifted, m)
            for i in inst.agents:
                before = bundle_value(reduced, i, sorted_alloc.bundles[i])
                after = bundle_value(inst, i, lifted[i])
                assert after >= before


class TestExactTernary:
    def test_reaches_share_on_random_suite(self):
        for inst in ternary_suite(count=80, seed=271828):
            alloc = exact_mms_012(inst)
            alloc.require_partition(inst.m)
            for i in inst.agents:
                share = mms_exact(inst.row(i), inst.n).value
                assert bundle_value(inst, i, alloc.bundles[i]) >= share

    def test_binary_values_also_exact(self):
        rng = random.Random(1618)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = rng.randint(1, 14)
            rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
            inst = Instance.from_rows(rows)
            alloc = exact_mms_012(inst)
            for i in inst.agents:
                share = mms_exact(inst.row(i), n).value
                assert bundle_value(inst, i, alloc.bundles[i]) >= share

    def test_identical_rows_split_evenly(self):
        inst = Instance.from_rows([[2, 2, 1, 1]] * 2)
        alloc = exact_mms_012(inst)
        values = sorted(bundle_value(inst, i, alloc.bundles[i]) for i in inst.agents)
        assert values == [3, 3]

    def test_no_goods(self):
        inst = Instance.from_rows([[], []])
        trace = []
        alloc = exact_mms_012(inst, trace=trace)
        assert all(not b for b in alloc)
        assert len(trace) == 1

    def test_fewer_goods_than_agents(self):
        inst = Instance.from_rows([[2], [1], [1]])
        alloc = exact_mms_012(inst)
        alloc.require_partition(1)

    def test_rejects_values_above_two(self):
        # 255 is the last value bytes() takes, 256 the first it refuses, and
        # 2**70 overflows a 64-bit integer.
        for value in (3, 255, 256, 2**70):
            with pytest.raises(InputError):
                exact_mms_012(Instance.from_rows([[value, 1]]))

    def test_trace_structure(self):
        inst = Instance.from_rows([[1, 2, 0, 2, 1, 1], [2, 2, 1, 0, 1, 2]])
        trace = []
        exact_mms_012(inst, trace=trace)
        step = trace[0]
        assert step["rows"] == 3
        assert step["dummies"] == 0
        assert len(step["seats"]) == 2
        assert sorted(step["seats"]) == [0, 1]

    def test_presorted_rows_skip_the_lift(self):
        inst = Instance.from_rows([[2, 2, 1, 0], [2, 1, 1, 1]])
        trace = []
        alloc = exact_mms_012(inst, trace=trace)
        assert trace[0]["sorted_applied"] is False
        alloc.require_partition(4)

    def test_deterministic(self):
        for inst in ternary_suite(count=20, seed=57721):
            assert exact_mms_012(inst) == exact_mms_012(inst)


class TestGuaranteeChecks:
    # Both agents have a 2/1 row and a 1/0 row, so each adds a row edge.
    ROWS = [[2, 2, 2, 1, 1, 0]] * 2

    @staticmethod
    def miscount(k, edges):
        """A coloring whose edge counts disagree with its colors."""
        return [False] * k, 0, 0

    def test_bad_coloring_raises(self, monkeypatch):
        monkeypatch.setattr(ternary_mod, "color_rows", self.miscount)
        with pytest.raises(GuaranteeError):
            exact_mms_012(Instance.from_rows(self.ROWS))

    def test_bad_coloring_exits_one(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(
            {"n": 2, "m": 6, "scale": 1, "valuations": self.ROWS}
        ))
        monkeypatch.setattr(ternary_mod, "color_rows", self.miscount)
        assert main(["solve", "--algo", "ternary", "--instance", str(path)]) == 1
        assert "guarantee violation" in capsys.readouterr().err

    def test_color_rows_bound_checked(self):
        # Every edge is a self-loop on row 0: once row 0 is red, all are
        # red on both ends, which the coloring's own bound forbids.
        with pytest.raises(GuaranteeError):
            ternary_mod.color_rows(2, [(0, 0)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instance=instances(st.integers(1, 4), values=st.integers(0, 2)))
def test_exact_shares_against_exhaustive_search(instance):
    assert_shares_met(instance, exact_mms_012(instance), 1)
