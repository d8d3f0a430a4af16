"""Level-by-level bundle-matching allocation with the rho(n) factor."""

import doctest
import json
from fractions import Fraction
from types import SimpleNamespace

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
    GuaranteeError,
    InputError,
    Instance,
    XPlusDecomposition,
    apx_mms,
    bundle_value,
    mms_exact,
    rho,
)
from mmsalloc.core import _require_partition
from mmsalloc.cli import main


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
    # A mode is a string; an object that holds one is not one.
    for bad_mode in ("fast", SimpleNamespace(mode="exact")):
        with pytest.raises(InputError):
            apx_mms(inst, Fraction(1, 10), oracle_mode=bad_mode)


def test_single_agent_takes_everything():
    inst = Instance.from_rows([[3, 1, 4]])
    alloc = apx_mms(inst, Fraction(1, 10))
    assert alloc == ((0, 1, 2),)


def test_two_agents_exact_reach_full_share():
    # rho(2) = 1, so exact mode must give both agents their full share.
    for inst in random_suite(count=40, seed=8142):
        if inst.n != 2:
            continue
        alloc = apx_mms(inst, Fraction(1, 10), oracle_mode="exact")
        for i in inst.agents:
            share = mms_exact(inst.row(i), 2).value
            assert bundle_value(inst, i, alloc[i]) >= share


def test_exact_mode_guarantee_on_random_instances():
    for inst in random_suite(count=60, seed=9219):
        alloc = apx_mms(inst, Fraction(1, 10), oracle_mode="exact")
        _require_partition(alloc, inst.m)
        factor = rho(inst.n) if inst.n >= 2 else Fraction(1)
        for i in inst.agents:
            share = mms_exact(inst.row(i), inst.n).value
            got = bundle_value(inst, i, alloc[i])
            assert got >= factor * share


def test_ptas_mode_guarantee_on_random_instances():
    eps = Fraction(1, 20)
    for inst in random_suite(count=30, seed=10307):
        alloc = apx_mms(inst, eps, oracle_mode="ptas")
        _require_partition(alloc, inst.m)
        for i in inst.agents:
            share = mms_exact(inst.row(i), inst.n).value
            got = bundle_value(inst, i, alloc[i])
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
    _require_partition(alloc, inst.m)
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
def test_each_call_runs_one_level(monkeypatch, mode):
    # Index 26 (3 agents, 8 goods) is the one instance of the suite whose
    # solve reaches a second level, in both modes.
    inst = random_suite()[26]
    real, calls = tt_mod.rec_mms, []

    def level(instance, agents, goods, *rest):
        calls.append((agents, goods, real(instance, agents, goods, *rest)))
        return calls[-1][2]

    monkeypatch.setattr(tt_mod, "rec_mms", level)
    trace = []
    alloc = apx_mms(inst, Fraction(1, 10), oracle_mode=mode, trace=trace)
    assert len(calls) == len(trace) == 2
    for step, (agents, goods, (seated, x_plus, leftover)) in zip(trace, calls):
        assert (agents, goods, x_plus) == (step["agents"], step["goods"], step["x_plus"])
        assert sorted(seated) == sorted(set(agents) - set(x_plus))
        assert set(seated.values()) <= set(step["partition"])
        assert leftover == tuple(sorted(set(goods).difference(*seated.values())))
        assert all(alloc[i] == bundle for i, bundle in seated.items())
    # Each level's X+ and left-over goods are the next level's input.
    assert calls[1][:2] == calls[0][2][1:]
    assert calls[1][2][1:] == ((), ())


class TestGuaranteeChecks:
    """Each check of rec_mms, forced to fail."""

    ROWS = [[3, 3, 2, 2, 1, 1]] * 3

    @staticmethod
    def partitioner_misses_threshold(monkeypatch):
        # Her threshold above her whole row: she accepts none of her bundles.
        real = tt_mod.build_preference_graph
        monkeypatch.setattr(
            tt_mod, "build_preference_graph",
            lambda rows, bundles, thresholds: real(
                rows, bundles, (sum(rows[0]) + 1,) + thresholds[1:]
            ),
        )
        return "misses her threshold"

    @staticmethod
    def partitioner_in_x_plus(monkeypatch):
        real = tt_mod.compute_x_plus

        def x_plus(graph, matching):
            found = real(graph, matching)
            return XPlusDecomposition(
                (0,) + found.x_plus, found.gamma, found.restricted_matching
            )

        monkeypatch.setattr(tt_mod, "compute_x_plus", x_plus)
        return "deferred set of her own level"

    @pytest.mark.parametrize("force", ["partitioner_misses_threshold",
                                       "partitioner_in_x_plus"])
    @pytest.mark.parametrize("mode", ["exact", "ptas"])
    def test_check_raises(self, monkeypatch, force, mode):
        message = getattr(self, force)(monkeypatch)
        with pytest.raises(GuaranteeError, match=message):
            apx_mms(Instance.from_rows(self.ROWS), Fraction(1, 10), oracle_mode=mode)

    @pytest.mark.parametrize("force", ["partitioner_misses_threshold",
                                       "partitioner_in_x_plus"])
    def test_failed_check_exits_one(self, monkeypatch, tmp_path, capsys, force):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(
            {"n": 3, "m": 6, "scale": 1, "valuations": self.ROWS}
        ))
        message = getattr(self, force)(monkeypatch)
        argv = ["solve", "--algo", "twothirds", "--eps", "1/10",
                "--instance", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "guarantee violation" in err and message in err


@pytest.mark.parametrize("mode", ["exact", "ptas"])
def test_first_level_asks_the_partitioner_share_again(monkeypatch, mode):
    # The first level asks the partitioner's own xi query again and no other
    # query repeats.  The process memo under mms_exact answers an exact
    # share; approximate shares keep no memo, so that one is searched again.
    searches = record_searches(monkeypatch)
    rows = [[5, 4, 3, 2, 1, 1], [1, 2, 3, 4, 5, 1], [2, 2, 2, 2, 2, 2]]
    apx_mms(Instance.from_rows(rows), Fraction(1, 10), oracle_mode=mode)
    assert searches[0][:2] == (tuple(rows[0]), 3)
    again = [query for query in searches[1:] if query in searches[:1]]
    assert len(searches) - len(set(searches)) == len(again)
    assert len(again) == (mode == "ptas")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instance=instances(st.integers(2, 4)))
def test_exact_mode_factor_against_exhaustive_shares(instance):
    alloc = apx_mms(instance, Fraction(1, 10), oracle_mode="exact")
    assert_shares_met(instance, alloc, rho(instance.n))
