"""Monte Carlo trial harness: generation, stats, and report formats."""

import doctest
import json
from fractions import Fraction

import pytest

import mmsalloc.experiments as exp_mod
from mmsalloc import (
    InputError,
    TrialConfig,
    bundle_value,
    gen_uniform_instance,
    greedy_round_robin,
    mms_exact,
    report_text,
    run_existence_trials,
)


def test_module_doctests():
    assert doctest.testmod(exp_mod).failed == 0


class TestGenerator:
    def test_frozen_draws(self):
        inst = gen_uniform_instance(2, 4, seed=123)
        assert inst.valuations == (
            (54907, 280679, 91421, 806309),
            (427023, 279501, 112931, 879234),
        )
        assert inst.scale == 10**6
        small = gen_uniform_instance(2, 4, seed=123, scale=100)
        assert small.valuations == ((6, 34, 11, 98), (52, 34, 13, 4))

    def test_same_seed_same_instance(self):
        assert gen_uniform_instance(3, 5, seed=9) == gen_uniform_instance(3, 5, seed=9)
        assert gen_uniform_instance(3, 5, seed=9) != gen_uniform_instance(3, 5, seed=10)

    def test_values_stay_in_range(self):
        inst = gen_uniform_instance(4, 30, seed=77, scale=50)
        assert all(0 <= v <= 50 for row in inst.valuations for v in row)

    def test_validation(self):
        with pytest.raises(InputError):
            gen_uniform_instance(0, 3, seed=1)
        with pytest.raises(InputError):
            gen_uniform_instance(2, -1, seed=1)
        with pytest.raises(InputError):
            gen_uniform_instance(2, 3, seed=1, scale=0)

    def test_rejects_negative_seed(self):
        # random.Random reads seed -5 as 5, so a negative seed would repeat
        # the instance of its absolute value.
        with pytest.raises(InputError):
            gen_uniform_instance(2, 3, seed=-5)
        assert gen_uniform_instance(2, 3, seed=0).n == 2


class TestTrialConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            TrialConfig(n=2, m=4, trials=0, seed=1)
        with pytest.raises(InputError):
            TrialConfig(n=2, m=4, trials=5, seed=1, scale=100)
        with pytest.raises(InputError):
            TrialConfig(n=2, m=4, trials=5, seed=1, algorithm="greedy")
        with pytest.raises(InputError):
            TrialConfig(n=2, m=4, trials=5, seed=1, predicate="envy")

    def test_mms_predicate_needs_small_instances(self):
        config = TrialConfig(n=2, m=40, trials=2, seed=1, predicate="mms")
        with pytest.raises(InputError):
            run_existence_trials(config)


class TestTrials:
    def test_stats_shape_and_determinism(self):
        config = TrialConfig(n=3, m=7, trials=25, seed=42)
        stats = run_existence_trials(config)
        again = run_existence_trials(config)
        assert stats == again
        assert stats.successes + stats.failures == 25
        assert 0 <= stats.rate <= 1

    def test_proportional_counts_match_direct_recount(self):
        config = TrialConfig(n=2, m=6, trials=30, seed=5)
        stats = run_existence_trials(config)
        successes = 0
        for t in range(config.trials):
            inst = gen_uniform_instance(
                config.n, config.m, seed=exp_mod.trial_seed(config.seed, t), scale=config.scale
            )
            alloc = greedy_round_robin(inst)
            ok = all(
                config.n * bundle_value(inst, i, alloc.bundles[i])
                >= sum(inst.row(i))
                for i in inst.agents
            )
            successes += ok
        assert stats.successes == successes

    def test_mms_predicate_uses_oracle_shares(self):
        config = TrialConfig(n=2, m=5, trials=15, seed=11, predicate="mms")
        stats = run_existence_trials(config)
        successes = 0
        for t in range(config.trials):
            inst = gen_uniform_instance(
                config.n, config.m, seed=exp_mod.trial_seed(config.seed, t), scale=config.scale
            )
            alloc = greedy_round_robin(inst)
            ok = all(
                bundle_value(inst, i, alloc.bundles[i])
                >= mms_exact(inst.row(i), config.n).value
                for i in inst.agents
            )
            successes += ok
        assert stats.successes == successes

    def test_ratios_are_exact_fractions(self):
        config = TrialConfig(n=2, m=4, trials=10, seed=3)
        stats = run_existence_trials(config)
        assert isinstance(stats.min_ratio, Fraction)

    def test_runs_with_different_seeds_share_no_trial(self):
        # Under the rule seed ^ t, seeds 6 and 7 drew the same 500
        # instances in another order.  random.Random reads a negative seed
        # as its absolute value, so the trial seeds must not be negative.
        drawn = [
            exp_mod.trial_seed(seed, t)
            for seed in (-7, -6, 0, 6, 7) for t in range(500)
        ]
        assert len(set(drawn)) == len(drawn)
        assert min(drawn) >= 0

    def test_more_goods_help(self):
        # Success becomes easier as goods multiply for fixed agents; allow
        # a small slack so sampling noise cannot flip the comparison.
        scarce = run_existence_trials(TrialConfig(n=5, m=10, trials=100, seed=21))
        plenty = run_existence_trials(TrialConfig(n=5, m=50, trials=100, seed=21))
        assert float(plenty.rate) >= float(scarce.rate) - 0.02


class TestReports:
    def test_csv_layout(self):
        config = TrialConfig(n=2, m=4, trials=8, seed=13)
        stats = run_existence_trials(config)
        text = report_text(stats, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "n,m,T,seed,algo,predicate,successes,rate,min_ratio"
        fields = lines[1].split(",")
        assert fields[:6] == ["2", "4", "8", "13", "rr", "proportional"]
        assert int(fields[6]) == stats.successes
        assert float(fields[7]) == pytest.approx(float(stats.rate))

    def test_json_layout(self):
        config = TrialConfig(n=2, m=4, trials=8, seed=13)
        stats = run_existence_trials(config)
        rows = json.loads(report_text(stats, "json"))
        assert isinstance(rows, list) and len(rows) == 1
        row = rows[0]
        assert row["n"] == 2 and row["algo"] == "rr"
        assert row["successes"] == stats.successes

    def test_bad_format_rejected(self):
        stats = run_existence_trials(TrialConfig(n=2, m=4, trials=5, seed=1))
        with pytest.raises(InputError):
            report_text(stats, "yaml")
