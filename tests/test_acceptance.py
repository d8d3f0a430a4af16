"""Acceptance gate: one test per published guarantee, one line each.

Every test prints a single PASS line on success; a failure shows up as the
test's own failure line. The random suite shared by several criteria is 300
seeded instances with n in 2..6, m in n..12, and values uniform in 0..9.
"""

import filecmp
import random
import time
from fractions import Fraction
from itertools import combinations

from helpers import (
    binary_suite,
    exhaustive_mms,
    random_instance,
    random_suite,
    ternary_suite,
    three_agent_suite,
)

from mmsalloc import (
    Instance,
    PreferenceGraph,
    TrialConfig,
    apx_3_mms,
    apx_mms,
    apx_mms_half,
    bundle_value,
    compute_x_plus,
    exact_mms_012,
    greedy_round_robin,
    maximum_matching,
    mms_approx,
    mms_exact,
    rho,
    run_existence_trials,
)
from mmsalloc.core import _require_partition
from mmsalloc.cli import main

SUITE = random_suite(count=300, seed=90125)


def report(line):
    print(f"PASS {line}")


def test_criterion_01_oracle_matches_exhaustive_search():
    started = time.perf_counter()
    rng = random.Random(31337)
    eps = Fraction(1, 10)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        m = rng.randint(1, 8)
        inst = random_instance(rng, n, m)
        for i in inst.agents:
            row = inst.row(i)
            truth = exhaustive_mms(row, n)
            assert mms_exact(row, n).value == truth
            assert 10 * mms_approx(row, n, eps).value >= 9 * truth
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    report(
        f"criterion 1: exact oracle matches exhaustive search and the "
        f"scheme stays within 9/10 on {checked} rows in {elapsed:.1f}s"
    )


def test_criterion_02_round_robin_additive_floor_and_envy():
    for inst in SUITE:
        alloc = greedy_round_robin(inst)
        v_max = max((v for row in inst.valuations for v in row), default=0)
        for i in inst.agents:
            own = bundle_value(inst, i, alloc[i])
            assert inst.n * own >= sum(inst.row(i)) - inst.n * v_max
            for j in inst.agents:
                other = bundle_value(inst, i, alloc[j])
                assert own >= other - v_max
    report(
        "criterion 2: round robin keeps the additive floor and bounded "
        f"envy on all {len(SUITE)} suite instances"
    )


def test_criterion_03_binary_values_get_the_full_share():
    suite = binary_suite(count=100, seed=60901)
    for inst in suite:
        alloc = greedy_round_robin(inst)
        for i in inst.agents:
            share = mms_exact(inst.row(i), inst.n).value
            assert bundle_value(inst, i, alloc[i]) >= share
    report(
        f"criterion 3: round robin reaches the full share on {len(suite)} "
        "two-valued instances"
    )


def test_criterion_04_half_guarantee():
    for inst in SUITE:
        alloc = apx_mms_half(inst)
        for i in inst.agents:
            share = mms_exact(inst.row(i), inst.n).value
            assert 2 * bundle_value(inst, i, alloc[i]) >= share
    report(
        f"criterion 4: singleton stripping reaches half the share on all "
        f"{len(SUITE)} suite instances"
    )


def test_criterion_05_recursive_matching_guarantee_and_balance():
    eps = Fraction(1, 20)
    for inst in SUITE:
        shares = [mms_exact(inst.row(i), inst.n).value for i in inst.agents]
        factor = rho(inst.n)
        for mode, bound in (
            ("exact", [factor * s for s in shares]),
            ("ptas", [(Fraction(2, 3) - eps) * s for s in shares]),
        ):
            trace = []
            alloc = apx_mms(inst, eps, oracle_mode=mode, trace=trace)
            for i in inst.agents:
                assert bundle_value(inst, i, alloc[i]) >= bound[i]
            for level in trace:
                gone = set(inst.goods) - set(level["goods"])
                for i in level["agents"]:
                    spent = bundle_value(inst, i, gone)
                    assert spent <= (inst.n - len(level["agents"])) * factor * shares[i]
    report(
        "criterion 5: recursive matching meets rho(n) exactly and 2/3 - eps "
        f"with the scheme, with the balance inequality at every level, on "
        f"all {len(SUITE)} suite instances"
    )


def hall_condition_holds(adj, n):
    for r in range(1, n + 1):
        for subset in combinations(range(n), r):
            nbrs = set()
            for u in subset:
                nbrs.update(adj[u])
            if len(nbrs) < r:
                return False
    return True


def test_criterion_06_hall_violator_decomposition():
    rng = random.Random(8086)
    graphs = 0
    without_matching = 0
    while graphs < 500:
        n = rng.randint(1, 8)
        density = rng.choice([0.15, 0.3, 0.5, 0.75])
        adj = [tuple(range(n))]
        for _ in range(n - 1):
            adj.append(tuple(j for j in range(n) if rng.random() < density))
        graph = PreferenceGraph(n_left=n, n_right=n, adj=tuple(adj))
        graphs += 1
        matching = maximum_matching(graph)
        decomposition = compute_x_plus(graph, matching)
        x_plus = set(decomposition.x_plus)
        gamma = set(decomposition.gamma)
        perfect = hall_condition_holds(adj, n)
        if perfect:
            assert not x_plus
            assert len(matching) == n
        else:
            without_matching += 1
            assert x_plus
            assert len(x_plus) > len(gamma)
            assert 0 not in x_plus
            restricted = decomposition.restricted_matching
            assert {u for u, _ in restricted} == set(range(n)) - x_plus
            rights = [v for _, v in restricted]
            assert len(set(rights)) == len(rights)
            assert all(v not in gamma for v in rights)
            assert all(v in graph.adj[u] for u, v in restricted)
    assert without_matching > 0
    report(
        f"criterion 6: violator decomposition verified against the Hall "
        f"condition on 500 graphs ({without_matching} without a perfect "
        "matching)"
    )


def test_criterion_07_three_agent_seven_eighths_and_branches():
    suite = three_agent_suite(count=200, seed=424242)
    hits = {"b": 0, "c": 0, "d": 0}
    for inst in suite:
        trace = []
        alloc = apx_3_mms(inst, Fraction(1, 10), oracle_mode="exact", trace=trace)
        hits[trace[-1]["branch"]] += 1
        for i in inst.agents:
            share = mms_exact(inst.row(i), 3).value
            assert 8 * bundle_value(inst, i, alloc[i]) >= 7 * share
    assert all(hits.values()), hits
    report(
        "criterion 7: three-agent allocation reaches 7/8 of the share on "
        f"200 instances with branch coverage {hits}"
    )


def test_criterion_08_ternary_exactness_and_scaling():
    suite = ternary_suite(count=200, seed=11235)
    for inst in suite:
        alloc = exact_mms_012(inst)
        for i in inst.agents:
            share = mms_exact(inst.row(i), inst.n).value
            assert bundle_value(inst, i, alloc[i]) >= share

    n, m = 500, 50000
    rng = random.Random(98765)
    rows = [[rng.randint(0, 2) for _ in range(m)] for _ in range(n)]
    big = Instance.from_rows(rows)
    started = time.perf_counter()
    alloc = exact_mms_012(big)
    elapsed = time.perf_counter() - started
    assert elapsed < 5
    _require_partition(alloc, m)
    report(
        "criterion 8: three-valued solver is exact on 200 instances and "
        f"allocates n=500, m=50000 in {elapsed:.2f}s"
    )


def test_criterion_09_share_monotone_under_agent_and_good_removal():
    rng = random.Random(40042)
    for _ in range(100):
        n = rng.randint(2, 4)
        m = rng.randint(n, 7)
        inst = random_instance(rng, n, m)
        for i in inst.agents:
            row = inst.row(i)
            before = mms_exact(row, n).value
            for j in inst.goods:
                rest = [row[g] for g in inst.goods if g != j]
                assert mms_exact(rest, n - 1).value >= before
    report(
        "criterion 9: the share never drops when one agent and one good "
        "leave, on 100 instances"
    )


def test_criterion_10_monte_carlo_success_rates():
    lines = []
    for label, config, floor in (
        ("large", TrialConfig(n=50, m=120, trials=500, seed=7), Fraction(95, 100)),
        ("edge", TrialConfig(n=30, m=60, trials=500, seed=7), Fraction(80, 100)),
        (
            "scarce",
            TrialConfig(
                n=6, m=9, trials=300, seed=7,
                algorithm="rr-modified", predicate="mms",
            ),
            Fraction(90, 100),
        ),
    ):
        started = time.perf_counter()
        stats = run_existence_trials(config)
        elapsed = time.perf_counter() - started
        assert elapsed < 120
        assert stats.rate >= floor, (label, stats.rate, floor)
        lines.append(f"{label} {float(stats.rate):.3f}>={float(floor):.2f}")
    report("criterion 10: success rates hold: " + ", ".join(lines))


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    inst_general = tmp_path / "general.json"
    assert main(["gen", "--n", "3", "--m", "9", "--seed", "17",
                 "--out", str(inst_general)]) == 0
    inst_general_again = tmp_path / "general2.json"
    assert main(["gen", "--n", "3", "--m", "9", "--seed", "17",
                 "--out", str(inst_general_again)]) == 0
    assert filecmp.cmp(inst_general, inst_general_again, shallow=False)

    inst_ternary = tmp_path / "ternary.json"
    rng = random.Random(64)
    rows = [[rng.randint(0, 2) for _ in range(9)] for _ in range(3)]
    tern = Instance.from_rows(rows)
    from mmsalloc import save_instance

    save_instance(tern, str(inst_ternary))

    runs = [
        (["solve", "--algo", "rr", "--instance", str(inst_general)], "rr"),
        (
            ["solve", "--algo", "rr-modified", "--seed", "4",
             "--instance", str(inst_general)],
            "rrm",
        ),
        (["solve", "--algo", "half", "--instance", str(inst_general)], "half"),
        (
            ["solve", "--algo", "twothirds", "--eps", "1/10",
             "--instance", str(inst_general)],
            "twothirds",
        ),
        (
            ["solve", "--algo", "three78", "--eps", "1/10",
             "--instance", str(inst_general)],
            "three78",
        ),
        (["solve", "--algo", "ternary", "--instance", str(inst_ternary)], "ternary"),
        (
            ["experiment", "--n", "3", "--m", "7", "--trials", "20",
             "--seed", "3"],
            "experiment",
        ),
    ]
    for argv, tag in runs:
        first = tmp_path / f"{tag}_a.out"
        second = tmp_path / f"{tag}_b.out"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert filecmp.cmp(first, second, shallow=False), tag
    report(
        "criterion 11: every solver and the trial harness rerun to "
        "byte-identical output files"
    )
