"""Command line interface: subcommands, exit codes, file outputs."""

import contextlib
import gc
import io
import json
import random
import time
from fractions import Fraction

import pytest
from helpers import record_searches, run_cli_peak, run_module
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmsalloc import (
    Instance, apx_3_mms, apx_mms, apx_mms_half, exact_mms_012,
    gen_uniform_instance, half, instance_to_json,
)
from mmsalloc.cli import main

BRANCH_ROWS = {
    "b": [[7, 1, 1, 1, 1, 1, 1, 1]] * 3,
    "c": [[1] * 9] * 3,
    "d": [
        [1, 2, 4, 3, 3, 4, 2, 2],
        [3, 3, 1, 4, 3, 1, 3, 4],
        [3, 4, 3, 3, 2, 1, 3, 4],
    ],
}


def write_instance(path, rows, scale=1):
    payload = {
        "n": len(rows),
        "m": len(rows[0]) if rows else 0,
        "scale": scale,
        "valuations": rows,
    }
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def instance_path(tmp_path):
    return write_instance(tmp_path / "inst.json", [[4, 3, 2, 1], [4, 3, 2, 1]])


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_round_robin_reference_run(self, capsys, instance_path):
        code, out, err = run_cli(
            capsys, ["solve", "--algo", "rr", "--instance", instance_path]
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["bundles"] == [[1, 3], [2, 4]]
        assert [c["agent"] for c in payload["certificates"]] == [1, 2]

    def test_out_file_and_table(self, capsys, tmp_path, instance_path):
        target = tmp_path / "alloc.json"
        code, out, _ = run_cli(
            capsys,
            [
                "solve", "--algo", "rr",
                "--instance", instance_path,
                "--out", str(target),
            ],
        )
        assert code == 0
        assert "agent  value  threshold  ok" in out
        payload = json.loads(target.read_text())
        assert payload["bundles"] == [[1, 3], [2, 4]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--algo", "rr"],
            ["--algo", "rr-modified", "--seed", "4"],
            ["--algo", "half"],
            ["--algo", "twothirds", "--eps", "1/10"],
            ["--algo", "twothirds", "--eps", "1/10", "--oracle", "exact"],
            ["--algo", "three78", "--eps", "1/10"],
            ["--algo", "three78", "--eps", "1/10", "--oracle", "exact"],
        ],
    )
    def test_each_algorithm_self_verifies(self, capsys, tmp_path, argv):
        rows = [[5, 4, 3, 2, 1, 1], [1, 2, 3, 4, 5, 1], [2, 2, 2, 2, 2, 2]]
        path = write_instance(tmp_path / "three.json", rows)
        code, out, err = run_cli(capsys, ["solve", *argv, "--instance", path])
        assert code == 0, err
        payload = json.loads(out)
        assert sorted(g for b in payload["bundles"] for g in b) == [1, 2, 3, 4, 5, 6]

    def test_ternary_solver(self, capsys, tmp_path):
        path = write_instance(
            tmp_path / "tern.json",
            [[2, 1, 0, 2, 1, 1], [1, 1, 1, 2, 2, 0], [2, 2, 2, 1, 0, 0]],
        )
        code, out, err = run_cli(
            capsys, ["solve", "--algo", "ternary", "--instance", path]
        )
        assert code == 0, err
        payload = json.loads(out)
        assert len(payload["bundles"]) == 3

    def test_guarantee_violation_exits_one(
        self, monkeypatch, capsys, tmp_path, instance_path
    ):
        # A solver that leaves agent 1 with nothing: solve names her, prints
        # nothing and writes no file.
        monkeypatch.setattr(
            half, "apx_mms_half",
            lambda inst, trace=None: ((), tuple(inst.goods)),
        )
        target = tmp_path / "alloc.json"
        code, out, err = run_cli(
            capsys,
            ["solve", "--algo", "half", "--instance", instance_path,
             "--out", str(target)],
        )
        assert code == 1 and out == ""
        assert err == "guarantee violation: agent 1 got 0, needs 5/2\n"
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv,thresholds",
        [
            (["--algo", "half"], [2170220, 2542534, 2736434]),
            (["--algo", "twothirds", "--eps", "1/10"], [2459583, 2881539, 3101292]),
            (["--algo", "three78", "--eps", "1/10"], [3363841, 3940928, 4241472]),
        ],
    )
    def test_thresholds_past_the_exact_cap(self, capsys, tmp_path, argv, thresholds):
        # 30 goods is past EXACT_ITEM_CAP, so the thresholds stand on the
        # greedy floors [4340440, 5085068, 5472867] instead of exact shares.
        path = str(tmp_path / "inst.json")
        argv_gen = ["gen", "--n", "3", "--m", "30", "--seed", "4", "--out", path]
        assert run_cli(capsys, argv_gen)[0] == 0
        code, out, err = run_cli(capsys, ["solve", *argv, "--instance", path])
        assert code == 0, err
        certs = json.loads(out)["certificates"]
        assert [c["threshold"] for c in certs] == thresholds

    @pytest.mark.parametrize("branch", sorted(BRANCH_ROWS))
    def test_trace_output_per_branch(self, capsys, tmp_path, branch):
        path = write_instance(tmp_path / f"{branch}.json", BRANCH_ROWS[branch])
        code, out, err = run_cli(
            capsys,
            [
                "solve", "--algo", "three78",
                "--instance", path,
                "--eps", "1/10",
                "--oracle", "exact",
                "--trace",
            ],
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["trace"][-1]["branch"] == branch

    def test_trace_for_round_robin_is_empty(self, capsys, instance_path):
        code, out, _ = run_cli(
            capsys,
            ["solve", "--algo", "rr", "--instance", instance_path, "--trace"],
        )
        assert code == 0
        assert json.loads(out)["trace"] == []

    def test_twothirds_trace_is_one_based(self, capsys, tmp_path):
        rows = [[5, 4, 3, 2], [2, 3, 4, 5]]
        path = write_instance(tmp_path / "tt.json", rows)
        code, out, _ = run_cli(
            capsys,
            [
                "solve", "--algo", "twothirds",
                "--instance", path,
                "--eps", "1/10",
                "--trace",
            ],
        )
        assert code == 0
        level = json.loads(out)["trace"][0]
        assert level["partitioner"] == 1
        assert min(g for part in level["partition"] for g in part) >= 1

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["--algo", "rr", "--eps", "1/10"], "--eps is only accepted"),
            (["--algo", "twothirds"], "--eps is required"),
            (["--algo", "half", "--oracle", "exact"], "--oracle is only accepted"),
            (["--algo", "half", "--order", "1,2"], "--order is only accepted"),
            (["--algo", "rr", "--seed", "4"], "--seed is only accepted"),
            (["--algo", "twothirds", "--eps", "0"], "eps"),
            (["--algo", "twothirds", "--eps", "abc"], "--eps is not a rational"),
            (["--algo", "twothirds", "--eps", "1e5000"],
             "--eps has too many digits to print, got '1e5000'"),
            (["--algo", "twothirds", "--eps", "1e-5000", "--trace"],
             "--eps has too many digits to print, got '1e-5000'"),
            (["--algo", "rr", "--order", "0,1"],
             "--order must be a permutation of 1..2, got '0,1'"),
            (["--algo", "rr", "--order", "1,1"],
             "--order must be a permutation of 1..2, got '1,1'"),
            (["--algo", "rr", "--order", "1,2,3"],
             "--order must be a permutation of 1..2, got '1,2,3'"),
            (["--algo", "rr", "--order", "1,x"],
             "--order must be comma-separated integers, got '1,x'"),
        ],
    )
    def test_flag_misuse_exits_two(self, capsys, instance_path, argv, fragment):
        code, out, err = run_cli(
            capsys, ["solve", *argv, "--instance", instance_path]
        )
        assert code == 2 and out == ""
        assert fragment in err

    def test_wrong_agent_count_for_three78(self, capsys, tmp_path):
        path = write_instance(tmp_path / "four.json", [[1, 1, 1, 1]] * 4)
        code, _, err = run_cli(
            capsys,
            ["solve", "--algo", "three78", "--instance", path, "--eps", "1/10"],
        )
        assert code == 2
        assert "input error" in err

    def test_missing_instance_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["solve", "--algo", "rr", "--instance", str(tmp_path / "nope.json")],
        )
        assert code == 2
        assert "file error" in err

    def test_order_flag_controls_round_robin(self, capsys, instance_path):
        code, out, _ = run_cli(
            capsys,
            [
                "solve", "--algo", "rr",
                "--instance", instance_path,
                "--order", "2,1",
            ],
        )
        assert code == 0
        assert json.loads(out)["bundles"] == [[2, 4], [1, 3]]

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["--algo", "three78", "--eps", "1e5000"],
             "--eps has too many digits to print, got '1e5000'"),
            (["--algo", "three78", "--eps", "1e-5000", "--trace"],
             "--eps has too many digits to print, got '1e-5000'"),
            # 1e-4299 prints, but the thresholds the trace shows carry 3/4 of it.
            (["--algo", "twothirds", "--eps", "1e-4299", "--trace"],
             "the trace holds a number with too many digits to print"),
        ],
    )
    def test_eps_too_long_to_print_exits_two(self, capsys, tmp_path, argv, fragment):
        path = write_instance(tmp_path / "three.json", BRANCH_ROWS["d"])
        code, out, err = run_cli(capsys, ["solve", *argv, "--instance", path])
        assert code == 2 and out == ""
        assert fragment in err

    def test_eps_in_exponent_form_is_the_same_rational(self, capsys, tmp_path):
        path = write_instance(tmp_path / "three.json", BRANCH_ROWS["d"])
        outs = [
            run_cli(
                capsys,
                ["solve", "--algo", "three78", "--instance", path, "--eps", eps,
                 "--trace"],
            )
            for eps in ("1/10", "1e-1", "0.1")
        ]
        assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("eps", ["1e-99999999", "1e99999999"])
@pytest.mark.parametrize("command", [
    ["solve", "--algo", "twothirds"],
    ["solve", "--algo", "three78"],
    ["mms", "--agent", "1", "--k", "3"],
], ids=" ".join)
def test_eps_with_a_huge_exponent_exits_two_at_once(tmp_path, command, eps):
    # A fresh process under a 10 s limit, start-up included.  Building
    # 10**99999999 to read such an eps would take minutes.
    path = write_instance(tmp_path / "three.json", BRANCH_ROWS["d"])
    result = run_module([*command, "--instance", path, "--eps", eps], timeout=10)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == (
        f"input error: --eps has too many digits to print, got {eps!r}\n"
    )


# The complete --trace output of one solve per solver, recorded before the
# conversion to 1-based JSON became one generic rule: that rule must keep
# every key, index and number of each solver's trace.
TRACE_CASES = {
    "half": (
        ["--algo", "half"],
        [[9, 1, 1, 1, 2], [1, 8, 1, 1, 1], [2, 2, 2, 2, 2]],
        {
            "bundles": [[1], [2], [3, 4, 5]],
            "certificates": [
                {"agent": 1, "value": 9, "threshold": 1},
                {"agent": 2, "value": 8, "threshold": 1},
                {"agent": 3, "value": 6, "threshold": 1},
            ],
            "trace": [
                {"agent": 1, "good": 1, "alpha": "14/3"},
                {"agent": 2, "good": 2, "alpha": "11/2"},
            ],
        },
    ),
    # The first level defers agents 2 and 3 (the Hall violator set X+).
    "twothirds": (
        ["--algo", "twothirds", "--eps", "1/10"],
        [[3, 5, 5, 2, 0, 6, 6], [6, 0, 1, 4, 8, 6, 1], [1, 0, 5, 4, 8, 7, 2]],
        {
            "bundles": [[4, 7], [1, 6], [2, 3, 5]],
            "certificates": [
                {"agent": 1, "value": 8, "threshold": 5},
                {"agent": 2, "value": 12, "threshold": 5},
                {"agent": 3, "value": 13, "threshold": 6},
            ],
            "trace": [
                {
                    "agents": [1, 2, 3],
                    "goods": [1, 2, 3, 4, 5, 6, 7],
                    "partitioner": 1,
                    "partition": [[1, 5, 6], [4, 7], [2, 3]],
                    "thresholds": ["111/20", "111/20", "999/160"],
                    "adjacency": [[1, 2, 3], [1], [1]],
                    "matching": [[1, 2], [2, 1]],
                    "x_plus": [2, 3],
                    "gamma": [1],
                    "restricted_matching": [[1, 2]],
                },
                {
                    "agents": [2, 3],
                    "goods": [1, 2, 3, 5, 6],
                    "partitioner": 2,
                    "partition": [[2, 3, 5], [1, 6]],
                    "thresholds": ["111/20", "999/160"],
                    "adjacency": [[1, 2], [1, 2]],
                    "matching": [[1, 2], [2, 1]],
                    "x_plus": [],
                    "gamma": [],
                    "restricted_matching": [[2, 2], [3, 1]],
                },
            ],
        },
    ),
    "three78-b": (
        ["--algo", "three78", "--eps", "1/10", "--oracle", "exact"],
        BRANCH_ROWS["b"],
        {
            "bundles": [[1], [3, 5, 7], [2, 4, 6, 8]],
            "certificates": [
                {"agent": 1, "value": 7, "threshold": 3},
                {"agent": 2, "value": 3, "threshold": 3},
                {"agent": 3, "value": 4, "threshold": 3},
            ],
            "trace": [
                {
                    "branch": "b",
                    "agent": 1,
                    "good": 1,
                    "cutter": 2,
                    "chooser": 3,
                    "halves": [[2, 4, 6, 8], [3, 5, 7]],
                }
            ],
        },
    ),
    "three78-c": (
        ["--algo", "three78", "--eps", "1/10", "--oracle", "exact"],
        BRANCH_ROWS["c"],
        {
            "bundles": [[3, 6, 9], [1, 4, 7], [2, 5, 8]],
            "certificates": [
                {"agent": 1, "value": 3, "threshold": 3},
                {"agent": 2, "value": 3, "threshold": 3},
                {"agent": 3, "value": 3, "threshold": 3},
            ],
            "trace": [
                {
                    "branch": "c",
                    "a_sets": [[1, 4, 7], [2, 5, 8], [3, 6, 9]],
                    "seats": [3, 1, 2],
                }
            ],
        },
    ),
    "three78-d": (
        ["--algo", "three78", "--eps", "1/10", "--oracle", "exact"],
        BRANCH_ROWS["d"],
        {
            "bundles": [[5, 6], [1, 2, 7], [3, 4, 8]],
            "certificates": [
                {"agent": 1, "value": 7, "threshold": 7},
                {"agent": 2, "value": 9, "threshold": 7},
                {"agent": 3, "value": 10, "threshold": 7},
            ],
            "trace": [
                {
                    "branch": "d",
                    "a_sets": [[3, 4], [5, 6], [1, 2, 7, 8]],
                    "base": 3,
                    "kept_with": 1,
                    "kept_value": 9,
                    "discarded_value": 8,
                    "halves": [[3, 4, 8], [1, 2, 7]],
                }
            ],
        },
    ),
    # Unsorted rows, each a shuffle of [2, 2, 2, 1, 1, 0]: both agents add
    # a row edge, so rows are colored red and the lift runs.
    "ternary": (
        ["--algo", "ternary"],
        [[1, 2, 0, 2, 1, 2], [2, 1, 2, 0, 2, 1]],
        {
            "bundles": [[2, 4, 6], [1, 3, 5]],
            "certificates": [
                {"agent": 1, "value": 6, "threshold": 4},
                {"agent": 2, "value": 6, "threshold": 4},
            ],
            "trace": [
                {
                    "rows": 3,
                    "dummies": 0,
                    "sorted_applied": True,
                    "edges": [[2, 3], [2, 3]],
                    "edge_agents": [1, 2],
                    "red_rows": [1, 2],
                    "left": [],
                    "right": [],
                    "seats": [1, 2],
                }
            ],
        },
    ),
}


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_trace_json_is_pinned(capsys, tmp_path, case):
    argv, rows, expected = TRACE_CASES[case]
    path = write_instance(tmp_path / "inst.json", rows)
    code, out, err = run_cli(capsys, ["solve", *argv, "--instance", path, "--trace"])
    assert code == 0, err
    assert out == json.dumps(expected, indent=2) + "\n"


def _three78(inst, trace):
    return apx_3_mms(inst, Fraction(1, 10), oracle_mode="exact", trace=trace)


# The library call behind each TRACE_CASES solve.
TRACING_SOLVERS = {
    "half": lambda inst, trace: apx_mms_half(inst, trace=trace),
    "twothirds": lambda inst, trace: apx_mms(inst, Fraction(1, 10), trace=trace),
    "three78-b": _three78,
    "three78-c": _three78,
    "three78-d": _three78,
    "ternary": lambda inst, trace: exact_mms_012(inst, trace=trace),
}


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_every_trace_step_is_a_dict_keyed_as_its_json(case):
    # One trace form for every solver: _one_based reads each step as a
    # dict, and the --trace JSON keeps its keys in order.
    _, rows, expected = TRACE_CASES[case]
    trace = []
    TRACING_SOLVERS[case](Instance.from_rows(rows), trace)
    assert [type(step) for step in trace] == [dict] * len(expected["trace"])
    assert [list(step) for step in trace] == [
        list(step) for step in expected["trace"]
    ]


class TestMms:
    def test_exact_certificate(self, capsys, instance_path):
        code, out, _ = run_cli(
            capsys,
            ["mms", "--instance", instance_path, "--agent", "1", "--k", "2", "--exact"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "agent": 1,
            "k": 2,
            "mode": "exact",
            "eps": None,
            "value": 5,
            "witness": [[1, 4], [2, 3]],
        }

    def test_ptas_certificate(self, capsys, instance_path):
        code, out, _ = run_cli(
            capsys,
            [
                "mms", "--instance", instance_path,
                "--agent", "2", "--k", "2", "--eps", "1/10",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "ptas" and payload["eps"] == "1/10"
        assert 10 * payload["value"] >= 9 * 5

    def test_ptas_witness_is_pinned(self, capsys, tmp_path):
        # The witness's first bundle, (1, 3, 8, 9) (0-based), is one a
        # frozenset iterates out of order in CPython, so this case shows
        # that each printed bundle ascends.
        path = write_instance(
            tmp_path / "inst.json", [[3, 9, 8, 2, 5, 9, 7, 9, 1, 9], [1] * 10]
        )
        code, out, _ = run_cli(
            capsys,
            [
                "mms", "--instance", path,
                "--agent", "1", "--k", "3", "--eps", "1/4",
            ],
        )
        assert code == 0
        expected = {
            "agent": 1,
            "k": 3,
            "mode": "ptas",
            "eps": "1/4",
            "value": 20,
            "witness": [[2, 4, 9, 10], [1, 3, 6], [5, 7, 8]],
        }
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_ptas_on_sixty_goods_and_twenty_bundles(self, tmp_path):
        # A fresh process under a time limit, so a search that runs away
        # fails this test instead of hanging the suite.
        rng = random.Random(60)
        row = [rng.randint(0, 10**6) for _ in range(60)]
        path = write_instance(tmp_path / "inst.json", [row], scale=10**6)
        result = run_module(
            ["mms", "--instance", path, "--agent", "1", "--k", "20",
             "--eps", "1/10"],
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert len(payload["witness"]) == 20
        assert 0 < 20 * payload["value"] <= sum(row)

    def test_k_above_agents_and_goods_exits_two(self, tmp_path):
        # A fresh process under a time limit: unbounded, this k built and
        # printed three million bundles and ran past 20 s.
        path = write_instance(tmp_path / "inst.json", [[4, 3]])
        result = run_module(
            ["mms", "--instance", path, "--agent", "1", "--k", "3000000",
             "--exact"],
            timeout=30,
        )
        assert result.returncode == 2
        # max(n, m) = 2 bounds k.
        assert "input error: --k must be at most 2, got 3000000" in result.stderr

    @pytest.mark.parametrize(
        "rows, k", [([[4, 3, 2], [1, 1, 1]], 3), ([[4, 3], [1, 1], [2, 2]], 3)]
    )
    def test_k_at_the_bound_is_answered(self, capsys, tmp_path, rows, k):
        path = write_instance(tmp_path / "inst.json", rows)
        code, out, _ = run_cli(
            capsys,
            ["mms", "--instance", path, "--agent", "1", "--k", str(k), "--exact"],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["witness"]) == k
        assert payload["value"] == (2 if len(rows[0]) == k else 0)

    def test_agent_out_of_range(self, capsys, instance_path):
        code, _, err = run_cli(
            capsys,
            ["mms", "--instance", instance_path, "--agent", "3", "--k", "2", "--exact"],
        )
        assert code == 2
        assert "--agent" in err

    @pytest.mark.parametrize("eps", ["1e5000", "1e-5000"])
    def test_eps_past_the_digit_limit_exits_two(self, capsys, instance_path, eps):
        code, out, err = run_cli(
            capsys,
            ["mms", "--instance", instance_path, "--agent", "1", "--k", "2",
             "--eps", eps],
        )
        assert code == 2 and out == ""
        assert f"--eps has too many digits to print, got {eps!r}" in err

    def test_exact_and_eps_conflict(self, instance_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "mms", "--instance", instance_path,
                    "--agent", "1", "--k", "2", "--exact", "--eps", "1/10",
                ]
            )
        assert info.value.code == 2


class TestGenVerifyExperiment:
    def test_gen_solve_verify_pipeline(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        assert main(["gen", "--n", "3", "--m", "7", "--seed", "5",
                     "--out", str(inst)]) == 0
        assert main(["solve", "--algo", "half", "--instance", str(inst),
                     "--out", str(alloc)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys,
            ["verify", "--instance", str(inst), "--allocation", str(alloc)],
        )
        assert code == 0
        assert out.count(" ok") == 3

    def test_twothirds_ends_on_twenty_agents_and_forty_goods(
        self, capsys, tmp_path
    ):
        # A fresh process under a time limit, so a hang fails this test
        # instead of the suite.  Two goods a bundle made the cover search
        # run without end here until a cover closed on the smallest value
        # that reaches its floor (ROADMAP item 1); each solve now takes
        # about 0.1 s.
        path = str(tmp_path / "inst.json")
        for seed in ("1", "2", "3"):
            argv = ["gen", "--n", "20", "--m", "40", "--seed", seed, "--out", path]
            assert run_cli(capsys, argv)[0] == 0
            result = run_module(
                ["solve", "--algo", "twothirds", "--instance", path, "--eps", "1/10"],
                timeout=5,
            )
            assert result.returncode == 0, result.stderr

    def test_verify_rejects_overstated_certificate(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        main(["gen", "--n", "2", "--m", "6", "--seed", "8", "--out", str(inst)])
        main(["solve", "--algo", "half", "--instance", str(inst), "--out", str(alloc)])
        payload = json.loads(alloc.read_text())
        cert = payload["certificates"][0]
        cert["threshold"] = cert["value"] + 1
        alloc.write_text(json.dumps(payload))
        capsys.readouterr()
        code, _, err = run_cli(
            capsys,
            ["verify", "--instance", str(inst), "--allocation", str(alloc)],
        )
        assert code == 1
        assert "verification failed" in err

    def test_verify_rejects_broken_partition(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        main(["gen", "--n", "2", "--m", "5", "--seed", "3", "--out", str(inst)])
        main(["solve", "--algo", "rr", "--instance", str(inst), "--out", str(alloc)])
        payload = json.loads(alloc.read_text())
        payload["bundles"][0] = payload["bundles"][0][:-1]
        alloc.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys,
            ["verify", "--instance", str(inst), "--allocation", str(alloc)],
        )
        assert code == 2
        assert "input error" in err

    def test_verify_says_whose_thresholds_it_checks(self, capsys, tmp_path):
        # Thresholds of 0 pass any partition: verify checks the file's own
        # thresholds and says so, since it has no way to rebuild them.
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        main(["gen", "--n", "2", "--m", "6", "--seed", "8", "--out", str(inst)])
        main(["solve", "--algo", "half", "--instance", str(inst), "--out", str(alloc)])
        payload = json.loads(alloc.read_text())
        for cert in payload["certificates"]:
            cert["threshold"] = 0
        alloc.write_text(json.dumps(payload))
        capsys.readouterr()
        code, out, err = run_cli(
            capsys,
            ["verify", "--instance", str(inst), "--allocation", str(alloc)],
        )
        assert code == 0
        assert out.count(" >= 0 ok") == 2
        assert err == (
            "checking the allocation file's own thresholds; they are not "
            "rebuilt from the instance\n"
        )

    def test_gen_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--n", "2", "--m", "3", "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == ["n", "m", "scale", "valuations"]

    def test_experiment_csv_file(self, capsys, tmp_path):
        out_path = tmp_path / "stats.csv"
        code, out, _ = run_cli(
            capsys,
            [
                "experiment", "--n", "3", "--m", "8",
                "--trials", "10", "--seed", "7",
                "--out", str(out_path),
            ],
        )
        assert code == 0
        assert "trials succeeded" in out
        header = out_path.read_text().split("\n")[0]
        assert header == "n,m,T,seed,algo,predicate,successes,rate,min_ratio"

    def test_experiment_json_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "experiment", "--n", "2", "--m", "5",
                "--trials", "6", "--seed", "2",
                "--format", "json",
            ],
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["T"] == 6

    def test_negative_seed_exits_two(self, capsys, instance_path):
        for argv in (
            ["gen", "--n", "2", "--m", "3", "--seed", "-5"],
            ["solve", "--algo", "rr-modified", "--seed", "-3",
             "--instance", instance_path],
        ):
            code, out, err = run_cli(capsys, argv)
            assert code == 2 and out == ""
            assert "seed must be at least 0, got -" in err

    def test_experiment_accepts_negative_seed(self, capsys):
        # Trial seeds fold the sign in, so a negative run seed stays valid.
        code, _, _ = run_cli(
            capsys,
            ["experiment", "--n", "2", "--m", "4", "--trials", "3", "--seed", "-3"],
        )
        assert code == 0

    def test_experiment_rejects_bad_config(self, capsys):
        # A repeated flag's last value wins, so each case overrides one.
        good = ["experiment", "--n", "2", "--m", "4", "--trials", "3", "--seed", "1"]
        for bad, fragment in [
            (["--trials", "0"], "trials must be at least 1, got 0"),
            (["--n", "0"], "n must be at least 1, got 0"),
            (["--m", "-1"], "m must be at least 0, got -1"),
        ]:
            code, _, err = run_cli(capsys, good + bad)
            assert code == 2
            assert f"input error: {fragment}" in err


# (n, m, seed, scale) of gen runs, from the least instance to values of 31
# digits.
_GEN_SHAPES = [(1, 0, 0, 1), (1, 1, 3, 10**6), (2, 3, 1, 1), (3, 10, 7, 10**6),
               (5, 40, 11, 10**30)]


@pytest.mark.parametrize("n, m, seed, scale", _GEN_SHAPES)
def test_gen_writes_the_instance_it_draws(capsys, tmp_path, n, m, seed, scale):
    # gen writes each row as it is drawn; the text is the whole instance's.
    expected = instance_to_json(gen_uniform_instance(n, m, seed, scale))
    argv = ["gen", "--n", str(n), "--m", str(m), "--seed", str(seed),
            "--scale", str(scale)]
    assert run_cli(capsys, argv) == (0, expected, "")
    target = tmp_path / "inst.json"
    assert run_cli(capsys, argv + ["--out", str(target)]) == (0, "", "")
    assert target.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be at least 0, got -1"),
    ("--m", "-1", "m must be at least 0, got -1"),
])
def test_refused_gen_writes_nothing(capsys, tmp_path, flag, value, message):
    # Every check runs before the first row is drawn or the file is opened.
    target = tmp_path / "inst.json"
    argv = ["gen", "--n", "2", "--m", "3", "--seed", "1", flag, value]
    for out in ([], ["--out", str(target)]):
        assert run_cli(capsys, argv + out) == (2, "", f"input error: {message}\n")
    assert not target.exists()


def test_gen_holds_one_row_at_a_time(tmp_path):
    # 10^6 values; built as one text, the document peaked at 147 MB.
    result, peak_mb = run_cli_peak(
        ["gen", "--n", "400", "--m", "2500", "--seed", "1",
         "--out", str(tmp_path / "inst.json")]
    )
    assert result.returncode == 0, result.stderr
    assert peak_mb < 40


def test_gen_leaves_no_cyclic_garbage(tmp_path):
    # json.dumps with an indent builds closures that refer to each other.
    argv = ["gen", "--n", "3", "--m", "12", "--seed", "2",
            "--out", str(tmp_path / "inst.json")]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


# Each command without --out; INSTANCE stands for an instance file's path.
_OUT_COMMANDS = {
    "gen": ["gen", "--n", "3", "--m", "7", "--seed", "5"],
    "solve": ["solve", "--algo", "half", "--instance", "INSTANCE"],
    "solve-trace": ["solve", "--algo", "twothirds", "--eps", "1/10",
                    "--trace", "--instance", "INSTANCE"],
    "mms": ["mms", "--instance", "INSTANCE", "--agent", "2", "--k", "3",
            "--exact"],
    "experiment-csv": ["experiment", "--n", "3", "--m", "6", "--trials", "4",
                       "--seed", "9", "--predicate", "mms"],
    "experiment-json": ["experiment", "--n", "3", "--m", "6", "--trials", "4",
                        "--seed", "9", "--format", "json"],
}


@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_out_file_holds_what_stdout_would(capsys, tmp_path, command):
    path = write_instance(tmp_path / "inst.json", BRANCH_ROWS["d"])
    argv = [path if a == "INSTANCE" else a for a in _OUT_COMMANDS[command]]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == "" and out
    target = tmp_path / "out.txt"
    code, _, err = run_cli(capsys, argv + ["--out", str(target)])
    assert code == 0 and err == ""
    assert target.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("algo", ["twothirds", "three78"])
def test_solve_asks_no_share_twice(monkeypatch, capsys, tmp_path, algo):
    # The thresholds ask the exact shares the solver used, and the process
    # memo under mms_exact answers them, so no share is searched twice.
    searches = record_searches(monkeypatch)
    path = write_instance(tmp_path / "inst.json", BRANCH_ROWS["d"])
    code, _, err = run_cli(
        capsys,
        ["solve", "--algo", algo, "--instance", path, "--eps", "1/10",
         "--oracle", "exact"],
    )
    assert code == 0, err
    assert searches
    assert len(searches) == len(set(searches))


class TestHostileFiles:
    ALLOCATION = {
        "bundles": [[2], [1]],
        "certificates": [
            {"agent": 1, "value": 2, "threshold": 2},
            {"agent": 2, "value": 2, "threshold": 2},
        ],
    }

    def verify(self, capsys, tmp_path, allocation):
        inst = write_instance(tmp_path / "inst.json", [[1, 2], [2, 1]])
        alloc = tmp_path / "alloc.json"
        alloc.write_text(
            allocation if isinstance(allocation, str) else json.dumps(allocation)
        )
        return run_cli(
            capsys, ["verify", "--instance", inst, "--allocation", str(alloc)]
        )

    def test_valid_allocation_passes(self, capsys, tmp_path):
        code, out, _ = self.verify(capsys, tmp_path, self.ALLOCATION)
        assert code == 0
        assert out.count(" ok") == 2

    def test_duplicate_certificate_row_exits_two(self, capsys, tmp_path):
        # Two rows for agent 1 and none for agent 2 used to pass: the last
        # row won, and agent 2 was checked against 0.
        rows = [
            {"agent": 1, "value": 9, "threshold": 2},
            {"agent": 1, "value": 9, "threshold": 0},
        ]
        allocation = dict(self.ALLOCATION, certificates=rows)
        code, _, err = self.verify(capsys, tmp_path, allocation)
        assert code == 2
        assert "agent 1 has a second certificate row" in err

    def test_missing_certificate_row_exits_two(self, capsys, tmp_path):
        rows = self.ALLOCATION["certificates"][:1]
        allocation = dict(self.ALLOCATION, certificates=rows)
        code, _, err = self.verify(capsys, tmp_path, allocation)
        assert code == 2
        assert "agent 2 has no certificate row" in err

    def test_certificate_agent_zero_exits_two(self, capsys, tmp_path):
        rows = [dict(row) for row in self.ALLOCATION["certificates"]]
        rows[0]["agent"] = 0
        allocation = dict(self.ALLOCATION, certificates=rows)
        code, _, err = self.verify(capsys, tmp_path, allocation)
        assert code == 2
        assert "certificate agent 0 out of range" in err

    def test_one_bundle_for_two_agents_exits_two(self, capsys, tmp_path):
        allocation = dict(self.ALLOCATION, bundles=[[1, 2]])
        code, _, err = self.verify(capsys, tmp_path, allocation)
        assert code == 2
        assert "allocation has 1 bundles, expected n=2" in err
        # Reported with the other partition faults, before the note.
        assert "checking the allocation file's own thresholds" not in err

    def test_good_listed_twice_in_one_bundle_exits_two(self, capsys, tmp_path):
        # A bundle used to be read as a set, so the repeat vanished and
        # both agents passed.
        allocation = {
            "bundles": [[1, 1], [2]],
            "certificates": [
                {"agent": 1, "value": 1, "threshold": 1},
                {"agent": 2, "value": 1, "threshold": 1},
            ],
        }
        code, out, err = self.verify(capsys, tmp_path, allocation)
        assert (code, out) == (2, "")
        assert err == "input error: good 1 appears twice in bundle 1\n"

    @pytest.mark.parametrize("bundles, message", [
        ([[1, 2], [2, 3]], "good 2 appears in bundles 1 and 2"),
        ([[1, 4], [2, 3]], "good must be at most 3, got 4"),
        ([[1], [2]], "goods missing from allocation: [3]"),
        ([[1, 1], [2, 3]], "good 1 appears twice in bundle 1"),
    ])
    def test_partition_fault_names_goods_and_bundles_as_the_file_does(
        self, capsys, tmp_path, bundles, message
    ):
        # The file counts goods and bundles from 1, and so does each message.
        inst = write_instance(tmp_path / "inst.json", [[1, 2, 3], [3, 2, 1]])
        alloc = tmp_path / "alloc.json"
        rows = [{"agent": i, "value": 0, "threshold": 0} for i in (1, 2)]
        alloc.write_text(json.dumps({"bundles": bundles, "certificates": rows}))
        code, out, err = run_cli(
            capsys, ["verify", "--instance", inst, "--allocation", str(alloc)]
        )
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    def test_misstated_value_fails(self, capsys, tmp_path):
        rows = [dict(row) for row in self.ALLOCATION["certificates"]]
        rows[0]["value"] = 9
        allocation = dict(self.ALLOCATION, certificates=rows)
        code, _, err = self.verify(capsys, tmp_path, allocation)
        assert code == 1
        assert "agent 1: the file states value 9, but the bundle is worth 2\n" in err
        assert "verification failed" in err

    def test_deep_instance_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, _, err = run_cli(
            capsys, ["solve", "--algo", "rr", "--instance", str(path)]
        )
        assert code == 2
        assert "nests too deeply" in err

    def test_deep_allocation_exits_two(self, capsys, tmp_path):
        code, _, err = self.verify(capsys, tmp_path, "[" * 100000)
        assert code == 2
        assert "nests too deeply" in err

    # Bytes that are no UTF-8: a UTF-16 byte order mark, a NUL and an x.
    NOT_UTF8 = b"\xff\xfe\x00x"

    @pytest.mark.parametrize("argv", [
        ["solve", "--algo", "rr"],
        ["mms", "--agent", "1", "--k", "2", "--exact"],
    ])
    def test_non_utf8_instance_exits_two(self, capsys, tmp_path, argv):
        path = tmp_path / "inst.bin"
        path.write_bytes(self.NOT_UTF8)
        code, out, err = run_cli(capsys, argv + ["--instance", str(path)])
        assert (code, out) == (2, "")
        assert "input error: instance file is not UTF-8 text" in err

    def test_non_utf8_allocation_exits_two(self, capsys, tmp_path):
        inst = write_instance(tmp_path / "inst.json", [[1, 2], [2, 1]])
        alloc = tmp_path / "alloc.bin"
        alloc.write_bytes(self.NOT_UTF8)
        code, out, err = run_cli(
            capsys, ["verify", "--instance", inst, "--allocation", str(alloc)]
        )
        assert (code, out) == (2, "")
        assert "input error: allocation file is not UTF-8 text" in err

    def test_overlong_integer_exits_two(self, capsys, tmp_path):
        # json.loads refuses integers of more than 4300 digits with a
        # plain ValueError.
        path = tmp_path / "inst.json"
        path.write_text(
            '{"n": 1, "m": 1, "scale": 1, "valuations": [[' + "1" * 5000 + "]]}"
        )
        code, _, err = run_cli(
            capsys, ["solve", "--algo", "rr", "--instance", str(path)]
        )
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--algo", "rr"], ["mms", "--agent", "1", "--k", "1", "--exact"]],
    )
    def test_row_total_past_the_digit_limit_exits_two(self, capsys, tmp_path, argv):
        # Each value has 4300 digits, the most json.loads reads, so the file
        # loads; the row's total has 4301, and a bundle worth it cannot print.
        big = int("9" * 4300)
        path = write_instance(tmp_path / "inst.json", [[big, big]])
        code, out, err = run_cli(capsys, [*argv, "--instance", path])
        assert (code, out) == (2, "")
        assert "input error: valuation row 0 totals too many digits" in err

    @pytest.mark.parametrize("field", ["n", "m", "scale"])
    def test_bool_instance_field_exits_two(self, capsys, tmp_path, field):
        payload = {"n": 1, "m": 1, "scale": 1, "valuations": [[5]]}
        payload[field] = True
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, ["solve", "--algo", "rr", "--instance", str(path)]
        )
        assert code == 2
        assert f"input error: {field} must be an integer, got True" in err

    def test_bool_good_exits_two(self, capsys, tmp_path):
        allocation = dict(self.ALLOCATION, bundles=[[2], [True]])
        code, _, err = self.verify(capsys, tmp_path, allocation)
        assert code == 2
        assert "good index True" in err

    def test_valuations_that_are_no_list_of_lists_exit_two(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        payload = {"n": 2, "m": 2, "scale": 1, "valuations": [[1, 2], 5]}
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(
            capsys, ["solve", "--algo", "rr", "--instance", str(path)]
        )
        message = "instance valuations must be a list of lists"
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    NO_BUNDLES = "allocation file must be a JSON object with a 'bundles' key"

    @pytest.mark.parametrize("allocation, message", [
        pytest.param([], NO_BUNDLES, id="list"),
        pytest.param({"certificates": []}, NO_BUNDLES, id="no-bundles"),
        pytest.param(
            dict(ALLOCATION, bundles=[[1], 2]),
            "allocation bundles must be a list of lists", id="int-bundle",
        ),
        pytest.param(
            dict(ALLOCATION, certificates=[{"agent": 1, "value": 1}]),
            "malformed certificate row: {'agent': 1, 'value': 1}", id="short-row",
        ),
        pytest.param(
            dict(ALLOCATION, certificates=[5]), "malformed certificate row: 5",
            id="int-row",
        ),
    ])
    def test_malformed_allocation_file_exits_two(
        self, capsys, tmp_path, allocation, message
    ):
        code, out, err = self.verify(capsys, tmp_path, allocation)
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    def test_certificates_that_are_no_list_exit_two(self, capsys, tmp_path):
        allocation = dict(self.ALLOCATION, certificates=5)
        code, _, err = self.verify(capsys, tmp_path, allocation)
        assert code == 2
        assert "certificates must be a list" in err

    @pytest.mark.parametrize(
        "field, value",
        [("threshold", 2.5), ("threshold", "2"), ("agent", True), ("value", 2.0)],
    )
    def test_non_integer_certificate_field_exits_two(
        self, capsys, tmp_path, field, value
    ):
        # A threshold of 2.5 read as 2 would pass a bundle worth 2.
        rows = [dict(row) for row in self.ALLOCATION["certificates"]]
        rows[0][field] = value
        allocation = dict(self.ALLOCATION, certificates=rows)
        code, _, err = self.verify(capsys, tmp_path, allocation)
        assert code == 2
        assert "malformed certificate row" in err


def test_main_leaves_no_parser_garbage(capsys, instance_path):
    argv = ["solve", "--algo", "rr", "--instance", instance_path]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        kinds = {type(obj) for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert not [kind for kind in kinds if kind.__module__ == "argparse"]


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["allocate"])
    assert info.value.code == 2


def test_console_script_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    result = run_module(
        ["gen", "--n", "2", "--m", "4", "--seed", "6", "--out", str(inst)]
    )
    assert result.returncode == 0, result.stderr
    result = run_module(["solve", "--algo", "rr", "--instance", str(inst)])
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert len(payload["bundles"]) == 2


# Value ranges for the fuzzed files: small, uniform, three-valued, and
# 4300 digits, the longest integer json.loads reads.
_FUZZ_VALUES = (
    st.integers(0, 10),
    st.integers(0, 10**6),
    st.integers(0, 2),
    st.sampled_from([10**4299, 10**4300 - 1]),
)
_HOSTILE_VALUES = st.sampled_from([-1, True, 1.5, "3", None, [1]])
_FUZZ_FAULTS = [None, None, None, None, "value", "n", "m", "scale", "shape"]
_FUZZ_COMMANDS = [
    ["solve", "--algo", "rr"],
    ["solve", "--algo", "rr-modified"],
    ["solve", "--algo", "half"],
    ["solve", "--algo", "twothirds", "--eps"],
    ["solve", "--algo", "three78", "--eps"],
    ["solve", "--algo", "ternary"],
    ["mms", "--exact"],
    ["mms", "--eps"],
]
# --eps text: fractions and decimals, in range and not, exponent forms
# with exponents up to 10**8 either way, zero, negatives, values at or past
# each bound (1/3, 7/8, 1), and text that is no rational.
_FUZZ_EPS = st.one_of(
    st.builds("{}/{}".format, st.integers(1, 99), st.integers(100, 10**6)),
    st.builds("{}/{}".format, st.integers(0, 10**6), st.integers(1, 10**6)),
    st.from_regex(r"\A[-+]?[0-9]{0,2}\.[0-9]{1,6}\Z"),
    st.builds(
        "{}e{}".format,
        st.from_regex(r"\A[-+]?[0-9]{1,3}(\.[0-9]{0,3})?\Z"),
        st.one_of(
            st.integers(-9, 1),
            st.sampled_from([-10**8, -4301, -4299, 4299, 4300, 10**8]),
            st.integers(-10**8, 10**8),
        ),
    ),
    st.sampled_from(["0", "-1/10", "-0.5", "1/3", "7/8", "1", "2", "10e-1"]),
    st.sampled_from(["", "abc", "1/0", "0/0", "1//2", "1e", "e5", "inf", "nan"]),
    st.text(max_size=8),
)
#: Seconds any one fuzzed run may take; the slowest seen takes well under 1.
_FUZZ_RUN_LIMIT = 5


@st.composite
def fuzzed_runs(draw, commands=_FUZZ_COMMANDS, faults=_FUZZ_FAULTS):
    """A command line from commands and the text of the instance file it
    reads.  The file is valid, or has one fault from faults: in a value, in
    n or m, in the scale, or in not being a JSON object.  mms asks for an
    agent and a k that are in range three times in four."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 10))
    values = draw(st.sampled_from(_FUZZ_VALUES))
    rows = [[draw(values) for _ in range(m)] for _ in range(n)]
    payload = {"n": n, "m": m, "scale": 1, "valuations": rows}
    fault = draw(st.sampled_from(faults))
    if fault == "value" and m:
        row = rows[draw(st.integers(0, n - 1))]
        row[draw(st.integers(0, m - 1))] = draw(_HOSTILE_VALUES)
    elif fault in ("n", "m"):
        payload[fault] += draw(st.sampled_from([-1, 1, -payload[fault] - 1]))
    elif fault == "scale":
        payload["scale"] = draw(st.sampled_from([0, -1, True, 1.5, "1", None]))
    elif fault == "shape":
        payload = draw(st.sampled_from([[], 3, "instance", None, [payload]]))
    argv = list(draw(st.sampled_from(commands)))
    if argv[-1] == "--eps":
        # One argument, so text that starts with "-" is not read as a flag.
        argv[-1] = f"--eps={draw(_FUZZ_EPS)}"
    if argv[0] == "solve" and draw(st.booleans()):
        argv.append("--trace")
    if argv[0] == "mms":
        for flag, top in (("--agent", n), ("--k", max(n, m))):
            inside = st.integers(1, top)
            outside = st.sampled_from([0, top + 1])
            argv += [flag, str(draw(st.one_of(inside, inside, inside, outside)))]
    return argv, json.dumps(payload)


@st.composite
def fuzzed_verify_runs(draw):
    """The exit code verify must give, and a run of it on a valid instance
    file and the text of an allocation file for it.  Its bundles partition
    goods 1..m and its certificate rows state each bundle's value, until up
    to two faults of each kind are drawn: a good added that is a bool, a
    float, 0, m + 1 or a repeat; a certificate agent set or added that is 0,
    n + 1 or a repeat.  The code is 2 when a fault survives: any added good,
    or certificate agents that are not 1..n once each.  Otherwise it is 1
    when a row states a value other than its bundle's or a threshold above
    it, else 0."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 8))
    rows = [[draw(st.integers(0, 10)) for _ in range(m)] for _ in range(n)]
    owners = [draw(st.integers(0, n - 1)) for _ in range(m)]
    bundles = [[g + 1 for g in range(m) if owners[g] == i] for i in range(n)]
    certificates = [
        {"agent": i + 1, "value": sum(rows[i][g - 1] for g in bundle),
         "threshold": draw(st.integers(0, 12))}
        for i, bundle in enumerate(bundles)
    ]
    values = [certificate["value"] for certificate in certificates]
    added = draw(st.integers(0, 2))
    for _ in range(added):
        bundle = bundles[draw(st.integers(0, n - 1))]
        good = draw(st.sampled_from(
            [True, False, 1.0, 2.5, 0, m + 1, *range(1, m + 1)]
        ))
        bundle.insert(draw(st.integers(0, len(bundle))), good)
    for _ in range(draw(st.integers(0, 2))):
        row = certificates[draw(st.integers(0, n - 1))]
        agent = draw(st.sampled_from([0, n + 1, *range(1, n + 1)]))
        if draw(st.booleans()):
            certificates.append(dict(row, agent=agent))
        else:
            row["agent"] = agent
    instance = {"n": n, "m": m, "scale": 1, "valuations": rows}
    allocation = {"bundles": bundles, "certificates": certificates}
    agents = sorted(row["agent"] for row in certificates)
    if added or agents != list(range(1, n + 1)):
        code = 2
    else:
        fails = [row["value"] != values[row["agent"] - 1]
                 or row["threshold"] > row["value"] for row in certificates]
        code = 1 if any(fails) else 0
    return code, (["verify"], json.dumps(instance), json.dumps(allocation))


def run_fuzzed(tmp_path, run) -> int:
    """The exit code of one fuzzed run, checked to take under
    _FUZZ_RUN_LIMIT seconds.  A run of verify carries its allocation file's
    text third."""
    argv, text, *allocation = run
    path = tmp_path / "inst.json"
    path.write_text(text)
    if allocation:
        alloc = tmp_path / "alloc.json"
        alloc.write_text(allocation[0])
        argv = [*argv, "--allocation", str(alloc)]
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--instance", str(path)])
    elapsed = time.perf_counter() - started
    assert elapsed < _FUZZ_RUN_LIMIT, (argv, text[:200], elapsed)
    return code


@settings(
    max_examples=300, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(run=fuzzed_runs())
def test_fuzzed_files_and_commands_exit_zero_one_or_two(tmp_path, run):
    assert run_fuzzed(tmp_path, run) in (0, 1, 2), run


@settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(run=fuzzed_runs(
    commands=[argv for argv in _FUZZ_COMMANDS if "--eps" in argv], faults=[None],
))
def test_fuzzed_eps_on_valid_files_exits_zero_or_two(tmp_path, run):
    # A valid file, so every fuzzed eps reaches the solver or its own error.
    assert run_fuzzed(tmp_path, run) in (0, 2), run


@settings(
    max_examples=200, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=fuzzed_verify_runs())
def test_fuzzed_allocation_files_exit_zero_one_or_two(tmp_path, case):
    # Item 8 of ROADMAP: verify over goods and certificate agents that are
    # no index, or repeat one, gives the one exit code each file calls for.
    code, run = case
    assert run_fuzzed(tmp_path, run) == code, run
