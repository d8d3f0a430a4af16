"""Fresh interpreters: no command imports numpy, ``dataclasses`` or
``inspect``, and every command runs the same under ``python -O`` and with
warnings turned into errors.

Each test runs CLI commands through ``cli.main`` in a fresh interpreter,
because this test session may have imported numpy itself and runs in one
mode only.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
from mmsalloc import cli
on_import = sorted(set(sys.modules) - before)
codes, outs = [], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(cli.main(argv))
    outs.append(out.getvalue())
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "outs": outs, "on_import": on_import,
               "on_run": sorted(set(sys.modules) - before)}, fh)
"""


def run_fresh(tmp_path, commands, flags=()):
    """Run each argv list through ``cli.main`` in one new interpreter,
    started with the interpreter options flags, and return the exit codes,
    each command's stdout and the modules the package loaded: a dict of
    the names new after ``import mmsalloc.cli`` ("on_import") and after
    the last command ("on_run")."""
    report = tmp_path / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, *flags, "-c", CHILD, json.dumps(commands), str(report)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Warning" not in result.stderr, result.stderr
    got = json.loads(report.read_text())
    return got["codes"], got["outs"], {
        "on_import": set(got["on_import"]), "on_run": set(got["on_run"])
    }


def common_commands(tmp_path):
    inst = str(tmp_path / "inst.json")
    alloc = str(tmp_path / "alloc.json")
    solve = ["solve", "--instance", inst, "--algo"]
    return [
        ["gen", "--n", "3", "--m", "8", "--seed", "11", "--out", inst],
        ["mms", "--instance", inst, "--agent", "2", "--k", "3", "--exact"],
        solve + ["rr", "--out", alloc],
        solve + ["rr-modified", "--seed", "2"],
        solve + ["half"],
        solve + ["twothirds", "--eps", "1/10"],
        solve + ["three78", "--eps", "1/10"],
        ["verify", "--instance", inst, "--allocation", alloc],
        ["experiment", "--n", "3", "--m", "6", "--trials", "4", "--seed", "5"],
    ]


def test_common_commands_leave_numpy_unloaded(tmp_path):
    codes, _, loaded = run_fresh(tmp_path, common_commands(tmp_path))
    assert codes == [0] * 9
    assert "numpy" not in loaded["on_run"]


def test_records_leave_dataclasses_and_inspect_unloaded(tmp_path):
    # Each of these takes milliseconds to import, at every command's start.
    commands = common_commands(tmp_path)
    codes, _, loaded = run_fresh(tmp_path, commands)
    assert codes == [0] * len(commands)
    for when in ("on_import", "on_run"):
        assert {"dataclasses", "inspect"}.isdisjoint(loaded[when]), when


def test_ternary_solver_leaves_numpy_unloaded_and_keeps_its_output(tmp_path):
    inst = tmp_path / "tern.json"
    inst.write_text(json.dumps({
        "n": 3, "m": 6, "scale": 1,
        "valuations": [[2, 1, 0, 2, 1, 1], [1, 1, 1, 2, 2, 0], [2, 2, 2, 1, 0, 0]],
    }))
    codes, outs, loaded = run_fresh(
        tmp_path, [["solve", "--algo", "ternary", "--instance", str(inst)]]
    )
    assert codes == [0]
    assert "numpy" not in loaded["on_run"]
    assert json.loads(outs[0]) == {
        "bundles": [[2, 5], [3, 4], [1, 6]],
        "certificates": [
            {"agent": 1, "value": 2, "threshold": 2},
            {"agent": 2, "value": 3, "threshold": 2},
            {"agent": 3, "value": 2, "threshold": 2},
        ],
    }


def test_optimised_and_strict_interpreters_match_the_plain_one(tmp_path):
    # The guarantee checks raise instead of asserting, so -O keeps them;
    # -X dev with -W error turns any warning, a resource one included, into
    # an error.  The paths are relative, so each mode works in its own
    # directory and the outputs can be compared as they are.
    solve = ["solve", "--instance", "inst.json", "--algo"]
    commands = [
        ["gen", "--n", "3", "--m", "9", "--seed", "4"],
        ["gen", "--n", "3", "--m", "9", "--seed", "4", "--out", "inst.json"],
        ["gen", "--n", "3", "--m", "7", "--seed", "4", "--scale", "2",
         "--out", "tern.json"],
        solve + ["rr", "--out", "alloc.json"],
        solve + ["rr-modified", "--seed", "3"],
        solve + ["half"],
        solve + ["twothirds", "--eps", "1/10", "--trace"],
        solve + ["twothirds", "--eps", "1/10", "--oracle", "exact"],
        solve + ["three78", "--eps", "1/10"],
        ["solve", "--instance", "tern.json", "--algo", "ternary"],
        ["mms", "--instance", "inst.json", "--agent", "2", "--k", "3", "--exact"],
        ["mms", "--instance", "inst.json", "--agent", "1", "--k", "2",
         "--eps", "1/10"],
        ["verify", "--instance", "inst.json", "--allocation", "alloc.json"],
        ["experiment", "--n", "3", "--m", "6", "--trials", "4", "--seed", "5"],
        ["experiment", "--n", "2", "--m", "5", "--trials", "3", "--seed", "1",
         "--predicate", "mms", "--format", "json"],
        solve + ["twothirds"],
    ]
    runs = {}
    for mode, flags in (("plain", ()), ("optimised", ("-O",)),
                        ("strict", ("-X", "dev", "-W", "error"))):
        (tmp_path / mode).mkdir()
        codes, outs, _ = run_fresh(tmp_path / mode, commands, flags)
        runs[mode] = codes, outs
    assert runs["plain"][0] == [0] * (len(commands) - 1) + [2]
    assert runs["optimised"] == runs["plain"]
    assert runs["strict"] == runs["plain"]
