"""Fresh interpreters: a bare ``import mmsalloc`` executes no package module
and serves every public name from its home module, each command executes
only the package modules it runs, none imports numpy, ``dataclasses`` or
``inspect``, every command runs the same under ``python -O`` and with
warnings turned into errors, and the benchmark's tracer still wraps every
solver.

Each test runs CLI commands through ``cli.main`` in a fresh interpreter,
because this test session may have imported numpy itself, has executed
every module of the package, and runs in one mode only.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mmsalloc.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CHILD = """
import contextlib, io, json, sys, types
def executed():
    # A module the package registered lazily is of another type until its
    # first use executes it.
    return sorted(name for name, module in sys.modules.items()
                  if name.split(".")[0] == "mmsalloc"
                  and type(module) is types.ModuleType)
before = set(sys.modules)
from mmsalloc import cli
on_import, executed_on_import = sorted(set(sys.modules) - before), executed()
codes, outs = [], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(cli.main(argv))
    outs.append(out.getvalue())
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "outs": outs, "on_import": on_import,
               "on_run": sorted(set(sys.modules) - before),
               "executed_on_import": executed_on_import,
               "executed_on_run": executed()}, fh)
"""


def run_child(tmp_path, code, args, flags=()):
    """Run the Python source code in a new interpreter, started with the
    interpreter options flags, with args and a report path as its
    arguments, and return the JSON it writes to that path."""
    report = tmp_path / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, *flags, "-c", code, *args, str(report)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Warning" not in result.stderr, result.stderr
    return json.loads(report.read_text())


def run_fresh(tmp_path, commands, flags=()):
    """Run each argv list through ``cli.main`` in one new interpreter,
    started with the interpreter options flags, and return the exit codes,
    each command's stdout and the package's modules: a dict of the modules
    new after ``import mmsalloc.cli`` ("on_import") and after the last
    command ("on_run"), and of the package modules executed by then
    ("executed_on_import", "executed_on_run")."""
    got = run_child(tmp_path, CHILD, [json.dumps(commands)], flags)
    return got["codes"], got["outs"], {
        key: set(got[key])
        for key in ("on_import", "on_run", "executed_on_import", "executed_on_run")
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
    # an error.  The last three commands are input errors; that each mode
    # exits 2 on them shows the input checks raise, not assert.  The paths
    # are relative, so each mode works in its own directory and the outputs
    # can be compared as they are.
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
        ["gen", "--n", "0", "--m", "3", "--seed", "4"],
        ["experiment", "--n", "2", "--m", "4", "--trials", "0", "--seed", "1"],
    ]
    runs = {}
    for mode, flags in (("plain", ()), ("optimised", ("-O",)),
                        ("strict", ("-X", "dev", "-W", "error"))):
        (tmp_path / mode).mkdir()
        codes, outs, _ = run_fresh(tmp_path / mode, commands, flags)
        runs[mode] = codes, outs
    assert runs["plain"][0] == [0] * (len(commands) - 3) + [2, 2, 2]
    assert runs["optimised"] == runs["plain"]
    assert runs["strict"] == runs["plain"]


#: The package modules each command executes beyond those that
#: ``import mmsalloc.cli`` executes.
EXECUTES = {
    "gen": {"experiments"},
    "mms": set(),
    "rr": {"round_robin"},
    "rr-modified": {"round_robin"},
    "half": {"half", "round_robin"},
    "twothirds": {"two_thirds", "matching"},
    "three78": {"three_agents"},
    "ternary": {"ternary"},
    "verify": set(),
    "experiment": {"experiments", "round_robin"},
}


def _package(names):
    return {f"mmsalloc.{name}" for name in names}


def write_instances(tmp_path):
    """Paths of a 3x8 instance and of a 3x7 one valued in {0, 1, 2}, each
    written by ``gen`` in this process."""
    inst, tern = str(tmp_path / "inst.json"), str(tmp_path / "tern.json")
    assert main(["gen", "--n", "3", "--m", "8", "--seed", "11", "--out", inst]) == 0
    assert main(["gen", "--n", "3", "--m", "7", "--seed", "4", "--scale", "2",
                 "--out", tern]) == 0
    return inst, tern


@pytest.mark.parametrize("command", EXECUTES)
def test_each_command_executes_only_the_modules_it_runs(tmp_path, command):
    inst, tern = write_instances(tmp_path)
    alloc = str(tmp_path / "alloc.json")
    assert main(["solve", "--instance", inst, "--algo", "rr", "--out", alloc]) == 0
    argv = {
        "gen": ["gen", "--n", "3", "--m", "8", "--seed", "1"],
        "mms": ["mms", "--instance", inst, "--agent", "2", "--k", "3", "--exact"],
        "verify": ["verify", "--instance", inst, "--allocation", alloc],
        "experiment": ["experiment", "--n", "3", "--m", "6", "--trials", "4",
                       "--seed", "5"],
        "ternary": ["solve", "--instance", tern, "--algo", "ternary"],
    }.get(command, ["solve", "--instance", inst, "--algo", command])
    if command in ("twothirds", "three78"):
        argv += ["--eps", "1/10"]
    codes, _, loaded = run_fresh(tmp_path, [argv])
    assert codes == [0]
    on_import = _package(("cli", "core", "oracle")) | {"mmsalloc"}
    assert loaded["executed_on_import"] == on_import
    assert loaded["executed_on_run"] - on_import == _package(EXECUTES[command])


#: ``mmsalloc.__all__`` as it stood when ``import mmsalloc`` executed
#: ``core`` and ``oracle`` and kept three lists of names, less the deleted
#: ``Allocation`` (an allocation is a bare partition tuple) and
#: ``ShareOracle``, whose place ``share`` takes.
PUBLIC_NAMES = [
    "Certificate", "EXACT_ITEM_CAP", "GuaranteeError",
    "InputError", "Instance", "MaximinCertificate", "PartitionError",
    "PreferenceGraph", "TrialConfig", "TrialStats",
    "XPlusDecomposition", "allocation_from_json", "allocation_to_json",
    "apx_3_mms", "apx_mms", "apx_mms_half", "build_preference_graph",
    "bundle_value", "compute_x_plus", "exact_mms_012", "gen_uniform_instance",
    "greedy_floor", "greedy_round_robin", "instance_from_json",
    "instance_to_json", "load_allocation", "load_instance", "maximum_matching",
    "mms_approx", "mms_exact", "modified_greedy_round_robin", "report_text",
    "rho", "run_existence_trials", "save_instance", "share",
    "verify_allocation", "xi_vector", "__version__",
]


def after_bare_import(tmp_path, code):
    """What the Python source code sets ``got`` to, run in a new interpreter
    right after a bare ``import mmsalloc``."""
    child = f"import json, sys, types\nimport mmsalloc\n{code}\n" \
        "with open(sys.argv[1], 'w') as fh:\n    json.dump(got, fh)\n"
    return run_child(tmp_path, child, [])


def test_bare_import_executes_no_package_module(tmp_path):
    got = after_bare_import(tmp_path, (
        "got = sorted(name for name, module in sys.modules.items()\n"
        "             if name.split('.')[0] == 'mmsalloc'\n"
        "             and type(module) is types.ModuleType)"
    ))
    assert got == ["mmsalloc"]


def test_public_names_are_unchanged(tmp_path):
    assert after_bare_import(tmp_path, "got = mmsalloc.__all__") == PUBLIC_NAMES


def test_each_public_name_is_the_object_of_its_home_module(tmp_path):
    # Each name is looked up on the package first, then on each module of
    # the package that binds it: its defining module, and any that imports it.
    got = after_bare_import(tmp_path, """
import importlib, pkgutil
public = {name: getattr(mmsalloc, name) for name in mmsalloc.__all__[:-1]}
modules = [importlib.import_module(f"mmsalloc.{info.name}")
           for info in pkgutil.iter_modules(mmsalloc.__path__)]
got = {}
for name, obj in public.items():
    holders = {m.__name__: vars(m)[name] is obj for m in modules if name in vars(m)}
    home = getattr(obj, "__module__", next(iter(holders), None))
    got[name] = [home in holders, all(holders.values())]
""")
    assert got == {name: [True, True] for name in PUBLIC_NAMES[:-1]}


def test_star_import_binds_every_public_name(tmp_path):
    got = after_bare_import(tmp_path, (
        "namespace = {}\nexec('from mmsalloc import *', namespace)\n"
        "got = [name for name in mmsalloc.__all__\n"
        "       if namespace.get(name) is not getattr(mmsalloc, name)]"
    ))
    assert got == []


def test_an_unknown_name_is_an_attribute_error(tmp_path):
    got = after_bare_import(tmp_path, (
        "try:\n    mmsalloc.nope\nexcept AttributeError as error:\n"
        "    got = str(error)"
    ))
    assert got == "module 'mmsalloc' has no attribute 'nope'"


TRACED_CHILD = """
import contextlib, importlib.util, io, json, sys
from mmsalloc import cli, core, oracle
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
traced = tracer.Tracer()
tracer.install(traced)
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
with open(sys.argv[3], "w") as fh:
    json.dump({"codes": codes, "spans": sorted({span[0] for span in traced.spans})},
              fh)
"""


def test_bench_tracer_wraps_every_solver_of_a_fresh_worker(tmp_path):
    # The traced benchmark imports what its worker imports, then wraps each
    # function bench/tracer.py names at its home module, which it looks up
    # in sys.modules; the solver modules are not executed by then.
    inst, tern = write_instances(tmp_path)
    commands = [
        ["solve", "--instance", tern if algo == "ternary" else inst, "--algo", algo]
        + (["--eps", "1/10"] if algo in ("twothirds", "three78") else [])
        for algo in ("rr", "rr-modified", "half", "twothirds", "three78", "ternary")
    ]
    got = run_child(tmp_path, TRACED_CHILD,
                    [str(ROOT / "bench" / "tracer.py"), json.dumps(commands)])
    assert got["codes"] == [0] * len(commands)
    assert {
        "two_thirds.apx_mms", "three_agents.apx_3_mms", "half.apx_mms_half",
        "round_robin.greedy_round_robin", "ternary.exact_mms_012",
    } <= set(got["spans"])
