"""Instance and allocation data model, verification, and file formats."""

import argparse
import ast
import doctest
import importlib
import importlib.util
import json
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmsalloc
import mmsalloc.cli as cli
import mmsalloc.core as core
import mmsalloc.oracle as oracle
from helpers import first_bad_value, instances, is_partition, run_python
from mmsalloc import (
    Certificate,
    InputError,
    Instance,
    PartitionError,
    allocation_from_json,
    allocation_to_json,
    bundle_value,
    instance_from_json,
    instance_to_json,
    load_allocation,
    load_instance,
    save_instance,
    verify_allocation,
)


def test_module_doctests():
    result = doctest.testmod(core)
    assert result.failed == 0


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


class TestInstance:
    def test_from_rows_shape(self):
        inst = Instance.from_rows([[1, 2, 3], [4, 5, 6]])
        assert inst.n == 2 and inst.m == 3 and inst.scale == 1
        assert list(inst.agents) == [0, 1]
        assert list(inst.goods) == [0, 1, 2]
        assert inst.row(1) == (4, 5, 6)

    def test_rejects_negative_value(self):
        with pytest.raises(InputError):
            Instance.from_rows([[1, -2]])

    def test_rejects_non_integer_value(self):
        with pytest.raises(InputError):
            Instance.from_rows([[1, 2.5]])

    def test_rejects_bool_and_numpy_scalars(self):
        import numpy as np

        with pytest.raises(InputError):
            Instance.from_rows([[True, False]])
        with pytest.raises(InputError):
            Instance.from_rows([[np.int64(1), np.int64(2)]])
        with pytest.raises(InputError):
            Instance.from_rows(np.array([[1, 2], [3, 4]]))

    def test_rejects_ragged_rows(self):
        with pytest.raises(InputError):
            Instance.from_rows([[1, 2], [3]])

    def test_rejects_bad_scale(self):
        with pytest.raises(InputError):
            Instance.from_rows([[1]], scale=0)

    def test_zero_goods_allowed(self):
        inst = Instance.from_rows([[], []])
        assert inst.m == 0

    @pytest.mark.parametrize("field, value", [("n", 2.0), ("scale", 1.5), ("m", True)])
    def test_rejects_fields_that_are_no_ints(self, field, value):
        fields = {"n": 2, "m": 2, "scale": 1, "valuations": ((1, 2), (3, 4))}
        fields[field] = value
        with pytest.raises(InputError) as caught:
            Instance(**fields)
        assert str(caught.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize("valuations", [None, (None,)], ids=["None", "(None,)"])
    def test_rejects_valuations_that_are_no_rows(self, valuations):
        with pytest.raises(InputError, match="^valuations must be a sequence of rows$"):
            Instance(1, 1, 1, valuations)

    @pytest.mark.parametrize("rows", [None, 5, [None]], ids=["None", "5", "[None]"])
    def test_from_rows_rejects_what_is_no_rows(self, rows):
        with pytest.raises(InputError, match="^valuations must be a sequence of rows$"):
            Instance.from_rows(rows)

    def test_from_rows_takes_any_iterable_of_rows(self):
        inst = Instance.from_rows(iter([[1, 2], [3, 4]]))
        assert inst == Instance.from_rows([[1, 2], [3, 4]])

    def test_keeps_its_rows_as_tuples(self):
        rows = [[1, 2]]
        inst = Instance(1, 2, 1, rows)
        rows[0][0] = 7
        assert inst.valuations == ((1, 2),)
        assert inst == Instance.from_rows([[1, 2]])
        assert hash(inst) == hash(Instance.from_rows([[1, 2]]))


# Valid values, including ints past 2**64, mixed with each kind of bad one.
_ROW_VALUES = st.one_of(
    st.integers(0, 10**6),
    st.integers(2**64, 2**70),
    st.integers(-(2**70), -1),
    st.booleans(),
    st.floats(allow_nan=False),
    st.integers(0, 9).map(np.int64),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(row=st.one_of(
    st.lists(st.integers(0, 2**70), max_size=12),
    st.lists(_ROW_VALUES, max_size=12),
))
def test_row_validators_agree_with_the_per_value_loop(row):
    # The one row check accepts exactly the rows the old loop accepts, and
    # on the others both validators name the loop's first bad position.
    bad = first_bad_value(row)
    if bad is None:
        core.check_values(row, "value at position {j}")
        assert Instance.from_rows([row]).row(0) == tuple(row)
        assert oracle._validated_values(row, 1) == tuple(row)
        return
    j, what = bad
    with pytest.raises(InputError) as caught:
        core.check_values(row, "valuation[{i}][{j}]", 4)
    assert str(caught.value) == f"valuation[4][{j}] {what}"
    with pytest.raises(InputError) as caught:
        Instance.from_rows([[0] * len(row), row])
    assert str(caught.value) == f"valuation[1][{j}] {what}"
    with pytest.raises(InputError) as caught:
        oracle._validated_values(row, 1)
    assert str(caught.value) == f"value at position {j} {what}"


def _trials(**fields):
    config = {"n": 2, "m": 3, "trials": 2, "seed": 0, "scale": 10**4, **fields}
    return mmsalloc.run_existence_trials(mmsalloc.TrialConfig(**config))


# Each entry point that takes a count: a call with one field replaced, and
# each field's least value (None: any int, as a trial run's seed may be
# negative).
_COUNT_FIELDS = {
    "Instance": (
        lambda **f: Instance(**{"n": 1, "m": 1, "scale": 1, "valuations": ((5,),), **f}),
        {"n": 1, "m": 0, "scale": 1},
    ),
    "gen_uniform_instance": (
        lambda **f: mmsalloc.gen_uniform_instance(**{"n": 2, "m": 3, "seed": 0, **f}),
        {"n": 1, "m": 0, "seed": 0, "scale": 1},
    ),
    "run_existence_trials": (
        _trials, {"n": 1, "m": 0, "trials": 1, "seed": None, "scale": 10**4}
    ),
    # The mms predicate compares m with the exact search's cap.
    "run_existence_trials(mms)": (
        lambda **f: _trials(predicate="mms", **f), {"m": 0}
    ),
    "mms_exact": (lambda k: mmsalloc.mms_exact([1, 2], k), {"k": 1}),
    "mms_approx": (lambda k: mmsalloc.mms_approx([1, 2], k, "1/2"), {"k": 1}),
    "greedy_floor": (lambda k: mmsalloc.greedy_floor([1, 2], k), {"k": 1}),
    "modified_greedy_round_robin": (
        lambda seed: mmsalloc.modified_greedy_round_robin(
            Instance.from_rows([[1, 2]]), seed
        ),
        {"seed": 0},
    ),
    "rho": (lambda n: mmsalloc.rho(n), {"n": 2}),
    "PreferenceGraph": (
        lambda **f: mmsalloc.PreferenceGraph(
            **{"n_left": 1, "n_right": 1, "adj": ((0,),), **f}
        ),
        {"n_left": 0, "n_right": 0},
    ),
    "color_rows": (lambda k: mmsalloc.ternary.color_rows(k, []), {"k": 0}),
    "trial_seed": (
        lambda **f: mmsalloc.experiments.trial_seed(**{"seed": 0, "t": 0, **f}),
        {"seed": None, "t": 0},
    ),
}

_BAD_COUNTS = [
    pytest.param(entry, field, value, least, id=f"{entry}-{field}-{value!r}")
    for entry, (_, leasts) in _COUNT_FIELDS.items()
    for field, least in leasts.items()
    for value in [2.0, "2", None, True] + ([] if least is None else [least - 1])
]


@pytest.mark.parametrize("entry, field, value, least", _BAD_COUNTS)
def test_every_count_is_an_int_of_at_least_its_least_value(entry, field, value, least):
    # One rule, core.check_count, for every size, count and seed.
    call = _COUNT_FIELDS[entry][0]
    if type(value) is int:
        message = f"{field} must be at least {least}, got {value}"
    else:
        message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(InputError) as caught:
        call(**{field: value})
    assert str(caught.value) == message


_SQUARE = Instance.from_rows([[1, 2], [3, 4]])


def _mms(agent=1, k=1):
    """cli.cmd_mms on the 2x2 instance, which raises what main reports."""
    with TemporaryDirectory() as folder:
        path = Path(folder) / "inst.json"
        path.write_text(instance_to_json(_SQUARE))
        args = argparse.Namespace(
            instance=str(path), agent=agent, k=k, exact=True, eps=None, out=None
        )
        return cli.cmd_mms(args)


# Each entry point that takes an index: a call with the index replaced, the
# field its message names, the index's least and most value, and the error
# it raises.  Goods of an allocation break the partition.
_SQUARE_GRAPH = mmsalloc.PreferenceGraph(2, 2, ((0,), (1,)))
_INDEX_FIELDS = {
    "Instance.row": (_SQUARE.row, "agent", 0, 1, InputError),
    "bundle_value-agent": (
        lambda v: bundle_value(_SQUARE, v, [0]), "agent", 0, 1, InputError
    ),
    "bundle_value-good": (
        lambda v: bundle_value(_SQUARE, 0, [v]), "good", 0, 1, InputError
    ),
    "verify_allocation": (
        lambda v: verify_allocation(_SQUARE, [[v], [1]], [0, 0]),
        "good", 0, 1, PartitionError,
    ),
    "greedy_round_robin": (
        lambda v: mmsalloc.greedy_round_robin(_SQUARE, order=[v, 0]),
        "order entry", 0, 1, InputError,
    ),
    "PreferenceGraph": (
        lambda v: mmsalloc.PreferenceGraph(1, 2, ((v,),)),
        "neighbor of 0", 0, 1, InputError,
    ),
    "build_preference_graph": (
        lambda v: mmsalloc.build_preference_graph([[1, 2]], [[v]], [0]),
        "good", 0, 1, InputError,
    ),
    "compute_x_plus-left": (
        lambda v: mmsalloc.compute_x_plus(_SQUARE_GRAPH, [(v, 0)]),
        "left vertex of pair 0", 0, 1, InputError,
    ),
    "compute_x_plus-right": (
        lambda v: mmsalloc.compute_x_plus(_SQUARE_GRAPH, [(0, v)]),
        "right vertex of pair 0", 0, 1, InputError,
    ),
    "color_rows-first": (
        lambda v: mmsalloc.ternary.color_rows(2, [(v, 0)]),
        "first row of edge 0", 0, 1, InputError,
    ),
    "color_rows-second": (
        lambda v: mmsalloc.ternary.color_rows(2, [(0, v)]),
        "second row of edge 0", 0, 1, InputError,
    ),
    "mms --agent": (lambda v: _mms(agent=v), "--agent", 1, 2, InputError),
    "mms --k": (lambda v: _mms(k=v), "--k", 1, 2, InputError),
}

_BAD_INDICES = [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (_, _, least, most, _) in _INDEX_FIELDS.items()
    for value in [True, 0.0, "0", None, [least], least - 1, most + 1]
]


@pytest.mark.parametrize("entry, value", _BAD_INDICES)
def test_every_index_is_an_int_within_its_range(entry, value):
    # One rule, core.check_count with an upper end, for every index a
    # caller hands in; a bool or a float is no index, even when it equals one,
    # and a list holding one is refused before anything hashes it.
    call, field, least, most, error = _INDEX_FIELDS[entry]
    if type(value) is not int:
        message = f"{field} must be an integer, got {value!r}"
    elif value < least:
        message = f"{field} must be at least {least}, got {value}"
    else:
        message = f"{field} must be at most {most}, got {value}"
    with pytest.raises(InputError) as caught:
        call(value)
    assert (type(caught.value), str(caught.value)) == (error, message)


# Each entry point that takes a container of indices or values, called with
# something that is no such container, and the InputError it raises.
_NOT_CONTAINERS = {
    "compute_x_plus-short-pair": (
        lambda: mmsalloc.compute_x_plus(_SQUARE_GRAPH, [(0,)]),
        "pair 0 must hold a left and a right vertex, got (0,)",
    ),
    "compute_x_plus-int-pair": (
        lambda: mmsalloc.compute_x_plus(_SQUARE_GRAPH, [5]),
        "pair 0 must be a sequence, got 5",
    ),
    "greedy_round_robin": (
        lambda: mmsalloc.greedy_round_robin(_SQUARE, order=5),
        "order must be a sequence, got 5",
    ),
    "PreferenceGraph-row": (
        lambda: mmsalloc.PreferenceGraph(1, 1, (5,)),
        "neighbors of 0 must be a sequence, got 5",
    ),
    "PreferenceGraph-adj": (
        lambda: mmsalloc.PreferenceGraph(1, 1, None),
        "adj must be a sequence, got None",
    ),
    "bundle_value": (
        lambda: bundle_value(_SQUARE, 0, None), "goods must be a sequence, got None"
    ),
    "build_preference_graph": (
        lambda: mmsalloc.build_preference_graph([[1, 2]], [5], [0]),
        "bundle 0 must be a sequence, got 5",
    ),
    "verify_allocation": (
        lambda: verify_allocation(_SQUARE, [[0], [1]], None),
        "thresholds must be a sequence, got None",
    ),
    "verify_allocation-allocation": (
        lambda: verify_allocation(_SQUARE, None, [0, 0]),
        "allocation must be a sequence, got None",
    ),
    "verify_allocation-bundle": (
        lambda: verify_allocation(_SQUARE, [5, [0, 1]], [0, 0]),
        "bundle 0 must be a sequence, got 5",
    ),
    "color_rows-edges": (
        lambda: mmsalloc.ternary.color_rows(2, None), "edges must be a sequence, got None"
    ),
    "color_rows-int-edge": (
        lambda: mmsalloc.ternary.color_rows(2, [5]), "edge 0 must be a sequence, got 5"
    ),
    "color_rows-short-edge": (
        lambda: mmsalloc.ternary.color_rows(2, [(0,)]),
        "edge 0 must hold two rows, got (0,)",
    ),
}


@pytest.mark.parametrize("entry", sorted(_NOT_CONTAINERS))
def test_every_index_container_is_a_sequence(entry):
    call, message = _NOT_CONTAINERS[entry]
    with pytest.raises(InputError) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (InputError, message)


class TestAllocation:
    # An allocation is a bare partition; verify_allocation checks a caller's.
    def _checked(self, bundles, m):
        inst = Instance.from_rows([[1] * m] * len(bundles))
        return verify_allocation(inst, bundles, [0] * len(bundles))

    def test_checked_rejects_a_good_listed_twice_in_a_bundle(self):
        with pytest.raises(PartitionError, match="^good 0 appears twice in bundle 0$"):
            self._checked([[0, 0], [1]], 2)

    def test_checked_accepts_partition(self):
        rows = self._checked([[0, 2], [1]], 3)
        assert [row.value for row in rows] == [2, 1]

    def test_checked_rejects_missing_good(self):
        with pytest.raises(PartitionError, match=r"^goods missing from allocation: \[2\]$"):
            self._checked([[0], [1]], 3)

    def test_checked_rejects_duplicate_good(self):
        with pytest.raises(PartitionError, match="^good 1 appears in bundles 0 and 1$"):
            self._checked([[0, 1], [1, 2]], 3)

    def test_checked_rejects_out_of_range_good(self):
        with pytest.raises(PartitionError, match="^good must be at most 1, got 3$"):
            self._checked([[0], [3]], 2)


#: Containers a caller may hand verify_allocation a bundle in, each built
#: from the goods it lists; None and 5 are no container.
_CONTAINERS = {
    "list": list, "tuple": tuple, "set": set,
    "generator": lambda goods: (g for g in goods),
    "None": lambda goods: None, "int": lambda goods: 5,
}


@st.composite
def caller_allocations(draw):
    """An instance of n <= 4 agents and m <= 8 goods, and an allocation for
    it as a caller might hand one in: the bundles of a drawn partition,
    each a list, tuple, set or generator, with up to two goods added that
    are a bool, a float, out of range or a repeat, a bundle that is no
    container, or a bundle too few or too many mixed in."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 8))
    rows = [[draw(st.integers(0, 9)) for _ in range(m)] for _ in range(n)]
    owners = [draw(st.integers(0, n - 1)) for _ in range(m)]
    goods = [[g for g in range(m) if owners[g] == i] for i in range(n)]
    count = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    goods = (goods + [[]])[:count]
    for _ in range(draw(st.integers(0, 2)) if goods else 0):
        bundle = goods[draw(st.integers(0, len(goods) - 1))]
        good = draw(st.sampled_from([True, False, 0.0, 1.0, -1, m, *range(m)]))
        bundle.insert(draw(st.integers(0, len(bundle))), good)
    sound = ["list", "tuple", "set", "generator"] * 4
    kinds = [draw(st.sampled_from(sound + ["None", "int"])) for _ in goods]
    return Instance.from_rows(rows), goods, kinds


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=caller_allocations(), outer=st.sampled_from([list, tuple, iter]))
def test_verify_allocation_judges_any_caller_containers(case, outer):
    # verify_allocation takes any sequence of bundles, each any sequence of
    # goods.  It values a partition as a plain sum does, and refuses just
    # what the reference partition check refuses: a bundle that is no
    # container with InputError, else a fault with PartitionError.
    inst, goods, kinds = case
    bundles = [_CONTAINERS[kind](listed) for kind, listed in zip(kinds, goods)]
    held = [list(set(g)) if kind == "set" else g for kind, g in zip(kinds, goods)]
    thresholds = list(range(inst.n))
    if any(kind in ("None", "int") for kind in kinds):
        error = InputError
    elif not is_partition(held, inst.m, inst.n):
        error = PartitionError
    else:
        rows = verify_allocation(inst, outer(bundles), thresholds)
        assert rows == tuple(
            Certificate(i, sum(inst.valuations[i][g] for g in held[i]), Fraction(i))
            for i in inst.agents
        )
        return
    with pytest.raises(InputError) as caught:
        verify_allocation(inst, outer(bundles), thresholds)
    assert type(caught.value) is error


@settings(max_examples=40, deadline=None, derandomize=True)
@given(inst=instances(st.just(3), max_goods=8, values=st.integers(0, 2)))
@pytest.mark.parametrize("solve", [
    mmsalloc.greedy_round_robin,
    lambda inst: mmsalloc.modified_greedy_round_robin(inst, seed=1),
    mmsalloc.apx_mms_half,
    lambda inst: mmsalloc.apx_mms(inst, "1/10", oracle_mode="exact"),
    lambda inst: mmsalloc.apx_3_mms(inst, "1/10", oracle_mode="exact"),
    mmsalloc.exact_mms_012,
], ids=["rr", "rr-modified", "half", "twothirds", "three78", "ternary"])
def test_every_solver_returns_one_partition_form(solve, inst):
    # One bundle form from solver to file: a tuple of n tuples of goods,
    # each ascending, that verify_allocation accepts.
    alloc = solve(inst)
    assert type(alloc) is tuple and len(alloc) == inst.n
    for bundle in alloc:
        assert type(bundle) is tuple and list(bundle) == sorted(set(bundle))
    assert len(verify_allocation(inst, alloc, [0] * inst.n)) == inst.n


def test_public_names_resolve():
    for name in mmsalloc.__all__:
        assert hasattr(mmsalloc, name), name
    assert set(mmsalloc.__all__) <= set(dir(mmsalloc))
    deleted = {
        "AgentCheck", "RecursionState", "lift_allocation", "profile_rows",
        "sort_reduce", "proportional_upper_bound", "VerificationReport",
        "Allocation", "ShareOracle",
    }
    assert not deleted & set(mmsalloc.__all__)
    assert not [name for name in deleted if hasattr(mmsalloc, name)]


def test_package_source_has_no_assert_statements():
    # Checks raise, so that they hold under python -O as well.
    src = Path(__file__).resolve().parents[1] / "src"
    found = [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def test_bench_names_resolve():
    # The benchmark's traced runs wrap each function bench/tracer.py names in
    # TARGETS, and its worker calls xi_vector with the keywords of
    # bench/worker.py, in both modes.  A name deleted from the package breaks
    # only the traced benchmark, so it is checked here.
    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_tracer", bench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.TARGETS.items():
        home = importlib.import_module(f"mmsalloc.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"
    worker = ast.parse((bench / "worker.py").read_text())
    calls = [
        {kw.arg: kw.value for kw in node.keywords}
        for node in ast.walk(worker)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "xi_vector"
    ]
    inst = core.Instance.from_rows([[5, 4, 3, 2, 1], [2, 2, 2, 2, 2]], 5)
    modes = []
    for keywords in calls:
        mode = keywords.pop("mode").value
        eps = Fraction(1, 10) if keywords.pop("eps", None) else None
        assert not keywords
        certs = oracle.xi_vector(inst, 2, eps=eps, mode=mode)
        assert [cert.mode for cert in certs] == [mode] * inst.n
        modes.append(mode)
    assert sorted(modes) == ["exact", "ptas"]


def test_package_surface_the_benchmark_calls(tmp_path):
    # The traced runs also wrap Instance.__post_init__, and the worker builds
    # and saves the input files it solves.
    assert callable(getattr(core.Instance, "__post_init__", None))
    inst = core.Instance.from_rows([[5, 4, 3, 2, 1], [2, 2, 2, 2, 2]], 5)
    path = tmp_path / "inst.json"
    core.save_instance(inst, str(path))
    assert load_instance(str(path)) == inst


def test_bundle_value_is_exact_sum():
    inst = Instance.from_rows([[5, 7, 11]])
    assert bundle_value(inst, 0, [0, 2]) == 16
    assert bundle_value(inst, 0, []) == 0


class TestVerifyAllocation:
    def setup_method(self):
        self.inst = Instance.from_rows([[4, 3, 2, 1], [1, 1, 1, 1]])
        self.alloc = ((0, 3), (1, 2))

    def test_passing_report(self):
        rows = verify_allocation(self.inst, self.alloc, [5, 2])
        assert all(row.ok for row in rows)
        assert [row for row in rows if not row.ok] == []
        assert [c.value for c in rows] == [5, 2]

    def test_failing_report(self):
        rows = verify_allocation(self.inst, self.alloc, [6, 2])
        assert not all(row.ok for row in rows)
        assert [c.agent for c in rows if not c.ok] == [0]
        # The checks are the certificate rows solve prints.
        assert rows == (
            Certificate(agent=0, value=5, threshold=Fraction(6)),
            Certificate(agent=1, value=2, threshold=Fraction(2)),
        )
        assert [c.ok for c in rows] == [False, True]

    def test_fraction_thresholds_compared_exactly(self):
        rows = verify_allocation(self.inst, self.alloc, [Fraction(5), Fraction(2)])
        assert all(row.ok for row in rows)
        rows = verify_allocation(
            self.inst, self.alloc, [Fraction(5_000_001, 1_000_000), 2]
        )
        assert not all(row.ok for row in rows)

    def test_checks_each_good_once(self):
        # _require_partition checks each good, and the sums read the judged
        # bundles with no second check per good, nor one per agent.
        inst = mmsalloc.gen_uniform_instance(30, 600, seed=1)
        alloc = mmsalloc.greedy_round_robin(inst)
        with patch.object(core, "check_count", wraps=core.check_count) as checked:
            rows = verify_allocation(inst, alloc, [0] * inst.n)
        assert checked.call_count == inst.m
        assert [c.value for c in rows] == [
            bundle_value(inst, i, alloc[i]) for i in inst.agents
        ]

    def test_structural_error_beats_value_check(self):
        broken = ((0,), (1, 2))
        with pytest.raises(PartitionError):
            verify_allocation(self.inst, broken, [0, 0])

    def test_good_listed_twice_in_a_bundle_is_refused(self):
        # core.partition keeps the repeat, so the partition check sees it and
        # no agent is checked against a bundle that hands a good out twice.
        inst = Instance.from_rows([[1, 2, 3], [3, 2, 1]])
        with pytest.raises(PartitionError, match="^good 0 appears twice in bundle 0$"):
            verify_allocation(inst, core.partition([[0, 0, 1], [2]]), [0, 0])

    def test_threshold_count_must_match(self):
        with pytest.raises(InputError):
            verify_allocation(self.inst, self.alloc, [0])

    @pytest.mark.parametrize("bad", ["abc", None, float("inf")])
    def test_threshold_that_is_no_rational_names_its_agent(self, bad):
        with pytest.raises(InputError) as caught:
            verify_allocation(self.inst, self.alloc, [5, bad])
        assert str(caught.value) == f"threshold of agent 1 is not a rational: {bad!r}"


def fraction_then_print(text: str):
    """The reading as_rational keeps from Fraction: its value, or the end
    of the message when Fraction cannot read text or cannot print it."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return "is not a rational"
    try:
        str(value)
    except ValueError:
        return "has too many digits to print"
    return value


def as_rational_reading(text: str):
    try:
        return core.as_rational(text, "x")
    except InputError as exc:
        return str(exc).partition(":")[0].partition(", got")[0][2:]


_LIMIT = sys.get_int_max_str_digits()
_DIGIT_RUNS = st.from_regex(r"\A[0-9]{0,4}(_[0-9]{1,3})?\Z")


@st.composite
def rational_texts(draw):
    """Text Fraction may read: a sign, digits, then a denominator or a
    decimal part and an exponent near the digit limit, with stray spaces."""
    text = draw(st.sampled_from(["", "+", "-", " ", "-."])) + draw(_DIGIT_RUNS)
    if draw(st.booleans()):
        text += draw(st.sampled_from(["/", " /", "/ "])) + draw(_DIGIT_RUNS)
    else:
        if draw(st.booleans()):
            text += "." + draw(_DIGIT_RUNS)
        if draw(st.booleans()):
            exponent = draw(st.one_of(
                st.integers(-_LIMIT - 9, _LIMIT + 9),
                st.integers(-9, 9).map(lambda d: d - _LIMIT),
                st.integers(-9, 9).map(lambda d: d + _LIMIT),
            ))
            text += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+"]))
            text += str(exponent)
    return text + draw(st.sampled_from(["", " ", "x"]))


class TestAsRational:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=st.one_of(rational_texts(), st.text(max_size=6)))
    def test_reads_text_as_fraction_reads_and_prints_it(self, text):
        assert as_rational_reading(text) == fraction_then_print(text)

    @pytest.mark.parametrize("text, end", [
        ("1e-99999999", "has too many digits to print, got"),
        ("1e99999999", "has too many digits to print, got"),
        ("-7.5e-99999999", "has too many digits to print, got"),
        (f"1e{_LIMIT}", "has too many digits to print, got"),
        (f"3e-{_LIMIT}", "has too many digits to print, got"),
        ("0." + "0" * (_LIMIT - 1) + "1", "has too many digits to print, got"),
        # A run of digits past the limit is one int cannot read.
        ("1" * (_LIMIT + 1), "is not a rational:"),
        ("1/" + "1" * (_LIMIT + 1), "is not a rational:"),
        ("1e" + "0" * _LIMIT + "1", "is not a rational:"),
        ("xe99999999", "is not a rational:"),
        ("1e 99999999", "is not a rational:"),
    ], ids=lambda text: text if len(text) < 20 else f"{text[:9]}...({len(text)})")
    def test_text_too_long_to_read_is_refused_at_once(self, text, end):
        started = time.perf_counter()
        with pytest.raises(InputError) as caught:
            core.as_rational(text, "eps")
        assert time.perf_counter() - started < 0.5
        assert str(caught.value) == f"eps {end} {text!r}"

    @pytest.mark.parametrize("text, value", [
        (f"1e{_LIMIT - 1}", 10 ** (_LIMIT - 1)),
        (f"2e-{_LIMIT}", Fraction(2, 10**_LIMIT)),
        (f"10e-{_LIMIT}", Fraction(1, 10 ** (_LIMIT - 1))),
        ("0e99999999", 0),
        ("-0.0e-99999999", 0),
    ], ids=["1e(L-1)", "2e-L", "10e-L", "0e99999999", "-0.0e-99999999"])
    def test_text_that_prints_is_read(self, text, value):
        assert core.as_rational(text, "eps") == value

    def test_with_the_limit_off_no_text_is_too_long(self):
        sys.set_int_max_str_digits(0)
        try:
            assert core.as_rational("1e-5000", "eps") == Fraction(1, 10**5000)
            assert core.as_rational("7" * 5000, "eps") == int("7" * 5000)
        finally:
            sys.set_int_max_str_digits(_LIMIT)

    @pytest.mark.parametrize(
        "value", [Fraction(1, 10**5000), 10**5000, 0.1], ids=["Fraction", "int", "float"]
    )
    def test_a_number_is_taken_as_given(self, value):
        assert core.as_rational(value, "eps") == value

    def test_a_decimal_is_read_through_its_text(self):
        assert core.as_rational(Decimal("0.1"), "eps") == Fraction(1, 10)
        with pytest.raises(InputError, match=r"^eps is not a rational: Decimal\('NaN'\)$"):
            core.as_rational(Decimal("NaN"), "eps")
        started = time.perf_counter()
        with pytest.raises(InputError, match="^eps has too many digits to print"):
            oracle.mms_approx([1, 2, 3], 2, Decimal("1e-999999"))
        assert time.perf_counter() - started < 0.5


class TestJsonFormats:
    def test_instance_round_trip(self):
        inst = Instance.from_rows([[1, 0, 9], [2, 2, 2]], scale=10)
        again = instance_from_json(instance_to_json(inst))
        assert again == inst

    def test_instance_json_key_order(self):
        text = instance_to_json(Instance.from_rows([[1]]))
        keys = list(json.loads(text).keys())
        assert keys == ["n", "m", "scale", "valuations"]

    def test_instance_json_missing_field(self):
        with pytest.raises(InputError):
            instance_from_json('{"n": 1, "m": 1, "valuations": [[1]]}')

    def test_allocation_round_trip_with_certificates(self):
        alloc = ((0, 2), (1,))
        certs = (
            Certificate(agent=0, value=7, threshold=Fraction(13, 2)),
            Certificate(agent=1, value=3, threshold=Fraction(3)),
        )
        text = allocation_to_json(alloc, certs)
        payload = json.loads(text)
        assert payload["bundles"] == [[1, 3], [2]]
        assert payload["certificates"][0] == {
            "agent": 1,
            "value": 7,
            "threshold": 7,
        }
        again, again_certs = allocation_from_json(text)
        assert again == alloc
        assert [c.agent for c in again_certs] == [0, 1]
        assert [c.value for c in again_certs] == [7, 3]

    def test_certificate_threshold_rounds_up(self):
        cert = Certificate(agent=0, value=7, threshold=Fraction(13, 2))
        assert cert.threshold_int == 7
        cert = Certificate(agent=0, value=7, threshold=Fraction(6))
        assert cert.threshold_int == 6

    def test_file_round_trips(self, tmp_path):
        inst = Instance.from_rows([[4, 3], [2, 1]])
        ipath = tmp_path / "inst.json"
        save_instance(inst, str(ipath))
        assert load_instance(str(ipath)) == inst

        alloc = ((0,), (1,))
        apath = tmp_path / "alloc.json"
        apath.write_text(allocation_to_json(alloc))
        again, certs = load_allocation(str(apath))
        assert again == alloc and certs == ()

    def test_allocation_json_goods_are_one_based(self):
        text = allocation_to_json(((0,),))
        assert json.loads(text)["bundles"] == [[1]]


@settings(max_examples=200, deadline=None)
@given(
    instances(st.integers(1, 4), max_goods=6, values=st.integers(0, 10**30)),
    st.integers(1, 10**30),
)
@example(Instance.from_rows([[]]), 1)
@example(Instance.from_rows([[10**30]]), 10**30)
def test_instance_text_is_json_dumps_with_indent_two(inst, scale):
    # Written row by row, the text is still byte for byte what json.dumps
    # gives for the whole payload.
    inst = Instance(inst.n, inst.m, scale, inst.valuations)
    payload = {
        "n": inst.n,
        "m": inst.m,
        "scale": scale,
        "valuations": [list(row) for row in inst.valuations],
    }
    expected = json.dumps(payload, indent=2) + "\n"
    assert instance_to_json(inst) == expected
    with TemporaryDirectory() as folder:
        path = Path(folder) / "inst.json"
        save_instance(inst, str(path))
        assert path.read_bytes() == expected.encode("utf-8")


@core.record
class Span:
    """A record with a default, for the record tests below."""

    start: int
    stop: int
    label: str = "span"


def _records():
    """One of each record class of the package, and the test-local Span."""
    from mmsalloc.experiments import TrialConfig, TrialStats
    from mmsalloc.matching import PreferenceGraph, XPlusDecomposition

    config = TrialConfig(n=2, m=4, trials=3, seed=1)
    return {
        "Instance": Instance.from_rows([[4, 3], [1, 1]]),
        "Certificate": Certificate(agent=1, value=3, threshold=Fraction(5, 2)),
        "MaximinCertificate": oracle.mms_exact([4, 3, 2, 1], 2),
        "PreferenceGraph": PreferenceGraph(2, 2, [[0, 1], [1]]),
        "XPlusDecomposition": XPlusDecomposition((0,), (1,), ((1, 0),)),
        "TrialConfig": config,
        "TrialStats": TrialStats(config, 2, Fraction(1, 2)),
        "Span": Span(1, 2),
    }


class TestRecord:
    def test_positional_keyword_and_default_construction(self):
        assert Span(1, 2, "x") == Span(stop=2, label="x", start=1)
        assert Span(1, 2) == Span(1, stop=2) == Span(1, 2, "span")
        span = Span(label="x", stop=2, start=1)
        assert span._asdict() == {"start": 1, "stop": 2, "label": "x"}
        assert Span._fields == Span.__match_args__ == ("start", "stop", "label")
        assert span._replace(stop=5) == Span(1, 5, "x")
        assert len(span) == 3 and span[1] == 2

    @pytest.mark.parametrize(
        "args,kwargs,fragment",
        [
            ((1,), {}, "missing 1 required positional argument: 'stop'"),
            ((), {"label": "x"}, "missing 2 required positional arguments: 'start' and 'stop'"),
            ((1, 2, "x", 4), {}, "takes from 3 to 4 positional arguments but 5 were given"),
            ((1, 2), {"width": 3}, "unexpected keyword argument 'width'"),
            ((1, 2), {"start": 1}, "multiple values for argument 'start'"),
        ],
    )
    def test_bad_arguments_raise_type_error(self, args, kwargs, fragment):
        with pytest.raises(TypeError, match=fragment):
            Span(*args, **kwargs)

    def test_fields_are_frozen(self):
        span = Span(1, 2)
        with pytest.raises(AttributeError):
            span.start = 5
        with pytest.raises(AttributeError):
            span.extra = 5
        with pytest.raises(AttributeError):
            del span.stop
        assert span == Span(1, 2) and not hasattr(span, "extra")

    def test_equality_and_hash(self):
        assert Span(1, 2) == Span(1, 2) and hash(Span(1, 2)) == hash(Span(1, 2))
        assert hash(Span(1, 2)) == hash((1, 2, "span"))
        assert Span(1, 2) != Span(1, 3)
        assert len({Span(1, 2), Span(1, 2), Span(2, 1)}) == 2

        @core.record
        class Other:
            start: int
            stop: int
            label: str = "span"

        assert Span(1, 2) != Other(1, 2)
        assert Span(1, 2) != (1, 2, "span")
        assert not Span(1, 2) == (1, 2, "span") and not (1, 2, "span") == Span(1, 2)

    def test_repr_is_pinned(self):
        from mmsalloc.oracle import mms_exact

        assert repr(Instance.from_rows([[4, 3], [1, 1]])) == (
            "Instance(n=2, m=2, scale=1, valuations=((4, 3), (1, 1)))"
        )
        assert repr(mms_exact([4, 3, 2, 1], 2)) == (
            "MaximinCertificate(value=5, k=2, witness=((0, 3), (1, 2)), "
            "mode='exact', upper=5, eps=None)"
        )

    @pytest.mark.parametrize("name", list(_records()))
    def test_round_trips_and_frozen_fields(self, name):
        import copy
        import pickle

        obj = _records()[name]
        again = [pickle.loads(pickle.dumps(obj, protocol))
                 for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        again += [copy.copy(obj), copy.deepcopy(obj), obj._replace()]
        again.append(type(obj)(**obj._asdict()))
        for other in again:
            assert other == obj and type(other) is type(obj)
            assert other._asdict() == obj._asdict()
        assert not hasattr(obj, "__dict__")
        field = obj._fields[0]
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError):
            delattr(obj, field)

    def test_an_allocation_walks_its_bundles(self):
        # An allocation is no record but a bare partition: core.partition
        # makes each bundle an ascending tuple, a repeat kept, and checks
        # nothing.
        alloc = core.partition(iter([{2, 0}, (g for g in [1]), [], [3, 1, 3]]))
        assert alloc == ((0, 2), (1,), (), (1, 3, 3))
        assert type(alloc) is tuple and all(type(b) is tuple for b in alloc)
        assert list(alloc) == [(0, 2), (1,), (), (1, 3, 3)] and len(alloc) == 4
        assert core.partition([]) == () and core.partition([[True]]) == ((True,),)

    def test_replace_and_make_run_the_checks(self):
        from mmsalloc.experiments import TrialConfig

        inst = Instance.from_rows([[4, 3], [1, 1]])
        assert inst._replace(valuations=[[1, 2], [3, 4]]).valuations == ((1, 2), (3, 4))
        assert Instance._make([1, 1, 1, [[5]]]) == Instance.from_rows([[5]])
        with pytest.raises(InputError, match="expected n=3"):
            inst._replace(n=3)
        with pytest.raises(InputError, match="trials must be at least 1"):
            TrialConfig(2, 4, 3, 1)._replace(trials=0)

    def test_post_init_is_looked_up_at_each_construction(self, monkeypatch):
        calls = []
        original = Instance.__post_init__

        def counted(self):
            calls.append(self.n)
            return original(self)

        monkeypatch.setattr(Instance, "__post_init__", counted)
        inst = Instance.from_rows([[1, 2]])
        assert type(inst) is Instance and inst.valuations == ((1, 2),)
        with pytest.raises(InputError):
            Instance(n=2, m=1, scale=1, valuations=((1,),))
        assert calls == [1, 2]

    def test_bench_tracer_times_each_instance_check(self):
        # bench/run.py --trace 1 reports core.instance_init_ms from the span
        # the tracer opens around Instance.__post_init__.  The worker imports
        # cli before it installs the tracer.
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import tracer\n"
            "from mmsalloc import Instance, cli\n"
            "traced = tracer.Tracer(); tracer.install(traced)\n"
            "inst = Instance.from_rows([[1, 2], [3, 4]])\n"
            "assert type(inst) is Instance, inst\n"
            "print(sorted({span[0] for span in traced.spans}))\n"
        )
        result = run_python(["-c", code, str(Path(__file__).parent.parent / "bench")])
        assert result.returncode == 0, result.stderr
        assert result.stdout == "['core.instance_init']\n"
