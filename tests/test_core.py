"""Instance and allocation data model, verification, and file formats."""

import ast
import doctest
import importlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

import mmsalloc
import mmsalloc.core as core
from mmsalloc import (
    Allocation,
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

    def test_rejects_ragged_rows(self):
        with pytest.raises(InputError):
            Instance.from_rows([[1, 2], [3]])

    def test_rejects_bad_scale(self):
        with pytest.raises(InputError):
            Instance.from_rows([[1]], scale=0)

    def test_zero_goods_allowed(self):
        inst = Instance.from_rows([[], []])
        assert inst.m == 0


class TestAllocation:
    def test_checked_accepts_partition(self):
        alloc = Allocation.checked([[0, 2], [1]], 3)
        assert alloc.bundles == (frozenset({0, 2}), frozenset({1}))
        assert len(alloc) == 2

    def test_checked_rejects_missing_good(self):
        with pytest.raises(PartitionError):
            Allocation.checked([[0], [1]], 3)

    def test_checked_rejects_duplicate_good(self):
        with pytest.raises(PartitionError):
            Allocation.checked([[0, 1], [1, 2]], 3)

    def test_checked_rejects_out_of_range_good(self):
        with pytest.raises(PartitionError):
            Allocation.checked([[0], [3]], 2)


def test_public_names_resolve():
    for name in mmsalloc.__all__:
        assert hasattr(mmsalloc, name), name
    deleted = {
        "AgentCheck", "RecursionState", "lift_allocation", "profile_rows",
        "sort_reduce", "proportional_upper_bound",
    }
    assert not deleted & set(mmsalloc.__all__)
    assert not [name for name in deleted if hasattr(mmsalloc, name)]


def test_bench_names_resolve():
    # bench/tracer.py wraps package functions by module and name, and
    # bench/worker.py calls xi_vector with a mode keyword; both must resolve.
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
    inst = Instance.from_rows([[3, 2, 1], [1, 1, 2]])
    modes = []
    for keywords in calls:
        mode = keywords.pop("mode").value
        eps = Fraction(1, 10) if keywords.pop("eps", None) else None
        assert not keywords
        certs = mmsalloc.xi_vector(inst, 2, eps=eps, mode=mode)
        assert [cert.mode for cert in certs] == [mode, mode]
        modes.append(mode)
    assert sorted(modes) == ["exact", "ptas"]


def test_bundle_value_is_exact_sum():
    inst = Instance.from_rows([[5, 7, 11]])
    assert bundle_value(inst, 0, [0, 2]) == 16
    assert bundle_value(inst, 0, []) == 0


class TestVerifyAllocation:
    def setup_method(self):
        self.inst = Instance.from_rows([[4, 3, 2, 1], [1, 1, 1, 1]])
        self.alloc = Allocation.of([[0, 3], [1, 2]])

    def test_passing_report(self):
        report = verify_allocation(self.inst, self.alloc, [5, 2])
        assert report.ok
        assert report.failures() == ()
        assert [c.value for c in report.checks] == [5, 2]

    def test_failing_report(self):
        report = verify_allocation(self.inst, self.alloc, [6, 2])
        assert not report.ok
        assert [c.agent for c in report.failures()] == [0]
        # The checks are the certificate rows solve prints.
        assert report.checks == (
            Certificate(agent=0, value=5, threshold=Fraction(6)),
            Certificate(agent=1, value=2, threshold=Fraction(2)),
        )
        assert [c.ok for c in report.checks] == [False, True]

    def test_fraction_thresholds_compared_exactly(self):
        report = verify_allocation(self.inst, self.alloc, [Fraction(5), Fraction(2)])
        assert report.ok
        report = verify_allocation(
            self.inst, self.alloc, [Fraction(5_000_001, 1_000_000), 2]
        )
        assert not report.ok

    def test_structural_error_beats_value_check(self):
        broken = Allocation.of([[0], [1, 2]])
        with pytest.raises(PartitionError):
            verify_allocation(self.inst, broken, [0, 0])

    def test_threshold_count_must_match(self):
        with pytest.raises(InputError):
            verify_allocation(self.inst, self.alloc, [0])


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
        alloc = Allocation.of([[0, 2], [1]])
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

        alloc = Allocation.of([[0], [1]])
        apath = tmp_path / "alloc.json"
        apath.write_text(allocation_to_json(alloc))
        again, certs = load_allocation(str(apath))
        assert again == alloc and certs == ()

    def test_allocation_json_goods_are_one_based(self):
        text = allocation_to_json(Allocation.of([[0]]))
        assert json.loads(text)["bundles"] == [[1]]


@core.record
class Span:
    """A record with a default, for the record tests below."""

    start: int
    stop: int
    label: str = "span"


class TestRecord:
    def test_positional_keyword_and_default_construction(self):
        assert Span(1, 2, "x") == Span(stop=2, label="x", start=1)
        assert Span(1, 2) == Span(1, stop=2) == Span(1, 2, "span")
        assert vars(Span(label="x", stop=2, start=1)) == {
            "start": 1, "stop": 2, "label": "x",
        }
        assert Span.__match_args__ == ("start", "stop", "label")

    @pytest.mark.parametrize(
        "args,kwargs,fragment",
        [
            ((1,), {}, "missing required arguments: stop"),
            ((), {"label": "x"}, "missing required arguments: start, stop"),
            ((1, 2, "x", 4), {}, "takes 3 positional arguments but 4 were given"),
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

    def test_repr_is_pinned(self):
        from mmsalloc.oracle import mms_exact

        assert repr(Instance.from_rows([[4, 3], [1, 1]])) == (
            "Instance(n=2, m=2, scale=1, valuations=((4, 3), (1, 1)))"
        )
        assert repr(mms_exact([4, 3, 2, 1], 2)) == (
            "MaximinCertificate(value=5, k=2, witness=(frozenset({0, 3}), "
            "frozenset({1, 2})), mode='exact', upper=5, eps=None)"
        )

    def test_pickle_and_copy_round_trips(self):
        import copy
        import pickle

        inst = Instance.from_rows([[4, 3], [1, 1]])
        cert = Certificate(agent=1, value=3, threshold=Fraction(5, 2))
        for obj in (inst, cert, Span(1, 2)):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                again = pickle.loads(pickle.dumps(obj, protocol))
                assert again == obj and type(again) is type(obj)
                assert list(vars(again)) == list(vars(obj))
            assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj

    def test_post_init_is_looked_up_at_each_construction(self, monkeypatch):
        calls = []
        original = Instance.__post_init__

        def counted(self):
            calls.append(self.n)
            original(self)

        monkeypatch.setattr(Instance, "__post_init__", counted)
        Instance.from_rows([[1, 2]])
        with pytest.raises(InputError):
            Instance(n=2, m=1, scale=1, valuations=((1,),))
        assert calls == [1, 2]
