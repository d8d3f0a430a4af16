"""Per-layer timing from outside the package.

:func:`install` wraps the package's public functions at every name through
which callers reach them (``mmsalloc.cli.mms_exact`` as well as
``mmsalloc.oracle.mms_exact``), so ``src/`` stays untouched.  Each call
becomes a span (name, start, end, parent) with its self time: its duration
minus the durations of the wrapped calls it made.  Counts are kept beside
the spans.  :func:`layer_metrics` turns the spans and counts of a run into
the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

#: Functions wrapped, by defining module; the span name is module.function.
TARGETS = {
    "cli": ("main", "_solve_thresholds"),
    "core": ("load_instance", "instance_to_json", "verify_allocation",
             "allocation_to_json"),
    "experiments": ("gen_uniform_instance", "run_existence_trials"),
    "oracle": ("mms_exact", "mms_approx", "greedy_floor"),
    "matching": ("build_preference_graph", "maximum_matching", "compute_x_plus"),
    "two_thirds": ("apx_mms", "rec_mms", "rho"),
    "three_agents": ("apx_3_mms",),
    "half": ("apx_mms_half",),
    "round_robin": ("greedy_round_robin", "modified_greedy_round_robin"),
    "ternary": ("exact_mms_012",),
}

#: Calls on more values than this (n*m) count as large.
LARGE = 10_000


class Tracer:
    """Spans and counts of one worker process."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent, self_s, size]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._seen: set = set()

    def begin_op(self, kind: str) -> int:
        """Open the root span of one benchmark operation."""
        self._seen = set()
        return self._open(f"op.{kind}", 0)

    def end_op(self, idx: int) -> None:
        self._close(idx)

    def _open(self, name: str, size: int) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0, size])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self.stack.pop()
        span = self.spans[idx]
        span[2] = end
        duration = end - span[1]
        span[4] += duration
        if span[3] >= 0:
            self.spans[span[3]][4] -= duration

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            size = _size(args)
            if name in ("oracle.mms_exact", "oracle.mms_approx"):
                self._note_oracle_call(name, args, kwargs)
            elif name == "experiments.run_existence_trials":
                self.counts["experiments.trials"] += args[0].trials
            if name == "three_agents.apx_3_mms":
                return self._three_agents(fn, args, kwargs, size)
            idx = self._open(name, size)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def _note_oracle_call(self, name: str, args, kwargs) -> None:
        values, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
        eps = args[2] if len(args) > 2 else kwargs.get("eps")
        key = (name, tuple(values), k, None if eps is None else Fraction(eps))
        if key in self._seen:
            self.counts["oracle.repeat_calls"] += 1
        else:
            self._seen.add(key)
            self.counts["oracle.distinct_calls"] += 1

    def _three_agents(self, fn, args, kwargs, size):
        # The branch taken is read from the solver's own trace, so a trace
        # list is passed in when the caller gave none.
        kwargs = dict(kwargs)
        if len(args) > 3:
            kwargs["trace"] = args[3]
            args = args[:3]
        trace = kwargs.get("trace")
        if trace is None:
            trace = kwargs["trace"] = []
        before = len(trace)
        idx = self._open("three_agents.apx_3_mms", size)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)
            for step in trace[before:]:
                self.counts["three_agents.branch_" + step["branch"]] += 1


def _size(args) -> int:
    """n*m of an Instance argument, or of (n, m) integer arguments."""
    if args and hasattr(args[0], "valuations"):
        return args[0].n * args[0].m
    if len(args) >= 2 and all(type(a) is int for a in args[:2]):
        return args[0] * args[1]
    return 0


def install(tracer: Tracer) -> None:
    """Wrap every target at every module-level name bound to it."""
    from mmsalloc import core

    modules = [m for name, m in sys.modules.items()
               if name == "mmsalloc" or name.startswith("mmsalloc.")]
    for mod_name, functions in TARGETS.items():
        home = sys.modules[f"mmsalloc.{mod_name}"]
        for fn_name in functions:
            original = getattr(home, fn_name)
            wrapped = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    core.Instance.__post_init__ = tracer.wrap(
        "core.instance_init", core.Instance.__post_init__
    )


# ---------------------------------------------------------------------------
# From spans to metrics.
# ---------------------------------------------------------------------------

#: Per-layer metrics: name -> unit.  Order is the order printed.
LAYER_UNITS = {
    "cli.bare_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.trace_extra_ms": "ms",
    "cli.thresholds_ms": "ms",
    "core.instance_init_ms": "ms",
    "core.load_instance_ms": "ms",
    "core.instance_to_json_ms": "ms",
    "core.verify_allocation_ms": "ms",
    "core.allocation_to_json_ms": "ms",
    "experiments.gen_ms": "ms",
    "experiments.gen_small_us": "us",
    "experiments.trial_ms": "ms",
    "oracle.exact_ms": "ms",
    "oracle.exact_calls": "count",
    "oracle.approx_ms": "ms",
    "oracle.approx_calls": "count",
    "oracle.repeat_calls": "count",
    "oracle.distinct_ratio": "ratio",
    "oracle.greedy_floor_ms": "ms",
    "oracle.greedy_floor_calls": "count",
    "matching.graph_ms": "ms",
    "matching.matching_ms": "ms",
    "matching.x_plus_ms": "ms",
    "matching.calls": "count",
    "two_thirds.self_ms": "ms",
    "two_thirds.levels": "count",
    "three_agents.self_ms": "ms",
    "three_agents.branch_b": "count",
    "three_agents.branch_c": "count",
    "three_agents.branch_d": "count",
    "half.self_ms": "ms",
    "round_robin.greedy_ms": "ms",
    "round_robin.greedy_small_us": "us",
    "round_robin.modified_us": "us",
    "ternary.self_ms": "ms",
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list, counts: Counter, probes: dict, passes: int) -> dict:
    """Per-layer metrics from the spans, counts and start-up probes of all
    ``passes`` passes of one traced run.  Totals are per pass; a layer the
    workload never reaches reads 0.

    ``probes`` holds lists of milliseconds: ``bare`` and ``import``
    (fresh interpreters), ``main`` (in-process commands) and
    ``trace_extra`` (each ``solve --trace`` minus the same solve without).
    """
    self_s: Counter = Counter()
    calls: Counter = Counter()
    incl_s: Counter = Counter()
    for name, start, end, _parent, own, size in spans:
        key = name
        if name in ("experiments.gen_uniform_instance", "round_robin.greedy_round_robin"):
            key = name + (".large" if size > LARGE else ".small")
        self_s[key] += own
        calls[key] += 1
        incl_s[key] += end - start

    calls = Counter({key: value // passes for key, value in calls.items()})
    counts = Counter({key: value // passes for key, value in counts.items()})

    def ms(key):
        return self_s[key] * 1e3 / passes

    def per_call_us(key):
        return self_s[key] * 1e6 / passes / calls[key] if calls[key] else 0.0

    trials = counts["experiments.trials"]
    oracle_calls = calls["oracle.mms_exact"] + calls["oracle.mms_approx"]
    bare = _median(probes.get("bare", []))
    values = {
        "cli.bare_start_ms": bare,
        "cli.import_ms": _median(probes.get("import", [])) - bare if probes.get("import") else 0.0,
        "cli.main_ms": _median(probes.get("main", [])),
        "cli.trace_extra_ms": _median(probes.get("trace_extra", [])),
        "cli.thresholds_ms": incl_s["cli._solve_thresholds"] * 1e3 / passes,
        "core.instance_init_ms": ms("core.instance_init"),
        "core.load_instance_ms": ms("core.load_instance"),
        "core.instance_to_json_ms": ms("core.instance_to_json"),
        "core.verify_allocation_ms": ms("core.verify_allocation"),
        "core.allocation_to_json_ms": ms("core.allocation_to_json"),
        "experiments.gen_ms": ms("experiments.gen_uniform_instance.large"),
        "experiments.gen_small_us": per_call_us("experiments.gen_uniform_instance.small"),
        "experiments.trial_ms": ms("experiments.run_existence_trials") / trials
        if trials else 0.0,
        "oracle.exact_ms": ms("oracle.mms_exact"),
        "oracle.exact_calls": calls["oracle.mms_exact"],
        "oracle.approx_ms": ms("oracle.mms_approx"),
        "oracle.approx_calls": calls["oracle.mms_approx"],
        "oracle.repeat_calls": counts["oracle.repeat_calls"],
        "oracle.distinct_ratio": counts["oracle.distinct_calls"] / oracle_calls
        if oracle_calls else 0.0,
        "oracle.greedy_floor_ms": ms("oracle.greedy_floor"),
        "oracle.greedy_floor_calls": calls["oracle.greedy_floor"],
        "matching.graph_ms": ms("matching.build_preference_graph"),
        "matching.matching_ms": ms("matching.maximum_matching"),
        "matching.x_plus_ms": ms("matching.compute_x_plus"),
        "matching.calls": calls["matching.maximum_matching"],
        "two_thirds.self_ms": ms("two_thirds.apx_mms") + ms("two_thirds.rec_mms")
        + ms("two_thirds.rho"),
        "two_thirds.levels": calls["two_thirds.rec_mms"],
        "three_agents.self_ms": ms("three_agents.apx_3_mms"),
        "three_agents.branch_b": counts["three_agents.branch_b"],
        "three_agents.branch_c": counts["three_agents.branch_c"],
        "three_agents.branch_d": counts["three_agents.branch_d"],
        "half.self_ms": ms("half.apx_mms_half"),
        "round_robin.greedy_ms": ms("round_robin.greedy_round_robin.large"),
        "round_robin.greedy_small_us": per_call_us("round_robin.greedy_round_robin.small"),
        "round_robin.modified_us": per_call_us("round_robin.modified_greedy_round_robin"),
        "ternary.self_ms": ms("ternary.exact_mms_012"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
