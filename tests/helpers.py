"""Shared test utilities: an exhaustive maximin oracle and instance suites.

The exhaustive oracle enumerates every assignment of goods to k bundles
with symmetry breaking, so it is an independent check on the search-based
oracle in the package. Suite builders produce the seeded random instances
used across tests, so every test that says "random suite" means the same
instances.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import pytest
from hypothesis import strategies as st

from mmsalloc import Instance, bundle_value
from mmsalloc.core import Partition, _require_partition


def first_bad_value(row: Sequence) -> Optional[tuple[int, str]]:
    """The per-value loop both row validators ran on every row before the
    one-pass check of core.check_values: the first bad position and what
    is wrong there, as both validators word it, or None for a valid row."""
    for j, v in enumerate(row):
        if not isinstance(v, int) or isinstance(v, bool):
            return j, f"is not an integer: {v!r}"
        if v < 0:
            return j, f"is negative: {v}"
    return None


def exhaustive_mms(values: Sequence[int], k: int) -> int:
    """Maximin share by trying every partition of the goods into k bundles.

    Empty bundles are allowed, which matches the definition: with fewer
    goods than bundles the worst bundle is empty and the share is 0.
    Symmetry breaking: good 0 goes to bundle 0, and good i may only open
    bundle u+1 when bundles 0..u are already in use.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    m = len(values)
    if m == 0:
        return 0
    best = 0

    def place(good: int, loads: list[int], used: int) -> None:
        nonlocal best
        if good == m:
            score = min(loads)
            if score > best:
                best = score
            return
        limit = min(used + 1, k)
        for b in range(limit):
            loads[b] += values[good]
            place(good + 1, loads, max(used, b + 1))
            loads[b] -= values[good]

    place(0, [0] * k, 0)
    return best


# Values 0..30, with zeros and equal values common.
_VALUES = st.one_of(st.integers(0, 30), st.sampled_from((0, 0, 5, 5, 12)))


def instances(agents, max_goods: int = 8, values=_VALUES):
    """Hypothesis strategy: instances with a number of agents drawn from the
    strategy ``agents``, 0..max_goods goods and values drawn from
    ``values``, small enough for exhaustive_mms and shrinkable."""
    return st.tuples(agents, st.integers(0, max_goods)).flatmap(
        lambda nm: st.lists(
            st.lists(values, min_size=nm[1], max_size=nm[1]),
            min_size=nm[0], max_size=nm[0],
        )
    ).map(Instance.from_rows)


def assert_shares_met(instance: Instance, allocation: Partition, factor) -> None:
    """The allocation partitions the goods and gives every agent at least
    factor times its maximin share, found by exhaustive_mms."""
    _require_partition(allocation, instance.m)
    for i in instance.agents:
        share = exhaustive_mms(instance.row(i), instance.n)
        got = bundle_value(instance, i, allocation[i])
        assert got >= Fraction(factor) * share, (i, got, share, factor)


def is_partition(bundles: Sequence[Sequence], m: int, n: int) -> bool:
    """Whether n bundles, each a list of what it holds, list each of goods
    0..m-1 once, by plain counting: the reference partition check.  A bool
    or a float is no good, even when it equals one."""
    goods = [g for bundle in bundles for g in bundle]
    return (
        len(bundles) == n
        and all(type(g) is int for g in goods)
        and sorted(goods) == list(range(m))
    )


def random_instance(
    rng: random.Random, n: int, m: int, low: int = 0, high: int = 9
) -> Instance:
    rows = [[rng.randint(low, high) for _ in range(m)] for _ in range(n)]
    return Instance.from_rows(rows)


def random_suite(count: int = 300, seed: int = 90125) -> list[Instance]:
    """Seeded suite: n in 2..6, m in n..12, values uniform in 0..9."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 6)
        m = rng.randint(n, 12)
        out.append(random_instance(rng, n, m))
    return out


def small_oracle_suite(count: int = 200, seed: int = 31337) -> list[Instance]:
    """Instances small enough for the exhaustive oracle: n in 1..3, m in 1..8."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        m = rng.randint(1, 8)
        out.append(random_instance(rng, n, m))
    return out


def binary_suite(count: int = 100, seed: int = 60901) -> list[Instance]:
    """Random 0/1 instances with n in 2..4 and m in n..12."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        m = rng.randint(n, 12)
        out.append(random_instance(rng, n, m, low=0, high=1))
    return out


def ternary_suite(count: int = 200, seed: int = 11235) -> list[Instance]:
    """Random 0/1/2 instances with n in 1..5 and m in 1..15."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 5)
        m = rng.randint(1, 15)
        out.append(random_instance(rng, n, m, low=0, high=2))
    return out


def three_agent_suite(count: int = 200, seed: int = 424242) -> list[Instance]:
    """3-agent instances with m in 3..10, cycling three generation styles.

    The styles push instances toward different solver branches: iid rows,
    nearly shared rows (one common draw plus per-agent noise), and rows
    from a narrow value band where no single good dominates.
    """
    rng = random.Random(seed)
    out = []
    for t in range(count):
        m = 3 + (t % 8)
        style = t % 3
        if style == 0:
            rows = [[rng.randint(0, 9) for _ in range(m)] for _ in range(3)]
        elif style == 1:
            base = [rng.randint(0, 9) for _ in range(m)]
            rows = [
                [min(9, max(0, v + rng.randint(-1, 1))) for v in base]
                for _ in range(3)
            ]
        else:
            rows = [[rng.randint(1, 4) for _ in range(m)] for _ in range(3)]
        out.append(Instance.from_rows(rows))
    return out


def record_searches(monkeypatch) -> list[tuple]:
    """Record every maximin search, one call of oracle._maximin, as (values,
    k, eps), eps None for an exact search.  A share a memo answers makes no
    search, so a query recorded twice was searched twice."""
    import mmsalloc.oracle as oracle

    searches: list[tuple] = []
    real = oracle._maximin

    def recorded(values, k, eps):
        searches.append((tuple(values), k, eps))
        return real(values, k, eps)

    monkeypatch.setattr(oracle, "_maximin", recorded)
    return searches


SRC = Path(__file__).resolve().parent.parent / "src"

# Runs ``python -m mmsalloc.cli`` on its arguments and, as the interpreter
# exits, prints its own peak resident memory to stderr as a last line
# "VmHWM: <kB> kB".  A child's ru_maxrss cannot stand in: the child of a
# fork starts with its launcher's pages and counts their peak as its own.
_PEAK_LAUNCHER = """
import atexit, runpy, sys

def peak():
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    sys.stderr.write(line)

atexit.register(peak)
runpy.run_module("mmsalloc.cli", run_name="__main__", alter_sys=True)
"""


def run_python(args: Sequence[str], timeout=None) -> subprocess.CompletedProcess:
    """``python`` with args in a fresh interpreter, which finds the package
    in this checkout's src; its output is captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def run_module(args: Sequence[str], timeout=None) -> subprocess.CompletedProcess:
    """``python -m mmsalloc.cli`` with args in a fresh interpreter."""
    return run_python(["-m", "mmsalloc.cli", *args], timeout)


def run_cli_peak(args: Sequence[str]) -> tuple[subprocess.CompletedProcess, float]:
    """The finished run of ``python -m mmsalloc.cli`` with args in a fresh
    interpreter, and that interpreter's own peak resident memory in MB,
    its VmHWM.  The last line of stderr, which carries the peak, is taken
    off the result's stderr.  Skips the test where /proc/self/status does
    not exist."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read a peak from")
    result = run_python(["-c", _PEAK_LAUNCHER, *args])
    err, _, line = result.stderr.rstrip("\n").rpartition("\n")
    assert line.startswith("VmHWM:"), result.stderr
    result.stderr = err + "\n" if err else ""
    return result, int(line.split()[1]) / 1024
