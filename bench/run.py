"""Benchmark of mmsalloc: two workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload cli|oracle] [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload is a closed loop with one
client: a fixed, seeded list of at least 40 operations worked through one
at a time, in PASSES passes (a fresh worker process each).  An operation's
latency is its best over the passes.  S is recorded in the run's output
but changes nothing: every run times the same operations.  It defaults to
``run_seconds`` in ``BENCHMARK.json``.  With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` the package's public functions
are wrapped and the run prints the per-layer metrics.  Without ``--workload`` both workloads run in turn.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
Results, and the spans of a traced run, are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import plans
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: A run must end within this many seconds, worker start-ups included.
RUN_BUDGET_S = 170.0
#: Passes over the operation list in one run, each in a fresh worker.
PASSES = 4

E2E_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def tail_rank(count: int) -> int:
    """Index, in ascending order, of the highest percentile with at least
    ten operations beyond it."""
    return max(0, count - 11)


def tail_percentile(count: int) -> float:
    return 100.0 * (count - 10) / count


def machine_ms() -> float:
    """Best of three runs of a fixed pure-Python loop: a record of the
    machine's speed at the moment, so that a slow run can be told from a
    slow program.  It is not a metric."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return min(times)


def records(machine: list) -> dict:
    src = ROOT / "src" / "mmsalloc"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "machine_ms": statistics.median(machine),
        "source_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                            for p in sorted(src.glob("*.py"))),
    }


def run_pass(workload: str, seed: int, index: int, traced: bool, deadline: float) -> dict:
    tag = f"{workload}-s{seed}-p{index}-{os.getpid()}"
    workdir = OUT / ("work-" + tag)
    workdir.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"pass-{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--check", str(int(index == 0)),
           "--workdir", str(workdir), "--out", str(out_file)]
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{workload} pass {index} ran past the run's time budget")
        if code != 0:
            raise RuntimeError(f"{workload} pass {index} worker exited with {code}")
        result = json.loads(out_file.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        out_file.unlink(missing_ok=True)
    result["setup_s"] = result["ready"] - start
    return result


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    passes, machine = [], []
    for index in range(PASSES):
        machine.append(machine_ms())
        passes.append(run_pass(workload, seed, index, traced, deadline))
    attempts = [op for one in passes for op in one["ops"]]
    # The first pass checks every output; the others must give the same.
    errors = list(passes[0]["errors"])
    for number, one in enumerate(passes[1:], start=1):
        for index, (first, op) in enumerate(zip(passes[0]["ops"], one["ops"])):
            if op["digest"] != first["digest"]:
                errors.append(f"pass {number} op {index} ({op['kind']}): output differs "
                              "from the first pass")
    # Each operation's latency is its best over the passes: the machine's
    # speed swings by a quarter from second to second, and the best of
    # several passes taken seconds apart rarely falls in a slow moment.
    best = [min(times) for times in zip(*([op["ms"] for op in one["ops"]] for one in passes))]
    latencies = sorted(best)
    wall_s = sum(best) / 1e3
    if traced:
        spans = [span for one in passes for span in one["spans"]]
        counts = Counter()
        probes: dict = {}
        for one in passes:
            counts.update(one["counts"])
            for key, values in one["probes"].items():
                probes.setdefault(key, []).extend(values)
        metrics = tracer.layer_metrics(spans, counts, probes, len(passes))
        trace_file = OUT / f"{workload}-s{seed}.trace.json"
        trace_file.write_text(json.dumps({
            "span_fields": ["name", "start", "end", "parent", "self_s", "size"],
            "passes": [{"spans": one["spans"], "counts": one["counts"]} for one in passes],
        }), encoding="utf-8")
    else:
        values = {
            "wall_s": wall_s,
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": latencies[tail_rank(len(latencies))],
            "peak_rss_mb": max(one["peak_kb"] for one in passes) / 1024,
            "setup_s": statistics.median(one["setup_s"] for one in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    summary = {
        "correct": not errors,
        "attempted": len(attempts),
        "failed": sum(not op["ok"] for op in attempts),
        "metrics": metrics,
    }
    detail = dict(summary, workload=workload, seed=seed, seconds=seconds, traced=traced,
                  passes=len(passes), operations=len(best), wall_s=wall_s,
                  tail_percentile=tail_percentile(len(best)),
                  errors=errors, records=records(machine),
                  ops=[[op["kind"], ms, op["ok"]] for op, ms in zip(passes[0]["ops"], best)])
    name = f"{workload}-s{seed}" + ("-trace" if traced else "") + ".json"
    (OUT / name).write_text(json.dumps(detail, indent=1), encoding="utf-8")
    return detail


def describe(detail: dict) -> str:
    lines = [f"{detail['workload']}: seed {detail['seed']}, {detail['operations']} operations "
             f"x {detail['passes']} passes, "
             f"attempted {detail['attempted']}, failed {detail['failed']}, "
             f"correct {detail['correct']}, tail = p{detail['tail_percentile']:.1f}"]
    for name, metric in detail["metrics"].items():
        lines.append(f"  {name:<30} {metric['value']:>14.4f} {metric['unit']}")
    for error in detail["errors"][:20]:
        lines.append(f"  CHECK FAILED: {error}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=plans.WORKLOADS, default=None,
                        help="one workload; both when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="recorded only; run_seconds in BENCHMARK.json by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "mmsalloc" / "cli.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'mmsalloc'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    workloads = [args.workload] if args.workload else list(plans.WORKLOADS)
    details = []
    for workload in workloads:
        detail = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(describe(detail), flush=True)
        details.append(detail)
    if len(details) == 1:
        summary = {key: details[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(d["correct"] for d in details),
            "attempted": sum(d["attempted"] for d in details),
            "failed": sum(d["failed"] for d in details),
            "metrics": {f"{d['workload']}.{name}": metric
                        for d in details for name, metric in d["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
