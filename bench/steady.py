"""Steadiness check: do two sets of runs of the same code agree?

    python3 bench/steady.py [--workload W ...] [--runs 10] [--seed 1]

For each workload, runs ``bench/run.py`` ``--runs`` times in each of two
interleaved sets (A, B, A, B, ...; the order within a pair alternates).
Set A uses seeds seed..seed+runs-1 and set B the next ``--runs`` seeds, so
the sets share code but no inputs.  For each set and end-to-end metric it
prints the median, the quartiles and their spread ((Q3 - Q1) / median), and
whether the two sets agree within the bounds in ``BENCHMARK.json``: every
spread within its bound, the two medians within the bound of each other
(B - A as a share of A, either way), and the same share of failed
operations.  Below the metrics it prints the same figures for the runs'
``machine_ms`` record (the speed of a fixed loop, see ``run.py``), which
shows how much of the spread is the machine's own; it has no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import plans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((BENCH / "out" / f"{workload}-s{seed}.json").read_text(encoding="utf-8"))
    summary["machine_ms"] = detail["records"]["machine_ms"]
    return summary


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=plans.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    all_ok = True
    report = {}
    for workload in args.workload or list(plans.WORKLOADS):
        sets: dict = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = args.seed + i + (args.runs if name == "B" else 0)
                sets[name].append(one_run(workload, seed, seconds))
        shares = {name: {(r["failed"], r["attempted"]) for r in runs}
                  for name, runs in sets.items()}
        same_failures = {f * 1.0 / a for f, a in shares["A"] | shares["B"]}
        ok = all(r["correct"] for runs in sets.values() for r in runs) \
            and len(same_failures) == 1
        print(f"{workload}: {args.runs} runs per set, seed {args.seed}, failed share "
              f"{sorted(same_failures)}, all correct "
              f"{all(r['correct'] for runs in sets.values() for r in runs)}")
        print(f"  {'metric':<12} {'set':<3} {'median':>11} {'Q1':>11} {'Q3':>11} "
              f"{'spread':>7} {'bound':>6}  verdict")
        report[workload] = {}
        for metric, bound in bounds.items():
            stats = {}
            for name, runs in sets.items():
                stats[name] = spread([r["metrics"][metric]["value"] for r in runs])
            drift = (stats["B"][0] - stats["A"][0]) / stats["A"][0]
            verdict = all(s[3] <= bound for s in stats.values()) and abs(drift) <= bound
            ok = ok and verdict
            for name in ("A", "B"):
                med, q1, q3, spr = stats[name]
                tail = f" B-A {drift:+.3f} {'ok' if verdict else 'NOT STEADY'}" if name == "B" else ""
                print(f"  {metric:<12} {name:<3} {med:>11.4f} {q1:>11.4f} {q3:>11.4f} "
                      f"{spr:>7.3f} {bound:>6}{tail}")
            report[workload][metric] = {"A": stats["A"], "B": stats["B"], "drift": drift,
                                        "ok": verdict}
        for name, runs in sets.items():
            med, q1, q3, spr = spread([r["machine_ms"] for r in runs])
            print(f"  {'(machine_ms)':<12} {name:<3} {med:>11.4f} {q1:>11.4f} {q3:>11.4f} "
                  f"{spr:>7.3f}   record, no verdict")
        all_ok = all_ok and ok
        sys.stdout.flush()
    out = BENCH / "out" / f"steady-s{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print("steady" if all_ok else "NOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
