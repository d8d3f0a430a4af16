"""One pass over one workload's operation list, in a fresh interpreter.

    python3 bench/worker.py --workload W --seed S --trace 0|1 --check 0|1 \
        --workdir DIR --out FILE

Set-up imports the package and writes the seeded input files; then every
operation of the list runs, one at a time, each timed on its own.  With
``--check 1`` the pass checks every output; every pass records a digest of
each output, so ``run.py`` can check that later passes gave the same.  The peak resident memory is read as soon as the last operation ends,
before the checks run, so the checks never set it.  The worker writes its
timings, the check failures and, when traced, its spans to ``--out``.
``run.py`` starts it; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import plans

ROOT = Path(__file__).resolve().parent.parent

#: No operation of a healthy pass comes near this; it only stops a hang,
#: which then counts as a failed operation.
GUARD_S = 60.0


class OpTimeout(Exception):
    """An operation ran past GUARD_S."""


def _alarm(signum, frame):
    raise OpTimeout("time limit reached")


def canonical(obj):
    """A form of a result whose repr does not depend on set order."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(canonical(x) for x in obj))
    if isinstance(obj, (tuple, list)):
        if all(type(x) is int for x in obj):
            return tuple(obj)
        return tuple(canonical(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, canonical(v)) for k, v in obj.items()))
    return obj


def digest(obj) -> str:
    import hashlib  # here, not at the top: loading it would add to the peak memory

    return hashlib.sha256(repr(canonical(obj)).encode()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Pass:
    def __init__(self, workload: str, seed: int, traced: bool, check: bool,
                 workdir: Path) -> None:
        from mmsalloc import cli, core, oracle

        self.cli, self.core, self.oracle = cli, core, oracle
        self.workload = workload
        self.traced = traced
        self.check = check
        self.workdir = workdir
        self.plan = plans.plan(workload, seed)
        self.paths = {}
        self.state: dict = {}
        for name, spec in self.plan["files"].items():
            inst = core.Instance.from_rows(spec["rows"], spec["scale"])
            path = workdir / f"{name}.json"
            core.save_instance(inst, str(path))
            self.paths[name] = str(path)
            self.state[name] = inst
        self.probes: dict = {}
        self.tracer = None
        if traced:
            import tracer

            self.tracer = tracer.Tracer()
            tracer.install(self.tracer)

    # -- running -----------------------------------------------------------

    def run(self) -> dict:
        signal.signal(signal.SIGALRM, _alarm)
        ready = time.monotonic()
        records = []
        for op in self.plan["ops"]:
            records.append(self._timed(op))
        end = time.monotonic()
        if self.workload == "cli" and not self.traced:
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.traced and self.workload == "cli":
            self._startup_probes(records)
        errors = checks.check(self.workload, self.plan, records) \
            if self.check else []
        out = {
            "ready": ready,
            "end": end,
            "peak_kb": peak_kb,
            "ops": [{"kind": r["op"]["kind"], "ms": r["ms"], "ok": r["ok"],
                     "error": r["error"],
                     "digest": digest(r["result"]) if r["ok"] else None}
                    for r in records],
            "errors": errors,
        }
        if self.tracer is not None:
            out["spans"] = self.tracer.spans
            out["counts"] = dict(self.tracer.counts)
            out["probes"] = self.probes
        return out

    def _timed(self, op: dict) -> dict:
        record = {"op": op, "ok": True, "error": None, "result": None}
        span = self.tracer.begin_op(op["kind"]) if self.tracer else None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, GUARD_S)
        try:
            record["result"] = getattr(self, "op_" + op["kind"])(op)
        except OpTimeout as exc:
            record["ok"] = False
            record["error"] = f"{exc} ({GUARD_S} s)"
        except Exception as exc:  # a failed operation is counted, not fatal
            record["ok"] = False
            record["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            record["ms"] = (time.perf_counter() - start) * 1e3
            if span is not None:
                self.tracer.end_op(span)
        if record["ok"] and op["kind"] in ("cmd", "main") and record["result"]["rc"] != 0:
            record["ok"] = False
            record["error"] = f"exit {record['result']['rc']}: {record['result']['stderr']}"
        if record["ok"] and "keep_as" in op:
            path = self.workdir / f"{op['keep_as']}.json"
            path.write_text(record["result"]["stdout"], encoding="utf-8")
            self.paths[op["keep_as"]] = str(path)
        return record

    def _argv(self, op: dict) -> list:
        return [self.paths[a[1:]] if a.startswith("@") else a for a in op["argv"]]

    # -- operations --------------------------------------------------------

    def op_cmd(self, op: dict) -> dict:
        if self.traced:
            # Wrappers cannot reach a child process, so a traced run sends
            # the same commands through cli.main in this process.
            return self.op_main(op)
        proc = subprocess.run(
            [sys.executable, "-m", "mmsalloc.cli"] + self._argv(op),
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
        )
        return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def op_main(self, op: dict) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(self._argv(op))
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def op_xi(self, op: dict):
        inst = self.state[op["instance"]]
        if op["eps"] is None:
            return self.oracle.xi_vector(inst, op["k"], mode="exact")
        return self.oracle.xi_vector(inst, op["k"], eps=Fraction(op["eps"]), mode="ptas")

    # -- start-up probes (traced cli) ----------------------------------------

    def _startup_probes(self, records: list) -> None:
        """Fresh-interpreter start-up, and what ``--trace`` adds to a solve,
        for the cli layer metrics."""
        self.probes["main"] = [r["ms"] for r in records]
        plain = {tuple(r["op"]["argv"]): r["ms"] for r in records
                 if "--trace" not in r["op"]["argv"]}
        self.probes["trace_extra"] = [
            r["ms"] - plain[tuple(a for a in r["op"]["argv"] if a != "--trace")]
            for r in records if "--trace" in r["op"]["argv"]
        ]
        for key, code in (("bare", "pass"), ("import", "import mmsalloc.cli")):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], check=True, env=child_env(),
                               cwd=ROOT, timeout=GUARD_S)
                times.append((time.perf_counter() - start) * 1e3)
            self.probes[key] = times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--check", required=True, type=int, choices=(0, 1))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = Pass(args.workload, args.seed, bool(args.trace), bool(args.check),
                  Path(args.workdir)).run()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
