"""Checks of every output a round produced.

Each check compares against a reference computation in ``reference.py``
or against a property the method must have; none compares against stored
output.  :func:`check` returns one message per failed check, and one per
failed operation.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Optional

from reference import (
    bundle_values,
    exhaustive_share,
    heap_floor,
    partition_error,
    rr_floor,
    ternary_share,
    two_way_share,
)

#: Rows up to this many goods are checked by exhaustive search.
EXHAUSTIVE_CAP = 12


def rho(n: int) -> Fraction:
    """The recursive solver's factor with exact shares: 2o/(3o-1), o the
    largest odd number <= n."""
    odd = n if n % 2 else n - 1
    return Fraction(2 * odd, 3 * odd - 1)


def _flag(argv: list, name: str) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else None


def solve_floor(argv: list, row: list, n: int, share) -> Fraction:
    """What ``solve`` promises one agent; ``share`` is a callable returning
    her share, or a lower bound on it."""
    algo = _flag(argv, "--algo")
    if algo == "rr":
        return rr_floor(row, n)
    if algo == "rr-modified":
        return Fraction(0)
    if algo == "half":
        return Fraction(share(), 2)
    if algo == "ternary":
        return Fraction(ternary_share(row.count(2), row.count(1), n))
    eps = Fraction(_flag(argv, "--eps"))
    exact = _flag(argv, "--oracle") == "exact"
    if n == 1:
        factor = Fraction(1)
    elif algo == "twothirds":
        factor = rho(n) if exact else Fraction(2, 3) - eps
    else:
        factor = Fraction(7, 8) if exact else Fraction(7, 8) - eps
    return factor * share()


class Checker:
    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.errors: list[str] = []
        self.shares: dict = {}

    def fail(self, index: int, op: dict, message: str) -> None:
        self.errors.append(f"op {index} ({op['kind']} {op.get('argv', '')}): {message}")

    def rows(self, op: dict) -> list:
        return self.plan["files"][op["instance"]]["rows"]

    def share(self, rows: list, i: int, k: int) -> int:
        """The exhaustive share, or for longer rows the heap floor, which is
        at most the share."""
        key = (tuple(rows[i]), k)
        if key not in self.shares:
            self.shares[key] = exhaustive_share(rows[i], k) \
                if len(rows[i]) <= EXHAUSTIVE_CAP else heap_floor(rows[i], k)
        return self.shares[key]

    # -- shared ------------------------------------------------------------

    def check_allocation_json(self, index: int, op: dict, text: str, rows: list,
                              share_of) -> None:
        """A ``solve`` output: a partition of goods 1..m, certificate values
        equal to the recomputed bundle values, each meeting its promise."""
        n, m = len(rows), len(rows[0])
        payload = json.loads(text)
        bundles = payload["bundles"]
        problem = partition_error(bundles, m, n, base=1)
        if problem:
            self.fail(index, op, problem)
            return
        values = bundle_values(rows, bundles, base=1)
        certs = payload["certificates"]
        if [c["agent"] for c in certs] != list(range(1, n + 1)):
            self.fail(index, op, "certificates do not list agents 1..n")
            return
        for i, cert in enumerate(certs):
            if cert["value"] != values[i]:
                self.fail(index, op, f"agent {i + 1} certificate {cert['value']} != {values[i]}")
            floor = solve_floor(op["argv"], rows[i], n, lambda: share_of(rows, i, n))
            if values[i] < floor:
                self.fail(index, op, f"agent {i + 1} got {values[i]} < {floor}")
        if "--trace" in op["argv"] and not isinstance(payload.get("trace"), list):
            self.fail(index, op, "--trace output has no trace list")

    def check_witness(self, index: int, op: dict, row: list, k: int, cert) -> bool:
        """Witness is a k-partition of the row's positions whose worst
        bundle attains the value, and the value is at most total // k."""
        problem = partition_error([sorted(b) for b in cert.witness], len(row), k)
        if problem:
            self.fail(index, op, f"witness: {problem}")
            return False
        worst = min(sum(row[g] for g in b) for b in cert.witness)
        if worst != cert.value:
            self.fail(index, op, f"witness worst bundle {worst} != value {cert.value}")
            return False
        if cert.value > sum(row) // k:
            self.fail(index, op, f"value {cert.value} above total/k")
            return False
        return True

    # -- cli ---------------------------------------------------------------

    def cli(self, index: int, op: dict, result: dict, earlier: list) -> None:
        argv, text, kind = op["argv"], result["stdout"], op["check"]
        if kind == "gen":
            payload = json.loads(text)
            n, m, scale = (int(_flag(argv, f)) for f in ("--n", "--m", "--scale"))
            vals = payload["valuations"]
            if (payload["n"], payload["m"], payload["scale"]) != (n, m, scale) or \
                    len(vals) != n or any(len(r) != m for r in vals):
                self.fail(index, op, "wrong shape")
            if any(not 0 <= v <= scale for r in vals for v in r):
                self.fail(index, op, "value outside 0..scale")
            for prev_op, prev in earlier:
                if prev_op["argv"] == argv and prev["stdout"] != text:
                    self.fail(index, op, "rerun is not byte-identical")
        elif kind == "solve":
            self.check_allocation_json(index, op, text, self.rows(op), self.share)
        elif kind == "mms":
            rows = self.rows(op)
            agent, k = int(_flag(argv, "--agent")) - 1, int(_flag(argv, "--k"))
            row, payload = rows[agent], json.loads(text)
            share = self.share(rows, agent, k)
            witness = [[g - 1 for g in b] for b in payload["witness"]]
            problem = partition_error(witness, len(row), k)
            if problem:
                self.fail(index, op, f"witness: {problem}")
            elif min(sum(row[g] for g in b) for b in witness) != payload["value"]:
                self.fail(index, op, "witness does not attain the value")
            eps = Fraction(_flag(argv, "--eps") or 0)
            if not (1 - eps) * share <= payload["value"] <= share:
                self.fail(index, op, f"value {payload['value']} vs share {share}")
        elif kind == "verify":
            lines = text.splitlines()
            if len(lines) != len(self.rows(op)) or not all(l.endswith(" ok") for l in lines):
                self.fail(index, op, f"unexpected report {text!r}")
        elif kind == "experiment":
            table = list(csv.DictReader(io.StringIO(text)))
            trials = int(_flag(argv, "--trials"))
            if len(table) != 1 or int(table[0]["T"]) != trials or \
                    not 0 <= int(table[0]["successes"]) <= trials:
                self.fail(index, op, f"unexpected report {text!r}")

    # -- oracle ------------------------------------------------------------

    def oracle(self, index: int, op: dict, result) -> None:
        rows = self.rows(op)
        for i, cert in enumerate(result):
            if self.oracle_row(index, op, rows[i], op["k"], op["eps"], cert) \
                    and op.get("shares"):
                self.shares[(op["instance"], i)] = cert.value

    def oracle_row(self, index: int, op: dict, row: list, k: int, eps, cert) -> bool:
        """One maximin answer: a valid witness, and the value exact against a
        reference where one is known, else bounded by the greedy floor."""
        if not self.check_witness(index, op, row, k, cert):
            return False
        known = None
        if k == 2:
            known = two_way_share(row)
        elif len(row) <= EXHAUSTIVE_CAP:
            known = exhaustive_share(row, k)
        if eps is None:
            if known is not None and cert.value != known:
                self.fail(index, op, f"value {cert.value} != reference {known}")
                return False
            if cert.value < heap_floor(row, k):
                self.fail(index, op, "value below the greedy floor")
                return False
            return True
        eps = Fraction(eps)
        base = known if known is not None else heap_floor(row, k)
        if cert.value < (1 - eps) * base or (known is not None and cert.value > known):
            self.fail(index, op, f"approximate value {cert.value} vs {base}")
            return False
        return True

    def oracle_solve(self, index: int, op: dict, result: dict) -> None:
        name = op["instance"]

        def verified_share(rows, i, k):
            if (name, i) not in self.shares:
                raise KeyError(f"no verified share for {name} agent {i}")
            return self.shares[(name, i)]

        self.check_allocation_json(index, op, result["stdout"], self.rows(op),
                                   verified_share)


def check(workload: str, plan: dict, records: list) -> list[str]:
    checker = Checker(plan)
    done = []
    for index, rec in enumerate(records):
        op = rec["op"]
        if not rec["ok"]:
            checker.fail(index, op, f"failed: {rec['error']}")
            continue
        if workload == "cli":
            checker.cli(index, op, rec["result"], done)
            done.append((op, rec["result"]))
        elif workload == "oracle" and op["kind"] != "main":
            checker.oracle(index, op, rec["result"])
    if workload == "oracle":
        for index, rec in enumerate(records):
            if rec["ok"] and rec["op"]["kind"] == "main":
                checker.oracle_solve(index, rec["op"], rec["result"])
    return checker.errors
