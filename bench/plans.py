"""Seeded operation lists for the two workloads.

A run of a workload makes ``run.PASSES`` passes over one fixed list of at
least 40 operations, ``plan(workload, seed)``; each pass runs in a fresh worker
process and works through the list to its end, one operation at a time.
Nothing here imports the package: a plan is plain data (instances as rows,
operations as dicts), so its inputs depend only on (workload, seed).

Operation kinds, by workload:

* cli: ``cmd`` runs ``python -m mmsalloc.cli <argv>`` in a child process.
  An argument ``@NAME`` names an instance file written in set-up, or a
  file an earlier operation saved with ``keep_as``.
* oracle: ``xi`` asks the exact or approximate oracle for every row of an
  instance; ``main`` runs ``mmsalloc.cli.main`` in the worker.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli", "oracle")

EPS = "1/10"
BIG_SCALE = 10**6


def _rows(rng: random.Random, n: int, m: int, high: int) -> list[list[int]]:
    return [[rng.randint(0, high) for _ in range(m)] for _ in range(n)]


def _instance(rows: list[list[int]], scale: int) -> dict:
    return {"rows": rows, "scale": scale}


# ---------------------------------------------------------------------------
# cli: small commands, each a fresh interpreter.
# ---------------------------------------------------------------------------

CLI_GROUPS = 3


def _plan_cli(rng: random.Random) -> dict:
    files = {"T": _instance(_rows(rng, 3, 10, 2), 1)}
    gen = ["gen", "--n", "3", "--m", "10", "--seed", str(rng.randrange(10**6)),
           "--scale", "1000"]
    ops = [
        {"kind": "cmd", "argv": gen, "check": "gen"},
        {"kind": "cmd", "argv": gen, "check": "gen"},
    ]
    for traced in (False, True):
        ops.append({"kind": "cmd", "check": "solve", "instance": "T",
                    "argv": ["solve", "--instance", "@T", "--algo", "ternary"]
                    + (["--trace"] if traced else [])})
    for group in range(CLI_GROUPS):
        name = f"G{group}"
        files[name] = _instance(_rows(rng, 3, 10, 1000), 1000)
        solves = (
            ["--algo", "rr"],
            ["--algo", "rr-modified", "--seed", str(rng.randrange(1000))],
            ["--algo", "half"],
            ["--algo", "twothirds", "--eps", EPS],
            ["--algo", "three78", "--eps", EPS],
        )
        for flags in solves:
            for traced in (False, True):
                op = {"kind": "cmd", "check": "solve", "instance": name,
                      "argv": ["solve", "--instance", "@" + name] + flags
                      + (["--trace"] if traced else [])}
                if flags[1] == "twothirds" and not traced:
                    op["keep_as"] = "A" + name
                ops.append(op)
        agents = rng.sample(range(1, 4), 2)
        for agent, how in zip(agents, (["--exact"], ["--eps", EPS])):
            ops.append({"kind": "cmd", "check": "mms", "instance": name,
                        "argv": ["mms", "--instance", "@" + name, "--agent", str(agent),
                                 "--k", "3"] + how})
        ops.append({"kind": "cmd", "check": "verify", "instance": name,
                    "argv": ["verify", "--instance", "@" + name, "--allocation",
                             "@A" + name]})
    ops.append({"kind": "cmd", "check": "experiment",
                "argv": ["experiment", "--n", "4", "--m", "8", "--trials", "10",
                         "--seed", str(rng.randrange(10**6)), "--algo", "rr"]})
    # Larger inputs, so that generation and round robin also run on more
    # than 10 000 values and solve's thresholds fall back to the greedy
    # floor (more than 22 goods).
    files["L"] = _instance(_rows(rng, 100, 200, 1000), 1000)
    files["H"] = _instance(_rows(rng, 30, 300, 1000), 1000)
    ops += [
        {"kind": "cmd", "check": "gen",
         "argv": ["gen", "--n", "100", "--m", "200", "--seed", str(rng.randrange(10**6)),
                  "--scale", "1000"]},
        {"kind": "cmd", "check": "solve", "instance": "L",
         "argv": ["solve", "--instance", "@L", "--algo", "rr"]},
        {"kind": "cmd", "check": "solve", "instance": "H",
         "argv": ["solve", "--instance", "@H", "--algo", "half"]},
    ]
    return {"files": files, "ops": ops}


# ---------------------------------------------------------------------------
# oracle: the cover search, directly and under the solvers.
#
# Single oracle calls vary about 0.8 times their mean from row to row, with
# a long tail (1.4 s at 20 goods), so a list of them does not repeat across
# seeds.  An operation here is therefore one query over every row of an
# instance (xi_vector, as the solvers' threshold rebuild makes it) or one
# solve, both of which average several searches.
# ---------------------------------------------------------------------------

#: (agents, goods, (algo, oracle mode)) for the in-process solves.  Each
#: instance also gets an exact xi_vector query at k = agents, whose verified
#: values are the shares the solves are checked against.
_SOLVES = (
    (3, 12, (("twothirds", "exact"), ("twothirds", "ptas"), ("three78", "exact"),
             ("three78", "ptas"), ("half", None))),
    (4, 12, (("twothirds", "exact"), ("twothirds", "ptas"), ("half", None))),
    (5, 12, (("twothirds", "exact"), ("twothirds", "ptas"), ("half", None))),
    (3, 13, (("twothirds", "exact"), ("twothirds", "ptas"), ("three78", "exact"),
             ("three78", "ptas"), ("half", None))),
)

#: (agents, goods, bundles) for exact queries.  Rows of at most
#: ``checks.EXHAUSTIVE_CAP`` goods are checked by exhaustive search, k = 2 by
#: subset sums.
_XI_EXACT = ((6, 12, 2), (6, 12, 3), (6, 12, 4), (6, 13, 2), (6, 13, 3), (6, 14, 3)) * 2 \
    + ((6, 10, 3), (6, 10, 4))

#: (agents, goods, bundles) for approximate queries at eps 1/10; all finish.
#: The k = 10 queries are the slowest operations, all of one size, and
#: there are enough of them that the tail percentile falls in the middle of
#: their group rather than on its few slowest.
_XI_APPROX = ((4, 40, 2), (4, 60, 5), (4, 90, 5)) + ((6, 105, 10),) * 6

ORACLE_GROUPS = 3


def _plan_oracle(rng: random.Random) -> dict:
    files = {}
    ops = []
    for group in range(ORACLE_GROUPS):
        for idx, (n, m, algos) in enumerate(_SOLVES):
            name = f"S{group}.{idx}"
            files[name] = _instance(_rows(rng, n, m, BIG_SCALE), BIG_SCALE)
            ops.append({"kind": "xi", "instance": name, "k": n, "eps": None,
                        "shares": True})
            for algo, mode in algos:
                argv = ["solve", "--instance", "@" + name, "--algo", algo]
                if mode is not None:
                    argv += ["--eps", EPS, "--oracle", mode]
                ops.append({"kind": "main", "argv": argv, "check": "solve",
                            "instance": name})
        queries = [(n, m, k, None) for n, m, k in _XI_EXACT] + \
            [(n, m, k, EPS) for n, m, k in _XI_APPROX]
        for idx, (n, m, k, eps) in enumerate(queries):
            name = f"Q{group}.{idx}"
            files[name] = _instance(_rows(rng, n, m, BIG_SCALE), BIG_SCALE)
            ops.append({"kind": "xi", "instance": name, "k": k, "eps": eps})
    rng.shuffle(ops)
    return {"files": files, "ops": ops}


_PLANNERS = {
    "cli": _plan_cli,
    "oracle": _plan_oracle,
}


def plan(workload: str, seed: int) -> dict:
    """The inputs and operations of a run; same arguments, same plan."""
    return _PLANNERS[workload](random.Random(f"{workload}/{seed}"))
