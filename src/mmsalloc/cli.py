"""Command line interface: gen, solve, mms, verify, and experiment.

Every solve self-verifies its advertised guarantee before printing: the
allocation is checked against per-agent thresholds built from the instance,
and a violation exits with status 1 instead of emitting the result.  Exact
shares: one process memo, under :func:`mms_exact`, so the thresholds search
no share the solver asked, nor does a later command of the same process
(each run of this program starts with the memo empty).  Approximate shares:
the oracle of the one solve; the thresholds ask none.  When the exact oracle
is out of reach (too many goods) the thresholds fall back to a fast
certified lower bound on each maximin share, so the check stays sound.  Exit
codes: 0 success, 1 guarantee violation, 2 input error.  Good and agent
indices are 1-based in all files and printed artifacts.  ``solve --trace``
prints each solver's own trace steps through one rule that holds for every
solver (:func:`_one_based`).  The library builds each result as text, and
:func:`_emit` alone writes it, to the ``--out`` file or to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    Certificate,
    GuaranteeError,
    InputError,
    Instance,
    allocation_payload,
    allocation_to_json,
    instance_to_json,
    load_allocation,
    load_instance,
    verify_allocation,
)
from .experiments import (
    ALGORITHMS as TRIAL_ALGORITHMS,
    DEFAULT_SCALE,
    PREDICATES,
    TrialConfig,
    gen_uniform_instance,
    report_text,
    run_existence_trials,
)
from .half import apx_mms_half
from .oracle import ShareOracle
from .round_robin import greedy_round_robin, modified_greedy_round_robin
from .ternary import exact_mms_012
from .three_agents import apx_3_mms
from .two_thirds import apx_mms, rho

ALGORITHMS = ("rr", "rr-modified", "half", "twothirds", "three78", "ternary")
_EPS_ALGOS = ("twothirds", "three78")


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{flag} must be a rational like 1/10, got {text!r}") from exc
    try:
        str(value)
    except ValueError:  # a numerator or denominator past the int digit limit
        raise InputError(f"{flag} has too many digits to print, got {text!r}") from None
    return value


def _solve_thresholds(
    instance: Instance, algo: str, eps: Optional[Fraction], mode: str
) -> list[Fraction]:
    n = instance.n
    if algo == "rr":
        out = []
        for i in instance.agents:
            row = instance.row(i)
            biggest = max(row) if row else 0
            out.append(max(Fraction(0), Fraction(sum(row), n) - biggest))
        return out
    if algo == "rr-modified":
        return [Fraction(0)] * n
    oracle = ShareOracle(mode)
    base = [oracle.lower(instance.row(i), n) for i in instance.agents]
    if algo == "half":
        return [Fraction(b, 2) for b in base]
    if algo == "twothirds" and n > 1:
        factor = Fraction(2, 3) - eps if oracle.loss(eps) else rho(n)
        return [factor * b for b in base]
    if algo == "three78":
        return [(Fraction(7, 8) - oracle.loss(eps)) * b for b in base]
    # ternary, and twothirds with one agent, who takes every good
    return [Fraction(b) for b in base]


#: Trace fields that hold counts or values, not 0-based indices.
_NOT_INDICES = frozenset({"rows", "dummies", "kept_value", "discarded_value"})


def _one_based(value):
    """A solver's trace, or any part of it, as JSON: every index 1-based,
    Fractions as text, frozensets as sorted lists and other sequences as
    lists.  A step is a dict; its keys named in _NOT_INDICES are copied as
    they are."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, frozenset):
        return sorted(map(_one_based, value))
    if isinstance(value, (list, tuple)):
        return [_one_based(item) for item in value]
    return {
        key: item if key in _NOT_INDICES else _one_based(item)
        for key, item in value.items()
    }


def _check_solve_flags(args) -> None:
    algo = args.algo
    if algo in _EPS_ALGOS:
        if args.eps is None:
            raise InputError(f"--eps is required for --algo {algo}")
    elif args.eps is not None:
        raise InputError(f"--eps is only accepted for {' and '.join(_EPS_ALGOS)}")
    if args.oracle is not None and algo not in _EPS_ALGOS:
        raise InputError(f"--oracle is only accepted for {' and '.join(_EPS_ALGOS)}")
    if args.order is not None and algo != "rr":
        raise InputError("--order is only accepted for --algo rr")
    if args.seed is not None and algo != "rr-modified":
        raise InputError("--seed is only accepted for --algo rr-modified")


def _run_solver(args, instance: Instance, mode: str, trace: Optional[list]):
    algo = args.algo
    if algo == "rr":
        order = None
        if args.order is not None:
            try:
                order = [int(x) for x in args.order.split(",") if x != ""]
            except ValueError as exc:
                raise InputError(
                    f"--order must be comma-separated integers, got {args.order!r}"
                ) from exc
            if sorted(order) != list(range(1, instance.n + 1)):
                raise InputError(
                    f"--order must be a permutation of 1..{instance.n}, "
                    f"got {args.order!r}"
                )
            order = [agent - 1 for agent in order]
        return greedy_round_robin(instance, order=order)
    if algo == "rr-modified":
        return modified_greedy_round_robin(
            instance, seed=0 if args.seed is None else args.seed
        )
    if algo == "half":
        return apx_mms_half(instance, trace=trace)
    if algo == "twothirds":
        return apx_mms(instance, args.eps, oracle_mode=mode, trace=trace)
    if algo == "three78":
        return apx_3_mms(instance, args.eps, oracle_mode=mode, trace=trace)
    return exact_mms_012(instance, trace=trace)


def _emit(text: str, out: Optional[str]) -> None:
    """Write text to the file out, or to stdout when no file is named."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _certificate_table(certificates: Sequence[Certificate]) -> str:
    lines = ["agent  value  threshold  ok"]
    for cert in certificates:
        ok = "yes" if cert.ok else "NO"
        lines.append(
            f"{cert.agent + 1:>5}  {cert.value:>5}  {cert.threshold_int:>9}  {ok}"
        )
    return "\n".join(lines)


def cmd_solve(args) -> int:
    _check_solve_flags(args)
    if args.eps is not None:
        args.eps = _parse_fraction(args.eps, "--eps")
    instance = load_instance(args.instance)
    trace: Optional[list] = [] if args.trace else None
    mode = args.oracle or "ptas"
    allocation = _run_solver(args, instance, mode, trace)
    thresholds = _solve_thresholds(instance, args.algo, args.eps, mode)
    rows = verify_allocation(instance, allocation, thresholds)
    failed = [row for row in rows if not row.ok]
    for row in failed:
        print(
            f"guarantee violation: agent {row.agent + 1} got {row.value}, "
            f"needs {row.threshold}",
            file=sys.stderr,
        )
    if failed:
        return 1
    if args.trace:
        payload = allocation_payload(allocation, rows)
        try:
            payload["trace"] = _one_based(trace)
        except ValueError:  # a Fraction past the int digit limit
            raise InputError(
                "the trace holds a number with too many digits to print; "
                "use a coarser --eps"
            ) from None
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = allocation_to_json(allocation, rows)
    _emit(text, args.out)
    if args.out:
        print(_certificate_table(rows))
    return 0


def cmd_mms(args) -> int:
    instance = load_instance(args.instance)
    if not 1 <= args.agent <= instance.n:
        raise InputError(
            f"--agent must be between 1 and n={instance.n}, got {args.agent}"
        )
    top = max(instance.n, instance.m)
    if args.k > top:
        raise InputError(f"--k must be at most max(n, m) = {top}, got {args.k}")
    row = instance.row(args.agent - 1)
    eps = None if args.exact else _parse_fraction(args.eps, "--eps")
    cert = ShareOracle("exact" if args.exact else "ptas").share(row, args.k, eps)
    payload = {
        "agent": args.agent,
        "k": cert.k,
        "mode": cert.mode,
        "eps": None if cert.eps is None else str(cert.eps),
        "value": cert.value,
        "witness": _one_based(cert.witness),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_gen(args) -> int:
    instance = gen_uniform_instance(args.n, args.m, args.seed, args.scale)
    _emit(instance_to_json(instance), args.out)
    return 0


def cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    allocation, certificates = load_allocation(args.allocation)
    rows: dict[int, Certificate] = {}
    for cert in certificates:
        if not 0 <= cert.agent < instance.n:
            raise InputError(f"certificate agent {cert.agent + 1} out of range")
        if rows.setdefault(cert.agent, cert) is not cert:
            raise InputError(f"agent {cert.agent + 1} has a second certificate row")
    missing = [i + 1 for i in instance.agents if i not in rows]
    if missing:
        raise InputError(f"agent {missing[0]} has no certificate row")
    print(
        "checking the allocation file's own thresholds; they are not rebuilt "
        "from the instance",
        file=sys.stderr,
    )
    checks = verify_allocation(
        instance, allocation, [rows[i].threshold for i in instance.agents]
    )
    misstated = False
    for check in checks:
        status = "ok" if check.ok else "FAIL"
        print(
            f"agent {check.agent + 1}: value {check.value} >= "
            f"{check.threshold} {status}"
        )
        stated = rows[check.agent].value
        if stated != check.value:
            misstated = True
            print(
                f"agent {check.agent + 1}: the file states value {stated}, "
                f"but the bundle is worth {check.value}",
                file=sys.stderr,
            )
    if misstated or not all(check.ok for check in checks):
        print("verification failed", file=sys.stderr)
        return 1
    return 0


def cmd_experiment(args) -> int:
    config = TrialConfig(
        n=args.n,
        m=args.m,
        trials=args.trials,
        seed=args.seed,
        scale=args.scale,
        algorithm=args.algo,
        predicate=args.predicate,
    )
    stats = run_existence_trials(config)
    _emit(report_text(stats, args.format), args.out)
    if args.out:
        print(
            f"{stats.successes}/{config.trials} trials succeeded "
            f"(rate {float(stats.rate):.4f}), report written to {args.out}"
        )
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by every
    call.  A parser is full of reference cycles, so one built per call would
    leave them to the cyclic garbage collector."""
    parser = argparse.ArgumentParser(
        prog="mmsalloc",
        description="Approximate maximin-share allocation of indivisible goods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="allocate an instance file")
    p_solve.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_solve.add_argument("--instance", required=True, help="instance JSON file")
    p_solve.add_argument("--eps", default=None, help="rational accuracy, e.g. 1/10")
    p_solve.add_argument("--oracle", default=None, choices=("exact", "ptas"))
    p_solve.add_argument(
        "--order", default=None, help="picking order for rr, 1-based, e.g. 2,1"
    )
    p_solve.add_argument(
        "--seed", default=None, type=int, help="random seed for rr-modified"
    )
    p_solve.add_argument("--trace", action="store_true", help="include a trace")
    p_solve.add_argument("--out", default=None, help="write allocation JSON here")
    p_solve.set_defaults(func=cmd_solve)

    p_mms = sub.add_parser("mms", help="one agent's maximin share")
    p_mms.add_argument("--instance", required=True)
    p_mms.add_argument("--agent", required=True, type=int, help="1-based agent index")
    p_mms.add_argument("--k", required=True, type=int, help="bundle count")
    group = p_mms.add_mutually_exclusive_group(required=True)
    group.add_argument("--exact", action="store_true")
    group.add_argument("--eps", default=None, help="rational accuracy, e.g. 1/10")
    p_mms.add_argument("--out", default=None)
    p_mms.set_defaults(func=cmd_mms)

    p_gen = sub.add_parser("gen", help="generate a uniform random instance")
    p_gen.add_argument("--n", required=True, type=int)
    p_gen.add_argument("--m", required=True, type=int)
    p_gen.add_argument("--seed", required=True, type=int)
    p_gen.add_argument("--scale", default=DEFAULT_SCALE, type=int)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser(
        "verify", help="check an allocation file against its certificates"
    )
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--allocation", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("experiment", help="Monte Carlo success-rate study")
    p_exp.add_argument("--n", required=True, type=int)
    p_exp.add_argument("--m", required=True, type=int)
    p_exp.add_argument("--trials", required=True, type=int)
    p_exp.add_argument("--seed", required=True, type=int)
    p_exp.add_argument("--scale", default=DEFAULT_SCALE, type=int)
    p_exp.add_argument("--algo", default="rr", choices=TRIAL_ALGORITHMS)
    p_exp.add_argument("--predicate", default="proportional", choices=PREDICATES)
    p_exp.add_argument("--format", default="csv", choices=("csv", "json"))
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuaranteeError as exc:
        print(f"guarantee violation: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
