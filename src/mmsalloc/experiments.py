"""Monte Carlo studies of round-robin allocation on random instances.

Instances are drawn with every value independent and uniform on the
integer grid {0, 1, ..., scale}, a discrete stand-in for unit-interval
draws.  A trial succeeds when every agent clears the configured
per-agent threshold, either her proportional share v_i(M)/n or her exact
maximin share.  Checking goes through core.verify_allocation so success
has a single definition everywhere.  All ratios are kept as exact
fractions until :func:`report_text` serializes them as CSV or JSON text;
this module writes no file and no stream.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from .core import Instance, InputError, record, verify_allocation
from .oracle import EXACT_ITEM_CAP, mms_exact
from .round_robin import greedy_round_robin, modified_greedy_round_robin

ALGORITHMS = ("rr", "rr-modified")
PREDICATES = ("proportional", "mms")

DEFAULT_SCALE = 10**6
MIN_SCALE = 10**4

# Keeps the modified round robin's internal randomness decorrelated from
# the value-generation stream that shares the same trial seed.
_ALGO_SEED_SALT = 0x9E3779B97F4A7C15


@record
class TrialConfig:
    """Parameters of one Monte Carlo run."""

    n: int
    m: int
    trials: int
    seed: int
    scale: int = DEFAULT_SCALE
    algorithm: str = "rr"
    predicate: str = "proportional"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError(f"need at least one agent, got n={self.n}")
        if self.m < 0:
            raise InputError(f"negative number of goods: m={self.m}")
        if self.trials < 1:
            raise InputError(f"need at least one trial, got {self.trials}")
        if self.scale < MIN_SCALE:
            raise InputError(
                f"scale must be at least {MIN_SCALE} for a fine grid, got {self.scale}"
            )
        if self.algorithm not in ALGORITHMS:
            raise InputError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.predicate not in PREDICATES:
            raise InputError(
                f"predicate must be one of {PREDICATES}, got {self.predicate!r}"
            )


@record
class TrialStats:
    """Aggregated outcome of run_existence_trials."""

    config: TrialConfig
    successes: int
    min_ratio: Fraction

    @property
    def failures(self) -> int:
        return self.config.trials - self.successes

    @property
    def rate(self) -> Fraction:
        return Fraction(self.successes, self.config.trials)


def gen_uniform_instance(n: int, m: int, seed: int, scale: int = DEFAULT_SCALE) -> Instance:
    """Draw each value independently and uniformly from {0, 1, ..., scale}.

    Deterministic for a given seed; rows are filled agent by agent.  The
    seed must be non-negative, since ``random.Random`` reads -s as s.

    >>> gen_uniform_instance(2, 3, seed=7, scale=10**4) == \\
    ...     gen_uniform_instance(2, 3, seed=7, scale=10**4)
    True
    >>> set(gen_uniform_instance(1, 8, seed=0, scale=1).row(0)) <= {0, 1}
    True
    """
    if scale < 1:
        raise InputError(f"scale must be a positive integer, got {scale}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    rows = [[rng.randint(0, scale) for _ in range(m)] for _ in range(n)]
    return Instance(
        n=n, m=m, scale=scale, valuations=tuple(tuple(row) for row in rows)
    )


def _trial_thresholds(instance: Instance, predicate: str) -> list:
    if predicate == "proportional":
        return [
            Fraction(sum(instance.row(i)), instance.n) for i in instance.agents
        ]
    return [mms_exact(instance.row(i), instance.n).value for i in instance.agents]


def trial_seed(seed: int, t: int) -> int:
    """The seed of trial t >= 0 of a run seeded with seed.

    Distinct (seed, t) pairs get distinct non-negative seeds, so no two
    runs share a trial: seed is folded onto the non-negative integers
    (0, -1, 1, -2, ... to 0, 1, 2, 3, ...), since random.Random reads a
    negative seed as its absolute value, and paired with t by Cantor's
    pairing function.

    >>> len({trial_seed(s, t) for s in range(-4, 4) for t in range(500)})
    4000
    """
    s = 2 * seed if seed >= 0 else -2 * seed - 1
    return (s + t) * (s + t + 1) // 2 + t


def run_existence_trials(config: TrialConfig) -> TrialStats:
    """Run the configured algorithm on fresh random instances and count
    how often every agent clears the predicate threshold.

    Trial t uses seed ``trial_seed(config.seed, t)``, so runs with
    different seeds share no trial.  The mms predicate needs the exact
    oracle, so it is limited to m at most EXACT_ITEM_CAP goods.
    """
    if config.predicate == "mms" and config.m > EXACT_ITEM_CAP:
        raise InputError(
            f"mms predicate needs m <= {EXACT_ITEM_CAP}, got m={config.m}"
        )
    successes = 0
    trial_minima: list[Fraction] = []
    for t in range(config.trials):
        seed = trial_seed(config.seed, t)
        instance = gen_uniform_instance(config.n, config.m, seed, config.scale)
        if config.algorithm == "rr":
            allocation = greedy_round_robin(instance)
        else:
            allocation = modified_greedy_round_robin(
                instance, seed=seed ^ _ALGO_SEED_SALT
            )
        thresholds = _trial_thresholds(instance, config.predicate)
        report = verify_allocation(instance, allocation, thresholds)
        if report.ok:
            successes += 1
        ratios = []
        for check in report.checks:
            total = sum(instance.row(check.agent))
            if total:
                ratios.append(Fraction(check.value * instance.n, total))
        trial_minima.append(min(ratios) if ratios else Fraction(1))
    return TrialStats(
        config=config, successes=successes, min_ratio=min(trial_minima)
    )


def _stats_row(stats: TrialStats) -> dict:
    cfg = stats.config
    return {
        "n": cfg.n,
        "m": cfg.m,
        "T": cfg.trials,
        "seed": cfg.seed,
        "algo": cfg.algorithm,
        "predicate": cfg.predicate,
        "successes": stats.successes,
        "rate": float(stats.rate),
        "min_ratio": float(stats.min_ratio),
    }


def report_text(stats: TrialStats, fmt: str) -> str:
    """The stats as CSV, a header line and one row, or as a JSON list of one
    object with the same keys: n,m,T,seed,algo,predicate,successes,rate,
    min_ratio.

    No field holds a comma, a quote or a line break, so the CSV needs no
    quoting.
    """
    row = _stats_row(stats)
    if fmt == "csv":
        return f"{','.join(row)}\n{','.join(map(str, row.values()))}\n"
    if fmt == "json":
        return json.dumps([row], indent=2) + "\n"
    raise InputError(f"format must be 'csv' or 'json', got {fmt!r}")
