"""Metrics over run logs: round scores, pruning rate, tokens, cost, variance."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .harness import PriceMap, cost, tokens_per_problem
from .model import finite_number
from .roles import MAX_TOKENS
from .runlog import RunLog


@dataclass(frozen=True)
class RunStats:
    path: str
    rounds: int
    round_scores: tuple[float, ...]
    mean_score: float
    std_score: float           # population standard deviation
    proposed: int
    pruned: int
    pruning_rate: float
    tokens_per_problem: float
    cost_per_problem: float
    best_reward: float


def _population_std(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


_REQUIRED = object()


def _mistyped(record: Mapping, name: str, what: str) -> ValueError:
    text = json.dumps(record, sort_keys=True)
    text = text if len(text) <= 120 else text[:117] + "..."
    return ValueError(f"{record.get('event')} record {text}: {name!r} is not {what}")


def _field(record: Mapping, name: str, kind: type, default=_REQUIRED):
    """`record[name]`, an int, or a finite number for `kind` float (never a
    bool), or `default` when the record lacks it. A missing field with no
    default, or any other value, raises `ValueError` naming the record and
    field."""
    if name not in record:
        if default is _REQUIRED:
            raise ValueError(f"{record.get('event')} record without {name!r}")
        return default
    value = record[name]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise _mistyped(record, name, "a number" if kind is float else "an integer")
    if kind is float and not finite_number(value):
        raise _mistyped(record, name, "a finite number")
    return value


def _prices(meta: Mapping) -> PriceMap:
    """The meta record's per-role (input, output) prices, zero without any."""
    prices = meta.get("prices")
    if not prices:
        return PriceMap.zero()
    if not isinstance(prices, dict):
        raise _mistyped(meta, "prices", "an object of roles")
    pairs = {}
    for role, pair in prices.items():
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(p, (int, float)) and not isinstance(p, bool) and finite_number(p) for p in pair)):
            raise _mistyped(meta, "prices", f"a pair of numbers for role {role!r}")
        pairs[role] = tuple(pair)
    return PriceMap(pairs)


def _check_usage(log: RunLog, prices: PriceMap) -> None:
    """Each record's token counts are integers from 0 to 2**53 or null, and
    the role they are charged to has a price."""
    for record in log:
        if record.get("tokens_in") is None and record.get("tokens_out") is None:
            continue
        for name in ("tokens_in", "tokens_out"):
            if record.get(name) is not None and not 0 <= _field(record, name, int) <= MAX_TOKENS:
                raise _mistyped(record, name, "a count from 0 to 2**53")
        role = record.get("role", "executor")
        if not isinstance(role, str) or role not in prices.prices:
            raise _mistyped(record, "role", "a priced role")


def round_scores(log: RunLog) -> list[float]:
    """Per-round validation score: the best reward simulated within the round.
    A `simulated` record without an integer `round` or a numeric `reward`
    raises `ValueError`."""
    per_round: dict[int, float] = {}
    for record in log.by_event("simulated"):
        rnd, reward = _field(record, "round", int), _field(record, "reward", float)
        per_round[rnd] = max(per_round.get(rnd, 0.0), reward)
    return [per_round[r] for r in sorted(per_round)]


def analyze(log: RunLog, path: str = "<log>") -> RunStats:
    """The stats of one run log. A field of the wrong type, in a record this
    reads, raises `ValueError` naming the record and the field."""
    meta_records = log.by_event("meta")
    meta = meta_records[0] if meta_records else {}
    n_problems = _field(meta, "n_problems", int, 1)
    prices = _prices(meta)
    _check_usage(log, prices)

    proposed = sum(_field(r, "count", int, 0) for r in log.by_event("proposed"))
    pruned = len(log.by_event("pruned"))
    scores = round_scores(log)
    rewards = [r["reward"] for r in log.by_event("simulated")]  # each checked by round_scores
    return RunStats(
        path=path,
        rounds=len(scores),
        round_scores=tuple(scores),
        mean_score=sum(scores) / len(scores) if scores else 0.0,
        std_score=_population_std(scores),
        proposed=proposed,
        pruned=pruned,
        pruning_rate=pruned / proposed if proposed else 0.0,
        tokens_per_problem=tokens_per_problem(log, n_problems),
        cost_per_problem=cost(log, prices, n_problems),
        best_reward=max(rewards, default=0.0),
    )


def variance_ratio(a: RunStats, b: RunStats) -> float:
    """sigma_A / sigma_B over per-round validation scores."""
    if b.std_score == 0.0:
        return math.inf if a.std_score > 0 else 1.0
    return a.std_score / b.std_score


def report(paths: Sequence[str | Path]) -> tuple[list[RunStats], str]:
    """Summarize one or more run logs; with exactly two, adds the variance ratio."""
    if not paths:
        raise ValueError("report needs at least one run log")
    stats = [analyze(RunLog.load(p), str(p)) for p in paths]
    lines = [
        f"{'run':<40} {'rounds':>6} {'mean':>8} {'std':>8} {'prune%':>8} {'tok/prob':>10} {'cost':>12} {'best':>6}"
    ]
    for s in stats:
        lines.append(
            f"{Path(s.path).name[:40]:<40} {s.rounds:>6d} {s.mean_score:>8.4f} {s.std_score:>8.4f} "
            f"{100.0 * s.pruning_rate:>8.1f} {s.tokens_per_problem:>10.1f} {s.cost_per_problem:>12.6f} "
            f"{s.best_reward:>6.3f}"
        )
    if len(stats) == 2:
        lines.append(f"variance ratio (first/second): {variance_ratio(stats[0], stats[1]):.4f}")
    return stats, "\n".join(lines)
