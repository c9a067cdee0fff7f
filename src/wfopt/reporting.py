"""Metrics over run logs: round scores, pruning rate, tokens, cost, variance."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .harness import PriceMap, cost, tokens_per_problem
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


def round_scores(log: RunLog) -> list[float]:
    """Per-round validation score: the best reward simulated within the round.
    A `simulated` record without a `round` or a `reward` raises `ValueError`."""
    per_round: dict[int, float] = {}
    for record in log.by_event("simulated"):
        for key in ("round", "reward"):
            if key not in record:
                raise ValueError(f"simulated record without {key!r}")
        rnd = record["round"]
        per_round[rnd] = max(per_round.get(rnd, 0.0), record["reward"])
    return [per_round[r] for r in sorted(per_round)]


def analyze(log: RunLog, path: str = "<log>") -> RunStats:
    meta_records = log.by_event("meta")
    meta = meta_records[0] if meta_records else {}
    n_problems = int(meta.get("n_problems", 1))
    prices = PriceMap({role: tuple(p) for role, p in meta.get("prices", {}).items()}) if meta.get("prices") else PriceMap.zero()

    proposed = sum(int(r.get("count", 0)) for r in log.by_event("proposed"))
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
