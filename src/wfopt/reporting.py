"""Metrics over run logs: round scores, pruning rate, tokens, cost, variance."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import schema
from .harness import PriceMap
from .runlog import RunLog
from .schema import MAX_COUNT


@dataclass(frozen=True)
class RunStats:
    """The summary of one run log: round scores, pruning, tokens and cost per problem, best reward."""

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


def _excerpt(record: Mapping) -> str:
    text = json.dumps(record, sort_keys=True)
    return text if len(text) <= 120 else text[:117] + "..."


def _mistyped(record: Mapping, name: str, what: str) -> ValueError:
    return ValueError(f"{record.get('event')} record {_excerpt(record)}: {name!r} is not {what}")


def _field(record: Mapping, name: str, kind: type, default=_REQUIRED, least=None):
    """`record[name]`: a `schema.number` for `kind` float, else a `schema.whole`
    (a count from `least`, given one); `default` if absent; else `ValueError` naming it."""
    if name not in record:
        if default is _REQUIRED:
            raise ValueError(f"{record.get('event')} record without {name!r}")
        return default
    value = record[name]
    if type(value) is kind and (
        math.isfinite(value) if kind is float else least is None or least <= value <= MAX_COUNT
    ):
        return value  # the common case, at once
    try:
        return schema.number(value, name) if kind is float else schema.whole(value, name, least)
    except schema.FieldError as exc:
        raise _mistyped(record, name, exc.want) from None


class StatsFold:
    """`analyze` as a fold: `add` each record of a log in order, then read
    `stats`. It keeps counts, token sums and per-round bests, never a record.

    The meta record, when the log has one, comes first: it gives the problem
    count and the per-role prices each later record's tokens are charged at
    (zero prices and one problem without it)."""

    def __init__(self) -> None:
        self.seen = 0  # records folded in
        self.n_problems = 1
        self.prices = PriceMap.zero()
        self.proposed = self.pruned = self.tokens = 0
        self.spent = 0.0
        self.per_round: dict[int, float] = {}  # round -> the best reward simulated in it

    def add(self, record: Mapping) -> None:
        """Fold in one record; a field of the wrong type, in a record this
        reads, raises `ValueError` naming the record and the field."""
        self.seen += 1
        event = record["event"]
        if event == "meta":
            if self.seen > 1:
                raise ValueError(f"meta record {_excerpt(record)}: not the first record of the log")
            self.n_problems = _field(record, "n_problems", int, 1, least=1)  # the sums divide by it
            if record.get("prices"):  # zero prices without any
                try:
                    self.prices = PriceMap(schema.prices(record["prices"], required=()))
                except schema.FieldError as exc:
                    what = "an object of roles" if exc.key is None else f"a pair of numbers for role {exc.key!r}"
                    raise _mistyped(record, "prices", what) from None
        if record.get("tokens_in") is not None or record.get("tokens_out") is not None:
            self._charge(record)
        if event == "proposed":
            self.proposed += _field(record, "count", int, 0)
        elif event == "pruned":
            self.pruned += 1
        elif event == "simulated":
            rnd, reward = _field(record, "round", int), _field(record, "reward", float)
            if not 0.0 <= reward <= 1.0:
                raise _mistyped(record, "reward", "a number in [0, 1]")
            self.per_round[rnd] = max(self.per_round.get(rnd, 0.0), reward)

    def _charge(self, record: Mapping) -> None:
        """Add a record's token counts, integers from 0 to 2**53 or null, at
        the price of the role they are charged to."""
        tin, tout = record.get("tokens_in"), record.get("tokens_out")
        tin = 0 if tin is None else _field(record, "tokens_in", int, least=0)
        tout = 0 if tout is None else _field(record, "tokens_out", int, least=0)
        role = record.get("role", "executor")
        if not isinstance(role, str) or role not in self.prices.prices:
            raise _mistyped(record, "role", "a priced role")
        self.tokens += tin + tout
        self.spent += self.prices.charge(role, tin, tout)

    def stats(self, path: str = "<log>") -> RunStats:
        scores = [self.per_round[r] for r in sorted(self.per_round)]
        return RunStats(
            path=path,
            rounds=len(scores),
            round_scores=tuple(scores),
            mean_score=sum(scores) / len(scores) if scores else 0.0,
            std_score=_population_std(scores),
            proposed=self.proposed,
            pruned=self.pruned,
            pruning_rate=self.pruned / self.proposed if self.proposed else 0.0,
            tokens_per_problem=self.tokens / self.n_problems,
            cost_per_problem=self.spent / self.n_problems,
            best_reward=max(scores, default=0.0),
        )


def analyze(log: Iterable[Mapping], path: str = "<log>") -> RunStats:
    """The stats of one run log, folded in one pass over its records."""
    fold = StatsFold()
    for record in log:
        fold.add(record)
    return fold.stats(path)


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
