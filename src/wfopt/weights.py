"""Adaptive constraint weighting from score/reward correlations.

Weights start uniform over the six families and, after a warm-up period,
move by an exponentiated-correlation rule with decay back toward uniform.
The update preserves the simplex: the normalized term sums to 1 - alpha and
the decay term restores alpha.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

FAMILIES = ("units", "types", "pattern", "magnitude", "depth", "diversity")


@dataclass(frozen=True)
class WeightVector:
    """The six family weights: each positive, summing to 1."""

    units: float
    types: float
    pattern: float
    magnitude: float
    depth: float
    diversity: float

    def __post_init__(self) -> None:
        values = self.as_tuple()
        if any(v <= 0 for v in values):
            raise ValueError("weights must be strictly positive")
        if abs(sum(values) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(values)!r}")

    @staticmethod
    def uniform() -> "WeightVector":
        return WeightVector(*(1.0 / 6.0,) * 6)

    @staticmethod
    def from_iterable(values: Iterable[float]) -> "WeightVector":
        return WeightVector(*values)

    def as_tuple(self) -> tuple[float, ...]:
        return (self.units, self.types, self.pattern, self.magnitude, self.depth, self.diversity)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(FAMILIES, self.as_tuple()))


@dataclass(frozen=True)
class AdaptationConfig:
    """How the weights adapt: the learning rate eta, the uniform mix alpha and the warm-up rounds."""

    eta: float = 0.1
    alpha: float = 0.01
    warmup_rounds: int = 5

    def __post_init__(self) -> None:
        # each update multiplies a weight by exp(eta * corr), |corr| <= 1;
        # math.exp overflows above about 709.78
        if not 0.0 <= self.eta <= 700:
            raise ValueError("adaptation.eta must be in [0, 700]")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("adaptation.alpha must be in [0, 1]")
        if self.warmup_rounds < 0:
            raise ValueError("adaptation.warmup_rounds must be >= 0")


class ObservationBuffer:
    """Sliding window of (constraint vector, validation reward) pairs."""

    def __init__(self, window: int = 10):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._entries: deque = deque(maxlen=window)

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, scores, reward: float) -> None:
        self._entries.append((scores, float(reward)))

    def column(self, family: str) -> list[float]:
        idx = FAMILIES.index(family)
        return [entry[0].as_tuple()[idx] for entry in self._entries]

    def rewards(self) -> list[float]:
        return [entry[1] for entry in self._entries]


def pearson_corr(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson coefficient; a zero-variance side is treated as uninformative (0)."""
    if len(x) != len(y):
        raise ValueError("sequences must have equal length")
    if len(x) < 2:
        raise ValueError("need at least two observations")
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    product = vx * vy
    if product:
        return cov / math.sqrt(product)
    # two tiny non-zero variances whose product underflows to 0.0
    return cov / (math.sqrt(vx) * math.sqrt(vy))


def correlations(buffer: ObservationBuffer) -> dict[str, float]:
    rewards = buffer.rewards()
    return {fam: pearson_corr(buffer.column(fam), rewards) for fam in FAMILIES}


def update_weights(
    w: WeightVector,
    buffer: ObservationBuffer,
    cfg: AdaptationConfig,
    round_index: int,
) -> WeightVector:
    """One adaptation step; returns the input unchanged during warm-up or
    when the buffer holds fewer than two observations."""
    if round_index < cfg.warmup_rounds:
        return w
    if len(buffer) < 2:
        return w
    corr = correlations(buffer)
    current = w.as_dict()
    boosted = {fam: current[fam] * math.exp(cfg.eta * corr[fam]) for fam in FAMILIES}
    total = sum(boosted.values())
    uniform = 1.0 / 6.0
    # with alpha near 0 a weight can underflow; the smallest normal float keeps it positive
    return WeightVector.from_iterable(
        max((1.0 - cfg.alpha) * boosted[fam] / total + cfg.alpha * uniform, sys.float_info.min) for fam in FAMILIES
    )
