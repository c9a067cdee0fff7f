"""Six-family compliance scoring, aggregation, and the expansion threshold.

Score conventions: every family score lies in [0, 1]; 0.5 is the neutral
prior used whenever the metadata needed to judge a program is absent.

The static families read only the `WorkflowState` that `derive_state` builds
from one analysis walk of the program: units and types count its per-operator
check verdicts, depth and diversity read its depth and operator histogram.

`ConstraintScorer.total` is the one aggregation of a `ConstraintVector` into
C_total, the weighted geometric mean the four search stages consume; the
search and the tests both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .model import ExecutionTrace, OperatorRegistry, WorkflowProgram, WorkflowState
from .motifs import MotifLibrary, score_pattern
from .weights import FAMILIES, WeightVector


@dataclass(frozen=True)
class ConstraintVector:
    """Per-family compliance scores, each in [0, 1]."""

    units: float
    types: float
    pattern: float
    magnitude: float
    depth: float
    diversity: float

    def __post_init__(self) -> None:
        for name, value in zip(FAMILIES, self.as_tuple()):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"constraint score {name}={value} outside [0, 1]")

    def as_dict(self) -> dict[str, float]:
        return {
            "units": self.units,
            "types": self.types,
            "pattern": self.pattern,
            "magnitude": self.magnitude,
            "depth": self.depth,
            "diversity": self.diversity,
        }

    def as_tuple(self) -> tuple[float, ...]:
        return (self.units, self.types, self.pattern, self.magnitude, self.depth, self.diversity)


@dataclass(frozen=True)
class AggregationConfig:
    epsilon: float = 0.01
    lambda_shaping: float = 0.5
    uct_c: float = 1.414

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.lambda_shaping < 0:
            raise ValueError("lambda_shaping must be >= 0")


@dataclass(frozen=True)
class ThresholdSchedule:
    tau0: float = 0.6
    tau_min: float = 0.3
    decay_k: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau_min <= self.tau0 <= 1.0:
            raise ValueError("need 0 <= tau_min <= tau0 <= 1")
        if self.decay_k < 0:
            raise ValueError("decay_k must be >= 0")


@dataclass(frozen=True)
class DepthDiversityConfig:
    d_max: int = 15
    beta: float = 0.1

    def __post_init__(self) -> None:
        if self.d_max < 1:
            raise ValueError("d_max must be >= 1")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


@dataclass(frozen=True)
class MagnitudeConfig:
    gamma: int = 2
    delta: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must be in [0, 1]")


def score_depth(state: WorkflowState, cfg: DepthDiversityConfig) -> float:
    """Penalty for exceeding the maximum program depth, clamped to [0, 1]."""
    excess = max(0, state.depth - cfg.d_max)
    return max(0.0, 1.0 - cfg.beta * excess)


def score_diversity(state: WorkflowState, registry_size: int) -> float:
    """Normalized Shannon entropy of the operator histogram."""
    if registry_size < 2:
        raise ValueError("registry must hold at least two operators")
    counts = [c for c in state.operator_histogram.values() if c > 0]
    total = sum(counts)
    if total == 0:
        return 0.0
    entropy = 0.0
    for c in counts:
        p = c / total
        entropy -= p * math.log(p)
    return entropy / math.log(registry_size)


def score_units(state: WorkflowState) -> float:
    """Fraction of unit-checkable operations that are dimensionally consistent.

    Operations become checkable once all their input signatures are known,
    either from explicit tags or by propagation. With no checkable operation
    the score is the neutral prior 0.5.
    """
    if not state.unit_checks:
        return 0.5
    return sum(state.unit_checks) / len(state.unit_checks)


def score_types(state: WorkflowState) -> float:
    """Fraction of operator applications passing shape and domain-rule checks."""
    if not state.type_checks:
        return 0.5
    return sum(state.type_checks) / len(state.type_checks)


def score_magnitude(trace: ExecutionTrace, cfg: MagnitudeConfig) -> float:
    """Penalty for intermediate values far beyond the scale of the inputs.

    The tolerance is theta = max(|V_in|) * 10**gamma; traces staying within it
    score 1.0. Missing or all-zero inputs make theta undefined, so the neutral
    prior 0.5 is returned.
    """
    if not trace.values:
        return 0.5
    peak_in = max(map(abs, trace.input_constants), default=0.0)
    if peak_in == 0.0:
        return 0.5
    theta = peak_in * 10.0 ** cfg.gamma
    peak = max(map(abs, trace.values))
    if peak <= theta:
        return 1.0
    return max(0.0, 1.0 - cfg.delta * (peak - theta) / theta)


def threshold(depth: int, sched: ThresholdSchedule) -> float:
    """Depth-aware expansion gate: loosens linearly with depth down to a floor."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return max(sched.tau_min, sched.tau0 - sched.decay_k * depth)


class ConstraintScorer:
    """Composes the six family scores against one registry/motif-library setup.

    Disabled families are pinned to the neutral 0.5 and their weight mass is
    redistributed uniformly over the enabled families when aggregating.

    Two results are remembered between calls, each for the object it was
    computed from: pattern scores for the `library` object (and category)
    they were matched against, and the effective weights for the last
    `WeightVector` object passed to `total`. Assigning a new library, as
    motif refinement does, or passing another weight vector drops them.
    """

    def __init__(
        self,
        registry: OperatorRegistry,
        *,
        agg: AggregationConfig = AggregationConfig(),
        depth_diversity: DepthDiversityConfig = DepthDiversityConfig(),
        magnitude: MagnitudeConfig = MagnitudeConfig(),
        library: Optional[MotifLibrary] = None,
        category: str = "default",
        enabled_families: Sequence[str] = FAMILIES,
    ):
        unknown = set(enabled_families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown constraint families: {sorted(unknown)}")
        if not enabled_families:
            raise ValueError("at least one constraint family must be enabled")
        self.registry = registry
        self.agg = agg
        self.depth_diversity = depth_diversity
        self.magnitude = magnitude
        self.library = library
        self.category = category
        self.enabled = tuple(f for f in FAMILIES if f in set(enabled_families))
        # pattern score by histogram counts, valid for one (library, category)
        self._patterns: dict[tuple, float] = {}
        self._patterns_for: tuple = (None, None)
        # effective weights of the last WeightVector object `total` was given
        self._weights_for: Optional[WeightVector] = None
        self._effective: dict[str, float] = {}

    def _on(self, family: str) -> bool:
        return family in self.enabled

    def static_vector(self, program: WorkflowProgram, state: WorkflowState) -> ConstraintVector:
        """Pre-execution scores of `program`, read from its derived `state`.

        Magnitude stays at 1.0 until a trace exists. The pattern score is a
        function of the histogram's counts over the library's operators, so
        it is matched once per distinct count tuple and remembered until
        `library` or `category` is reassigned. Diversity sums its entropy
        terms in the histogram's declaration order and is computed afresh.
        """
        library = self.library
        if library is not None and self._on("pattern"):
            pattern = self._pattern(state, library)
        else:
            pattern = 0.5
        return ConstraintVector(
            units=score_units(state) if self._on("units") else 0.5,
            types=score_types(state) if self._on("types") else 0.5,
            pattern=pattern,
            magnitude=1.0 if self._on("magnitude") else 0.5,
            depth=score_depth(state, self.depth_diversity) if self._on("depth") else 0.5,
            diversity=score_diversity(state, len(self.registry)) if self._on("diversity") else 0.5,
        )

    def _pattern(self, state: WorkflowState, library: MotifLibrary) -> float:
        if self._patterns_for[0] is not library or self._patterns_for[1] != self.category:
            self._patterns = {}
            self._patterns_for = (library, self.category)
        histogram = state.operator_histogram
        key = tuple([histogram.get(op, 0) for op in library.registry_ops])
        score = self._patterns.get(key)
        if score is None:
            score = self._patterns[key] = score_pattern(state, self.category, library)
        return score

    def with_magnitude(self, vector: ConstraintVector, traces: Sequence[ExecutionTrace]) -> ConstraintVector:
        """Fold measured magnitude scores (mean over traces) into a vector."""
        if not self._on("magnitude") or not traces:
            return vector
        mean = sum(score_magnitude(t, self.magnitude) for t in traces) / len(traces)
        return ConstraintVector(vector.units, vector.types, vector.pattern, mean, vector.depth, vector.diversity)

    def effective_weights(self, weights: Mapping[str, float]) -> dict[str, float]:
        disabled_mass = sum(weights[f] for f in FAMILIES if not self._on(f))
        share = disabled_mass / len(self.enabled)
        return {f: weights[f] + share for f in self.enabled}

    def total(self, vector: ConstraintVector, weights: WeightVector) -> float:
        """Weighted geometric mean of (score + epsilon) over the enabled families.

        The range is [epsilon, 1 + epsilon]. Scores are in [0, 1] and weights
        positive by construction of `vector` and `weights`.
        """
        if weights is self._weights_for:
            eff = self._effective
        else:
            eff = self.effective_weights(weights.as_dict())
            self._weights_for, self._effective = weights, eff
        scores = vector.as_dict()
        epsilon = self.agg.epsilon
        num = 0.0
        den = 0.0
        for fam in self.enabled:
            w = eff[fam]
            num += w * math.log(scores[fam] + epsilon)
            den += w
        return math.exp(num / den)
