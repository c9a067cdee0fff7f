"""Six-family compliance scoring, aggregation, and the expansion threshold.

Score conventions: every family score lies in [0, 1]; 0.5 is the neutral
prior used whenever the metadata needed to judge a program is absent.

The static families read only the `WorkflowState` of the program: units and
types divide its counts of passed by made per-operator checks, depth and
diversity read its depth and operator histogram. `derive_state` builds it
from one analysis walk of the program, or, for a proposer candidate, from
the edit record it carries and its base's analysis.

`ConstraintScorer.total` is the one aggregation of a `ConstraintVector` into
C_total, the weighted geometric mean the four search stages consume; the
search and the tests both call it.

The scores are functions of a few counts, so a search scores the same
compliance state over and over: a `ConstraintScorer` computes each distinct
result once and returns the same object after that. Its three memos hold
static vectors by state (dropped when `library` or `category` is
reassigned), totals by vector (dropped with the effective weights when
`total` is given another `WeightVector` object) and folded vectors by their
fields (never dropped: the fold reads none of the scorer's state). A
remembered result is bit for bit what a fresh computation gives.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .model import ExecutionTrace, OperatorRegistry, WorkflowProgram, WorkflowState
from .motifs import MotifLibrary, score_pattern
from .weights import FAMILIES, WeightVector


@dataclass(frozen=True, slots=True)
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


# Priority scale for unvisited children; large enough to dominate any shaped
# UCT score while still ordering unvisited siblings by compliance.
UNVISITED_PRIORITY = 1e12
# The largest lambda * C_total for which UNVISITED_PRIORITY * exp(lambda *
# C_total) stays finite, so that the compliance factor still orders them.
_MAX_SHAPING = math.floor(math.log(sys.float_info.max / UNVISITED_PRIORITY))  # 682
# The largest exploration factor sqrt(ln N / n) of a visited child, N and n
# being visit counts of at most 2**63.
_MAX_EXPLORATION = math.sqrt(math.log(2**63))


@dataclass(frozen=True)
class AggregationConfig:
    """The compliance offset epsilon, the shaping weight lambda and the UCT constant of selection."""

    epsilon: float = 0.01
    lambda_shaping: float = 0.5
    uct_c: float = 1.414

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("aggregation.epsilon must be > 0")
        if self.lambda_shaping < 0:
            raise ValueError("aggregation.lambda_shaping must be >= 0")
        # selection multiplies by exp(lambda * C_total), C_total in [epsilon, 1 + epsilon]
        if self.lambda_shaping * (1 + self.epsilon) > _MAX_SHAPING:
            raise ValueError(f"aggregation.lambda_shaping * (1 + aggregation.epsilon) must be <= {_MAX_SHAPING}")
        if not (math.isfinite(self.uct_c) and self.uct_c >= 0):
            raise ValueError("aggregation.uct_c must be a finite number >= 0")
        # a visited child scores (Q + uct_c * u) * exp(lambda * C_total), Q <= C_total <= 1 + epsilon
        top = 1 + self.epsilon + self.uct_c * _MAX_EXPLORATION
        if math.isinf(top * math.exp(self.lambda_shaping * (1 + self.epsilon))):
            raise ValueError("aggregation.uct_c is so large that a selection score overflows "
                             "with this lambda_shaping and epsilon")


@dataclass(frozen=True)
class ThresholdSchedule:
    """The pruning threshold tau over rounds: its start, its floor and its decay rate."""

    tau0: float = 0.6
    tau_min: float = 0.3
    decay_k: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau_min <= self.tau0 <= 1.0:
            raise ValueError("need 0 <= threshold.tau_min <= threshold.tau0 <= 1")
        if self.decay_k < 0:
            raise ValueError("threshold.decay_k must be >= 0")


@dataclass(frozen=True)
class DepthDiversityConfig:
    """The depth family's bound d_max, and its penalty beta per level beyond it."""

    d_max: int = 15
    beta: float = 0.1

    def __post_init__(self) -> None:
        if self.d_max < 1:
            raise ValueError("depth_diversity.d_max must be >= 1")
        if self.beta < 0:
            raise ValueError("depth_diversity.beta must be >= 0")


@dataclass(frozen=True)
class MagnitudeConfig:
    """The magnitude family's tolerance exponent gamma and penalty slope delta."""

    gamma: int = 2
    delta: float = 0.5

    def __post_init__(self) -> None:
        # theta = max|V_in| * 10**gamma: 10.0**309 overflows, and below 0 a
        # subnormal input's theta is 0
        if not 0 <= self.gamma <= 308:
            raise ValueError("magnitude.gamma must be in [0, 308]")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("magnitude.delta must be in [0, 1]")


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
    if not state.unit_checked:
        return 0.5
    return state.unit_passed / state.unit_checked


def score_types(state: WorkflowState) -> float:
    """Fraction of operator applications passing shape and domain-rule checks."""
    if not state.type_checked:
        return 0.5
    return state.type_passed / state.type_checked


def score_magnitude(trace: ExecutionTrace, cfg: MagnitudeConfig) -> float:
    """Penalty for intermediate values far beyond the scale of the inputs.

    The tolerance is theta = max(|V_in|) * 10**gamma; traces staying within it
    score 1.0. Missing or all-zero inputs make theta undefined, so the neutral
    prior 0.5 is returned.
    """
    return _magnitudes((trace,), trace_peaks((trace,)), cfg)[0]


def trace_peaks(traces: Sequence[ExecutionTrace]) -> list[Optional[float]]:
    """Each trace's largest |value|, or None for a trace with no values."""
    return [max(map(abs, t.values)) if t.values else None for t in traces]


def _magnitudes(traces: Sequence[ExecutionTrace], peaks: Sequence[Optional[float]], cfg: MagnitudeConfig) -> list:
    """`score_magnitude` of each trace, given its `trace_peaks` entry."""
    scale, delta = 10.0 ** cfg.gamma, cfg.delta
    scores = []
    for trace, peak in zip(traces, peaks):
        peak_in = 0.0 if peak is None else max(map(abs, trace.input_constants), default=0.0)
        if peak_in == 0.0:
            scores.append(0.5)
        else:
            theta = peak_in * scale
            scores.append(1.0 if peak <= theta else max(0.0, 1.0 - delta * (peak - theta) / theta))
    return scores


def threshold(depth: int, sched: ThresholdSchedule) -> float:
    """Depth-aware expansion gate: loosens linearly with depth down to a floor."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return max(sched.tau_min, sched.tau0 - sched.decay_k * depth)


# the bits of a vector's six fields: a key that keeps 0.0 and -0.0 apart
_pack_fields = struct.Struct("<6d").pack


class ConstraintScorer:
    """Composes the six family scores against one registry/motif-library setup.

    Disabled families are pinned to the neutral 0.5 and their weight mass is
    redistributed uniformly over the enabled families when aggregating.

    Three memos keep every result it has computed, so each distinct input is
    scored once:
    - static vectors, keyed by the state's depth, its histogram items in
      declaration order and its four check counts, for the current `library`
      object and `category`; reassigning either, as motif refinement does,
      drops them;
    - totals, keyed by vector, for the last `WeightVector` object passed to
      `total`, beside its effective weights; another weight vector drops
      both;
    - folded vectors, keyed by the bits of their six fields, so `0.0` and
      `-0.0` stay apart; they depend on nothing the scorer can change.
    Only `library` and `category` may be reassigned on a scorer.
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
        # static vector by state key, valid for one (library, category)
        self._static: dict[tuple, ConstraintVector] = {}
        self._static_for: tuple = (None, None)
        # effective weights of the last WeightVector object `total` was given,
        # and the totals computed with them
        self._weights_for: Optional[WeightVector] = None
        self._effective: dict[str, float] = {}
        self._totals: dict[ConstraintVector, float] = {}
        # folded vector by the packed bits of its fields
        self._folded: dict[bytes, ConstraintVector] = {}

    def _on(self, family: str) -> bool:
        return family in self.enabled

    def static_vector(self, program: WorkflowProgram, state: WorkflowState) -> ConstraintVector:
        """Pre-execution scores of `program`, read from its derived `state`.

        Magnitude stays at 1.0 until a trace exists. The vector is a function
        of the state's depth, its histogram (diversity sums its entropy terms
        in declaration order, so the order is part of the key) and its check
        counts: it is computed once per distinct state and remembered until
        `library` or `category` is reassigned.
        """
        library, category = self.library, self.category
        if self._static_for[0] is not library or self._static_for[1] != category:
            self._static = {}
            self._static_for = (library, category)
        key = (
            state.depth,
            tuple(state.operator_histogram.items()),
            state.unit_passed,
            state.unit_checked,
            state.type_passed,
            state.type_checked,
        )
        vector = self._static.get(key)
        if vector is None:
            on = self._on
            vector = self._static[key] = ConstraintVector(
                units=score_units(state) if on("units") else 0.5,
                types=score_types(state) if on("types") else 0.5,
                pattern=score_pattern(state, category, library) if library is not None and on("pattern") else 0.5,
                magnitude=1.0 if on("magnitude") else 0.5,
                depth=score_depth(state, self.depth_diversity) if on("depth") else 0.5,
                diversity=score_diversity(state, len(self.registry)) if on("diversity") else 0.5,
            )
        return vector

    def with_magnitude(self, vector: ConstraintVector, traces: Sequence[ExecutionTrace], peaks=None) -> ConstraintVector:
        """Fold measured magnitude scores (mean over traces) into a vector;
        `peaks`, the traces' `trace_peaks` if the caller has them, spares a second scan."""
        if not self._on("magnitude") or not traces:
            return vector
        peaks = trace_peaks(traces) if peaks is None else peaks
        mean = sum(_magnitudes(traces, peaks, self.magnitude)) / len(traces)
        fields = (vector.units, vector.types, vector.pattern, mean, vector.depth, vector.diversity)
        key = _pack_fields(*fields)
        folded = self._folded.get(key)
        if folded is None:
            folded = self._folded[key] = ConstraintVector(*fields)
        return folded

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
            total = self._totals.get(vector)
            if total is not None:
                return total
            eff = self._effective
        else:
            eff = self.effective_weights(weights.as_dict())
            self._weights_for, self._effective, self._totals = weights, eff, {}
        scores = vector.as_dict()
        epsilon = self.agg.epsilon
        num = 0.0
        den = 0.0
        for fam in self.enabled:
            w = eff[fam]
            num += w * math.log(scores[fam] + epsilon)
            den += w
        # vectors equal by value share a total: a score of -0.0 adds to
        # epsilon > 0 as 0.0 does, so the sign of a zero cannot reach it
        total = self._totals[vector] = math.exp(num / den)
        return total
