import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfopt.constraints import (
    AggregationConfig,
    ConstraintScorer,
    ConstraintVector,
    DepthDiversityConfig,
    MagnitudeConfig,
    ThresholdSchedule,
    score_depth,
    score_diversity,
    score_magnitude,
    threshold,
)
from wfopt.edits import EditBase
from wfopt.harness import ProposerConfig, SyntheticProposer
from wfopt.model import ExecutionTrace, WorkflowState, default_registry, interpret, validate_program
from wfopt.weights import AdaptationConfig, ObservationBuffer, WeightVector, update_weights

from conftest import every_entry, prune_dead, random_program

REGISTRY = default_registry()

scores6 = st.lists(st.floats(0, 1), min_size=6, max_size=6)
positive_weights = st.lists(st.floats(0.01, 5.0), min_size=6, max_size=6)


def simplex(raw):
    total = sum(raw)
    return WeightVector.from_iterable(v / total for v in raw)


@given(scores6, positive_weights)
def test_aggregate_range(scores, raw_weights):
    total = ConstraintScorer(REGISTRY, agg=AggregationConfig()).total
    value = total(ConstraintVector(*scores), simplex(raw_weights))
    assert 0.01 - 1e-12 <= value <= 1.01 + 1e-12


@given(scores6, positive_weights, st.integers(0, 5), st.floats(0.0, 0.3))
def test_aggregate_monotone(scores, raw_weights, index, bump):
    total = ConstraintScorer(REGISTRY, agg=AggregationConfig()).total
    weights = simplex(raw_weights)
    bumped = list(scores)
    bumped[index] = min(1.0, bumped[index] + bump)
    assert total(ConstraintVector(*bumped), weights) >= total(ConstraintVector(*scores), weights) - 1e-12


@given(st.dictionaries(st.sampled_from(REGISTRY.names), st.integers(1, 50), min_size=1), st.integers(2, 12))
def test_diversity_scale_invariance(histogram, factor):
    base = score_diversity(WorkflowState(1, histogram), len(REGISTRY))
    scaled = score_diversity(WorkflowState(1, {k: factor * v for k, v in histogram.items()}), len(REGISTRY))
    assert scaled == pytest.approx(base, abs=1e-9)
    assert 0.0 <= base <= 1.0


@given(st.integers(0, 200))
def test_depth_score_in_range_and_monotone(depth):
    cfg = DepthDiversityConfig()
    score = score_depth(WorkflowState(depth, {}), cfg)
    assert 0.0 <= score <= 1.0
    assert score >= score_depth(WorkflowState(depth + 1, {}), cfg)


@given(st.integers(0, 500))
def test_threshold_floor(depth):
    sched = ThresholdSchedule()
    value = threshold(depth, sched)
    assert sched.tau_min <= value <= sched.tau0
    assert value >= threshold(depth + 1, sched)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    st.lists(st.floats(0.1, 1e3), min_size=1, max_size=4),
    st.floats(0.001, 1e3),
)
def test_magnitude_scale_invariance(values, inputs, scale):
    cfg = MagnitudeConfig()
    base = score_magnitude(ExecutionTrace(tuple(values), tuple(inputs), True, values[-1]), cfg)
    scaled = score_magnitude(
        ExecutionTrace(tuple(v * scale for v in values), tuple(v * scale for v in inputs), True, values[-1] * scale),
        cfg,
    )
    assert scaled == pytest.approx(base, abs=1e-9)
    assert 0.0 <= base <= 1.0


@given(st.lists(st.tuples(st.lists(st.floats(0, 1), min_size=6, max_size=6), st.floats(0, 1)), min_size=1, max_size=40))
@example(observations=[([0.0] * 6, 0.0), ([0.0] * 5 + [1.175494351e-38], 2.832910288406577e-154)])
def test_weight_updates_stay_on_simplex(observations):
    buffer = ObservationBuffer(window=10)
    weights = WeightVector.uniform()
    cfg = AdaptationConfig()
    for step, (scores, reward) in enumerate(observations):
        buffer.push(ConstraintVector(*scores), reward)
        weights = update_weights(weights, buffer, cfg, round_index=cfg.warmup_rounds + step)
        assert sum(weights.as_tuple()) == pytest.approx(1.0, abs=1e-9)
        assert all(v > 0 for v in weights.as_tuple())


@settings(max_examples=50)
@given(st.integers(0, 2**31 - 1))
def test_random_programs_interpret_or_fail_cleanly(seed):
    rng = np.random.default_rng(seed)
    program = random_program(rng, REGISTRY)
    inputs = {rid: float(rng.integers(-9, 10)) for rid in program.roots}
    trace = interpret(program, inputs, REGISTRY)
    if trace.success:
        assert trace.values
        assert all(math.isfinite(v) for v in trace.values)
    else:
        assert trace.violation


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_every_generated_edit_is_valid_after_pruning(seed):
    """Each edit generator builds only valid programs from a valid base, pruned
    of its dead nodes as the proposer prunes it, before the proposer's size
    limit and deduplication apply."""
    rng = np.random.default_rng(seed)
    program = prune_dead(random_program(rng, REGISTRY))
    proposer = SyntheticProposer(REGISTRY, ProposerConfig(const_palette=(0.0, 1.5)))
    for edit in every_entry(proposer, program):
        report = validate_program(edit.build(), REGISTRY)
        assert report.ok, report.violations


def test_only_rewires_orphan_nodes_of_a_clean_base():
    """On a base where every node feeds the output, no candidate is left with
    a dead node: insertions, replacements and deletions orphan none, and a
    rewire that orphans some drops them, on its record and in its build."""
    rng = np.random.default_rng(17)
    proposer = SyntheticProposer(REGISTRY, ProposerConfig(const_palette=(0.0, 1.5)))
    orphaning_rewires = 0
    for _ in range(60):
        program = prune_dead(random_program(rng, REGISTRY))
        for edit in every_entry(proposer, program):
            candidate = edit.build()
            assert prune_dead(candidate) is candidate
        rewires = proposer._rewires(EditBase(program, REGISTRY))
        orphaning_rewires += sum(bool(edit.removed) for _, edit in rewires)
    assert orphaning_rewires > 0
