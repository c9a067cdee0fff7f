import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import entropy as scipy_entropy

from wfopt import constraints
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
    score_types,
    score_units,
    threshold,
)
from wfopt.model import (
    CONST_OP,
    INPUT_OP,
    Edge,
    ExecutionTrace,
    Node,
    Shape,
    UnitSignature,
    WorkflowProgram,
    WorkflowState,
    derive_state,
)
from wfopt.motifs import MotifConfig, init_templates, score_pattern
from wfopt.weights import FAMILIES, WeightVector

from conftest import binary, chain, random_program, state_key


def make_state(depth=1, histogram=None):
    return WorkflowState(depth=depth, operator_histogram=histogram or {})


def make_trace(values, inputs):
    return ExecutionTrace(tuple(values), tuple(inputs), True, values[-1] if values else None)


class TestScoreDepth:
    def test_below_threshold(self):
        assert score_depth(make_state(depth=10), DepthDiversityConfig()) == 1.0

    def test_moderate_excess(self):
        # 1 - 0.1 * (20 - 15)
        assert score_depth(make_state(depth=20), DepthDiversityConfig()) == pytest.approx(0.5, abs=1e-12)

    def test_clamped_at_zero(self):
        assert score_depth(make_state(depth=30), DepthDiversityConfig()) == 0.0

    def test_non_increasing(self):
        cfg = DepthDiversityConfig()
        scores = [score_depth(make_state(depth=d), cfg) for d in range(50)]
        assert all(a >= b for a, b in zip(scores, scores[1:]))


class TestScoreDiversity:
    def test_uniform_over_registry(self, registry):
        hist = {name: 3 for name in registry.names}
        assert score_diversity(make_state(histogram=hist), len(registry)) == pytest.approx(1.0)

    def test_single_kind(self):
        assert score_diversity(make_state(histogram={"add": 5}), 8) == 0.0

    def test_two_of_eight(self):
        score = score_diversity(make_state(histogram={"add": 2, "mul": 2}), 8)
        assert score == pytest.approx(math.log(2) / math.log(8), abs=1e-12)
        assert score == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_empty_histogram(self):
        assert score_diversity(make_state(histogram={}), 8) == 0.0

    def test_matches_scipy_entropy(self):
        rng = np.random.default_rng(0)
        names = list("abcdefgh")
        for _ in range(200):
            counts = {n: int(c) for n, c in zip(names, rng.integers(0, 9, size=8)) if c > 0}
            if not counts:
                continue
            expected = scipy_entropy(list(counts.values())) / math.log(8)
            assert score_diversity(make_state(histogram=counts), 8) == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance(self):
        hist = {"add": 1, "mul": 3, "neg": 2}
        base = score_diversity(make_state(histogram=hist), 8)
        scaled = score_diversity(make_state(histogram={k: 7 * v for k, v in hist.items()}), 8)
        assert scaled == pytest.approx(base, abs=1e-12)


class TestScoreUnits:
    def test_no_tags_neutral(self):
        assert score_units(derive_state(binary("add", "input", "input"))) == 0.5

    def test_half_consistent(self):
        length = UnitSignature.of(length=1)
        time = UnitSignature.of(time=1)
        nodes = (
            Node("x0", INPUT_OP, unit=length),
            Node("x1", INPUT_OP, unit=length),
            Node("x2", INPUT_OP, unit=time),
            Node("good", "add"),
            Node("bad", "add"),
        )
        edges = (
            Edge("x0", "good", 0), Edge("x1", "good", 1),
            Edge("x0", "bad", 0), Edge("x2", "bad", 1),
        )
        # both adds feed nothing; output = bad (graph may hold dead branches)
        program = WorkflowProgram(nodes, edges, ("x0", "x1", "x2"), "bad")
        assert score_units(derive_state(program)) == 0.5

    def test_multiplicative_always_passes(self):
        length = UnitSignature.of(length=1)
        program = binary("mul", "input", "input", units=(length, length))
        assert score_units(derive_state(program)) == 1.0


class TestScoreTypes:
    def test_sqrt_of_negative_constant(self):
        program = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("c0", CONST_OP, value=-3.0), Node("n0", "sqrt")),
            edges=(Edge("c0", "n0", 0),),
            roots=("x0",),
            output="n0",
        )
        assert score_types(derive_state(program)) == 0.0

    def test_matrix_product_shapes(self):
        program = binary("mul", "input", "input", shapes=(Shape.matrix(2, 3), Shape.matrix(3, 4)))
        assert score_types(derive_state(program)) == 1.0

    def test_three_of_four_pass(self):
        nodes = (
            Node("x0", INPUT_OP),
            Node("c0", CONST_OP, value=-3.0),
            Node("s", "sqrt"),       # fails: sqrt(-3)
            Node("a", "add"),
            Node("m", "mul"),
            Node("n", "neg"),
        )
        edges = (
            Edge("c0", "s", 0),
            Edge("x0", "a", 0), Edge("s", "a", 1),
            Edge("a", "m", 0), Edge("x0", "m", 1),
            Edge("m", "n", 0),
        )
        program = WorkflowProgram(nodes, edges, ("x0",), "n")
        assert score_types(derive_state(program)) == pytest.approx(0.75)

    def test_no_ops_neutral(self):
        program = WorkflowProgram((Node("x0", INPUT_OP),), (), ("x0",), "x0")
        assert score_types(derive_state(program)) == 0.5

    def test_unknown_sign_passes(self):
        assert score_types(derive_state(chain("sqrt"))) == 1.0


class TestScoreMagnitude:
    def test_within_bound(self):
        trace = make_trace([50.0], [1.0])  # theta = 100
        assert score_magnitude(trace, MagnitudeConfig()) == 1.0

    def test_double_theta(self):
        trace = make_trace([200.0], [1.0])
        assert score_magnitude(trace, MagnitudeConfig()) == pytest.approx(0.5, abs=1e-12)

    def test_quadruple_theta_clamped(self):
        trace = make_trace([400.0], [1.0])
        assert score_magnitude(trace, MagnitudeConfig()) == 0.0

    def test_empty_or_zero_inputs_neutral(self):
        assert score_magnitude(make_trace([5.0], []), MagnitudeConfig()) == 0.5
        assert score_magnitude(make_trace([5.0], [0.0]), MagnitudeConfig()) == 0.5

    def test_scale_invariance(self):
        cfg = MagnitudeConfig()
        rng = np.random.default_rng(1)
        for _ in range(200):
            xs = rng.uniform(-500, 500, size=5)
            vin = rng.uniform(1, 10, size=3)
            s = float(rng.uniform(0.1, 100))
            a = score_magnitude(make_trace(list(xs), list(vin)), cfg)
            b = score_magnitude(make_trace(list(xs * s), list(vin * s)), cfg)
            assert b == pytest.approx(a, abs=1e-9)


class TestAggregate:
    @pytest.fixture
    def total(self, registry):
        return ConstraintScorer(registry, agg=AggregationConfig()).total

    def test_all_ones(self, total):
        c = ConstraintVector(1, 1, 1, 1, 1, 1)
        assert total(c, WeightVector.uniform()) == pytest.approx(1.01, abs=1e-9)

    def test_all_zeros(self, total):
        c = ConstraintVector(0, 0, 0, 0, 0, 0)
        assert total(c, WeightVector.uniform()) == pytest.approx(0.01, abs=1e-9)

    def test_one_family_at_zero(self, total):
        # (1,1,1,1,0,1) with uniform weights: exp(mean of ln terms)
        c = ConstraintVector(1, 1, 1, 1, 0, 1)
        expected = math.exp((5 * math.log(1.01) + math.log(0.01)) / 6)
        got = total(c, WeightVector.uniform())
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.46805, abs=1e-4)

    def test_range(self, total):
        rng = np.random.default_rng(2)
        eps = 0.01
        for _ in range(500):
            c = ConstraintVector(*rng.random(6))
            w = rng.random(6) + 0.01
            w = WeightVector.from_iterable(w / w.sum())
            value = total(c, w)
            assert eps - 1e-12 <= value <= 1 + eps + 1e-12

    def test_monotone_in_each_component(self, total):
        rng = np.random.default_rng(3)
        for _ in range(200):
            base = rng.random(6) * 0.9
            w = rng.random(6) + 0.01
            w = WeightVector.from_iterable(w / w.sum())
            i = int(rng.integers(6))
            bumped = base.copy()
            bumped[i] += 0.05
            assert total(ConstraintVector(*bumped), w) >= total(ConstraintVector(*base), w)

    def test_equal_scores_give_score_plus_epsilon(self, total):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = float(rng.random())
            w = rng.random(6) + 0.01
            w = WeightVector.from_iterable(w / w.sum())
            got = total(ConstraintVector(*(v,) * 6), w)
            assert got == pytest.approx(v + 0.01, abs=1e-9)

    def test_out_of_range_score_rejected(self):
        # the one range check: `total` takes only a constructed vector
        for i, family in enumerate(FAMILIES):
            for bad in (-0.01, 1.01):
                scores = [0.5] * 6
                scores[i] = bad
                with pytest.raises(ValueError, match=f"{family}="):
                    ConstraintVector(*scores)

    def test_vector_validates_on_construction(self):
        with pytest.raises(ValueError):
            ConstraintVector(1.2, 0, 0, 0, 0, 0)


class TestThreshold:
    def test_depth_zero(self):
        assert threshold(0, ThresholdSchedule()) == pytest.approx(0.6, abs=1e-12)

    def test_exactly_at_floor(self):
        assert threshold(6, ThresholdSchedule()) == pytest.approx(0.3, abs=1e-12)

    def test_floor_dominates(self):
        assert threshold(100, ThresholdSchedule()) == pytest.approx(0.3, abs=1e-12)

    def test_non_increasing_and_bounded(self):
        sched = ThresholdSchedule()
        values = [threshold(d, sched) for d in range(100)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v >= sched.tau_min for v in values)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            threshold(-1, ThresholdSchedule())


class TestConstraintScorer:
    def test_static_vector_neutral_magnitude(self, registry):
        scorer = ConstraintScorer(registry)
        program = binary("add", "input", "input")
        vector = scorer.static_vector(program, derive_state(program))
        assert vector.magnitude == 1.0
        assert vector.pattern == 0.5  # no library

    def test_disabled_family_pinned(self, registry):
        scorer = ConstraintScorer(registry, enabled_families=("depth",))
        program = binary("add", "input", "input")
        vector = scorer.static_vector(program, derive_state(program))
        assert vector.units == 0.5 and vector.types == 0.5 and vector.diversity == 0.5
        assert vector.magnitude == 0.5
        assert vector.depth == 1.0

    def test_single_family_aggregate_is_score_plus_epsilon(self, registry):
        scorer = ConstraintScorer(registry, enabled_families=("depth",))
        vector = ConstraintVector(0.5, 0.5, 0.5, 0.5, 0.8, 0.5)
        assert scorer.total(vector, WeightVector.uniform()) == pytest.approx(0.81, abs=1e-9)

    def test_effective_weights_redistribute_uniformly(self, registry):
        scorer = ConstraintScorer(registry, enabled_families=("units", "types"))
        eff = scorer.effective_weights(WeightVector.uniform().as_dict())
        assert set(eff) == {"units", "types"}
        assert eff["units"] == pytest.approx(0.5, abs=1e-12)
        assert sum(eff.values()) == pytest.approx(1.0, abs=1e-12)

    def test_with_magnitude_folds_mean(self, registry):
        scorer = ConstraintScorer(registry)
        vector = ConstraintVector(1, 1, 0.5, 1.0, 1, 1)
        traces = [make_trace([50.0], [1.0]), make_trace([200.0], [1.0])]  # scores 1.0, 0.5
        updated = scorer.with_magnitude(vector, traces)
        assert updated.magnitude == pytest.approx(0.75)

    def test_enabling_family_does_not_change_other_scores(self, registry):
        program = binary("mul", "input", "input", units=(UnitSignature.of(length=1),) * 2)
        state = derive_state(program)
        full = ConstraintScorer(registry).static_vector(program, state)
        no_units = ConstraintScorer(registry, enabled_families=("types", "pattern", "magnitude", "depth", "diversity")).static_vector(program, state)
        assert no_units.types == full.types
        assert no_units.depth == full.depth
        assert no_units.diversity == full.diversity
        assert no_units.units == 0.5


class TestScorerMemos:
    """Static vectors, totals and folded vectors are computed once per input
    and come out bit-identical to computing them afresh."""

    @pytest.fixture
    def library(self, registry):
        return init_templates(["cat0"], MotifConfig(), registry_ops=registry.names, seed=5)

    def test_each_state_is_scored_once(self, registry, library, monkeypatch):
        matched = []

        def counted(state, category, lib):
            matched.append(state_key(state))
            return score_pattern(state, category, lib)

        monkeypatch.setattr(constraints, "score_pattern", counted)
        scorer = ConstraintScorer(registry, library=library, category="cat0")
        vectors = {}
        rng = np.random.default_rng(8)
        for _ in range(200):
            program = random_program(rng, registry, max_ops=3)
            state = derive_state(program, registry)
            vector = scorer.static_vector(program, state)
            assert vector.pattern == score_pattern(state, "cat0", library)
            assert vectors.setdefault(state_key(state), vector) is vector
        assert len(matched) == len(set(matched)) == len(vectors) < 150

    def test_histogram_order_and_foreign_ops_share_a_score(self, registry, library, monkeypatch):
        # the pattern reads counts over the library's operators only, but
        # diversity sums in declaration order and counts every operator, so
        # each histogram is a state of its own
        calls = []
        monkeypatch.setattr(constraints, "score_pattern", lambda *args: calls.append(args) or score_pattern(*args))
        scorer = ConstraintScorer(registry, library=library, category="cat0")
        program = binary("add", "input", "input")
        histograms = ({"add": 2, "neg": 1}, {"neg": 1, "add": 2}, {"neg": 1, "add": 2, "other": 4})
        first = [scorer.static_vector(program, make_state(histogram=h)) for h in histograms]
        again = [scorer.static_vector(program, make_state(histogram=dict(h))) for h in histograms]
        assert len({v.pattern for v in first}) == 1
        assert all(a is b for a, b in zip(first, again))
        assert len(calls) == 3

    def test_new_library_or_category_drops_the_memo(self, registry, library):
        scorer = ConstraintScorer(registry, library=library, category="cat0")
        state = make_state(histogram={"add": 1, "mul": 2})
        program = binary("add", "input", "input")
        assert scorer.static_vector(program, state).pattern == score_pattern(state, "cat0", library)
        other = init_templates(["cat0", "cat1"], MotifConfig(), registry_ops=registry.names, seed=6)
        assert score_pattern(state, "cat0", other) != score_pattern(state, "cat0", library)
        scorer.library = other
        assert scorer.static_vector(program, state).pattern == score_pattern(state, "cat0", other)
        scorer.category = "cat1"
        assert scorer.static_vector(program, state).pattern == score_pattern(state, "cat1", other)
        scorer.category = "none"
        assert scorer.static_vector(program, state).pattern == 0.5

    def test_total_computes_effective_weights_once_per_weight_vector(self, registry, monkeypatch):
        scorer = ConstraintScorer(registry, enabled_families=("units", "pattern", "depth"))
        computed = []
        effective = scorer.effective_weights
        monkeypatch.setattr(scorer, "effective_weights", lambda w: computed.append(w) or effective(w))
        vectors = [ConstraintVector(*np.random.default_rng(i).random(6)) for i in range(5)]
        first, second = WeightVector.uniform(), WeightVector(0.3, 0.1, 0.2, 0.1, 0.2, 0.1)
        for weights in (first, first, second, second, first):
            for vector in vectors:
                eff = effective(weights.as_dict())
                num = den = 0.0
                for fam in scorer.enabled:
                    num += eff[fam] * math.log(vector.as_dict()[fam] + 0.01)
                    den += eff[fam]
                assert scorer.total(vector, weights) == math.exp(num / den)
        assert len(computed) == 3

    def test_with_magnitude_builds_the_same_vector(self, registry):
        scorer = ConstraintScorer(registry)
        vector = ConstraintVector(0.9, 0.8, 0.7, 1.0, 0.6, 0.5)
        traces = [make_trace([50.0], [1.0]), make_trace([130.0], [1.0]), make_trace([], [])]
        mean = (1.0 + 0.85 + 0.5) / 3
        updated = scorer.with_magnitude(vector, traces)
        assert updated == dataclasses.replace(vector, magnitude=updated.magnitude)
        assert updated.magnitude == pytest.approx(mean, abs=1e-12)
        assert scorer.with_magnitude(vector, []) is vector
        # the same fold is the same object; a zero of the other sign is not
        assert scorer.with_magnitude(vector, traces) is updated
        zeros = ConstraintVector(0.0, 0.8, 0.7, 1.0, 0.6, 0.5)
        signed = ConstraintVector(-0.0, 0.8, 0.7, 1.0, 0.6, 0.5)
        assert repr(scorer.with_magnitude(zeros, traces).units) == "0.0"
        assert repr(scorer.with_magnitude(signed, traces).units) == "-0.0"

