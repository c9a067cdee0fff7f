import math

import numpy as np
import pytest

from wfopt import constraints
from wfopt.config import config_from_dict
from wfopt.constraints import AggregationConfig, ConstraintScorer, ConstraintVector
from wfopt.harness import (
    ProposerConfig,
    SyntheticEvaluator,
    SyntheticProposer,
    TokenRecord,
    make_synthetic_suite,
)
from wfopt.driver import execute_run
from wfopt.model import default_registry, derive_state
from wfopt.search import (
    Optimizer,
    SearchBudget,
    SearchNode,
    StageSwitches,
    backpropagate,
    select,
    selection_score,
)
from wfopt.motifs import MotifConfig, init_templates, score_pattern
from conftest import binary, random_program, state_key


def leaf_node(compliance=0.5, visits=0, value=0.0, depth=0):
    program = binary("add", "input", "input")
    node = SearchNode(
        program=program,
        state=derive_state(program),
        node_id="t",
        node_depth=depth,
        visit_count=visits,
        total_value=value,
        compliance=compliance,
    )
    return node


class TestSelectionScore:
    def test_zero_compliance_is_bare_uct(self):
        node = leaf_node(compliance=0.0, visits=4, value=2.0)
        cfg = AggregationConfig()
        u = math.sqrt(math.log(10) / 4)
        assert selection_score(node, 10, cfg) == pytest.approx((0.5 + cfg.uct_c * u))

    def test_matches_formula_on_grid(self):
        cfg = AggregationConfig()
        for visits, value, compliance, parent in (
            (25, 12.5, 1.0, 100), (3, 1.2, 0.42, 7), (1, 0.0, 0.9, 2), (50, 10.0, 0.61, 51),
        ):
            node = leaf_node(compliance=compliance, visits=visits, value=value)
            u = math.sqrt(math.log(parent) / visits)
            expected = (value / visits + cfg.uct_c * u) * math.exp(cfg.lambda_shaping * compliance)
            assert selection_score(node, parent, cfg) == pytest.approx(expected, abs=1e-12)

    def test_hand_arithmetic_identity(self):
        # Q=0.5, U=0.2, c=1.414, lambda=0.5, C=1: shaped score ~ 1.2906
        value = (0.5 + 1.414 * 0.2) * math.exp(0.5)
        assert value == pytest.approx(1.2906, abs=1e-4)

    def test_compliance_orders_equal_stats(self):
        low = leaf_node(compliance=0.3, visits=5, value=2.0)
        high = leaf_node(compliance=0.9, visits=5, value=2.0)
        cfg = AggregationConfig()
        assert selection_score(high, 20, cfg) > selection_score(low, 20, cfg)

    def test_unvisited_beats_visited(self):
        fresh = leaf_node(compliance=0.1, visits=0)
        seasoned = leaf_node(compliance=1.0, visits=1, value=1.0)
        cfg = AggregationConfig()
        assert selection_score(fresh, 5, cfg) > selection_score(seasoned, 5, cfg)

    def test_unvisited_ordered_by_compliance_at_the_largest_shaping(self):
        # the config's largest lambda * (1 + epsilon) keeps an unvisited score finite
        epsilon = 0.01
        cfg = AggregationConfig(epsilon=epsilon, lambda_shaping=682 / (1 + epsilon))
        scores = [selection_score(leaf_node(compliance=c), 5, cfg) for c in (0.9 + epsilon, 1.0 + epsilon)]
        assert all(math.isfinite(s) for s in scores) and scores[0] < scores[1]
        with pytest.raises(ValueError, match="must be <= 682"):
            AggregationConfig(epsilon=epsilon, lambda_shaping=690 / (1 + epsilon))

    def test_unshaped_ignores_compliance(self):
        low = leaf_node(compliance=0.1, visits=5, value=2.0)
        high = leaf_node(compliance=0.9, visits=5, value=2.0)
        cfg = AggregationConfig()
        assert selection_score(low, 20, cfg, shaped=False) == selection_score(high, 20, cfg, shaped=False)

    def test_scaling_all_scores_preserves_argmax(self):
        cfg = AggregationConfig()
        nodes = [leaf_node(compliance=c, visits=3, value=v) for c, v in ((0.2, 1.0), (0.8, 0.5), (0.5, 2.0))]
        raw = [selection_score(n, 9, cfg) for n in nodes]
        scaled = [5.0 * s for s in raw]
        assert raw.index(max(raw)) == scaled.index(max(scaled))


class TestSelectAndBackprop:
    def build_tree(self):
        root = leaf_node(compliance=0.5)
        root.node_id = "root"
        root.expanded = True
        root.visit_count = 10
        children = []
        for i, (c, n, w) in enumerate(((0.9, 3, 1.5), (0.3, 3, 1.5), (0.5, 4, 0.5))):
            child = leaf_node(compliance=c, visits=n, value=w, depth=1)
            child.node_id = f"c{i}"
            child.parent = root
            root.children.append(child)
            children.append(child)
        return root, children

    def test_root_only_tree(self):
        root = leaf_node()
        assert select(root, AggregationConfig()) is root

    def test_descends_to_best_shaped(self):
        root, children = self.build_tree()
        assert select(root, AggregationConfig()) is children[0]

    def test_follows_best_path_over_two_levels(self):
        root, children = self.build_tree()
        winner = children[0]
        winner.expanded = True
        grandchildren = []
        for i, c in enumerate((0.8, 0.2)):
            g = leaf_node(compliance=c, visits=1, value=0.5, depth=2)
            g.node_id = f"g{i}"
            g.parent = winner
            winner.children.append(g)
            grandchildren.append(g)
        assert select(root, AggregationConfig()) is grandchildren[0]

    def test_unvisited_child_first(self):
        root, children = self.build_tree()
        fresh = leaf_node(compliance=0.05, visits=0, depth=1)
        fresh.parent = root
        root.children.append(fresh)
        assert select(root, AggregationConfig()) is fresh

    def test_tie_breaks_to_lowest_index(self):
        root = leaf_node()
        root.expanded = True
        root.visit_count = 4
        for i in range(3):
            child = leaf_node(compliance=0.5, visits=2, value=1.0, depth=1)
            child.node_id = f"c{i}"
            child.parent = root
            root.children.append(child)
        assert select(root, AggregationConfig()) is root.children[0]

    def test_backprop_shaped_credit(self):
        root, children = self.build_tree()
        child = children[1]
        child.compliance = 0.5
        before_root = root.total_value
        credit = backpropagate(child, 0.8)
        assert credit == pytest.approx(0.4)
        assert root.total_value == pytest.approx(before_root + 0.4)
        assert child.visit_count == 4

    def test_backprop_identity_when_compliant(self):
        node = leaf_node(compliance=1.0)
        assert backpropagate(node, 0.8) == pytest.approx(0.8)

    def test_backprop_zero_reward_counts_visit(self):
        node = leaf_node(compliance=0.7, visits=2, value=1.0)
        backpropagate(node, 0.0)
        assert node.visit_count == 3
        assert node.total_value == pytest.approx(1.0)

    def test_backprop_raw_when_unshaped(self):
        node = leaf_node(compliance=0.5)
        assert backpropagate(node, 0.8, shaped=False) == pytest.approx(0.8)


class _StubScorer:
    """Duck-typed ConstraintScorer returning prescribed compliance values."""

    def __init__(self, registry, totals):
        self.registry = registry
        self.agg = AggregationConfig()
        self.library = None
        self.category = "stub"
        self.enabled = ("depth",)
        self._totals = list(totals)
        self._cursor = 0

    def static_vector(self, program, state):
        return ConstraintVector(0.5, 0.5, 0.5, 1.0, 1.0, 0.5)

    def with_magnitude(self, vector, traces):
        return vector

    def total(self, vector, weights):
        value = self._totals[min(self._cursor, len(self._totals) - 1)]
        self._cursor += 1
        return value


class _StubProposer:
    def __init__(self, candidates):
        self._candidates = candidates

    def propose(self, program, count, rng):
        return list(self._candidates[:count]), TokenRecord("optimizer", 10, 5, "opt-1")


class _StubEvaluator:
    def evaluate(self, program):
        return 0.5, [], TokenRecord("executor", 10, 5, "exe-1")


def candidate_programs(n):
    from wfopt.model import INPUT_OP, Edge, Node, WorkflowProgram

    out = []
    ops = ["add", "sub", "mul"]
    for i in range(n):
        op = ops[i % 3]
        out.append(
            WorkflowProgram(
                (Node("x0", INPUT_OP), Node("x1", INPUT_OP), Node(f"k{i}", op)),
                (Edge("x0", f"k{i}", 0), Edge("x1", f"k{i}", 1)),
                ("x0", "x1"),
                f"k{i}",
            )
        )
    return out


class TestExpansionGate:
    def run_expand(self, totals, stages=StageSwitches(), max_candidates=8):
        registry = default_registry()
        # first total() call scores the root during construction
        scorer = _StubScorer(registry, [0.5] + list(totals))
        proposer = _StubProposer(candidate_programs(len(totals)))
        optimizer = Optimizer(
            binary("add", "input", "input"),
            proposer,
            _StubEvaluator(),
            scorer,
            budget=SearchBudget(rounds=1, simulations_per_round=1, max_candidates_per_expansion=max_candidates),
            stages=stages,
        )
        children = optimizer.expand(optimizer.root, round_index=0)
        return optimizer, children

    def test_gate_keeps_above_threshold_at_depth_zero(self):
        optimizer, children = self.run_expand([0.7, 0.5, 0.2])
        assert len(children) == 1
        assert children[0].compliance == 0.7
        assert len(optimizer.log.by_event("pruned")) == 2

    def test_fallback_keeps_single_argmax(self):
        optimizer, children = self.run_expand([0.55, 0.59, 0.2])
        assert len(children) == 1
        assert children[0].compliance == 0.59
        kept = optimizer.log.by_event("expanded")
        assert kept[0]["fallback"] is True

    def test_fallback_keeps_the_first_of_tied_best(self):
        optimizer, children = self.run_expand([0.2, 0.55, 0.1, 0.55, 0.55])
        assert [child.program.output for child in children] == ["k1"]
        assert [r["node_id"] for r in optimizer.log.by_event("expanded")] == [children[0].node_id]
        assert [r["C_total"] for r in optimizer.log.by_event("pruned")] == [0.2, 0.1, 0.55, 0.55]

    def test_looser_gate_at_depth(self):
        registry = default_registry()
        scorer = _StubScorer(registry, [0.5, 0.7, 0.5, 0.2])
        proposer = _StubProposer(candidate_programs(3))
        optimizer = Optimizer(
            binary("add", "input", "input"), proposer, _StubEvaluator(), scorer,
            budget=SearchBudget(rounds=1, simulations_per_round=1),
        )
        optimizer.root.node_depth = 6  # tau(6) = 0.3
        children = optimizer.expand(optimizer.root, round_index=0)
        assert len(children) == 2

    def test_gate_bypassed_when_expansion_stage_off(self):
        stages = StageSwitches(expansion=False)
        optimizer, children = self.run_expand([0.7, 0.5, 0.2], stages=stages)
        assert len(children) == 3
        assert optimizer.log.by_event("pruned") == []

    def test_every_pruned_record_below_tau(self):
        optimizer, _ = self.run_expand([0.7, 0.5, 0.2, 0.61, 0.1])
        for record in optimizer.log.by_event("pruned"):
            assert record["C_total"] < record["tau"]

    def test_zero_candidates_marks_terminal(self):
        # terminal: expanded with no children, which only a proposal with no
        # candidates leaves a node
        optimizer, children = self.run_expand([])
        assert children == []
        assert optimizer.root.expanded and not optimizer.root.children

    def test_expansion_with_candidates_is_not_terminal(self):
        optimizer, children = self.run_expand([0.7, 0.5])
        assert children and optimizer.root.expanded
        assert not any(child.expanded or child.children for child in children)  # not expanded yet


class TestFullRuns:
    def small_setup(self, seed=42, stages=StageSwitches(), lam=0.5):
        registry = default_registry()
        config = ProposerConfig(ops=("add", "mul", "neg"), max_operator_nodes=2)
        suite = make_synthetic_suite(seed=seed, n_problems=10, proposer_config=config, target_edits=2)
        proposer = SyntheticProposer(registry, config)
        evaluator = SyntheticEvaluator(suite.validation, registry)
        scorer = ConstraintScorer(registry, library=None, category="cat0",
                                  agg=AggregationConfig(lambda_shaping=lam))
        return suite, proposer, evaluator, scorer

    def test_zero_budget_returns_initial(self):
        suite, proposer, evaluator, scorer = self.small_setup()
        best, log = Optimizer(
            suite.initial_program, proposer, evaluator, scorer,
            budget=SearchBudget(rounds=0, simulations_per_round=8),
        ).run()
        assert best == suite.initial_program
        assert log.by_event("simulated") == []

    def test_determinism_across_runs(self, tmp_path):
        results = []
        for run in range(2):
            suite, proposer, evaluator, scorer = self.small_setup()
            best, log = Optimizer(
                suite.initial_program, proposer, evaluator, scorer,
                budget=SearchBudget(rounds=5, simulations_per_round=6, seed=42),
            ).run()
            log.save(tmp_path / f"{run}.ndjson")
            results.append((best, (tmp_path / f"{run}.ndjson").read_bytes()))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_tree_consistency_invariant(self):
        suite, proposer, evaluator, scorer = self.small_setup()
        optimizer = Optimizer(
            suite.initial_program, proposer, evaluator, scorer,
            budget=SearchBudget(rounds=4, simulations_per_round=6, seed=0),
        )
        optimizer.run()
        for node in optimizer._walk():
            assert node.visit_count == sum(c.visit_count for c in node.children) + node.own_simulations

    def test_warmup_then_updates_logged(self):
        suite, proposer, evaluator, scorer = self.small_setup()
        optimizer = Optimizer(
            suite.initial_program, proposer, evaluator, scorer,
            budget=SearchBudget(rounds=8, simulations_per_round=4, seed=1),
        )
        optimizer.run()
        records = optimizer.log.by_event("weights_updated")
        assert len(records) == 8
        for record in records:
            if record["round"] < 5:
                assert record["updated"] is False
                assert record["weights"]["units"] == pytest.approx(1 / 6)
            else:
                assert record["updated"] is True

    def test_simulated_credit_matches_compliance(self):
        suite, proposer, evaluator, scorer = self.small_setup()
        optimizer = Optimizer(
            suite.initial_program, proposer, evaluator, scorer,
            budget=SearchBudget(rounds=3, simulations_per_round=4, seed=2),
        )
        optimizer.run()
        for record in optimizer.log.by_event("simulated"):
            if "credit" in record:
                assert record["credit"] == pytest.approx(record["reward"] * record["C_total"], abs=1e-12)

    def test_backprop_off_credits_raw_reward(self):
        suite, proposer, evaluator, scorer = self.small_setup(stages=StageSwitches(backprop=False))
        optimizer = Optimizer(
            suite.initial_program, proposer, evaluator, scorer,
            budget=SearchBudget(rounds=3, simulations_per_round=4, seed=2),
            stages=StageSwitches(backprop=False),
        )
        optimizer.run()
        for record in optimizer.log.by_event("simulated"):
            if "credit" in record:
                assert record["credit"] == pytest.approx(record["reward"], abs=1e-12)

    @pytest.mark.parametrize("backprop", [True, False])
    def test_every_simulated_record_but_the_roots_first_carries_credit(self, backprop):
        from wfopt.harness import EvaluationError

        suite, proposer, evaluator, scorer = self.small_setup()

        class _EveryThirdFails:
            calls = 0

            def evaluate(self, program):
                self.calls += 1
                if self.calls % 3 == 0:
                    raise EvaluationError("backend hiccup")
                return evaluator.evaluate(program)

        stages = StageSwitches(backprop=backprop)
        optimizer = Optimizer(
            suite.initial_program, proposer, _EveryThirdFails(), scorer,
            budget=SearchBudget(rounds=3, simulations_per_round=4, seed=2),
            stages=stages,
        )
        optimizer.run()
        first, *rest = optimizer.log.by_event("simulated")
        assert first["node_id"] == optimizer.root.node_id and "credit" not in first
        assert any("failure" in r for r in rest) and any(r["reward"] > 0 for r in rest)
        for record in rest:
            expected = record["reward"] * record["C_total"] if backprop else record["reward"]
            assert record["credit"] == expected

    def test_simulation_off_keeps_static_magnitude(self):
        suite, proposer, evaluator, scorer = self.small_setup()
        optimizer = Optimizer(
            suite.initial_program, proposer, evaluator, scorer,
            budget=SearchBudget(rounds=3, simulations_per_round=4, seed=3),
            stages=StageSwitches(simulation=False),
        )
        optimizer.run()
        for record in optimizer.log.by_event("simulated"):
            assert record["C_vector"]["magnitude"] == 1.0

    def test_magnitude_overflow_lowers_compliance_after_simulation(self):
        from wfopt.harness import Problem, ProblemSet
        from wfopt.model import Edge, INPUT_OP, Node, WorkflowProgram

        registry = default_registry()
        # x0^4 on x0=9 peaks at 6561 against theta = 900
        program = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("m1", "mul"), Node("m2", "mul")),
            edges=(Edge("x0", "m1", 0), Edge("x0", "m1", 1),
                   Edge("m1", "m2", 0), Edge("m1", "m2", 1)),
            roots=("x0",),
            output="m2",
        )
        problems = ProblemSet(
            (Problem(inputs={"x0": 9.0}, expected=6561.0, category="c"),),
            "validation",
        )
        scorer = ConstraintScorer(registry, library=None, category="c")
        optimizer = Optimizer(
            program,
            _StubProposer([]),
            SyntheticEvaluator(problems, registry),
            scorer,
            budget=SearchBudget(rounds=1, simulations_per_round=1),
        )
        static_compliance = optimizer.root.compliance
        optimizer.simulate(optimizer.root, 0)
        assert optimizer.root.scores.magnitude == 0.0
        assert optimizer.root.compliance < static_compliance

    def test_failing_evaluator_scores_zero_and_continues(self):
        from wfopt.harness import EvaluationError

        class _FlakyEvaluator:
            def __init__(self):
                self.calls = 0

            def evaluate(self, program):
                self.calls += 1
                if self.calls % 2 == 0:
                    raise EvaluationError("backend hiccup")
                return 0.25, [], TokenRecord("executor", 5, 5, f"exe-{self.calls}")

        suite, proposer, _, scorer = self.small_setup()
        optimizer = Optimizer(
            suite.initial_program, proposer, _FlakyEvaluator(), scorer,
            budget=SearchBudget(rounds=2, simulations_per_round=3, seed=5),
        )
        optimizer.run()
        failures = [r for r in optimizer.log.by_event("simulated") if "failure" in r]
        assert failures
        for record in failures:
            assert record["reward"] == 0.0

    def test_rewards_outside_the_unit_interval_are_clamped(self):
        """NaN, negative values and -0.0 log 0.0; above 1, +inf included, logs 1.0."""
        rewards = [math.nan, -0.0, -1, 1.5, math.inf, 0.5]
        clamped = [0.0, 0.0, 0.0, 1.0, 1.0, 0.5]

        class _WildEvaluator:
            calls = 0

            def evaluate(self, program):
                self.calls += 1
                return rewards[(self.calls - 1) % len(rewards)], [], TokenRecord("executor", 5, 5, f"exe-{self.calls}")

        suite, proposer, _, scorer = self.small_setup()
        optimizer = Optimizer(
            suite.initial_program, proposer, _WildEvaluator(), scorer,
            budget=SearchBudget(rounds=2, simulations_per_round=3, seed=5),
        )
        optimizer.run()
        records = optimizer.log.by_event("simulated")
        assert len(records) > len(rewards)
        for i, record in enumerate(records):
            reward = record["reward"]
            assert reward == clamped[i % len(rewards)] and type(reward) is float
            assert math.copysign(1.0, reward) == 1.0
            if i:
                assert record["credit"] == reward * record["C_total"]

    def test_motif_refinement_fires_on_schedule(self):
        registry = default_registry()
        from wfopt.motifs import init_templates

        config = ProposerConfig(ops=("add", "mul", "neg"), max_operator_nodes=2)
        suite = make_synthetic_suite(seed=4, n_problems=10, proposer_config=config, target_edits=2)
        library = init_templates(["cat0"], MotifConfig(), registry_ops=registry.names, seed=4)
        scorer = ConstraintScorer(registry, library=library, category="cat0")
        optimizer = Optimizer(
            suite.initial_program,
            SyntheticProposer(registry, config),
            SyntheticEvaluator(suite.validation, registry),
            scorer,
            budget=SearchBudget(rounds=7, simulations_per_round=4, seed=4),
        )
        optimizer.run()
        rounds = [r["round"] for r in optimizer.log.by_event("refined")]
        assert rounds == [3, 6]
        assert optimizer.scorer.library is not library  # refinement replaced the value


class TestScoringMemoAcrossRefinement:
    def test_memoized_scores_match_a_fresh_scorer_before_and_after_refine(self):
        registry = default_registry()
        config = ProposerConfig(ops=("add", "sub", "mul", "neg"), max_operator_nodes=4)
        suite = make_synthetic_suite(seed=4, n_problems=10, proposer_config=config)
        library = init_templates(["cat0"], MotifConfig(), registry_ops=registry.names, seed=4)
        scorer = ConstraintScorer(registry, library=library, category="cat0")
        optimizer = Optimizer(
            suite.initial_program, SyntheticProposer(registry, config),
            SyntheticEvaluator(suite.validation, registry), scorer,
            budget=SearchBudget(rounds=4, simulations_per_round=4, max_candidates_per_expansion=16, seed=4),
        )
        rng = np.random.default_rng(4)
        programs = [random_program(rng, registry, max_ops=6) for _ in range(80)]

        def vectors(scorer):
            return [scorer.static_vector(p, derive_state(p, registry)) for p in programs]

        def fresh():
            return vectors(ConstraintScorer(registry, library=scorer.library, category="cat0"))

        before = vectors(scorer)
        assert before == fresh()
        optimizer.run()  # scores the tree's children, and refines at round 3
        assert len(optimizer.log.by_event("refined")) == 1
        assert scorer.library is not library
        after = vectors(scorer)
        assert after == fresh()
        # the refined library scores some of these programs differently, so
        # a memo kept across the refinement would show
        assert [v.pattern for v in after] != [v.pattern for v in before]

    def test_search_scores_each_state_once_per_library(self, monkeypatch):
        registry = default_registry()
        config = ProposerConfig(ops=("add", "mul", "neg"), max_operator_nodes=4)
        suite = make_synthetic_suite(seed=42, n_problems=10, proposer_config=config)
        library = init_templates(["cat0"], MotifConfig(), registry_ops=registry.names, seed=42)
        matched = []

        def counted(state, category, lib):
            matched.append((lib, state_key(state)))
            return score_pattern(state, category, lib)

        monkeypatch.setattr(constraints, "score_pattern", counted)
        optimizer = Optimizer(
            suite.initial_program, SyntheticProposer(registry, config),
            SyntheticEvaluator(suite.validation, registry),
            ConstraintScorer(registry, library=library, category="cat0"),
            budget=SearchBudget(rounds=8, simulations_per_round=4, max_candidates_per_expansion=32, seed=42),
        )
        optimizer.run()
        scored = 1 + len(optimizer.log.by_event("expanded")) + len(optimizer.log.by_event("pruned"))
        libraries = {id(lib) for lib, _ in matched}
        assert len(libraries) == 1 + len(optimizer.log.by_event("refined")) == 3
        assert len({(id(lib), key) for lib, key in matched}) == len(matched) < scored / 10


class TestCompactTree:
    """What a search keeps per tree node: slotted records, and one state
    object per distinct state among one expansion's children."""

    def test_per_node_records_hold_no_instance_dict(self):
        node = leaf_node()
        program = node.program
        records = [node, program, node.state, program.nodes[0], program.edges[0],
                   ConstraintVector(0.5, 0.5, 0.5, 1.0, 1.0, 0.5), TokenRecord("executor", 1, 2, "exe-1")]
        assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []

    def test_equal_sibling_states_are_one_object(self):
        registry = default_registry()
        program = binary("add", "input", "input")
        optimizer = Optimizer(
            program, SyntheticProposer(registry, ProposerConfig(ops=("add", "mul", "neg"), max_operator_nodes=4)),
            _StubEvaluator(), ConstraintScorer(registry, library=None, category="cat0"),
            budget=SearchBudget(max_candidates_per_expansion=64),
            stages=StageSwitches(expansion=False),  # keep every candidate
        )
        children = optimizer.expand(optimizer.root, 0)
        by_key: dict = {}
        for child in children:
            by_key.setdefault(state_key(child.state), []).append(child.state)
        shared = [states for states in by_key.values() if len(states) > 1]
        assert shared and len(by_key) > 1
        for states in by_key.values():
            assert all(state is states[0] for state in states)
        firsts = [states[0] for states in by_key.values()]
        assert len({id(state) for state in firsts}) == len(firsts)

    def test_a_wide_search_keeps_fewer_states_than_nodes(self):
        config = config_from_dict({
            "seed": 42,
            "budget": {"rounds": 2, "simulations_per_round": 8, "max_candidates_per_expansion": 64},
            "proposer": {"ops": ["add", "mul", "neg"], "max_operator_nodes": 4},
        })
        nodes = list(execute_run(config).optimizer._walk())
        states = {id(node.state) for node in nodes}
        assert len(nodes) > 100 and len(states) < len(nodes) / 2
