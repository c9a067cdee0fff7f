import gc
from collections import Counter
from types import FunctionType

import numpy as np
import pytest

from wfopt import driver, edits, harness, model, search
from wfopt.edits import ProgramEdit
from wfopt.config import config_from_dict
from wfopt.harness import (
    Problem,
    ProblemSet,
    ProposerConfig,
    SyntheticEvaluator,
    SyntheticProposer,
    TokenRecord,
    make_synthetic_suite,
)
from wfopt.model import (
    INPUT_OP,
    Edge,
    InvalidProgramError,
    Node,
    WorkflowProgram,
    canonical_key,
    interpret,
    validate_program,
)
from wfopt.reporting import PriceMap, analyze

from conftest import binary, chain, every_entry, every_pair, fingerprint, prune_dead


def trivial_program():
    return WorkflowProgram((Node("x0", INPUT_OP),), (), ("x0",), "x0")


class TestProposeEdits:
    def test_trivial_program_insertions_only(self, registry):
        proposer = SyntheticProposer(registry, ProposerConfig(ops=("add", "neg")))
        edits = proposer.enumerate_edits(trivial_program())
        assert edits  # wrapping the output is available even with no edges
        for program in edits:
            assert len(program.operator_nodes()) == 1  # pure insertions

    def test_all_outputs_valid(self, registry):
        proposer = SyntheticProposer(registry)
        program = binary("add", "input", "input")
        for candidate in proposer.enumerate_edits(program):
            assert validate_program(candidate, registry).ok

    def test_distinct_candidates(self, registry):
        proposer = SyntheticProposer(registry)
        program = binary("add", "input", "input")
        edits = proposer.enumerate_edits(program)
        keys = [canonical_key(p) for p in edits]
        assert len(keys) == len(set(keys))
        assert canonical_key(program) not in keys

    def test_exact_count_when_available(self, registry):
        proposer = SyntheticProposer(registry)
        program = chain("neg", "neg", "neg", "neg")  # 5 nodes
        rng = np.random.default_rng(0)
        candidates, record = proposer.propose(program, 8, rng)
        assert len(candidates) == 8
        assert record.role == "optimizer"

    def test_deterministic_for_seed(self, registry):
        proposer = SyntheticProposer(registry)
        program = binary("mul", "input", "input")
        a, _ = proposer.propose(program, 6, np.random.default_rng(123))
        b, _ = proposer.propose(program, 6, np.random.default_rng(123))
        assert [canonical_key(p) for p in a] == [canonical_key(p) for p in b]

    def test_edit_kinds_present(self, registry):
        proposer = SyntheticProposer(registry, ProposerConfig(ops=("add", "mul", "neg")))
        unary = chain("neg")  # x0 -> neg
        sizes = {len(p.operator_nodes()) for p in proposer.enumerate_edits(unary)}
        assert 0 in sizes            # deletion of the unary node
        assert 2 in sizes            # insertion

        binary_prog = binary("add", "input", "input")
        edits = proposer.enumerate_edits(binary_prog)
        ops_seen = {p.operator_nodes()[0].op for p in edits if len(p.operator_nodes()) == 1}
        assert "mul" in ops_seen     # replacement add -> mul
        rewired = [
            p for p in edits
            if len(p.operator_nodes()) == 1 and p.operator_nodes()[0].op == "add"
        ]
        assert rewired               # rewiring one slot keeps the same operator

    def test_node_cap_respected(self, registry):
        config = ProposerConfig(ops=("add", "neg"), max_operator_nodes=2)
        proposer = SyntheticProposer(registry, config)
        program = binary("add", "input", "input")
        grown = proposer.enumerate_edits(program)
        assert all(len(p.operator_nodes()) <= 2 for p in grown)

    def test_const_palette_inserts_literals(self, registry):
        config = ProposerConfig(ops=("add", "mul"), const_palette=(7.0,))
        proposer = SyntheticProposer(registry, config)
        edits = proposer.enumerate_edits(binary("add", "input", "input"))
        with_const = [p for p in edits if any(n.op == "const" for n in p.nodes)]
        assert with_const
        for program in with_const:
            consts = [n.value for n in program.nodes if n.op == "const"]
            assert consts == [7.0]

    def test_unknown_op_rejected(self, registry):
        with pytest.raises(ValueError):
            SyntheticProposer(registry, ProposerConfig(ops=("bogus",)))

    def test_base_with_an_operator_the_registry_lacks(self, registry):
        """A base with a node whose operator the registry lacks is refused on
        entry, by `enumerate_edits` and `propose` alike, with the violations
        `validate_program` reports."""
        proposer = SyntheticProposer(registry)
        alone = binary("frob", "input", "input")
        inner = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("x1", INPUT_OP), Node("n0", "frob"), Node("n1", "add")),
            edges=(Edge("x0", "n0", 0), Edge("x1", "n0", 1), Edge("n0", "n1", 0), Edge("x1", "n1", 1)),
            roots=("x0", "x1"),
            output="n1",
        )
        for base in (alone, inner):
            violations = validate_program(base, registry).violations
            assert "node 'n0': unknown operator 'frob'" in violations
            for call in (proposer.enumerate_edits, lambda p: proposer.propose(p, 4, np.random.default_rng(0))):
                with pytest.raises(InvalidProgramError) as raised:
                    call(base)
                assert str(raised.value) == "; ".join(violations)
        assert proposer._request_counter == 0


def met_records(proposer, base, cap):
    """The records within `cap` of the clean `base`, and those of them the
    proposer keys, in the order it keys them: a record is keyed if and only
    if its fingerprint meets the base's or an earlier record's, and the first
    record met with a fingerprint is keyed when a later one meets it."""
    sized = [(fp, edit) for fp, edit in every_pair(proposer, base) if edit.operator_count() <= cap]
    met, keyed = {fingerprint(base): None}, []
    for fp, edit in sized:
        first = met.setdefault(fp, edit)
        if first is edit:
            continue
        if first is not None:
            keyed.append(first)
            met[fp] = None
        keyed.append(edit)
    shared = Counter([fingerprint(base)] + [fp for fp, _ in sized])
    assert {id(e) for e in keyed} == {id(e) for fp, e in sized if shared[fp] > 1}
    return [edit for _, edit in sized], keyed


class TestEditRecords:
    """The proposer checks its base once, on entry, and prunes a dirty one
    once. Each candidate is fingerprinted from its edit record, and keyed
    from it only if its fingerprint meets another's; it gets no check, and
    is built, carrying its record as its verdict, only if it is kept."""

    @staticmethod
    def count_calls(monkeypatch, calls):
        """Log each `validate_program` and `canonical_key` call the proposer
        makes, each record key and each program `harness` (a pruned base)
        or `edits` (a candidate, from its record) builds, in order."""
        validate, key, record_key = harness.validate_program, harness.canonical_key, ProgramEdit.key

        def counted_validate(program, reg):
            calls.append(("validate", program))
            return validate(program, reg)

        def counted_key(program):
            calls.append(("key", program))
            return key(program)

        def counted_record_key(edit):
            calls.append(("record key", edit))
            return record_key(edit)

        def counted_build(*args, **kwargs):
            program = WorkflowProgram(*args, **kwargs)
            calls.append(("build", program))
            return program

        monkeypatch.setattr(harness, "validate_program", counted_validate)
        monkeypatch.setattr(harness, "canonical_key", counted_key)
        monkeypatch.setattr(ProgramEdit, "key", counted_record_key)
        monkeypatch.setattr(harness, "WorkflowProgram", counted_build)
        monkeypatch.setattr("wfopt.edits.WorkflowProgram", counted_build)

    @pytest.mark.parametrize("dead_node, cap", [(False, 4), (True, 3)], ids=["clean-base", "dirty-base"])
    def test_checks_keys_and_builds_per_candidate_in_order(self, registry, monkeypatch, dead_node, cap):
        config = ProposerConfig(ops=("add", "sub", "mul", "neg"), const_palette=(1.0,), max_operator_nodes=cap)
        proposer = SyntheticProposer(registry, config)
        clean = base = chain("neg", "neg", "neg", n_roots=2)  # with an unused root
        if dead_node:  # a node that feeds nothing: pruning it brings the base to the cap
            base = WorkflowProgram(base.nodes + (Node("d0", "neg"),), base.edges + (Edge("x1", "d0", 0),),
                                   base.roots, base.output)
        assert validate_program(base, registry).ok
        entries = every_entry(proposer, clean)
        sized, met = met_records(proposer, clean, cap)
        # below the cap every insertion stays within it; at the cap none does
        assert (len(sized) < len(entries)) == dead_node
        assert 0 < len(met) < len(sized)

        calls: list = []
        self.count_calls(monkeypatch, calls)
        edits = proposer.enumerate_edits(base)
        # the base is checked on entry (the verdict lookup here); a dirty one
        # is pruned once, and its pruned copy checked, then keyed
        head = [("validate", base)] + [("build", clean), ("validate", clean)] * dead_node + [("key", clean)]
        assert calls[:len(head)] == head
        # the records whose fingerprints meet are keyed, in order, with no
        # check; then each distinct candidate is built, carrying its record
        after = calls[len(head):]
        keyed = [edit for kind, edit in after[:len(met)]]
        assert all(kind == "record key" for kind, _ in after[:len(met)])
        assert [(e.output, e.operands, e.nodes, e.removed) for e in keyed] == [
            (e.output, e.operands, e.nodes, e.removed) for e in met]
        built = after[len(met):]
        assert [kind for kind, _ in built] == ["build"] * len(edits)
        assert [p for _, p in built] == edits and all(p is q for (_, p), q in zip(built, edits))
        assert all(getattr(p, model._VERDICT)[0] is registry for p in edits)
        assert edits and len(edits) < len(sized)

        # a sample builds only what it draws, and checks only the base
        del calls[:]
        drawn, _ = proposer.propose(base, 5, np.random.default_rng(0))
        assert len(drawn) == 5
        builds = [p for kind, p in calls if kind == "build"][dead_node:]
        assert builds == drawn and all(p is q for p, q in zip(builds, drawn))
        assert [kind for kind, _ in calls].count("validate") == 1 + dead_node

    @pytest.mark.parametrize("kind, cap, counts", [
        ("clean", 4, (1, 1, 9, 102)),
        ("dirty", 3, (2, 1, 5, 5)),
        ("invalid", 4, (1, 0, 0, 0)),
    ])
    def test_call_counts_the_benchmark_tracer_reads(self, registry, monkeypatch, kind, cap, counts):
        """`perfbench/tracer.py` derives dedup hits from these counts. A base
        gets one `validate_program` call on entry, a dirty one a second for
        its pruned copy, and one `canonical_key` call for the base it edits;
        its candidates are fingerprinted from their records, and one
        `ProgramEdit.key` is made of each record within the size cap whose
        fingerprint meets the base's or another record's; none is checked.
        An invalid base is refused after its one check."""
        base = chain("neg", "neg", "neg", n_roots=2)
        if kind == "dirty":  # d0 feeds nothing; pruning brings the base to the cap
            base = WorkflowProgram(base.nodes + (Node("d0", "neg"),), base.edges + (Edge("x1", "d0", 0),),
                                   base.roots, base.output)
        elif kind == "invalid":  # n1's operator is unknown
            base = WorkflowProgram(tuple(Node("n1", "frob") if n.node_id == "n1" else n for n in base.nodes),
                                   base.edges, base.roots, base.output)
        assert validate_program(base, registry).ok is (kind != "invalid")
        proposer = SyntheticProposer(registry, ProposerConfig(ops=("add", "sub", "mul", "neg"), const_palette=(1.0,),
                                                              max_operator_nodes=cap))
        if kind != "invalid":
            assert len(met_records(proposer, prune_dead(base), cap)[1]) == counts[2]
        calls: list = []
        self.count_calls(monkeypatch, calls)
        if kind == "invalid":
            with pytest.raises(InvalidProgramError, match="unknown operator 'frob'"):
                proposer.enumerate_edits(base)
            edits = []
        else:
            edits = proposer.enumerate_edits(base)
        counted = tuple([kind for kind, _ in calls].count(k) for k in ("validate", "key", "record key"))
        assert counted + (len(edits),) == counts

    def test_search_leaves_no_cyclic_garbage(self, tmp_path):
        """What a search makes per candidate, its key walk included, is freed
        by reference counting: with the cyclic collector off, the search
        leaves no garbage from wfopt, only the few objects of writing its
        artifacts (the json encoder's closures), however many programs it
        keys."""
        config = config_from_dict({
            "seed": 42,
            "budget": {"rounds": 2, "simulations_per_round": 16},
            "proposer": {"ops": ["add", "sub", "mul", "neg"], "max_operator_nodes": 8},
        })
        enabled, debug, before = gc.isenabled(), gc.get_debug(), len(gc.garbage)
        gc.collect()
        gc.disable()
        try:
            result = driver.execute_run(config, tmp_path)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            garbage = gc.garbage[before:]
            ours = [o for o in garbage if isinstance(o, FunctionType) and str(o.__module__).startswith("wfopt")]
            total = len(garbage)
            del garbage
        finally:
            gc.set_debug(debug)
            del gc.garbage[before:]
            if enabled:
                gc.enable()
        assert result.optimizer.root.children
        assert ours == []
        # 99 objects here; a key walk that recursed through a closure would
        # leave about 20 per walk, about 38000 over this search's 1808 walks
        assert total < 1000


    def test_search_orders_each_child_once(self, tmp_path, monkeypatch):
        """Expansion orders one program, its base, once, when `propose`
        builds the base's `EditBase`. Each child it returns carries its edit
        record, from which scoring derives its state over that one order. So
        a child's one `_ordered` walk is its evaluation's."""
        config = config_from_dict({
            "seed": 42,
            "budget": {"rounds": 2, "simulations_per_round": 8, "max_candidates_per_expansion": 64},
            "proposer": {"ops": ["add", "mul", "neg"], "max_operator_nodes": 4},
        })
        walks, calls, where = Counter(), Counter(), ["elsewhere"]
        ordered = model._ordered

        def counted(program):
            walks[where[-1]] += 1
            return ordered(program)

        def region(owner, name):
            inner = getattr(owner, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                where.append(name)
                try:
                    return inner(*args, **kwargs)
                finally:
                    where.pop()

            monkeypatch.setattr(owner, name, wrapped)

        monkeypatch.setattr(model, "_ordered", counted)
        monkeypatch.setattr(edits, "_ordered", counted)
        region(search.Optimizer, "expand")
        region(SyntheticProposer, "propose")
        region(SyntheticEvaluator, "evaluate")
        driver.execute_run(config, tmp_path)
        assert calls["propose"] == calls["expand"] > 0 and calls["evaluate"] > calls["propose"]
        assert walks["propose"] == calls["propose"]
        assert walks["expand"] == 0
        assert walks["evaluate"] == calls["evaluate"]


class TestEvaluate:
    def make_problems(self, expected):
        return ProblemSet(
            tuple(
                Problem(inputs={"x0": float(i + 1), "x1": float(i + 2)}, expected=e, category="c")
                for i, e in enumerate(expected)
            ),
            "validation",
        )

    def test_identity_oracle(self, registry):
        program = binary("add", "input", "input")
        expected = [interpret(program, {"x0": i + 1.0, "x1": i + 2.0}).output for i in range(4)]
        evaluator = SyntheticEvaluator(self.make_problems(expected), registry)
        reward, traces, record = evaluator.evaluate(program)
        assert reward == 1.0
        assert len(traces) == 4
        assert record.role == "executor"

    def test_partial_match_hand_computed(self, registry):
        # program add(x0, x1) on inputs (1,2),(2,3),(3,4),(4,5) gives 3,5,7,9;
        # expected values match on two of the four problems
        program = binary("add", "input", "input")
        evaluator = SyntheticEvaluator(self.make_problems([3.0, 999.0, 7.0, -1.0]), registry)
        reward, _, _ = evaluator.evaluate(program)
        assert reward == pytest.approx(0.5)

    def test_domain_violation_counts_incorrect(self, registry):
        program = chain("sqrt")
        problems = ProblemSet(
            (Problem(inputs={"x0": -4.0}, expected=2.0, category="c"),),
            "validation",
        )
        reward, traces, _ = SyntheticEvaluator(problems, registry).evaluate(program)
        assert reward == 0.0
        assert not traces[0].success

    def test_empty_problem_set_rejected(self, registry):
        with pytest.raises(ValueError):
            SyntheticEvaluator(ProblemSet((), "validation"), registry)

    def test_relative_tolerance_mode(self, registry):
        # the tolerance is absolute: 0.5 off an output near 1e9 is a miss
        program = binary("add", "input", "input")
        problems = ProblemSet(
            (Problem(inputs={"x0": 1e9, "x1": 1.0}, expected=1e9 + 1.0 + 0.5, category="c"),),
            "validation",
        )
        strict = SyntheticEvaluator(problems, registry)
        assert strict.evaluate(program)[0] == 0.0


class TestSyntheticSuite:
    def test_split_ratio(self):
        suite = make_synthetic_suite(seed=42, n_problems=10)
        assert len(suite.validation) == 2
        assert len(suite.test) == 8

    def test_target_self_consistency(self, registry):
        suite = make_synthetic_suite(seed=42, n_problems=10)
        for split in (suite.validation, suite.test):
            reward, _, _ = SyntheticEvaluator(split, registry).evaluate(suite.target)
            assert reward == 1.0

    def test_deterministic(self):
        a = make_synthetic_suite(seed=7, n_problems=10)
        b = make_synthetic_suite(seed=7, n_problems=10)
        assert a == b

    def test_target_reachable_by_proposer(self, registry):
        config = ProposerConfig(ops=("add", "mul", "neg"), max_operator_nodes=2)
        suite = make_synthetic_suite(seed=1, n_problems=10, proposer_config=config, target_edits=2)
        proposer = SyntheticProposer(registry, config)
        seen = {canonical_key(suite.initial_program)}
        frontier = [suite.initial_program]
        target_key = canonical_key(suite.target)
        found = target_key in seen
        while frontier and not found:
            nxt = []
            for program in frontier:
                for edit in proposer.enumerate_edits(program):
                    key = canonical_key(edit)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(edit)
                        if key == target_key:
                            found = True
            frontier = nxt
        assert found

    def test_minimum_problem_count(self):
        with pytest.raises(ValueError):
            make_synthetic_suite(seed=1, n_problems=4)

    def test_categories_assigned_round_robin(self):
        suite = make_synthetic_suite(seed=3, n_problems=10, category_count=2)
        categories = {p.category for p in suite.all_problems()}
        assert categories == {"cat0", "cat1"}
        assert set(suite.targets) == {"cat0", "cat1"}

    def test_unit_dims_tagged(self):
        suite = make_synthetic_suite(seed=5, n_problems=10, unit_dims=("length", "time"))
        tags = {n.node_id: n.unit for n in suite.initial_program.nodes if n.op == INPUT_OP}
        assert tags["x0"] is not None and tags["x1"] is not None


class TestAccounting:
    """A run's tokens and cost per problem, as `reporting.analyze` folds them
    from its log: the meta record gives the problem count and the prices."""

    def stats(self, usages, n_problems=1, prices=PriceMap.zero()):
        meta = {"event": "meta", "n_problems": n_problems,
                "prices": {role: list(pair) for role, pair in prices.prices.items()}}
        return analyze([meta] + [
            {"event": "simulated", "round": 0, "reward": 0.0, "role": role, "tokens_in": tin, "tokens_out": tout}
            for role, tin, tout in usages
        ])

    def test_tokens_empty_log(self):
        assert self.stats([], 3).tokens_per_problem == 0.0

    def test_tokens_hand_sum(self):
        stats = self.stats([("optimizer", 100, 50), ("executor", 200, 150)], 5)
        assert stats.tokens_per_problem == pytest.approx(100.0, rel=1e-12)

    def test_single_record_run(self):
        assert self.stats([("executor", 900, 100)], 4).tokens_per_problem == pytest.approx(250.0, rel=1e-12)

    def test_cost_zero_prices(self):
        assert self.stats([("executor", 1000, 500)]).cost_per_problem == 0.0

    def test_cost_hand_computed(self):
        prices = PriceMap({"optimizer": (0.0, 0.0), "executor": (1e-6, 2e-6)})
        assert self.stats([("executor", 1000, 500)], 1, prices).cost_per_problem == pytest.approx(0.002, rel=1e-12)

    def test_cost_linear_in_prices(self):
        usages = [("optimizer", 123, 45), ("executor", 678, 90)]
        p1 = PriceMap({"optimizer": (1e-6, 3e-6), "executor": (2e-6, 4e-6)})
        p2 = PriceMap({"optimizer": (2e-6, 6e-6), "executor": (4e-6, 8e-6)})
        assert self.stats(usages, 2, p2).cost_per_problem == pytest.approx(
            2 * self.stats(usages, 2, p1).cost_per_problem, rel=1e-12)

    def test_missing_role_price_rejected(self):
        with pytest.raises(ValueError, match="'role' is not a priced role"):
            self.stats([("executor", 10, 10)], 1, PriceMap({"optimizer": (0.0, 0.0)}))

    def test_concatenated_logs_combine(self):
        a, b = [("executor", 100, 0)], [("executor", 300, 0)]
        total = self.stats(a + b).tokens_per_problem
        assert total == self.stats(a).tokens_per_problem + self.stats(b).tokens_per_problem

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            TokenRecord("executor", -1, 0, "r")
