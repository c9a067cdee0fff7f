import networkx as nx
import numpy as np
import pytest

from wfopt import model
from wfopt.edits import ProgramEdit
from wfopt.harness import Problem, ProblemSet, ProposerConfig, SyntheticEvaluator, SyntheticProposer
from wfopt.model import (
    CONST_OP,
    INPUT_OP,
    Edge,
    InvalidProgramError,
    MissingInputError,
    OperatorRegistry,
    Node,
    Shape,
    Sign,
    UnitSignature,
    WorkflowProgram,
    analyze_program,
    canonical_key,
    derive_state,
    dumps_program,
    interpret,
    loads_program,
    program_from_dict,
    program_to_dict,
    topological_order,
    validate_program,
)

from conftest import binary, chain, random_program


def two_node_cycle():
    """n0 = neg(n1), n1 = neg(n0): valid nodes, no way in from a leaf."""
    return WorkflowProgram(
        nodes=(Node("x0", INPUT_OP), Node("n0", "neg"), Node("n1", "neg")),
        edges=(Edge("n1", "n0", 0), Edge("n0", "n1", 0)),
        roots=("x0",),
        output="n0",
    )


@pytest.fixture
def full_checks(monkeypatch):
    """Counts the full structural checks behind validate_program."""
    calls = []
    check = model._violations

    def counted(program, registry):
        calls.append(program)
        return check(program, registry)

    monkeypatch.setattr(model, "_violations", counted)
    return calls


class TestValidation:
    def test_missing_input_slot(self):
        # add wired on slot 0 only
        program = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("n0", "add")),
            edges=(Edge("x0", "n0", 0),),
            roots=("x0",),
            output="n0",
        )
        report = validate_program(program)
        assert not report.ok
        assert any("missing input slot 1" in v for v in report.violations)

    def test_cycle(self):
        program = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("a", "neg"), Node("b", "neg")),
            edges=(Edge("a", "b", 0), Edge("b", "a", 0)),
            roots=("x0",),
            output="a",
        )
        report = validate_program(program)
        assert not report.ok
        assert any("cycle" in v for v in report.violations)

    def test_valid_chain(self):
        program = binary("mul", "input", "input")
        assert validate_program(program).ok

    def test_duplicate_slot(self):
        program = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("n0", "add")),
            edges=(Edge("x0", "n0", 0), Edge("x0", "n0", 0)),
            roots=("x0",),
            output="n0",
        )
        report = validate_program(program)
        assert any("duplicate edge" in v for v in report.violations)

    def test_unknown_operator(self):
        program = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("n0", "frobnicate")),
            edges=(Edge("x0", "n0", 0),),
            roots=("x0",),
            output="n0",
        )
        assert any("unknown operator" in v for v in validate_program(program).violations)

    def test_const_needs_value_and_input_must_not_have_one(self):
        bad_const = WorkflowProgram(
            nodes=(Node("c0", CONST_OP), Node("n0", "neg"), Node("x0", INPUT_OP)),
            edges=(Edge("c0", "n0", 0),),
            roots=("x0",),
            output="n0",
        )
        assert any("needs a value" in v for v in validate_program(bad_const).violations)
        bad_input = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP, value=1.0), Node("n0", "neg")),
            edges=(Edge("x0", "n0", 0),),
            roots=("x0",),
            output="n0",
        )
        assert any("must not carry a value" in v for v in validate_program(bad_input).violations)


class TestDeriveState:
    def test_single_edge_chain(self):
        program = chain("neg")  # root -> neg -> output
        state = derive_state(program)
        assert state.depth == 1
        assert state.operator_histogram == {"neg": 1}

    def test_balanced_tree_depth(self):
        # 3 adds over 4 roots: depth 2
        nodes = [Node(f"x{i}", INPUT_OP) for i in range(4)]
        nodes += [Node("a0", "add"), Node("a1", "add"), Node("a2", "add")]
        edges = (
            Edge("x0", "a0", 0), Edge("x1", "a0", 1),
            Edge("x2", "a1", 0), Edge("x3", "a1", 1),
            Edge("a0", "a2", 0), Edge("a1", "a2", 1),
        )
        program = WorkflowProgram(tuple(nodes), edges, ("x0", "x1", "x2", "x3"), "a2")
        state = derive_state(program)
        assert state.depth == 2
        assert state.operator_histogram == {"add": 3}

    def test_depth_matches_networkx_longest_path(self, registry):
        rng = np.random.default_rng(7)
        for _ in range(100):
            program = random_program(rng, registry)
            g = nx.DiGraph()
            g.add_nodes_from(n.node_id for n in program.nodes)
            g.add_edges_from((e.src, e.dst) for e in program.edges)
            # longest path ending at the output node
            lengths = {n: 0 for n in g.nodes}
            for nid in nx.topological_sort(g):
                for succ in g.successors(nid):
                    lengths[succ] = max(lengths[succ], lengths[nid] + 1)
            analysis = analyze_program(program, registry)
            assert analysis.depths == lengths  # every node's, the dead ones too
            assert derive_state(program, registry).depth == lengths[program.output]

    def test_deterministic(self, registry):
        program = binary("add", "input", "input")
        assert derive_state(program, registry) == derive_state(program, registry)

    def test_depth_grows_by_one_on_chain_extension(self):
        for k in range(1, 6):
            program = chain(*["neg"] * k)
            assert derive_state(program).depth == k


class TestValidationVerdict:
    """A program that passed validation against a registry object is not
    checked again against that object; anything else is."""

    def test_derive_state_after_validation_skips_the_check(self, registry, full_checks):
        rng = np.random.default_rng(3)
        for _ in range(20):
            program = random_program(rng, registry)
            assert validate_program(program, registry).ok
            checks = len(full_checks)
            state = derive_state(program, registry)
            assert len(full_checks) == checks
            assert state == derive_state(WorkflowProgram(program.nodes, program.edges, program.roots, program.output),
                                         registry)
            assert len(full_checks) == checks + 1  # the equal copy was checked

    def test_proposer_candidates_are_derived_without_a_check(self, registry, full_checks):
        # the base gets the one full check, on entry; its candidates get none
        candidates = SyntheticProposer(registry).enumerate_edits(binary("add", "input", "input"))
        checks = len(full_checks)
        assert checks == 1 and candidates
        for candidate in candidates:
            derive_state(candidate, registry)
        assert len(full_checks) == checks

    def test_invalid_program_raises_every_time(self, registry, full_checks):
        program = two_node_cycle()
        for attempt in (1, 2):
            with pytest.raises(InvalidProgramError, match="cycle in operator graph"):
                derive_state(program, registry)
            assert len(full_checks) == attempt
        assert not validate_program(program, registry).ok

    def test_another_registry_checks_again(self, registry, full_checks):
        program = binary("add", "input", "input")
        assert validate_program(program, registry).ok
        without_add = OperatorRegistry(k for k in registry if k.name != "add")
        with pytest.raises(InvalidProgramError, match="unknown operator 'add'"):
            derive_state(program, without_add)
        equal = OperatorRegistry(list(registry))
        derive_state(program, equal)
        derive_state(program)  # no registry: a new default one every call
        assert len(full_checks) == 4
        # the verdict names the last registry the program passed against
        derive_state(program, equal)
        derive_state(program, equal)
        assert len(full_checks) == 5

    def test_verdict_is_not_part_of_the_value(self, registry):
        program = binary("mul", "input", "input")
        fresh = binary("mul", "input", "input")
        before = (repr(program), hash(program))
        assert validate_program(program, registry).ok
        assert (repr(program), hash(program)) == before
        assert program == fresh and program_to_dict(program) == program_to_dict(fresh)


class TestInterpret:
    def test_mul_constants(self):
        program = binary("mul", 3, 4)
        trace = interpret(program, {})
        assert trace.success
        assert trace.output == 12.0
        assert trace.values == (12.0,)

    def test_sqrt_negative_fails(self):
        program = chain("sqrt")
        trace = interpret(program, {"x0": -1.0})
        assert not trace.success
        assert "sqrt" in trace.violation

    def test_additive_identity(self):
        program = binary("add", "input", 0)
        trace = interpret(program, {"x0": 5.0})
        assert trace.output == 5.0

    def test_missing_input(self):
        program = chain("neg")
        with pytest.raises(MissingInputError):
            interpret(program, {})

    def test_division_by_zero(self):
        program = binary("div", "input", 0)
        trace = interpret(program, {"x0": 3.0})
        assert not trace.success
        assert "division by zero" in trace.violation

    def test_log_domain(self):
        program = chain("log")
        assert not interpret(program, {"x0": 0.0}).success
        assert interpret(program, {"x0": 1.0}).output == 0.0

    def test_pow_domain_violations(self):
        program = binary("pow", -8, 0.5)
        assert not interpret(program, {}).success
        program = binary("pow", 0, -1)
        assert not interpret(program, {}).success

    def test_no_domain_ops_never_fail(self, registry):
        rng = np.random.default_rng(11)
        safe = [k for k in registry if k.name in ("add", "sub", "mul", "neg")]
        for _ in range(50):
            n_ops = int(rng.integers(1, 5))
            nodes = [Node("x0", INPUT_OP), Node("x1", INPUT_OP)]
            ids = ["x0", "x1"]
            edges = []
            for i in range(n_ops):
                kind = safe[int(rng.integers(len(safe)))]
                nid = f"n{i}"
                for slot in range(kind.arity):
                    edges.append(Edge(ids[int(rng.integers(len(ids)))], nid, slot))
                nodes.append(Node(nid, kind.name))
                ids.append(nid)
            program = WorkflowProgram(tuple(nodes), tuple(edges), ("x0", "x1"), ids[-1])
            inputs = {"x0": float(rng.integers(-9, 10)), "x1": float(rng.integers(-9, 10))}
            assert interpret(program, inputs).success

    def test_input_constants_exclude_literals(self):
        program = binary("mul", "input", 100)
        trace = interpret(program, {"x0": 2.0})
        assert trace.input_constants == (2.0,)

    def test_leaf_only_program_trace_not_empty(self):
        program = WorkflowProgram((Node("x0", INPUT_OP),), (), ("x0",), "x0")
        trace = interpret(program, {"x0": 4.0})
        assert trace.success and trace.values == (4.0,) and trace.output == 4.0

    def test_topological_order_respects_edges(self, registry):
        rng = np.random.default_rng(3)
        for _ in range(100):
            program = random_program(rng, registry)
            order = topological_order(program)
            position = {nid: i for i, nid in enumerate(order)}
            for edge in program.edges:
                assert position[edge.src] < position[edge.dst]

    def test_topological_order_is_lexicographic_by_declaration(self, registry):
        rng = np.random.default_rng(4)
        for _ in range(200):
            program = random_program(rng, registry)
            # shuffle the declaration order so that it differs from creation order
            nodes = tuple(program.nodes[i] for i in rng.permutation(len(program.nodes)))
            program = WorkflowProgram(nodes, program.edges, program.roots, program.output)
            index = {n.node_id: i for i, n in enumerate(program.nodes)}
            g = nx.DiGraph()
            g.add_nodes_from(index)
            g.add_edges_from((e.src, e.dst) for e in program.edges)
            assert topological_order(program) == list(nx.lexicographical_topological_sort(g, key=index.__getitem__))


class TestOneWalk:
    """Scoring and evaluating a program each walk it once, through `_ordered`."""

    def test_derive_state_and_evaluate_each_walk_once(self, registry, monkeypatch):
        program = random_program(np.random.default_rng(8), registry)
        problems = ProblemSet(
            tuple(Problem({rid: float(i - 1) for rid in program.roots}, 0.0, "c") for i in range(3)), "validation"
        )

        def copy():  # an equal program that has not passed validation yet
            return WorkflowProgram(program.nodes, program.edges, program.roots, program.output)

        expected_state = derive_state(copy(), registry)
        expected_reward, expected_traces, _ = SyntheticEvaluator(problems, registry).evaluate(copy())

        walks = []
        ordered = model._ordered

        def counted(walked):
            walks.append(walked)
            return ordered(walked)

        def forbidden(*args, **kwargs):
            raise AssertionError("a traversal outside the shared walk")

        monkeypatch.setattr(model, "_ordered", counted)
        monkeypatch.setattr(model.WorkflowProgram, "incoming", forbidden)
        monkeypatch.setattr(model.WorkflowProgram, "node_map", forbidden)
        monkeypatch.setattr(model, "topological_order", forbidden)
        fresh = copy()
        assert derive_state(fresh, registry) == expected_state
        assert len(walks) == 1 and walks[0] is fresh
        reward, traces, _ = SyntheticEvaluator(problems, registry).evaluate(fresh)
        assert (reward, traces) == (expected_reward, expected_traces)
        assert len(walks) == 2 and walks[1] is fresh

    def test_proposer_candidates_carry_their_record(self, registry, monkeypatch):
        """A candidate the proposer builds carries its edit record, and
        `propose` and `enumerate_edits` analyse nothing. The first
        `derive_state` of a base's candidate against the proposer's registry
        object makes one walk, the base's analysis, which the other
        candidates of that call share; each keeps the state it derives in
        its record's place and returns it, with no walk, after. Across the
        trust boundary each program takes the full walk, and gets an equal
        state: the child against another registry, a decoded copy of it, and
        a child whose verdict was since recorded for another registry."""
        base = random_program(np.random.default_rng(11), registry, max_ops=4)
        proposer = SyntheticProposer(registry, ProposerConfig(const_palette=(0.0, -0.0, 2.0)))
        walks = []
        ordered = model._ordered

        def counted(walked):
            walks.append(walked)
            return ordered(walked)

        monkeypatch.setattr(model, "_ordered", counted)
        children, _ = proposer.propose(base, 12, np.random.default_rng(2))
        enumerated = proposer.enumerate_edits(base)
        assert walks == []
        assert len(children) == 12 and len(enumerated) > 12
        for candidate in children + enumerated:
            attached = getattr(candidate, model._STATE_FOR)
            assert attached[0] is registry and isinstance(attached[1], ProgramEdit)

        def full(program):  # the state of an equal program with no verdict
            return derive_state(WorkflowProgram(program.nodes, program.edges, program.roots, program.output), registry)

        def derived(program, reg, walked):
            del walks[:]
            state = derive_state(program, reg)
            assert len(walks) == walked
            return state

        other = OperatorRegistry(list(registry))
        for candidates in (children, enumerated):
            for i, candidate in enumerate(candidates):
                state = derived(candidate, registry, 0 if i else 1)
                assert state == full(candidate)
                assert getattr(candidate, model._STATE_FOR) == (registry, state)
                assert derived(candidate, registry, 0) is state
        for child in children:
            state = full(child)
            assert derived(child, other, 1) == state
            assert derived(loads_program(dumps_program(child)), registry, 1) == state
            assert validate_program(child, other).ok  # the verdict now names `other`
            assert derived(child, other, 1) == state
            assert derived(child, registry, 1) == state


class TestAnalyses:
    def test_unit_propagation_additive_mismatch(self):
        length = UnitSignature.of(length=1)
        time = UnitSignature.of(time=1)
        program = binary("add", "input", "input", units=(length, time))
        analysis = analyze_program(program)
        assert tuple(analysis.unit_checks) == ("n0",)
        assert analysis.unit_checks["n0"] is False

    def test_unit_propagation_multiplicative(self):
        length = UnitSignature.of(length=1)
        program = binary("mul", "input", "input", units=(length, length))
        analysis = analyze_program(program)
        assert analysis.unit_checks["n0"] is True
        assert analysis.units["n0"] == UnitSignature.of(length=2)

    def test_unit_division_subtracts_exponents(self):
        length = UnitSignature.of(length=1)
        time = UnitSignature.of(time=1)
        program = binary("div", "input", "input", units=(length, time))
        assert analyze_program(program).units["n0"] == UnitSignature.of(length=1, time=-1)

    def test_explicit_tag_overrides_propagation(self):
        length = UnitSignature.of(length=1)
        mass = UnitSignature.of(mass=1)
        nodes = (
            Node("x0", INPUT_OP, unit=length),
            Node("x1", INPUT_OP, unit=length),
            Node("n0", "mul", unit=mass),
        )
        program = WorkflowProgram(nodes, (Edge("x0", "n0", 0), Edge("x1", "n0", 1)), ("x0", "x1"), "n0")
        assert analyze_program(program).units["n0"] == mass

    def test_shape_matmul(self):
        program = binary("mul", "input", "input", shapes=(Shape.matrix(2, 3), Shape.matrix(3, 4)))
        analysis = analyze_program(program)
        assert analysis.type_checks["n0"] is True
        assert analysis.shapes["n0"] == Shape.matrix(2, 4)
        bad = binary("mul", "input", "input", shapes=(Shape.matrix(2, 3), Shape.matrix(4, 4)))
        assert analyze_program(bad).type_checks["n0"] is False

    def test_shape_elementwise_mismatch(self):
        program = binary("add", "input", "input", shapes=(Shape.vector(2), Shape.vector(3)))
        assert analyze_program(program).type_checks["n0"] is False

    def test_shape_unknown_passes(self):
        program = binary("add", "input", "input")
        assert analyze_program(program).type_checks["n0"] is True

    def test_sign_of_constants(self):
        program = binary("mul", -3, -2)
        assert analyze_program(program).signs["n0"] is Sign.POS

    def test_sign_unknown_for_inputs(self):
        program = chain("sqrt")
        assert analyze_program(program).signs["n0"] is Sign.UNKNOWN


class TestSerialization:
    def test_round_trip_identity(self, registry):
        rng = np.random.default_rng(5)
        for _ in range(50):
            program = random_program(rng, registry)
            text = dumps_program(program)
            again = dumps_program(loads_program(text))
            assert text == again

    def test_dict_round_trip_preserves_tags(self):
        program = binary(
            "mul", "input", 2,
            units=(UnitSignature.of(length=1), None),
            shapes=(Shape.vector(3), Shape.scalar()),
        )
        restored = program_from_dict(program_to_dict(program))
        assert restored == program

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown program keys"):
            program_from_dict({"nodes": [], "edges": [], "roots": [], "output": "x", "extra": 1})


class TestCanonicalKey:
    def test_renaming_invariance(self):
        a = binary("add", "input", "input")
        renamed = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("x1", INPUT_OP), Node("zz", "add")),
            edges=(Edge("x0", "zz", 0), Edge("x1", "zz", 1)),
            roots=("x0", "x1"),
            output="zz",
        )
        assert canonical_key(a) == canonical_key(renamed)

    def test_shared_vs_duplicated_subexpression(self):
        # add(mul(x,x), mul(x,x)) with one shared mul vs two separate muls
        shared = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("m", "mul"), Node("a", "add")),
            edges=(Edge("x0", "m", 0), Edge("x0", "m", 1), Edge("m", "a", 0), Edge("m", "a", 1)),
            roots=("x0",),
            output="a",
        )
        duplicated = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("m1", "mul"), Node("m2", "mul"), Node("a", "add")),
            edges=(
                Edge("x0", "m1", 0), Edge("x0", "m1", 1),
                Edge("x0", "m2", 0), Edge("x0", "m2", 1),
                Edge("m1", "a", 0), Edge("m2", "a", 1),
            ),
            roots=("x0",),
            output="a",
        )
        assert canonical_key(shared) != canonical_key(duplicated)

    def test_cycle_raises_invalid_program(self, registry):
        # add(x0, x1), then an edge from a node it lacks into the same slot 1
        ghost = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("x1", INPUT_OP), Node("n0", "add")),
            edges=(Edge("x0", "n0", 0), Edge("x1", "n0", 1), Edge("ghost", "n0", 1)),
            roots=("x0", "x1"),
            output="n0",
        )
        # the proposer checks its base on entry, so it raises validation's message
        for program, error, refused in (
            (two_node_cycle(), "cycle in operator graph", "cycle in operator graph"),
            (ghost, "missing node 'ghost'", "edge 'ghost'->'n0' references a missing node"),
        ):
            with pytest.raises(InvalidProgramError, match=error):
                canonical_key(program)
            with pytest.raises(InvalidProgramError, match=refused):
                SyntheticProposer(registry).enumerate_edits(program)

    def test_chain_deeper_than_the_recursion_limit(self, registry):
        # 1500 operators deep, past the interpreter's default limit of 1000
        deep = chain(*["neg"] * 1500)
        assert validate_program(deep, registry).ok
        key = canonical_key(deep)
        assert len(key) == 1501
        assert key[0] == (INPUT_OP, "x0", None, None)
        assert [entry[1] for entry in key[1:]] == [(i,) for i in range(1500)]
        # the chain fed from its own output, or from a node it lacks
        for source, error in (("n1499", "cycle in operator graph"), ("ghost", "missing node 'ghost'")):
            broken = WorkflowProgram(deep.nodes, (Edge(source, "n0", 0),) + deep.edges[1:], deep.roots, deep.output)
            with pytest.raises(InvalidProgramError, match=error):
                canonical_key(broken)
