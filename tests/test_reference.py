"""The fast program checks against straightforward reference implementations.

`validate_program`, `canonical_key`, `topological_order`,
`analyze_program`, `interpret_all` and `SyntheticProposer.enumerate_edits`
are written for speed: one pass over the nodes and edges, a reachability walk
only when it can fail, a flat tuple key, one walk that orders a program and
resolves its operands together for each analysis or evaluation request,
each evaluation step run once over the values of all input bindings, one
check and one walk per proposer base that also finds its dead nodes, and a size,
a fingerprint and, where fingerprints meet, a key of each proposer candidate
made from its edit of that base rather than from the whole candidate, with
no check of a candidate that edit keeps valid by construction. The reference forms below are the plain versions
they replaced: separate cycle and reachability walks, a `repr` of the
post-order entry list, a re-sorted ready list walked once per input binding
with the program's `incoming()` and `node_map()`, one step plan run binding
by binding (`ref_interpret_all`), and every candidate built by copying the
base's node and edge lists, then pruned and checked, with its
cycle-blocking set recomputed per operator kind and per edge from an
out-map of the edges (`ref_descendants`). The fast forms must give the same reports, the same key
equalities, the same analyses, the same traces and the same errors on every
input, invalid programs included. The proposer refuses an invalid base with
the reference's violations, and gives a valid one the reference's candidates
of its copy pruned of dead nodes by `conftest.prune_dead`, from the
program's `incoming()`.
"""

import dataclasses
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfopt import edits
from wfopt.harness import ProposerConfig, SyntheticProposer, TokenRecord
from wfopt.edits import EditBase, ProgramEdit
from wfopt.model import (
    CONST_OP,
    INPUT_OP,
    LEAF_OPS,
    Edge,
    ExecutionTrace,
    Facts,
    InvalidProgramError,
    MissingInputError,
    Node,
    OperatorKind,
    OperatorRegistry,
    ProgramAnalysis,
    Shape,
    Sign,
    UnitSignature,
    ValidationReport,
    WorkflowProgram,
    WorkflowState,
    _VERDICT,
    _apply,
    _check_shape,
    _check_units,
    _derive_sign,
    _DomainViolation,
    _domain_ok,
    _ordered,
    _sign_of,
    analyze_program,
    canonical_key,
    default_registry,
    derive_state,
    interpret,
    interpret_all,
    program_to_dict,
    topological_order,
    validate_program,
)

from conftest import every_entry, every_pair, fingerprint, prune_dead, random_program, without_verdict


# ---------------------------------------------------------------------------
# Reference implementations.
# ---------------------------------------------------------------------------

def ref_validate_program(program, registry):
    violations = []

    seen = set()
    for node in program.nodes:
        if node.node_id in seen:
            violations.append(f"duplicate node id {node.node_id!r}")
        seen.add(node.node_id)

    nm = program.node_map()
    for rid in program.roots:
        if rid not in nm:
            violations.append(f"root {rid!r} is not a node")
        elif nm[rid].op != INPUT_OP:
            violations.append(f"root {rid!r} must be an input node")
    for node in program.nodes:
        if node.op == INPUT_OP:
            if node.node_id not in program.roots:
                violations.append(f"input node {node.node_id!r} missing from roots")
            if node.value is not None:
                violations.append(f"input node {node.node_id!r} must not carry a value")
        elif node.op == CONST_OP:
            if node.value is None:
                violations.append(f"const node {node.node_id!r} needs a value")
        elif node.op not in registry:
            violations.append(f"node {node.node_id!r}: unknown operator {node.op!r}")
        elif node.value is not None:
            violations.append(f"operator node {node.node_id!r} must not carry a value")

    slots = {n.node_id: {} for n in program.nodes}
    for edge in program.edges:
        if edge.src not in nm or edge.dst not in nm:
            violations.append(f"edge {edge.src!r}->{edge.dst!r} references a missing node")
            continue
        dst = nm[edge.dst]
        if dst.is_leaf():
            violations.append(f"leaf node {edge.dst!r} cannot receive an edge")
            continue
        arity = registry.get(dst.op).arity if dst.op in registry else 0
        if not 0 <= edge.slot < arity:
            violations.append(f"edge into {edge.dst!r}: slot {edge.slot} out of range")
            continue
        if edge.slot in slots[edge.dst]:
            violations.append(f"node {edge.dst!r}: duplicate edge for input slot {edge.slot}")
        slots[edge.dst][edge.slot] = edge.src

    for node in program.nodes:
        if node.is_leaf() or node.op not in registry:
            continue
        arity = registry.get(node.op).arity
        for k in range(arity):
            if k not in slots[node.node_id]:
                violations.append(f"node {node.node_id!r}: missing input slot {k}")

    cyclic = ref_has_cycle(program)
    if cyclic:
        violations.append("cycle in operator graph")

    if program.output not in nm:
        violations.append(f"output {program.output!r} is not a node")
    elif not cyclic and not ref_reaches_leaf(program, program.output):
        violations.append(f"output {program.output!r} is not reachable from any leaf")

    return ValidationReport(ok=not violations, violations=tuple(violations))


def ref_has_cycle(program):
    indeg = {n.node_id: 0 for n in program.nodes}
    out = {n.node_id: [] for n in program.nodes}
    for e in program.edges:
        if e.src in indeg and e.dst in indeg:
            indeg[e.dst] += 1
            out[e.src].append(e.dst)
    queue = [nid for nid, d in indeg.items() if d == 0]
    visited = 0
    while queue:
        nid = queue.pop()
        visited += 1
        for nxt in out[nid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return visited != len(program.nodes)


def ref_reaches_leaf(program, nid):
    nm = program.node_map()
    inc = program.incoming()
    stack, seen = [nid], set()
    while stack:
        cur = stack.pop()
        if cur in seen or cur not in nm:
            continue
        seen.add(cur)
        if nm[cur].is_leaf():
            return True
        stack.extend(inc.get(cur, {}).values())
    return False


def ref_canonical_key(program):
    nm = program.node_map()
    inc = program.incoming()
    index = {}
    entries = []

    def visit(nid):
        if nid in index:
            return index[nid]
        node = nm[nid]
        slot_map = inc.get(nid, {})
        children = tuple(visit(slot_map[k]) for k in sorted(slot_map))
        if node.op == INPUT_OP:
            entry = ("input", nid)
        elif node.op == CONST_OP:
            entry = ("const", node.value)
        else:
            entry = (node.op, children)
        extra = (
            node.unit.exponents if node.unit is not None else None,
            (node.shape.kind, node.shape.dims) if node.shape is not None else None,
        )
        index[nid] = len(entries)
        entries.append((entry, extra))
        return index[nid]

    visit(program.output)
    return repr(entries)


def ref_topological_order(program):
    order_index = {n.node_id: i for i, n in enumerate(program.nodes)}
    indeg = {n.node_id: 0 for n in program.nodes}
    out = {n.node_id: [] for n in program.nodes}
    for e in program.edges:
        indeg[e.dst] += 1
        out[e.src].append(e.dst)
    ready = sorted((nid for nid, d in indeg.items() if d == 0), key=order_index.__getitem__)
    order = []
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        changed = False
        for nxt in out[nid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
                changed = True
        if changed:
            ready.sort(key=order_index.__getitem__)
    if len(order) != len(program.nodes):
        raise InvalidProgramError("cycle in operator graph")
    return order


def ref_analyze_program(program, registry):
    inc = program.incoming()
    nm = program.node_map()
    units = {}
    shapes = {}
    signs = {}
    depths = {}
    unit_checks = {}
    type_checks = {}

    for nid in ref_topological_order(program):
        node = nm[nid]
        if node.is_leaf():
            const = node.op == CONST_OP
            units[nid] = node.unit
            shapes[nid] = node.shape if node.shape is not None else (Shape.scalar() if const else None)
            signs[nid] = _sign_of(node.value) if const else Sign.UNKNOWN
            depths[nid] = 0
            continue
        kind = registry.get(node.op)
        args = [inc[nid][k] for k in range(kind.arity)]
        depths[nid] = 1 + max(depths[a] for a in args)

        in_units = [units[a] for a in args]
        derived_unit = None
        if all(u is not None for u in in_units):
            unit_checks[nid], derived_unit = _check_units(kind, in_units)
        units[nid] = node.unit if node.unit is not None else derived_unit

        in_shapes = [shapes[a] for a in args]
        shape_ok, derived_shape = True, None
        if all(s is not None for s in in_shapes):
            shape_ok, derived_shape = _check_shape(kind, in_shapes)
        shapes[nid] = node.shape if node.shape is not None else derived_shape

        in_signs = [signs[a] for a in args]
        signs[nid] = _derive_sign(node.op, in_signs)
        type_checks[nid] = shape_ok and _domain_ok(kind.domain_rule, in_signs)

    facts = {nid: Facts(units[nid], shapes[nid], signs[nid], depths[nid]) for nid in depths}
    return ProgramAnalysis(facts, unit_checks, type_checks)


def ref_interpret(program, inputs, registry):
    inc = program.incoming()
    nm = program.node_map()
    values = {}
    leaf_values = []
    intermediates = []

    for nid in ref_topological_order(program):
        node = nm[nid]
        if node.op == INPUT_OP:
            if nid not in inputs:
                raise MissingInputError(f"no input value for root {nid!r}")
            v = float(inputs[nid])
            leaf_values.append(v)
        elif node.op == CONST_OP:
            v = float(node.value)
        else:
            kind = registry.get(node.op)
            args = [values[inc[nid][k]] for k in range(kind.arity)]
            try:
                v = _apply(node.op, args)
            except _DomainViolation as exc:
                return ExecutionTrace(tuple(intermediates), tuple(leaf_values), False, None,
                                      f"{exc.reason} at node {nid!r}")
            if not math.isfinite(v):
                return ExecutionTrace(tuple(intermediates), tuple(leaf_values), False, None,
                                      f"non-finite result at node {nid!r}")
            intermediates.append(v)
        values[nid] = v

    output = values[program.output]
    if not intermediates:
        intermediates = [output]
    return ExecutionTrace(tuple(intermediates), tuple(leaf_values), True, output)


def ref_interpret_loop(program, inputs_list, registry):
    """The per-problem loop the evaluator ran: one full interpret per binding."""
    return [ref_interpret(program, inputs, registry) for inputs in inputs_list]


def ref_interpret_all(program, inputs_list, registry):
    """The loop `interpret_all` ran before it went column by column: one
    `_ordered` walk builds the step plan, then the plan runs once per binding,
    and the first binding whose walk raises ends the call."""
    steps = []   # (node id, op, literal value, operand ids)
    unresolved = None
    for node, slots in _ordered(program):
        op = node.op
        try:
            literal = float(node.value) if op == CONST_OP else None
            operands = () if op in LEAF_OPS else tuple(slots[k] for k in range(registry.get(op).arity))
        except (KeyError, TypeError, ValueError) as exc:
            unresolved = exc
            break
        steps.append((node.node_id, op, literal, operands))
    return [ref_run_steps(steps, unresolved, program.output, inputs) for inputs in inputs_list]


def ref_run_steps(steps, unresolved, output_id, inputs):
    values = {}
    leaf_values = []
    intermediates = []
    for nid, op, literal, operands in steps:
        if op == INPUT_OP:
            if nid not in inputs:
                raise MissingInputError(f"no input value for root {nid!r}")
            v = float(inputs[nid])
            leaf_values.append(v)
        elif op == CONST_OP:
            v = literal
        else:
            try:
                v = _apply(op, [values[a] for a in operands])
                if not math.isfinite(v):
                    raise _DomainViolation("non-finite result")
            except _DomainViolation as exc:
                return ExecutionTrace(tuple(intermediates), tuple(leaf_values), False, None,
                                      f"{exc.reason} at node {nid!r}")
            intermediates.append(v)
        values[nid] = v
    if unresolved is not None:
        raise unresolved
    output = values[output_id]
    if not intermediates:
        intermediates = [output]
    return ExecutionTrace(tuple(intermediates), tuple(leaf_values), True, output)


def ref_insert_node(program, edge, op, operands, new_id, const_id):
    """One insertion, built by copying the base's node and edge lists."""
    nodes = list(program.nodes)
    edges = list(program.edges)
    operand_ids = []
    for operand in operands:
        if isinstance(operand, tuple):
            nodes.append(Node(const_id, CONST_OP, value=float(operand[1])))
            operand_ids.append(const_id)
        else:
            operand_ids.append(operand)
    nodes.append(Node(new_id, op))
    for slot, operand_id in enumerate(operand_ids):
        edges.append(Edge(operand_id, new_id, slot))
    if edge is not None:
        edges.remove(edge)  # the first edge equal to the anchor
        edges.append(Edge(new_id, edge.dst, edge.slot))
        output = program.output
    else:
        output = new_id
    return WorkflowProgram(tuple(nodes), tuple(edges), program.roots, output)


def ref_descendants(program, nid):
    """Every node `nid` feeds, directly or not, along edges between nodes the
    program has, from an out-map of the edges built for each call."""
    out = {n.node_id: [] for n in program.nodes}
    for e in program.edges:
        if e.src in out and e.dst in out:
            out[e.src].append(e.dst)
    stack, seen = [nid], set()
    while stack:
        for nxt in out.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def ref_insertions(proposer, program):
    """Insertions with the partner list recomputed for every binary kind."""
    insert = ref_insert_node
    new_id = ref_fresh_id(program, "n")
    const_id = ref_fresh_id(program, "c")
    for edge in list(program.edges) + [None]:  # the output site last
        src = edge.src if edge is not None else program.output
        anchor = edge.dst if edge is not None else program.output
        for kind in proposer._ops:
            if kind.arity == 1:
                yield insert(program, edge, kind.name, [src], new_id, const_id)
            elif kind.arity == 2:
                if edge is not None:
                    blocked = ref_descendants(program, anchor) | {anchor}
                    partners = [n.node_id for n in program.nodes if n.node_id not in blocked]
                else:
                    partners = [n.node_id for n in program.nodes]
                for partner in partners:
                    yield insert(program, edge, kind.name, [src, partner], new_id, const_id)
                    yield insert(program, edge, kind.name, [partner, src], new_id, const_id)
                for value in proposer.config.const_palette:
                    yield insert(program, edge, kind.name, [src, ("const", value)], new_id, const_id)
                    yield insert(program, edge, kind.name, [("const", value), src], new_id, const_id)


def ref_fresh_id(program, prefix):
    numbers = [int(n.node_id[len(prefix):]) for n in program.nodes
               if re.fullmatch(rf"{re.escape(prefix)}\d+", n.node_id)]
    return f"{prefix}{max(numbers, default=-1) + 1}"


def ref_replacements(proposer, program):
    """Each operator node given every other kind of its arity, all nodes copied."""
    for node in program.operator_nodes():
        arity = proposer.registry.get(node.op).arity
        for kind in proposer._ops:
            if kind.arity != arity or kind.name == node.op:
                continue
            nodes = tuple(
                dataclasses.replace(n, op=kind.name) if n.node_id == node.node_id else n
                for n in program.nodes
            )
            yield WorkflowProgram(nodes, program.edges, program.roots, program.output)


def ref_deletions(proposer, program):
    """Each unary operator node with an operand dropped, its consumers fed from that operand."""
    inc = program.incoming()
    for node in program.operator_nodes():
        if proposer.registry.get(node.op).arity != 1 or 0 not in inc[node.node_id]:
            continue
        source = inc[node.node_id][0]
        nodes = tuple(n for n in program.nodes if n.node_id != node.node_id)
        edges = []
        for e in program.edges:
            if e.dst == node.node_id:
                continue
            if e.src == node.node_id:
                edges.append(Edge(source, e.dst, e.slot))
            else:
                edges.append(e)
        output = source if program.output == node.node_id else program.output
        yield WorkflowProgram(nodes, tuple(edges), program.roots, output)


def ref_rewires(program):
    """Rewires with the descendants of an edge's consumer recomputed per edge;
    every edge equal to the rewired one moves with it."""
    for edge in program.edges:
        blocked = ref_descendants(program, edge.dst) | {edge.dst}
        for node in program.nodes:
            if node.node_id == edge.src or node.node_id in blocked:
                continue
            edges = tuple(Edge(node.node_id, e.dst, e.slot) if e == edge else e for e in program.edges)
            yield WorkflowProgram(program.nodes, edges, program.roots, program.output)


def ref_enumerate_edits(proposer, program):
    """Every candidate pruned of dead nodes, then size, validation and dedup."""
    config = proposer.config
    generators = []
    if config.allow_insert:
        generators.append(ref_insertions(proposer, program))
    if config.allow_replace:
        generators.append(ref_replacements(proposer, program))
    if config.allow_delete:
        generators.append(ref_deletions(proposer, program))
    if config.allow_rewire:
        generators.append(ref_rewires(program))
    seen = {canonical_key(program)}
    results = []
    for generator in generators:
        for candidate in generator:
            candidate = prune_dead(candidate)
            if len(candidate.operator_nodes()) > config.max_operator_nodes:
                continue
            if not validate_program(candidate, proposer.registry).ok:
                continue
            key = canonical_key(candidate)
            if key not in seen:
                seen.add(key)
                results.append(candidate)
    return results


# ---------------------------------------------------------------------------
# Mutations that break one structural rule each.
# ---------------------------------------------------------------------------

def _replace(program, **changes):
    fields = dict(nodes=program.nodes, edges=program.edges, roots=program.roots, output=program.output)
    fields.update(changes)
    return WorkflowProgram(**fields)


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def duplicate_id(program, rng):
    if not program.nodes:
        return program
    other = _pick(rng, program.nodes)
    clone = Node(other.node_id, _pick(rng, [INPUT_OP, CONST_OP, "neg", "add"]),
                 value=1.0 if rng.random() < 0.5 else None)
    nodes = list(program.nodes)
    nodes.insert(int(rng.integers(len(nodes) + 1)), clone)
    return _replace(program, nodes=tuple(nodes))


def missing_node(program, rng):
    if not program.nodes:
        return program
    victim = _pick(rng, program.nodes).node_id
    choice = rng.random()
    if choice < 0.5:
        return _replace(program, nodes=tuple(n for n in program.nodes if n.node_id != victim))
    if choice < 0.75:
        edge = Edge("ghost", victim, 0)
    else:
        edge = Edge(victim, "ghost", 0)
    return _replace(program, edges=program.edges + (edge,))


def bad_slot(program, rng):
    if not program.edges:
        return program
    i = int(rng.integers(len(program.edges)))
    edge = program.edges[i]
    slot = _pick(rng, [-1, 2, 5, 0, 1])  # 0 and 1 may duplicate a sibling's slot
    edges = list(program.edges)
    if rng.random() < 0.5:
        edges[i] = Edge(edge.src, edge.dst, slot)
    else:
        edges.insert(int(rng.integers(len(edges) + 1)), Edge(_pick(rng, program.nodes).node_id, edge.dst, slot))
    return _replace(program, edges=tuple(edges))


def cycle(program, rng):
    if not program.edges:
        return program
    edge = _pick(rng, program.edges)
    # feed the node from itself or from the output, which may lie downstream
    src = _pick(rng, [edge.dst, program.output])
    return _replace(program, edges=tuple(Edge(src, e.dst, e.slot) if e == edge else e for e in program.edges))


def edge_into_leaf(program, rng):
    leaves = [n.node_id for n in program.nodes if n.is_leaf()]
    if not leaves:
        return program
    leaf = _pick(rng, leaves)
    edge = Edge(_pick(rng, program.nodes).node_id, leaf, int(rng.integers(0, 2)))
    return _replace(program, edges=program.edges + (edge,))


def unreachable_output(program, rng):
    # an operator output with no operands reaches no leaf
    return _replace(program, edges=tuple(e for e in program.edges if e.dst != program.output))


def bad_node(program, rng):
    if not program.nodes:
        return program
    i = int(rng.integers(len(program.nodes)))
    node = program.nodes[i]
    choice = rng.random()
    if choice < 0.25:
        node = Node(node.node_id, "frobnicate")
    elif choice < 0.5:
        node = Node(node.node_id, node.op, value=None if node.op == CONST_OP else 2.0)
    elif choice < 0.75:
        return _replace(program, roots=tuple(r for r in program.roots if r != node.node_id) + ("nowhere",))
    else:
        return _replace(program, roots=program.roots + (node.node_id,))
    nodes = list(program.nodes)
    nodes[i] = node
    return _replace(program, nodes=tuple(nodes))


def bad_output(program, rng):
    return _replace(program, output=_pick(rng, ["nowhere"] + [n.node_id for n in program.nodes[:1]]))


MUTATIONS = [duplicate_id, missing_node, bad_slot, cycle, edge_into_leaf, unreachable_output, bad_node, bad_output]


# ---------------------------------------------------------------------------
# validate_program
# ---------------------------------------------------------------------------

class TestValidateProgram:
    def test_random_valid_programs(self, registry):
        rng = np.random.default_rng(11)
        for _ in range(300):
            program = random_program(rng, registry)
            assert validate_program(program, registry) == ref_validate_program(program, registry)

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
    def test_single_mutation(self, registry, mutate):
        rng = np.random.default_rng(MUTATIONS.index(mutate))
        broken = 0
        for _ in range(200):
            program = mutate(random_program(rng, registry), rng)
            expected = ref_validate_program(program, registry)
            assert validate_program(program, registry) == expected
            broken += not expected.ok
        assert broken > 100

    def test_mutations_combined(self, registry):
        rng = np.random.default_rng(5)
        for _ in range(400):
            program = random_program(rng, registry)
            for _ in range(int(rng.integers(2, 5))):
                program = _pick(rng, MUTATIONS)(program, rng)
            assert validate_program(program, registry) == ref_validate_program(program, registry)

    def test_duplicate_id_also_reports_cycle(self, registry):
        program = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("n0", "neg"), Node("n0", "neg")),
            edges=(Edge("x0", "n0", 0),),
            roots=("x0",),
            output="n0",
        )
        report = validate_program(program, registry)
        assert report == ref_validate_program(program, registry)
        assert report.violations == ("duplicate node id 'n0'", "cycle in operator graph")

    def test_reachability_follows_out_of_range_edges(self, registry):
        # neg's only operand arrives on slot 1: rejected, yet the output
        # still counts as reached from x0 through it
        program = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("n0", "neg")),
            edges=(Edge("x0", "n0", 1),),
            roots=("x0",),
            output="n0",
        )
        report = validate_program(program, registry)
        assert report == ref_validate_program(program, registry)
        assert report.violations == (
            "edge into 'n0': slot 1 out of range",
            "node 'n0': missing input slot 0",
        )


class TestValidateWithNullaryOperator:
    """An operator that takes no operands is not a leaf, so a graph without a
    violation can still leave its output unreachable from every leaf."""

    @pytest.fixture(scope="class")
    def nullary_registry(self, registry):
        return OperatorRegistry(list(registry) + [OperatorKind("pi", 0), OperatorKind("tau", 0)])

    @staticmethod
    def program(nodes, edges, output):
        nodes = (Node("x0", INPUT_OP),) + tuple(Node(nid, op) for nid, op in nodes)
        return WorkflowProgram(nodes, tuple(Edge(*e) for e in edges), ("x0",), output)

    @pytest.mark.parametrize("nodes, edges, output", [
        ([("n0", "pi")], [], "n0"),
        ([("n0", "pi"), ("n1", "neg")], [("n0", "n1", 0)], "n1"),
        ([("n0", "pi"), ("n1", "tau"), ("n2", "add")], [("n0", "n2", 0), ("n1", "n2", 1)], "n2"),
        ([("n0", "pi"), ("n1", "neg"), ("n2", "mul")], [("n0", "n1", 0), ("n1", "n2", 0), ("n0", "n2", 1)], "n2"),
    ], ids=["output-is-nullary", "fed-only-by-nullary", "two-nullary-operands", "shared-nullary"])
    def test_output_fed_only_by_nullary_operators(self, nullary_registry, nodes, edges, output):
        program = self.program(nodes, edges, output)
        report = validate_program(program, nullary_registry)
        assert report == ref_validate_program(program, nullary_registry)
        assert report.violations == (f"output {output!r} is not reachable from any leaf",)

    def test_output_reaching_an_input_is_valid(self, nullary_registry):
        program = self.program([("n0", "pi"), ("n1", "add")], [("n0", "n1", 0), ("x0", "n1", 1)], "n1")
        report = validate_program(program, nullary_registry)
        assert report == ref_validate_program(program, nullary_registry)
        assert report.ok

    def test_random_programs_with_nullary_operators(self, registry, nullary_registry):
        # graft a nullary operator onto random programs, in place of an
        # operand or of the whole output
        rng = np.random.default_rng(41)
        for _ in range(300):
            program = random_program(rng, registry, max_ops=4)
            nodes = program.nodes + (Node("p0", _pick(rng, ["pi", "tau"])),)
            edges = list(program.edges)
            output = program.output
            if edges and rng.random() < 0.7:
                i = int(rng.integers(len(edges)))
                edges[i] = Edge("p0", edges[i].dst, edges[i].slot)
            else:
                output = "p0"
            mutated = prune_dead(WorkflowProgram(nodes, tuple(edges), program.roots, output))
            assert validate_program(mutated, nullary_registry) == ref_validate_program(mutated, nullary_registry)


# ---------------------------------------------------------------------------
# enumerate_edits
# ---------------------------------------------------------------------------

def _same_candidates(fast, ref):
    # repr tells 0.0 from -0.0 in a literal, which == does not
    return fast == ref and [repr(c) for c in fast] == [repr(c) for c in ref]


def _refused(proposer, base):
    """`enumerate_edits` and `propose` of `base` each raise
    `InvalidProgramError` with the violations of `ref_validate_program`,
    and the proposer counts no request."""
    expected = ref_validate_program(base, proposer.registry)
    assert not expected.ok
    requests = proposer._request_counter
    for call in (proposer.enumerate_edits, lambda p: proposer.propose(p, 3, np.random.default_rng(0))):
        with pytest.raises(InvalidProgramError) as raised:
            call(base)
        assert str(raised.value) == "; ".join(expected.violations)
    assert proposer._request_counter == requests


def _two_edges_into_one_slot(program, rng):
    """An invalid, acyclic base: an extra edge into a slot that already has one."""
    edge = _pick(rng, program.edges)
    blocked = ref_descendants(program, edge.dst) | {edge.dst}
    src = _pick(rng, [n.node_id for n in program.nodes if n.node_id not in blocked])
    edges = list(program.edges)
    edges.insert(int(rng.integers(len(edges) + 1)), Edge(src, edge.dst, edge.slot))
    return _replace(program, edges=tuple(edges))


def _equal_edges(program, rng):
    """An invalid base that holds two equal edges: a new copy of one edge, put anywhere."""
    edge = _pick(rng, program.edges)
    edges = list(program.edges)
    edges.insert(int(rng.integers(len(edges) + 1)), Edge(edge.src, edge.dst, edge.slot))
    return _replace(program, edges=tuple(edges))


def _same_raw_candidates(proposer, base):
    """Each edit kind builds the reference's raw candidates of a clean, valid
    base, in its order, a rewire pruned of the nodes it orphans; the
    reference insertions also yield [src, src] a second time, right after
    the first."""
    ref = list(ref_insertions(proposer, base))
    ref = [c for i, c in enumerate(ref) if not i or repr(c) != repr(ref[i - 1])]
    record = EditBase(base, proposer.registry)

    def built(pairs):
        return [edit.build() for _, edit in pairs]

    return (_same_candidates(built(record.insertions(proposer._ops, proposer.config.const_palette)), ref)
            and _same_candidates(built(record.replacements(proposer._ops)), list(ref_replacements(proposer, base)))
            and _same_candidates(built(record.deletions()), list(ref_deletions(proposer, base)))
            and _same_candidates(built(record.rewires()), [prune_dead(c) for c in ref_rewires(base)]))


class TestEnumerateEdits:
    @pytest.mark.parametrize("ops, equal_edges", [
        (None, False), (("add", "sub", "mul", "neg"), False), (None, True),
    ], ids=["all-ops", "ops4", "two-equal-edges"])
    def test_candidates_match_reference(self, registry, ops, equal_edges):
        # a dirty base gives the candidates of its pruned copy; a base with
        # two equal edges is invalid, and refused
        rng = np.random.default_rng(31)
        clean = dirty = 0
        for i in range(90):
            base = random_program(rng, registry, max_ops=int(rng.integers(1, 7)))
            if i % 2:
                base = prune_dead(base)
            if equal_edges:
                base = _equal_edges(base, rng)
            config = ProposerConfig(ops=ops, const_palette=(0.0, -0.0, 1.0),
                                    max_operator_nodes=2 + i % 11)
            proposer = SyntheticProposer(registry, config)
            if equal_edges:
                _refused(proposer, base)
                continue
            pruned = prune_dead(base)
            if pruned is base:
                clean += 1
            else:
                dirty += 1
            fast = proposer.enumerate_edits(base)
            assert _same_candidates(fast, ref_enumerate_edits(proposer, pruned))
            assert _same_raw_candidates(proposer, pruned)
        if not equal_edges:
            assert clean > 45 and dirty > 20

    def test_edit_kinds_switched_off(self, registry):
        rng = np.random.default_rng(32)
        for i in range(40):
            base = prune_dead(random_program(rng, registry, max_ops=5))
            flags = dict(allow_insert=bool(i & 1), allow_replace=bool(i & 2),
                         allow_delete=bool(i & 4), allow_rewire=bool(i & 8))
            proposer = SyntheticProposer(registry, ProposerConfig(max_operator_nodes=8, **flags))
            assert _same_candidates(proposer.enumerate_edits(base), ref_enumerate_edits(proposer, base))

    def test_base_with_two_edges_into_one_slot(self, registry):
        # such a base may look clean to the pruning walk, which keeps the last
        # edge per slot; it is invalid, and refused
        rng = np.random.default_rng(33)
        for _ in range(60):
            base = _two_edges_into_one_slot(prune_dead(random_program(rng, registry, max_ops=5)), rng)
            _refused(SyntheticProposer(registry, ProposerConfig(const_palette=(1.0,), max_operator_nodes=8)), base)

    @pytest.mark.parametrize("nodes, edges", [
        # an edge from a node the base lacks, before the real edge into that slot
        ((Node("x0", INPUT_OP), Node("n0", "neg")), (Edge("ghost", "n0", 0), Edge("x0", "n0", 0))),
        # an edge to a node the base lacks
        ((Node("x0", INPUT_OP), Node("n0", "neg")), (Edge("x0", "n0", 0), Edge("x0", "ghost", 0))),
        # a unary operator with no operand, feeding the output
        ((Node("x0", INPUT_OP), Node("n0", "neg"), Node("n1", "add")), (Edge("x0", "n1", 0), Edge("n0", "n1", 1))),
    ], ids=["edge-from-missing-node", "edge-to-missing-node", "unfed-unary"])
    def test_invalid_bases_are_refused(self, registry, nodes, edges):
        base = WorkflowProgram(nodes, edges, ("x0",), nodes[-1].node_id)
        _refused(SyntheticProposer(registry, ProposerConfig(const_palette=(0.0, -0.0, 1.0))), base)

    def test_bases_at_the_size_cap(self, registry, monkeypatch):
        # every insertion into a clean base at the cap fails the size limit,
        # so none is made; a dirty base is pruned first, which can bring it
        # under the cap
        rng = np.random.default_rng(34)
        clean = dirty = kept_insertions = 0
        for _ in range(80):
            base = random_program(rng, registry, max_ops=6)
            pruned = prune_dead(base)
            config = ProposerConfig(const_palette=(1.0,), max_operator_nodes=len(base.operator_nodes()))
            proposer = SyntheticProposer(registry, config)
            fast = proposer.enumerate_edits(base)
            assert _same_candidates(fast, ref_enumerate_edits(proposer, pruned))
            if pruned is base:
                clean += 1
                with monkeypatch.context() as patch:
                    patch.setattr(EditBase, "insertions", None)  # calling it would raise
                    assert _same_candidates(proposer.enumerate_edits(base), fast)
            else:
                dirty += 1
                new_id = ref_fresh_id(pruned, "n")
                kept_insertions += sum(any(n.node_id == new_id for n in c.nodes) for c in fast)
        assert clean > 20 and dirty > 20 and kept_insertions > 0

    def test_insertions_never_repeat_in_a_row(self, registry):
        # [src, src] is one program whichever operand comes first
        rng = np.random.default_rng(35)
        proposer = SyntheticProposer(registry, ProposerConfig(const_palette=(0.0, 1.0)))
        fewer = 0
        for _ in range(40):
            base = prune_dead(random_program(rng, registry, max_ops=5))
            pairs = EditBase(base, registry).insertions(proposer._ops, proposer.config.const_palette)
            raw = [edit.build() for _, edit in pairs]
            assert all(a != b for a, b in zip(raw, raw[1:]))
            fewer += len(list(ref_insertions(proposer, base))) - len(raw)
        assert fewer > 0


# ---------------------------------------------------------------------------
# canonical_key
# ---------------------------------------------------------------------------

def _same_partition(programs):
    """Two programs share a fast key exactly when they share a reference key."""
    fast = [canonical_key(p) for p in programs]
    ref = [ref_canonical_key(p) for p in programs]
    return len(set(fast)) == len(set(ref)) == len(set(zip(fast, ref)))


class TestCanonicalKey:
    def test_key_is_hashable_tuple(self, registry):
        key = canonical_key(random_program(np.random.default_rng(0), registry))
        assert isinstance(key, tuple)
        hash(key)

    def test_equalities_match_reference_over_edits(self, registry):
        config = ProposerConfig(ops=("add", "sub", "mul", "neg"), const_palette=(0.0, -0.0, 1.0),
                                max_operator_nodes=12)
        proposer = SyntheticProposer(registry, config)
        rng = np.random.default_rng(7)
        for _ in range(12):
            base = random_program(rng, registry, max_ops=4)
            edits = proposer.enumerate_edits(base)
            assert edits
            assert _same_partition([base] + edits)
            # the raw candidates, before deduplication, repeat programs; the
            # reference insertions keep both operand orders of [src, src]
            raw = [prune_dead(c) for c in ref_insertions(proposer, base)]
            pruned = prune_dead(base)
            record = EditBase(pruned, registry)
            raw += [
                edit.build()
                for pairs in (record.replacements(proposer._ops), record.deletions(), record.rewires())
                for _, edit in pairs
            ]
            assert _same_partition(raw)
            assert len({canonical_key(c) for c in raw}) < len(raw)

    def test_literals_keep_their_repr(self):
        def with_const(value):
            return WorkflowProgram(
                nodes=(Node("x0", INPUT_OP), Node("c0", CONST_OP, value=value), Node("n0", "add")),
                edges=(Edge("x0", "n0", 0), Edge("c0", "n0", 1)),
                roots=("x0",),
                output="n0",
            )

        programs = [with_const(v) for v in (0.0, -0.0, 1, 1.0, float("nan"), float("nan"))]
        keys = [canonical_key(p) for p in programs]
        assert keys[0] != keys[1] and keys[2] != keys[3] and keys[4] == keys[5]
        assert _same_partition(programs)


# ---------------------------------------------------------------------------
# Edit-local validation and keys
# ---------------------------------------------------------------------------

def _with_dead_node(program, rng):
    """A valid base with a node that feeds nothing: a unary operator on a root."""
    root = _pick(rng, program.roots)
    return _replace(program, nodes=program.nodes + (Node("d0", "neg"),), edges=program.edges + (Edge(root, "d0", 0),))


def _dangling_edge(program, rng):
    """An edge from or to a node the base lacks."""
    dst = _pick(rng, [n.node_id for n in program.nodes if not n.is_leaf()])
    edge = Edge("ghost", dst, 0) if rng.random() < 0.5 else Edge(_pick(rng, program.nodes).node_id, "ghost", 0)
    edges = list(program.edges)
    edges.insert(int(rng.integers(len(edges) + 1)), edge)
    return _replace(program, edges=tuple(edges))


# how each kind of base is made from a clean, valid random program
EDIT_BASES = {
    "valid": lambda program, rng: program,
    "at-the-size-cap": lambda program, rng: program,
    "invalid": lambda program, rng: _pick(rng, MUTATIONS)(program, rng),
    "cyclic": cycle,
    "dirty": _with_dead_node,
    "duplicate-edge": _equal_edges,
    "dangling-edge": _dangling_edge,
}


@settings(derandomize=True, deadline=None, max_examples=140)
@given(kind=st.sampled_from(sorted(EDIT_BASES)), seed=st.integers(0, 2**32 - 1))
# an edge from a root into an unused root: refused, as every invalid base is
@example(kind="invalid", seed=80)
def test_edit_local_checks_match_the_full_ones(registry, kind, seed):
    """A base that fails `ref_validate_program` is refused with its
    violations. Each candidate of any other base, pruned of its dead nodes
    first, is sized and keyed as `enumerate_edits` sizes and keys one, from
    its edit record before it is built, and gets its operator count and the full
    walk's key, which splits candidates as `ref_canonical_key` does. It is
    valid by construction, so once built, with its verdict, it passes
    `ref_validate_program`, and it has no dead node."""
    rng = np.random.default_rng(seed)
    base = EDIT_BASES[kind](prune_dead(random_program(rng, registry, max_ops=int(rng.integers(1, 7)))), rng)
    validate_program(base, registry)  # a valid base carries its verdict, as a tree node's program does
    cap = len(base.operator_nodes()) if kind == "at-the-size-cap" else 12
    ops = None if seed % 2 else ("add", "sub", "mul", "neg")
    proposer = SyntheticProposer(registry, ProposerConfig(ops=ops, const_palette=(0.0, -0.0, 1.0),
                                                          max_operator_nodes=cap))
    valid = ref_validate_program(base, registry).ok
    if kind != "invalid":  # a random mutation may leave the base valid
        assert valid is (kind in ("valid", "at-the-size-cap", "dirty"))
    if not valid:
        _refused(proposer, base)
        return
    keys = []
    for edit in every_entry(proposer, prune_dead(base)):
        # a record sizes and keys its candidate before it is built
        size, key = edit.operator_count(), edit.key()
        candidate = edit.build()
        plain = without_verdict(candidate)
        assert prune_dead(plain) is plain  # no dead node
        expected = ref_validate_program(plain, registry)
        assert expected.ok, expected.violations
        assert size == len(plain.operator_nodes())
        assert validate_program(candidate, registry) == expected
        assert key == canonical_key(plain)
        keys.append((key, ref_canonical_key(plain)))
    assert len({k for k, _ in keys}) == len({r for _, r in keys}) == len(set(keys))


def test_edit_keys_read_the_edits_heads_before_the_base(registry):
    """A record's key reads the head of each node its edit adds or changes
    before the base's head of that id, and gets the full walk's key: n0 made
    a constant or another operator, with its operand list set; n0 or n1 given
    another operator kind; and a constant c0 made an operator fed from x0."""
    x0, x1 = Node("x0", INPUT_OP), Node("x1", INPUT_OP)
    base = WorkflowProgram((x0, x1, Node("n0", "neg"), Node("n1", "add")),
                           (Edge("x0", "n0", 0), Edge("n0", "n1", 0), Edge("x1", "n1", 1)), ("x0", "x1"), "n1")
    assert validate_program(base, registry).ok
    record = EditBase(base, registry)
    for changed in (Node("n0", CONST_OP, value=1.0), Node("n0", "sqrt")):
        candidate = WorkflowProgram((x0, x1, changed, base.nodes[3]), base.edges, base.roots, "n1")
        edit = ProgramEdit(record, "n1", {"n0": ("x0",)}, (changed,))
        assert edit.key() == canonical_key(candidate)
    for changed in (Node("n0", "sqrt"), Node("n1", "mul")):
        nodes = tuple(changed if n.node_id == changed.node_id else n for n in base.nodes)
        candidate = WorkflowProgram(nodes, base.edges, base.roots, "n1")
        assert ProgramEdit(record, "n1", {}, (changed,)).key() == canonical_key(candidate)

    with_const = WorkflowProgram((x0, x1, Node("c0", CONST_OP, value=2.0), Node("n1", "add")),
                                 (Edge("c0", "n1", 0), Edge("x1", "n1", 1)), ("x0", "x1"), "n1")
    assert validate_program(with_const, registry).ok
    record = EditBase(with_const, registry)
    for changed in (Node("c0", "neg"), Node("c0", "sqrt")):
        candidate = WorkflowProgram((x0, x1, changed, with_const.nodes[3]),
                                    (Edge("x0", "c0", 0),) + with_const.edges, with_const.roots, "n1")
        assert ref_validate_program(candidate, registry).ok
        assert ProgramEdit(record, "n1", {"c0": ("x0",)}, (changed,)).key() == canonical_key(candidate)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(kind=st.sampled_from(sorted(EDIT_BASES)), palette=st.booleans(), tagged=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_edit_fingerprints_are_the_built_candidates(registry, kind, palette, tagged, seed):
    """Each record's fingerprint, one term from the base's two tables, is the
    from-scratch fingerprint of the candidate the record builds; the base's
    is the base's. Equal canonical keys, the base's included, give equal
    fingerprints, so a record whose fingerprint meets no other's repeats no
    key. Tagged bases carry unit and shape tags and literals, 0.0 and -0.0
    among them; with `palette` the insertions add 0.0, -0.0 and 1.0. An
    invalid base is refused before any record is made."""
    rng = np.random.default_rng(seed)
    program = random_program(rng, registry, max_ops=int(rng.integers(1, 7)))
    if tagged:
        program = _tagged(program, rng)
    base = EDIT_BASES[kind](prune_dead(program), rng)
    proposer = SyntheticProposer(registry, ProposerConfig(ops=None if seed % 2 else ("add", "sub", "mul", "neg"),
                                                          const_palette=(0.0, -0.0, 1.0) if palette else ()))
    if not ref_validate_program(base, registry).ok:
        _refused(proposer, base)
        return
    clean = prune_dead(base)
    assert EditBase(clean, registry).total == fingerprint(clean)
    fingerprints = {canonical_key(clean): {fingerprint(clean)}}
    for fp, edit in every_pair(proposer, clean):
        candidate = edit.build()
        assert fp == fingerprint(candidate)
        fingerprints.setdefault(canonical_key(candidate), set()).add(fp)
    assert all(len(fps) == 1 for fps in fingerprints.values())


def test_dedup_is_exact_whatever_the_weights(registry, monkeypatch):
    """With every head weighing 0, every fingerprint is 0, so every record
    meets the base's and is keyed. `enumerate_edits` and `propose` then
    return the same programs as with the real weights: the fingerprints
    decide which records are keyed, never which are kept."""
    rng = np.random.default_rng(43)
    cases = []
    for i in range(60):
        kind = STATE_BASES[i % len(STATE_BASES)]
        program = random_program(rng, registry, max_ops=int(rng.integers(1, 7)))
        if i % 4 < 2:
            program = _tagged(program, rng)
        base = EDIT_BASES[kind](prune_dead(program), rng)
        clean = prune_dead(base)
        cap = len(clean.operator_nodes()) if kind == "at-the-size-cap" else 2 + i % 9
        config = ProposerConfig(ops=None if i % 3 else ("add", "sub", "mul", "neg"),
                                const_palette=(0.0, -0.0, 1.0) if i % 2 else (), max_operator_nodes=cap)
        cases.append((base, clean, config))
    keyed = []
    key = ProgramEdit.key

    def counted_key(edit):
        keyed.append(edit)
        return key(edit)

    def outcomes():
        listed = []
        for i, (base, _, config) in enumerate(cases):
            proposer = SyntheticProposer(registry, config)
            every = proposer.enumerate_edits(base)
            drawn, _ = proposer.propose(base, 1 + i % 7, np.random.default_rng(i))
            listed.append([[json.dumps(program_to_dict(c)) for c in programs] for programs in (every, drawn)])
        return listed

    monkeypatch.setattr(ProgramEdit, "key", counted_key)
    real = outcomes()
    real_keys = len(keyed)
    monkeypatch.setattr(edits, "head_weight", lambda head: 0)
    del keyed[:]
    assert outcomes() == real
    sized = 0
    for base, clean, config in cases:
        proposer = SyntheticProposer(registry, config)
        pairs = every_pair(proposer, clean)
        assert {fp for fp, _ in pairs} <= {0} == {EditBase(clean, registry).total}
        sized += sum(edit.operator_count() <= config.max_operator_nodes for _, edit in pairs)
    assert len(keyed) == 2 * sized > 10 * real_keys


def test_edit_local_check_needs_a_registry_without_nullary_operators(registry):
    """With an operator of arity 0, a valid program's output must reach a
    leaf, and an edit can break that: the rewire of add(z, x0) to add(z, z),
    z nullary, keeps every other rule. A record of it would build an
    invalid program with a valid verdict. So the proposer refuses such a
    registry."""
    nullary = OperatorRegistry(list(registry) + [OperatorKind("pi", 0)])
    base = WorkflowProgram((Node("x0", INPUT_OP), Node("z", "pi"), Node("n0", "add")),
                           (Edge("z", "n0", 0), Edge("x0", "n0", 1)), ("x0",), "n0")
    assert validate_program(base, nullary).ok
    rewired = WorkflowProgram(base.nodes, (Edge("z", "n0", 0), Edge("z", "n0", 1)), base.roots, "n0")
    assert ref_validate_program(rewired, nullary).violations == ("output 'n0' is not reachable from any leaf",)
    built = ProgramEdit(EditBase(base, nullary), "n0", {"n0": ("z", "z")}).build()
    assert built == rewired and repr(built) == repr(rewired)
    assert validate_program(built, nullary).ok  # what a record would have made of it
    with pytest.raises(ValueError, match="nullary operators"):
        SyntheticProposer(nullary, ProposerConfig(ops=("add", "neg")))


def test_edit_local_check_falls_back_to_the_full_one(registry):
    """A record's verdict holds for its candidate only against the registry object
    the base passed against: against any other, the candidate gets the full
    check, so a registry without one of its operators reports it."""
    base = prune_dead(random_program(np.random.default_rng(3), registry, max_ops=4))
    assert validate_program(base, registry).ok
    proposer = SyntheticProposer(registry, ProposerConfig(ops=("add", "sub", "mul", "neg")))
    narrow = OperatorRegistry([kind for kind in registry if kind.name != "sub"])
    rejected = 0
    for edit in every_entry(proposer, base):
        key = edit.key()
        candidate = edit.build()
        expected = ref_validate_program(without_verdict(candidate), narrow)
        assert validate_program(candidate, narrow) == expected
        rejected += not expected.ok
        assert key == canonical_key(without_verdict(candidate))
    assert rejected > 0


@settings(derandomize=True, deadline=None, max_examples=120)
@given(kind=st.sampled_from(sorted(EDIT_BASES)), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 80))
def test_propose_is_a_seeded_sample_of_every_candidate(registry, kind, seed, count):
    """`propose` returns what building every candidate, as `enumerate_edits`
    does, then taking the first `count` of `rng.permutation` of their number
    returns: the same programs in the same order (by `program_to_dict`, which
    `json` writes with -0.0 apart from 0.0), the same token record and the
    same verdicts; and it leaves `rng` as that leaves it, undrawn when there
    are no more than `count`. An invalid base raises the same error."""
    rng = np.random.default_rng(seed)
    base = EDIT_BASES[kind](prune_dead(random_program(rng, registry, max_ops=int(rng.integers(1, 7)))), rng)
    validate_program(base, registry)  # a valid base carries its verdict, as a tree node's program does
    cap = len(base.operator_nodes()) if kind == "at-the-size-cap" else 2 + seed % 9
    config = ProposerConfig(ops=None if seed % 2 else ("add", "sub", "mul", "neg"),
                            const_palette=(0.0, -0.0, 1.0), max_operator_nodes=cap)
    expected = _outcome(SyntheticProposer(registry, config).enumerate_edits, base)
    drawn_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _outcome(SyntheticProposer(registry, config).propose, base, count, drawn_rng)
    if not isinstance(expected, list):
        assert got == expected
        return
    if len(expected) > count:
        order = reference_rng.permutation(len(expected))
        expected = [expected[i] for i in order[:count]]
    candidates, record = got
    assert [json.dumps(program_to_dict(c)) for c in candidates] == [json.dumps(program_to_dict(c)) for c in expected]
    assert record == TokenRecord(
        role="optimizer",
        prompt_tokens=40 + 12 * len(base.nodes) + 6 * len(base.edges),
        completion_tokens=sum(8 + 3 * len(c.nodes) for c in expected),
        request_id="opt-00001",
    )
    assert all(getattr(c, _VERDICT)[0] is getattr(e, _VERDICT)[0] is registry
               for c, e in zip(candidates, expected))
    assert drawn_rng.bit_generator.state == reference_rng.bit_generator.state


def test_record_pruned_rewires_build_the_pruned_plain_rewire(registry):
    """Each rewire of a base with records builds exactly `prune_dead` of the
    plain rewire, and its record drops exactly what pruning drops. The new
    source stays, with what feeds it, even where it fed only the old one: a
    rewire of n2 from n1 to n0, n0 feeding only n1, drops n1 and keeps n0."""
    x0, x1 = Node("x0", INPUT_OP), Node("x1", INPUT_OP)
    pinned = WorkflowProgram((x0, x1, Node("n0", "neg"), Node("n1", "neg"), Node("n2", "add")),
                             (Edge("x0", "n0", 0), Edge("n0", "n1", 0), Edge("n1", "n2", 0), Edge("x1", "n2", 1)),
                             ("x0", "x1"), "n2")
    rng = np.random.default_rng(36)
    bases = [pinned] + [prune_dead(random_program(rng, registry, max_ops=int(rng.integers(1, 8)))) for _ in range(80)]
    pruned = kept_source = 0
    for base in bases:
        assert validate_program(base, registry).ok
        record = EditBase(base, registry)
        for (_, edit), plain in zip(record.rewires(), ref_rewires(base), strict=True):
            built = edit.build()
            expected = prune_dead(plain)
            assert built == expected and repr(built) == repr(expected)
            assert edit.removed == {n.node_id for n in plain.nodes} - {n.node_id for n in built.nodes}
            pruned += bool(edit.removed)
            old, new = next((e, f) for e, f in zip(base.edges, plain.edges) if e != f)
            if new.src in record.dropped(old.src):
                kept_source += 1
                assert new.src not in edit.removed and old.src in edit.removed
    assert pruned > 50 and kept_source > 0


def ref_state(program, registry):
    """`derive_state` of a valid program, from `ref_analyze_program` and a
    `Counter` of its operator nodes."""
    analysis = ref_analyze_program(program, registry)
    units, types = list(analysis.unit_checks.values()), list(analysis.type_checks.values())
    histogram = Counter(n.op for n in program.nodes if not n.is_leaf())
    depth = analysis.facts[program.output].depth
    return WorkflowState(depth, dict(histogram), sum(units), len(units), sum(types), len(types))


def _same_state(state, expected):
    assert state == expected
    # diversity sums its entropy terms in the histogram's order
    assert list(state.operator_histogram.items()) == list(expected.operator_histogram.items())


# the clean, valid bases a proposer edits (a dirty one once pruned)
STATE_BASES = ("valid", "at-the-size-cap", "dirty")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(kind=st.sampled_from(STATE_BASES), tagged=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_edit_states_match_the_full_analysis(registry, kind, tagged, seed):
    """Every record candidate's `ProgramEdit.state`, derived from the base's
    analysis and the nodes the edit touched, equals the full analysis of a
    copy of the built candidate without its verdict (`derive_state`, and the
    reference analysis), the histogram's order included. So does
    `derive_state` of each candidate `propose` returns, from the record it
    carries. Tagged bases carry unit and shape tags and literals; the
    palette holds 0.0, -0.0 and a repeated value."""
    rng = np.random.default_rng(seed)
    program = random_program(rng, registry, max_ops=int(rng.integers(1, 7)))
    if tagged:
        program = _tagged(program, rng)
    base = EDIT_BASES[kind](prune_dead(program), rng)
    assert validate_program(base, registry).ok
    cap = len(prune_dead(base).operator_nodes()) if kind == "at-the-size-cap" else 12
    proposer = SyntheticProposer(registry, ProposerConfig(ops=None if seed % 2 else ("add", "sub", "mul", "neg"),
                                                          const_palette=(0.0, -0.0, 1.0, 1.0), max_operator_nodes=cap))
    clean = prune_dead(base)
    validate_program(clean, registry)
    entries = every_entry(proposer, clean)
    for edit in entries:
        candidate = edit.build()
        expected = derive_state(without_verdict(candidate), registry)
        _same_state(edit.state(candidate), expected)
        _same_state(expected, ref_state(candidate, registry))
    drawn, _ = proposer.propose(base, len(entries) + 1, np.random.default_rng(seed))
    for candidate in drawn:
        verdict = getattr(candidate, _VERDICT)
        assert verdict[0] is registry and isinstance(verdict[1], ProgramEdit)
        _same_state(derive_state(candidate, registry), derive_state(without_verdict(candidate), registry))


@settings(derandomize=True, deadline=None, max_examples=140)
@given(kind=st.sampled_from(STATE_BASES), raw=st.booleans(), tagged=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_the_edited_base_is_the_input_pruned(registry, kind, raw, tagged, seed):
    """The base the proposer edits is `prune_dead` of the valid program it
    is given, dirty or clean: the same nodes and edges in the same order
    (by `program_to_dict`, which `json` writes with -0.0 apart from 0.0),
    the given program itself when nothing is dead. The dead nodes the walk
    of the given program's `EditBase` finds are those pruning drops, and an
    `EditBase` of the pruned base finds none. A random program as drawn
    (`raw`) is dirty more often than not; tagged ones carry unit and shape
    tags and literals. Pruning that base, or any raw candidate the
    reference edits make of it, once more drops nothing: `prune_dead`
    returns its argument."""
    rng = np.random.default_rng(seed)
    program = random_program(rng, registry, max_ops=int(rng.integers(1, 7)))
    if tagged:
        program = _tagged(program, rng)
    given = EDIT_BASES[kind](program if raw else prune_dead(program), rng)
    assert validate_program(given, registry).ok
    proposer = SyntheticProposer(registry, ProposerConfig(ops=None if seed % 2 else ("add", "sub", "mul", "neg"),
                                                          const_palette=(0.0, -0.0, 1.0)))
    base = proposer._base(given)
    expected = prune_dead(given)
    assert json.dumps(program_to_dict(base.program)) == json.dumps(program_to_dict(expected))
    assert (base.program is given) is (expected is given)
    assert EditBase(given, registry).dead == {n.node_id for n in given.nodes} - {n.node_id for n in expected.nodes}
    assert not base.dead
    candidates = [*ref_insertions(proposer, expected), *ref_replacements(proposer, expected),
                  *ref_deletions(proposer, expected), *ref_rewires(expected)]
    for candidate in [expected] + candidates:
        once = prune_dead(candidate)
        assert prune_dead(once) is once


# ---------------------------------------------------------------------------
# interpret_all
# ---------------------------------------------------------------------------

def _bindings(rng, program, n):
    return [{rid: float(rng.integers(-4, 5)) for rid in program.roots} for _ in range(n)]


class TestInterpretAll:
    def test_matches_per_binding_reference(self, registry):
        rng = np.random.default_rng(21)
        failed = 0
        for _ in range(300):
            program = random_program(rng, registry)
            inputs_list = _bindings(rng, program, int(rng.integers(1, 6)))
            traces = interpret_all(program, inputs_list, registry)
            assert traces == ref_interpret_loop(program, inputs_list, registry)
            assert traces == [interpret(program, inputs, registry) for inputs in inputs_list]
            failed += sum(not t.success for t in traces)
        assert failed > 50

    def test_no_bindings(self, registry):
        program = random_program(np.random.default_rng(0), registry)
        assert interpret_all(program, [], registry) == []

    def test_missing_input_raises_like_reference(self, registry):
        program = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("x1", INPUT_OP), Node("n0", "add")),
            edges=(Edge("x0", "n0", 0), Edge("x1", "n0", 1)),
            roots=("x0", "x1"),
            output="n0",
        )
        inputs_list = [{"x0": 1.0, "x1": 2.0}, {"x0": 1.0}]
        with pytest.raises(MissingInputError, match=re.escape("'x1'")):
            ref_interpret_loop(program, inputs_list, registry)
        with pytest.raises(MissingInputError, match=re.escape("'x1'")):
            interpret_all(program, inputs_list, registry)

    def test_failure_before_missing_input_is_a_trace(self, registry):
        # the failing sqrt is declared, and so walked, before the unbound root
        program = WorkflowProgram(
            nodes=(Node("c0", CONST_OP, value=-1.0), Node("n0", "sqrt"), Node("x0", INPUT_OP), Node("n1", "add")),
            edges=(Edge("c0", "n0", 0), Edge("n0", "n1", 0), Edge("x0", "n1", 1)),
            roots=("x0",),
            output="n1",
        )
        expected = ref_interpret_loop(program, [{}], registry)
        assert interpret_all(program, [{}], registry) == expected
        assert not expected[0].success

    @pytest.mark.parametrize("value, fails", [(-1.0, True), (4.0, False)])
    def test_unresolvable_node_raises_only_when_reached(self, registry, value, fails):
        program = WorkflowProgram(
            nodes=(Node("c0", CONST_OP, value=value), Node("n0", "sqrt"), Node("n1", "frobnicate")),
            edges=(Edge("c0", "n0", 0), Edge("n0", "n1", 0)),
            roots=(),
            output="n1",
        )
        if fails:
            assert interpret_all(program, [{}], registry) == ref_interpret_loop(program, [{}], registry)
        else:
            with pytest.raises(KeyError, match="frobnicate"):
                ref_interpret_loop(program, [{}], registry)
            with pytest.raises(KeyError, match="frobnicate"):
                interpret_all(program, [{}], registry)


# Registries for the column-by-column differential test besides the default
# one: one adding a binary and a nullary operator that have no semantics, and
# one that gives arithmetic names other arities than `_apply` reads.
_ODD_REGISTRIES = [
    OperatorRegistry([*default_registry(), OperatorKind("frob", 2), OperatorKind("pi", 0)]),
    OperatorRegistry([OperatorKind("add", 1), OperatorKind("neg", 2), OperatorKind("sub", 3), OperatorKind("mul", 2),
                      OperatorKind("pow", 2)]),
]
# zeros of both signs, values whose products and powers overflow, non-finite
# values, and values `float` rejects
_EXTREMES = [0.0, -0.0, 1.0, -2.0, 0.5, 3.0, 1e308, -1e308, 1e-308, math.inf, -math.inf, math.nan]
_BAD_VALUES = ["x", None]


@st.composite
def _programs_and_bindings(draw):
    """A random program over some registry, and a list of bindings for it.
    Now and then a program is cyclic or unresolved, or a binding lacks a root
    or holds a value `float` rejects."""

    def rarely():
        return draw(st.integers(0, 24)) == 0

    registry = draw(st.sampled_from([default_registry()] * 3 + _ODD_REGISTRIES))
    kinds = list(registry)
    n_inputs = draw(st.integers(0, 3))
    nodes = [Node(f"x{i}", INPUT_OP) for i in range(n_inputs)]
    for i in range(draw(st.integers(0, 2))):
        nodes.append(Node(f"c{i}", CONST_OP, value=None if rarely() else draw(st.sampled_from(_EXTREMES))))
    edges = []
    for i in range(draw(st.integers(0, 6))):
        # "zap" is in no registry, so the walk cannot resolve it
        kind = OperatorKind("zap", 1) if rarely() else draw(st.sampled_from(kinds))
        ids = [n.node_id for n in nodes]
        for slot in range(kind.arity):
            if not ids or rarely():
                continue   # an empty slot
            # an operand declared later may close a cycle
            pool = ids + [f"n{i + 1}"] if rarely() else ids
            edges.append(Edge(draw(st.sampled_from(pool)), f"n{i}", slot))
        nodes.append(Node(f"n{i}", kind.name))
    ids = [n.node_id for n in nodes]
    edges = [e for e in edges if e.src in ids]
    nodes = draw(st.permutations(nodes))
    output = "ghost" if not ids or rarely() else ids[-1] if draw(st.booleans()) else draw(st.sampled_from(ids))
    roots = tuple(f"x{i}" for i in range(n_inputs))
    program = WorkflowProgram(tuple(nodes), tuple(edges), roots, output)
    value = st.sampled_from(_EXTREMES) | st.integers(-4, 4).map(float)
    bindings = []
    for _ in range(0 if rarely() else draw(st.integers(1, 6))):
        binding = {}
        for rid in roots:
            if not rarely():
                binding[rid] = draw(st.sampled_from(_BAD_VALUES)) if rarely() else draw(value)
        bindings.append(binding)
    return program, registry, bindings


def _repr_outcome(fn, *args):
    """The `repr` of what a call returns, or the type and message of what it
    raises: `repr` tells 0.0 from -0.0 and matches NaN with NaN."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(case=_programs_and_bindings())
def test_column_interpreter_matches_the_binding_loop(case):
    program, registry, bindings = case
    assert _repr_outcome(interpret_all, program, bindings, registry) == \
        _repr_outcome(ref_interpret_all, program, bindings, registry)


def test_column_interpreter_leaves_failed_bindings_behind(registry):
    """Bindings that fail, and one that raises after others failed, leave
    the columns at the step where they stop, and the rest go on."""
    program = WorkflowProgram(
        nodes=(Node("x0", INPUT_OP), Node("x1", INPUT_OP), Node("n0", "mul"), Node("n1", "log"),
               Node("n2", "add")),
        edges=(Edge("x0", "n0", 0), Edge("x0", "n0", 1), Edge("n0", "n1", 0), Edge("n1", "n2", 0),
               Edge("x1", "n2", 1)),
        roots=("x0", "x1"),
        output="n2",
    )
    bindings = [{"x0": 1e308, "x1": 1.0}, {"x0": 2.0, "x1": -0.0}, {"x0": 0.0, "x1": 1.0},
                {"x0": math.nan, "x1": 1.0}, {"x0": -3.0, "x1": 2.0}]
    traces = interpret_all(program, bindings, registry)
    assert repr(traces) == repr(ref_interpret_all(program, bindings, registry))
    assert [t.success for t in traces] == [False, True, False, False, True]
    assert traces[0].violation == "non-finite result at node 'n0'"
    assert traces[2].violation == "log of non-positive value at node 'n1'"
    assert traces[4].values == (9.0, math.log(9.0), math.log(9.0) + 2.0)
    for raising in ({"x0": 2.0}, {"x0": 2.0, "x1": "x"}):
        outcome = _outcome(interpret_all, program, bindings + [raising, {}], registry)
        assert outcome == _outcome(ref_interpret_all, program, bindings + [raising, {}], registry)
        assert outcome[0] in (MissingInputError, ValueError)
    # a binding that raises early wins over a later one that reaches an output the program lacks
    ghost = dataclasses.replace(program, output="ghost")
    outcome = _outcome(interpret_all, ghost, [{"x0": 2.0}, bindings[1], bindings[4]], registry)
    assert outcome == _outcome(ref_interpret_all, ghost, [{"x0": 2.0}, bindings[1], bindings[4]], registry)
    assert outcome == (MissingInputError, "no input value for root 'x1'")


# ---------------------------------------------------------------------------
# analyze_program, interpret_all and topological_order on any program
# ---------------------------------------------------------------------------

UNIT_TAGS = [None, UnitSignature.of(), UnitSignature.of(length=1), UnitSignature.of(time=1), UnitSignature.of(length=1, time=-1)]
SHAPE_TAGS = [None, Shape.scalar(), Shape.vector(2), Shape.vector(3), Shape.matrix(2, 3), Shape.matrix(3, 2)]
CONST_VALUES = [-2.0, -0.0, 0.0, 0.5, 3.0]


def _tagged(program, rng):
    """A valid program with unit and shape tags on some nodes, and a literal
    constant in place of some operands."""
    nodes = list(program.nodes)
    edges = list(program.edges)
    for i, edge in enumerate(edges):
        if rng.random() < 0.25:
            cid = f"k{i}"
            nodes.append(Node(cid, CONST_OP, value=_pick(rng, CONST_VALUES)))
            edges[i] = Edge(cid, edge.dst, edge.slot)
    nodes = [
        dataclasses.replace(node, unit=_pick(rng, UNIT_TAGS), shape=_pick(rng, SHAPE_TAGS)) if rng.random() < 0.4 else node
        for node in nodes
    ]
    return _replace(program, nodes=tuple(nodes), edges=tuple(edges))


def _slot_twice(program, rng):
    """A second edge, from a leaf, into a slot that already has one."""
    if not program.edges:
        return program
    edge = _pick(rng, program.edges)
    src = _pick(rng, [n.node_id for n in program.nodes if n.is_leaf()] or [edge.src])
    edges = list(program.edges)
    edges.insert(int(rng.integers(len(edges) + 1)), Edge(src, edge.dst, edge.slot))
    return _replace(program, edges=tuple(edges))


def _missing_slot(program, rng):
    """One operand edge dropped, leaving its slot empty."""
    if not program.edges:
        return program
    i = int(rng.integers(len(program.edges)))
    return _replace(program, edges=program.edges[:i] + program.edges[i + 1:])


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _walk_outcomes(program, registry, inputs_list):
    return (
        _outcome(topological_order, program),
        _outcome(analyze_program, program, registry),
        _outcome(interpret_all, program, inputs_list, registry),
    )


def _ref_walk_outcomes(program, registry, inputs_list):
    return (
        _outcome(ref_topological_order, program),
        _outcome(ref_analyze_program, program, registry),
        _outcome(ref_interpret_loop, program, inputs_list, registry),
    )


# each names one way a program can break; the walks must break the same way
MALFORMED = [duplicate_id, _slot_twice, bad_slot, missing_node, bad_node, _missing_slot, cycle,
             edge_into_leaf, bad_output]


class TestWalks:
    def test_random_tagged_programs_match_reference(self, registry):
        rng = np.random.default_rng(31)
        consts = unit_checks = 0
        for _ in range(300):
            program = _tagged(random_program(rng, registry), rng)
            expected = ref_analyze_program(program, registry)
            assert analyze_program(program, registry) == expected
            assert topological_order(program) == ref_topological_order(program)
            inputs_list = _bindings(rng, program, 3)
            assert interpret_all(program, inputs_list, registry) == ref_interpret_loop(program, inputs_list, registry)
            consts += any(n.op == CONST_OP for n in program.nodes)
            unit_checks += len(expected.unit_checks)
        assert consts > 200 and unit_checks > 200

    @pytest.mark.parametrize("mutate", MALFORMED, ids=lambda m: m.__name__.strip("_"))
    def test_malformed_programs_match_reference(self, registry, mutate):
        rng = np.random.default_rng(40 + MALFORMED.index(mutate))
        changed = 0
        for _ in range(200):
            base = _tagged(random_program(rng, registry), rng)
            program = mutate(base, rng)
            inputs_list = _bindings(rng, program, 2)
            expected = _ref_walk_outcomes(program, registry, inputs_list)
            assert _walk_outcomes(program, registry, inputs_list) == expected
            changed += expected != _ref_walk_outcomes(base, registry, inputs_list)
        assert changed > 20

    def test_combined_breakage_matches_reference(self, registry):
        rng = np.random.default_rng(49)
        for _ in range(400):
            program = _tagged(random_program(rng, registry), rng)
            for _ in range(int(rng.integers(2, 5))):
                program = _pick(rng, MALFORMED)(program, rng)
            inputs_list = _bindings(rng, program, 2)
            if inputs_list and rng.random() < 0.2:
                inputs_list[-1] = dict(list(inputs_list[-1].items())[1:])  # an unbound root
            assert _walk_outcomes(program, registry, inputs_list) == _ref_walk_outcomes(program, registry, inputs_list)

    @pytest.mark.parametrize("edges, error", [
        ((Edge("x0", "n0", 0), Edge("ghost", "n0", 1)), "'ghost'"),
        ((Edge("x0", "n0", 0), Edge("x0", "ghost", 1)), "'ghost'"),
        ((Edge("x0", "n0", 0), Edge("x0", "n0", 1), Edge("spook", "ghost", 0)), "'ghost'"),
    ])
    def test_edge_to_or_from_a_missing_node_raises_at_once(self, registry, edges, error):
        program = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("n0", "add")), edges=edges, roots=("x0",), output="n0",
        )
        for call in (lambda: topological_order(program), lambda: analyze_program(program, registry),
                     lambda: interpret_all(program, [], registry)):
            with pytest.raises(KeyError) as info:
                call()
            assert str(info.value) == error

    def test_last_edge_into_a_slot_wins(self, registry):
        program = WorkflowProgram(
            nodes=(Node("x0", INPUT_OP), Node("c0", CONST_OP, value=-4.0), Node("n0", "neg")),
            edges=(Edge("x0", "n0", 0), Edge("c0", "n0", 0)),
            roots=("x0",),
            output="n0",
        )
        assert analyze_program(program, registry).facts["n0"].sign is Sign.POS
        assert interpret_all(program, [{"x0": 1.0}], registry)[0].output == 4.0
        assert analyze_program(program, registry) == ref_analyze_program(program, registry)
