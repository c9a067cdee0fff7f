"""Proposer candidates told as one edit of a validated base.

`SyntheticProposer` checks its base once, on entry, prunes a dirty one once,
then builds one `EditBase` of the clean, valid base and yields each
candidate as its `ProgramEdit` beside a deferred build. Under a registry
with no nullary operator every edit it makes keeps the base valid: fresh ids
come from `model.fresh_node_id`, a replacement keeps its node's arity, a
deletion hands a unary node's consumers its operand, and no new operand is
its destination or one of its descendants. So a candidate is sized
(`ProgramEdit.operator_count`) and keyed (`ProgramEdit.key`: the walk of
`model._key_walk` over the base's maps with the edit's operand changes,
shared by the candidates of a base that differ only in the nodes they add or
change) from its record alone, and only a candidate that is kept is built;
its record then vouches for it (`ProgramEdit.vouch`), so `validate_program`
of it is the verdict lookup. A rewire that leaves its old source feeding
nothing drops, on its record, what pruning would drop (`EditBase.dropped`).

A built candidate also carries its record, from which `derive_state`, on
its first call against the proposer's registry object, derives its
`WorkflowState` (`ProgramEdit.state`: one `analyze_program` of the base,
made on the first such call, and the nodes the edit touched, each
recomputed by `model._transfer`) and keeps that state in the record's
place. A candidate no one scores, as one a suite grows through or one the
stdio peer sends, is never analysed. `tests/test_reference.py` checks every
candidate of random bases against the reference check, count, key and
analysis.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .model import (
    _STATE_FOR,
    _VALID_FOR,
    INPUT_OP,
    LEAF_OPS,
    Node,
    OperatorRegistry,
    ProgramAnalysis,
    WorkflowProgram,
    WorkflowState,
    _check_counts,
    _key_entry,
    _key_maps,
    _key_walk,
    _operator_histogram,
    _transfer,
    analyze_program,
)

_NOTHING: frozenset = frozenset()


class EditBase:
    """What a record reads of one base program.

    Built once per base by the proposer, for a base that passed
    `validate_program` against the proposer's registry object and has no
    dead node. It holds the base's maps from `model._key_maps` (each node's
    key head, each operator's operand ids in slot order), each node's
    consumers (one per edge out) and its number of operator nodes. `walks`
    keeps the key walks its candidates share (`ProgramEdit.key`), which the
    proposer clears after its dedup pass. What
    `ProgramEdit.state` reads of the base, its `analyze_program` result,
    its check counts and its nodes by id, is built on the first call to
    `analyzed`, so a pass that derives no state never pays for it.
    """

    __slots__ = ("registry", "program", "heads", "operands", "consumers", "walks", "operator_count", "_analyzed")

    def __init__(self, program: WorkflowProgram, registry: OperatorRegistry):
        self.registry = registry
        self.program = program
        self._analyzed: Optional[tuple] = None
        self.heads, self.operands = _key_maps(program)
        self.operator_count = len([h for h in self.heads.values() if h[0] not in LEAF_OPS])
        self.consumers: dict[str, list[str]] = {}
        for nid, args in self.operands.items():
            for a in args:
                self.consumers.setdefault(a, []).append(nid)
        self.walks: dict[tuple, tuple[tuple, dict[str, int]]] = {}

    def analyzed(self) -> tuple[ProgramAnalysis, tuple[int, int, int, int], dict[str, Node]]:
        """The base's `analyze_program` result, its check counts
        (`model._check_counts`) and its nodes by id, built on the first call."""
        if self._analyzed is None:
            program = self.program
            analysis = analyze_program(program, self.registry)
            self._analyzed = (analysis, _check_counts(analysis), {n.node_id: n for n in program.nodes})
        return self._analyzed

    def dropped(self, src: str, kept: Optional[str] = None) -> frozenset:
        """The nodes that feed nothing once one edge out of `src` is moved to
        the source `kept`, which pruning drops.

        Empty if `src` is an input or has another consumer. Else `src`, and
        each node that is no input and not `kept` (which gains a consumer)
        whose every consumer is dropped: the base is acyclic and every node
        of it feeds the output, so counting each node's consumers left finds
        exactly the nodes no longer live."""
        consumers, heads, operands = self.consumers, self.heads, self.operands
        if len(consumers[src]) > 1 or heads[src][0] == INPUT_OP:
            return _NOTHING
        dropped, stack = [src], [src]
        left: dict[str, int] = {}  # consumers not dropped yet, of a node met
        while stack:
            for a in operands.get(stack.pop(), ()):
                if a == kept or heads[a][0] == INPUT_OP:
                    continue
                n = left[a] = left.get(a, len(consumers[a])) - 1
                if not n:
                    dropped.append(a)
                    stack.append(a)
        return frozenset(dropped)


class ProgramEdit:
    """One proposer candidate, told as one edit of an `EditBase`.

    * `output`: the candidate's output.
    * `operands`: the operand ids, by slot, of every node whose operands the
      edit sets: a new node, the node re-fed from it, a rewired node, a
      deleted node's consumers.
    * `nodes`: the nodes the edit adds or changes, an inserted operator last;
      `removed`: the ids it drops (a deleted node, or what a rewire leaves
      feeding nothing).

    It holds ids and nodes only, no edge: the proposer builds the candidate
    apart from it, and only if the candidate is kept.
    """

    __slots__ = ("base", "output", "operands", "nodes", "removed")

    def __init__(
        self,
        base: EditBase,
        output: str,
        operands: Mapping[str, tuple[str, ...]],
        nodes: tuple[Node, ...] = (),
        removed: frozenset = _NOTHING,
    ):
        self.base = base
        self.output = output
        self.operands = operands
        self.nodes = nodes
        self.removed = removed

    def vouch(self, candidate: WorkflowProgram) -> None:
        """Record `candidate`, the program this edit made, as valid for the
        base's registry, as `validate_program` records a program that passed:
        the edit kept the base valid by construction. Attach this record
        beside it, from which `derive_state` derives its `state` for that
        registry object."""
        registry = self.base.registry
        object.__setattr__(candidate, _VALID_FOR, registry)
        object.__setattr__(candidate, _STATE_FOR, (registry, self))

    def state(self, candidate: WorkflowProgram) -> WorkflowState:
        """`model.derive_state` of `candidate`, the program this edit made,
        from the base's analysis and the nodes the edit touched.

        Units, shapes, signs and depth flow from operands to consumers, so
        only the touched nodes can differ from the base's: the nodes the
        edit adds or changes and those whose operands it sets, with their
        consumers up to the output (`EditBase.consumers`), less the nodes it
        removes. Each is recomputed by `model._transfer`, operands first, in
        a walk from the output that enters touched nodes only. The counts
        are the base's, less the base's verdicts of the touched and removed
        nodes, plus the touched nodes' new ones; the depth is the output's.
        The histogram counts `candidate.nodes` in declaration order, as
        `derive_state` does.

        The walk keeps its own stack, so no nested function refers to
        itself and the walk's maps are freed by reference counting.
        """
        base = self.base
        analysis, counts, base_nodes = base.analyzed()
        unit_passed, unit_checked, type_passed, type_checked = counts
        changed = {n.node_id: n for n in self.nodes}
        removed, operands, consumers = self.removed, self.operands, base.consumers
        touched: set[str] = set()
        stack = [*changed, *operands]
        while stack:
            nid = stack.pop()
            if nid not in touched and nid not in removed:
                touched.add(nid)
                stack.extend(consumers.get(nid, ()))

        unit_checks, type_checks = analysis.unit_checks, analysis.type_checks
        for nid in (*touched, *removed):
            ok = unit_checks.get(nid)
            if ok is not None:
                unit_passed -= ok
                unit_checked -= 1
            ok = type_checks.get(nid)
            if ok is not None:
                type_passed -= ok
                type_checked -= 1

        units, shapes, signs = dict(analysis.units), dict(analysis.shapes), dict(analysis.signs)
        depths = dict(analysis.depths)
        registry, base_operands = base.registry, base.operands
        output = self.output
        done: set[str] = set()
        stack = [output] if output in touched else []
        while stack:
            nid = stack[-1]
            args = operands[nid] if nid in operands else base_operands.get(nid, ())
            todo = [a for a in args if a in touched and a not in done]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            if nid in done:
                continue
            done.add(nid)
            node = changed.get(nid) or base_nodes[nid]
            kind = None if node.op in LEAF_OPS else registry.get(node.op)
            units[nid], shapes[nid], signs[nid], unit_ok, type_ok = _transfer(
                node, kind, [units[a] for a in args], [shapes[a] for a in args], [signs[a] for a in args]
            )
            depths[nid] = 1 + max([depths[a] for a in args]) if args else 0
            if unit_ok is not None:
                unit_passed += unit_ok
                unit_checked += 1
            if type_ok is not None:
                type_passed += type_ok
                type_checked += 1
        return WorkflowState(
            depths[output], _operator_histogram(candidate), unit_passed, unit_checked, type_passed, type_checked
        )

    def operator_count(self) -> int:
        """The candidate's number of operator nodes: the base's count with
        each node the edit adds, changes or removes counted as it now is."""
        heads = self.base.heads
        count = self.base.operator_count
        for node in self.nodes:
            head = heads.get(node.node_id)
            count += (node.op not in LEAF_OPS) - (head is not None and head[0] not in LEAF_OPS)
        for nid in self.removed:
            count -= heads[nid][0] not in LEAF_OPS
        return count

    def key(self) -> tuple:
        """`model.canonical_key` of the candidate.

        The walk's order depends on the output and the operands only, and a
        node's entry is `model._key_entry` of the node and its operands'
        indices. So the candidates of a base with the same output, operand
        lists set and leaf ids added share one walk, kept on the base (all
        replacements; an insertion's operator kinds and constants). The
        walk runs from empty entries at the output, over the base's maps
        with the edit's operand changes; it takes the base's head for every
        node the base has, so no candidate's change leaks into the walk the
        others read. Each candidate then sets the entry of every node it
        adds or changes from the node and its operands' indices in the walk.
        """
        base = self.base
        nodes, operands = self.nodes, self.operands
        shared = (self.output, tuple(operands.items()), tuple([n.node_id for n in nodes if n.op in LEAF_OPS]))
        walked = base.walks.get(shared)
        if walked is None:
            index: dict[str, int] = {}
            fresh_heads = {n.node_id: _key_entry(n) for n in nodes}
            key = _key_walk(self.output, base.heads, base.operands, index, fresh_heads, operands)
            walked = base.walks[shared] = (key, index)
        key, index = walked
        for node in nodes:
            nid = node.node_id
            at = index.get(nid)
            if at is not None:
                args = operands[nid] if nid in operands else base.operands.get(nid, ())
                key = key[:at] + (_key_entry(node, tuple([index[a] for a in args])),) + key[at + 1:]
        return key
