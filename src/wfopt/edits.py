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
`tests/test_reference.py` checks every candidate of random bases against the
reference check, count and key.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .model import (
    _VALID_FOR,
    INPUT_OP,
    LEAF_OPS,
    Node,
    OperatorRegistry,
    WorkflowProgram,
    _key_entry,
    _key_maps,
    _key_walk,
)

_NOTHING: frozenset = frozenset()


class EditBase:
    """What a record reads of one base program.

    Built once per base by the proposer, for a base that passed
    `validate_program` against the proposer's registry object and has no
    dead node. It holds the base's maps from `model._key_maps` (each node's
    key head, each operator's operand ids in slot order), each node's
    consumers (one per edge out) and its number of operator nodes. `walks`
    keeps the key walks its candidates share (`ProgramEdit.key`).
    """

    __slots__ = ("registry", "heads", "operands", "consumers", "walks", "operator_count")

    def __init__(self, program: WorkflowProgram, registry: OperatorRegistry):
        self.registry = registry
        self.heads, self.operands = _key_maps(program)
        self.operator_count = len([h for h in self.heads.values() if h[0] not in LEAF_OPS])
        self.consumers: dict[str, list[str]] = {}
        for nid, args in self.operands.items():
            for a in args:
                self.consumers.setdefault(a, []).append(nid)
        self.walks: dict[tuple, tuple[tuple, dict[str, int]]] = {}

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
        the edit kept the base valid by construction."""
        object.__setattr__(candidate, _VALID_FOR, self.base.registry)

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
