"""Proposer candidates told as one edit of a validated base.

`SyntheticProposer.enumerate_edits` builds one `EditBase` per base that
passed `validate_program` against its registry object and has no dead node,
and gives each candidate of that base a `ProgramEdit`, held on the program
as `model._EDIT` until the candidate is keyed. `model.validate_program`
then asks the record whether the edit kept the program valid
(`ProgramEdit.holds`), at about the cost of what the edit touched rather
than what the program holds, and `model.canonical_key` asks it for the key
(`ProgramEdit.key`): the walk of `model._key_walk` over the base's maps with
the edit's operand changes, shared by the candidates of a base that differ
only in the nodes they add or change. The proposer's size check reads the
record too (`operator_count`). The answers are the full check's and the
full walk's: a record that cannot vouch sends `validate_program` to the
full check, and `tests/test_reference.py` compares both paths on random
bases.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .model import (
    _EDIT,
    _VALID_FOR,
    CONST_OP,
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
    """What the edit-local checks read of one base program.

    Built once per base by the proposer, only for a base that passed
    `validate_program` against the proposer's registry object and has no
    dead node and one edge per input slot. It holds the base's maps from
    `model._key_maps` (each node's key head, each operator's operand ids in
    slot order), each node's consumers (one per edge out) and its number of
    operator nodes. `walks` keeps the key walks its candidates share
    (`ProgramEdit.key`).
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

    @staticmethod
    def of(program: WorkflowProgram, registry: OperatorRegistry) -> Optional["EditBase"]:
        """The record of a base that passed `validate_program` against this
        registry object; None for any other program. The caller vouches
        for the rest: no dead node, one edge per input slot.

        None also for every base when the registry has an operator of arity
        0: with one, a valid program's output must reach a leaf, which an
        edit can undo without breaking any rule `ProgramEdit.holds` checks
        (a rewire of `add(z, x0)` to `add(z, z)`, `z` nullary)."""
        if getattr(program, _VALID_FOR, None) is not registry or 0 in registry.arities.values():
            return None
        return EditBase(program, registry)


class ProgramEdit:
    """One proposer candidate, told as one edit of an `EditBase`.

    * `output`: the candidate's output.
    * `operands`: the operand ids, by slot, of every node whose operands the
      edit sets: a new node, the node re-fed from it, a rewired node, a
      deleted node's consumers.
    * `added`: the operands new to their destination that could close a
      cycle; `blocked`: that destination and its descendants in the base,
      none of which may feed it.
    * `nodes`: the nodes the edit adds or changes, an inserted operator last;
      `fresh`: the ids it adds; `removed`: the ids it drops.
    """

    __slots__ = ("base", "output", "operands", "added", "blocked", "nodes", "fresh", "removed")

    def __init__(
        self,
        base: EditBase,
        output: str,
        operands: Mapping[str, tuple[str, ...]],
        added: tuple[str, ...] = (),
        blocked: frozenset | set = _NOTHING,
        nodes: tuple[Node, ...] = (),
        fresh: tuple[str, ...] = (),
        removed: frozenset = _NOTHING,
    ):
        self.base = base
        self.output = output
        self.operands = operands
        self.added = added
        self.blocked = blocked
        self.nodes = nodes
        self.fresh = fresh
        self.removed = removed

    def attach(self, program: WorkflowProgram) -> WorkflowProgram:
        """Let `program` carry this record until it is keyed; returns it."""
        object.__setattr__(program, _EDIT, self)
        return program

    def holds(self, registry: OperatorRegistry) -> bool:
        """Whether the candidate passes `validate_program`, judged from what
        the edit introduced into a base that passed against `registry`.

        Its fresh ids collide with no node and with each other. Each node it
        adds or changes is a constant with a value, or an operator of the
        registry without a value and with one operand per slot. Every
        operand list it sets names nodes the candidate has and keeps its
        node's arity; no removed node still feeds a node that stays; no new
        operand is its destination or one of its descendants; the output is
        a node. False sends the caller to the full check.
        """
        base = self.base
        if base.registry is not registry:
            return False
        known, fresh, removed = base.heads, self.fresh, self.removed
        if len(set(fresh)) != len(fresh) or not known.keys().isdisjoint(fresh):
            return False
        operands, base_operands, arities = self.operands, base.operands, registry.arities
        arity: dict[str, int] = {}  # of each node the edit adds or changes
        for node in self.nodes:
            nid, op = node.node_id, node.op
            if op == CONST_OP:
                if node.value is None:
                    return False
                arity[nid] = 0
            else:
                n_slots = arities.get(op)  # None for an input or an unknown operator
                if n_slots is None or node.value is not None:
                    return False
                arity[nid] = n_slots
            if nid not in operands:
                if len(base_operands.get(nid, ())) != arity[nid]:
                    return False
                if (nid not in known and nid not in fresh) or nid in removed:
                    return False
        for nid, args in operands.items():
            if len(args) != arity.get(nid, len(base_operands.get(nid, ()))):
                return False
            for a in (nid, *args):
                if (a not in known and a not in fresh) or a in removed:
                    return False
        for gone in removed:
            for reader in base.consumers.get(gone, ()):
                if reader not in removed and gone in operands.get(reader, base_operands[reader]):
                    return False
        output = self.output
        if (output not in known and output not in fresh) or output in removed:
            return False
        return self.blocked.isdisjoint(self.added)

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


def carry_edit(program: WorkflowProgram, pruned: WorkflowProgram) -> None:
    """Move `program`'s edit record, if any, to `pruned`: the same program
    with some dead nodes and their edges dropped. The record then also
    removes every id `pruned` lacks."""
    edit = getattr(program, _EDIT, None)
    if edit is None:
        return
    kept = {n.node_id for n in pruned.nodes}
    edit.removed = edit.removed.union(nid for nid in (*edit.base.heads, *edit.fresh) if nid not in kept)
    edit.attach(pruned)


def operator_count(program: WorkflowProgram) -> int:
    """`program`'s number of operator nodes. With an edit record, it is the
    base's count with each node the edit adds, changes or removes counted as
    it now is, and `program.nodes` is not read."""
    edit = getattr(program, _EDIT, None)
    if edit is None:
        return len([n for n in program.nodes if n.op not in LEAF_OPS])
    heads, removed = edit.base.heads, edit.removed
    count = edit.base.operator_count
    for node in edit.nodes:
        nid = node.node_id
        if nid not in removed:
            head = heads.get(nid)
            count += (node.op not in LEAF_OPS) - (head is not None and head[0] not in LEAF_OPS)
    for nid in removed:
        head = heads.get(nid)
        count -= head is not None and head[0] not in LEAF_OPS
    return count
