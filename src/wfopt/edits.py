"""Proposer candidates told as one edit of a validated base.

`SyntheticProposer.enumerate_edits` builds one `EditBase` per base that
passed `validate_program` against its registry object and has no dead node,
and gives each candidate of that base a `ProgramEdit`, held on the program
as `model._EDIT` until the candidate is keyed. `model.validate_program`
then asks the record whether the edit kept the program valid
(`ProgramEdit.holds`), and `model.canonical_key` asks it for the key
(`ProgramEdit.key`); each call costs about what the edit touched rather than
what the program holds. The answers are the full check's and the full
walk's: a record that cannot vouch sends `validate_program` to the full
check, and `tests/test_reference.py` compares both paths on random bases.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Optional

from .model import (
    _EDIT,
    _VALID_FOR,
    CONST_OP,
    LEAF_OPS,
    InvalidProgramError,
    Node,
    OperatorRegistry,
    WorkflowProgram,
    _key_entry,
)

_UNCHANGED: Mapping = MappingProxyType({})


def _key_walk(
    output: str,
    heads: Mapping[str, tuple],
    operands: Mapping[str, tuple[str, ...]],
    entries: list[tuple],
    index: dict[str, int],
    changed_heads: Mapping[str, tuple] = _UNCHANGED,
    changed_operands: Mapping[str, tuple[str, ...]] = _UNCHANGED,
    entered: Optional[dict[str, int]] = None,
) -> tuple:
    """The post-order walk of `model.canonical_key`, from `output`, over maps
    built beforehand: each node's head (its `model._key_entry` without
    operands) and each node's operand ids by slot.

    A node's head and operands come from `changed_heads` and
    `changed_operands` when they hold it, else from `heads` and `operands`;
    an operator's entry is its head with its operands' entry indices as the
    payload. `entries` and `index` (id -> entry index) may come filled with
    the entries the walk would make first. A node missing from the heads
    raises `KeyError`. `entered`, when given, records how many entries were
    complete as the walk reached each node.
    """

    def visit(nid: str) -> int:
        i = index.get(nid)
        if i is not None:
            if i < 0:
                raise InvalidProgramError("cycle in operator graph")
            return i
        index[nid] = -1
        if entered is not None:
            entered[nid] = len(entries)
        head = changed_heads.get(nid) or heads[nid]
        args = changed_operands[nid] if nid in changed_operands else operands.get(nid)
        if args:
            children = tuple(map(visit, args))
            op, _, unit, shape = head
            if op not in LEAF_OPS:
                head = (op, children, unit, shape)
        index[nid] = i = len(entries)
        entries.append(head)
        return i

    visit(output)
    return tuple(entries)


_NOTHING: frozenset = frozenset()


class EditBase:
    """What the edit-local checks read of one base program.

    Built once per base by the proposer, only for a base that passed
    `validate_program` against the proposer's registry object and has no
    dead node and one edge per input slot. It holds each node's key head,
    each operator's operand ids in slot order, each node's consumers (one
    per edge out), and the base's own key walk: its entries, each reached
    node's entry index (also as (id, index) pairs in post-order), and
    `entered`, how many entries the walk had made when it reached each node.
    `walks` keeps the walks its candidates share (`ProgramEdit.key`).
    """

    __slots__ = (
        "registry", "heads", "operands", "consumers", "output", "key", "index", "post", "entered", "walks",
    )

    def __init__(self, program: WorkflowProgram, registry: OperatorRegistry):
        self.registry = registry
        self.heads = {n.node_id: _key_entry(n) for n in program.nodes}
        slot_maps: dict[str, dict[int, str]] = {}
        for e in program.edges:
            slot_maps.setdefault(e.dst, {})[e.slot] = e.src
        self.operands = {nid: tuple([slots[k] for k in sorted(slots)]) for nid, slots in slot_maps.items()}
        self.consumers: dict[str, list[str]] = {}
        for nid, args in self.operands.items():
            for a in args:
                self.consumers.setdefault(a, []).append(nid)
        self.output = program.output
        self.index: dict[str, int] = {}
        self.entered: dict[str, int] = {}
        self.key = _key_walk(program.output, self.heads, self.operands, [], self.index, entered=self.entered)
        self.post = sorted(self.index.items(), key=lambda item: item[1])
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
        replacements; an insertion's operator kinds and constants), and each
        sets the entries of the nodes it adds or changes.
        """
        base = self.base
        nodes = self.nodes
        shared = (self.output, tuple(self.operands.items()), tuple([n.node_id for n in nodes if n.op in LEAF_OPS]))
        walked = base.walks.get(shared)
        if walked is None:
            walked = base.walks[shared] = self._walk()
        key, index = walked
        for node in nodes:
            at = index.get(node.node_id)
            if at is not None:
                key = key[:at] + (_key_entry(node, key[at][1]),) + key[at + 1:]
        return key

    def _walk(self) -> tuple[tuple, dict[str, int]]:
        """The key walk of the candidate, and each node's index in it.

        It makes the base's entries until it reaches the first node whose
        operands the edit changed (at once if the output changed), at its
        first changed operand. It starts from those entries and walks from
        the output over the base's maps with the edit's changes, meeting the
        nodes of those entries first and taking their indices. The entries
        of the nodes the edit adds or changes are left for `key` to set.
        """
        base = self.base
        index, base_operands, operands = base.index, base.operands, self.operands

        def past(old: str, new: str, made: int) -> int:
            """How many of the base's entries the walk has made, from `made`,
            once it has walked `new` where the base's walked `old`: old's too
            if `new` is old, or a new node whose first operand is old."""
            if new == old or (new not in index and operands.get(new, (None,))[0] == old):
                return max(made, index[old] + 1)
            return made

        start = past(base.output, self.output, 0)
        for nid, args in operands.items():
            made = base.entered.get(nid, start)
            if made >= start:
                continue
            for old, new in zip(base_operands.get(nid, ()), args):
                made = past(old, new, made)
                if new != old:
                    break
            start = min(start, made)
        heads = {n.node_id: _key_entry(n) for n in self.nodes}
        walked = dict(base.post[:start])
        key = _key_walk(self.output, base.heads, base_operands, list(base.key[:start]), walked, heads, self.operands)
        return key, walked


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
