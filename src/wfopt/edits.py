"""Proposer candidates told as one edit of a validated base.

`SyntheticProposer` checks its base once, on entry, and builds one
`EditBase` of it; only a base with dead nodes is pruned of them, checked and
given an `EditBase` of its own. The base's edit generators
(`EditBase.insertions`, `replacements`, `deletions` and `rewires`) yield
each candidate as its `ProgramEdit` over that clean, valid base, with the
candidate's fingerprint beside it. Under a registry with no nullary operator
every edit keeps the base valid: fresh ids come from `model.fresh_node_id`,
a replacement keeps its node's arity, a deletion hands a unary node's
consumers its operand, no new operand is its destination or one of its
descendants (`EditBase.blocked`), and a rewire that leaves its old source
feeding nothing drops, on its record, what pruning would drop
(`EditBase.dropped`). So a candidate is sized (`ProgramEdit.operator_count`),
fingerprinted and, when needed, keyed (`ProgramEdit.key`) from its record.

A fingerprint is a linear hash of the candidate's expression tree, unfolded
from its output (Karp and Rabin, IBM J. Res. Dev. 1987): `t(v) = w(head(v))
+ sum over slots s of r_s * t(operand_s(v))` modulo the prime `MODULUS`, the
program's being `t(output)`. The head is the key's (`model._key_entry`), so
equal canonical keys give equal fingerprints: a record needs its key only
when its fingerprint meets the base's or an earlier record's, and about nine
records in ten are never keyed. One edit changes the fingerprint by one
term, read from the base's tables (`EditBase.sums` and `EditBase.paths`).

Only a kept candidate is built, and `ProgramEdit.build` writes its verdict
slot (`model._VERDICT`): valid for the base's registry object, carrying the
record. `validate_program` of it is then a lookup, and `derive_state`, on
its first call against that registry object, derives its `WorkflowState`
from the record (`ProgramEdit.state`) and keeps the state in the record's
place. So a base is ordered once, when its `EditBase` is built, and no child
is ordered until it is evaluated; a candidate no one scores is never
analysed.
"""

from __future__ import annotations

from functools import lru_cache
from hashlib import blake2b
from typing import Iterator, Mapping, Optional, Sequence

from .model import (
    _VERDICT,
    CONST_OP,
    INPUT_OP,
    LEAF_OPS,
    Edge,
    Facts,
    Node,
    OperatorKind,
    OperatorRegistry,
    ProgramAnalysis,
    WorkflowProgram,
    WorkflowState,
    _analyze,
    _check_counts,
    _key_entry,
    _key_walk,
    _operator_histogram,
    _ordered,
    _transfer,
    fresh_node_id,
)

_NOTHING: frozenset = frozenset()


class EditBase:
    """One base program, as its edits and their records read it.

    The proposer builds one per base, of a base that passed `validate_program`
    against `registry`. Building it orders the base, once (`model._ordered`),
    and keeps the order. One pass along it, operands before their consumers,
    fills each node's key head (`model._key_entry`), its operand ids in slot
    order, its consumers (one per edge out), the number of operator nodes and
    `sums`, `t(v)` of every node. One pass back from the output fills `paths`:
    `p(v)` of every node a path from the output reaches, the sum over those
    paths of the product of the slot weights along each, `p(output)` being 1,
    so an edit that swaps one occurrence-weighted subtree for another changes
    the fingerprint by `p` times the change. `total` is the base's
    fingerprint, `t(output)`, and `dead` the nodes that are no input and that
    no path from the output reaches, which pruning drops; only a base with no
    dead node is edited. `blocked` and `weight` memoise, for every edit of the
    base, a node's descendants and a head's weight. What `ProgramEdit.state`
    reads of the base is built from the kept order on the first call to
    `analyzed`, and each distinct state it derives is kept.
    """

    __slots__ = (
        "registry", "program", "heads", "operands", "consumers", "operator_count",
        "sums", "paths", "total", "dead", "_order", "_weights", "_blocked", "_analyzed", "_states",
    )

    def __init__(self, program: WorkflowProgram, registry: OperatorRegistry):
        self.registry = registry
        self.program = program
        self._order = order = _ordered(program)
        self._analyzed: Optional[tuple] = None
        self._weights: dict[tuple, int] = {}
        self._blocked: dict[str, set[str]] = {}
        self._states: dict[tuple, WorkflowState] = {}  # ProgramEdit.state's, by key
        heads: dict[str, tuple] = {}
        operands: dict[str, tuple[str, ...]] = {}
        consumers: dict[str, list[str]] = {}
        sums: dict[str, int] = {}
        for node, slots in order:
            nid = node.node_id
            heads[nid] = head = _key_entry(node)
            total = self.weight(head)
            if slots:  # a valid base fills slots 0 to arity - 1
                operands[nid] = args = tuple([slots[k] for k in range(len(slots))])
                for slot, a in enumerate(args):
                    consumers.setdefault(a, []).append(nid)
                    total += slot_weight(slot) * sums[a]
            sums[nid] = total % MODULUS
        output = program.output
        paths = {output: 1}
        dead = []
        for node, _ in reversed(order):
            nid = node.node_id
            above = paths.get(nid)
            if above is None:
                if node.op != INPUT_OP:
                    dead.append(nid)
                continue
            for slot, a in enumerate(operands.get(nid, ())):
                paths[a] = (paths.get(a, 0) + above * slot_weight(slot)) % MODULUS
        self.heads, self.operands, self.consumers = heads, operands, consumers
        self.operator_count = len([node for node, _ in order if node.op not in LEAF_OPS])
        self.sums, self.paths, self.total, self.dead = sums, paths, sums[output], frozenset(dead)

    def weight(self, head: tuple) -> int:
        """`head_weight(head)`, made once per base for each head, so heads
        the key holds equal weigh the same even where their reprs differ (an
        exponent of 1 and one of 1.0)."""
        weights = self._weights
        weight = weights.get(head)
        if weight is None:
            weight = weights[head] = head_weight(head)
        return weight

    def blocked(self, nid: str) -> set[str]:
        """`nid` and every node it feeds, directly or not, made once per base
        for each node: no new operand of `nid`, nor of a node inserted to
        feed it, may be one of them, or the edit would close a cycle."""
        blocked = self._blocked.get(nid)
        if blocked is None:
            consumers = self.consumers
            blocked = self._blocked[nid] = {nid}
            stack = [nid]
            while stack:
                for nxt in consumers.get(stack.pop(), ()):
                    if nxt not in blocked:
                        blocked.add(nxt)
                        stack.append(nxt)
        return blocked

    def analyzed(self) -> tuple[ProgramAnalysis, tuple[int, int, int, int], dict[str, Node]]:
        """The base's analysis (`model.analyze_program` of it), its check
        counts (`model._check_counts`) and its nodes by id, built from the
        kept order on the first call."""
        if self._analyzed is None:
            order = self._order
            analysis = _analyze(order, self.registry)
            self._analyzed = (analysis, _check_counts(analysis), {node.node_id: node for node, _ in order})
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

    def insertions(self, kinds: Sequence[OperatorKind], palette: Sequence[float]) -> Iterator[tuple[int, ProgramEdit]]:
        """One new operator node of each kind in `kinds` on each edge, or above
        the output, for each choice of operands, a constant of `palette`
        among them, as its fingerprint and edit record.

        A record's nodes are its constant, if it has one, then the new node:
        they depend only on the kind and the constant, so each such tuple is
        made once per base. The operand lists it sets, the new node's and
        those of the node re-fed from it, depend only on the site and the
        operands, so each such map is made once per site and shared by every
        kind. The new node's second operand is neither the anchor nor one of
        its descendants (`blocked`); above the output, where nothing is fed
        from it, any node.

        The new node `N` takes the place of `src` in one slot `s` of the
        anchor, which every path to that slot reaches, so the fingerprint is
        the base's plus `p(anchor) * r_s * (t(N) - t(src))`; above the output
        it is `t(N)`. `t(N)` is the kind's weight plus each operand's `t`, a
        constant's being its weight, times its slot's weight.
        """
        program = self.program
        # every insertion into this base adds the same fresh ids
        new_id = fresh_node_id(program)
        const_id = fresh_node_id(program, "c")
        added = {kind.name: (Node(new_id, kind.name),) for kind in kinds}
        # one constant per palette entry, by position: a dict by value would
        # merge 0.0 and -0.0, which the canonical key tells apart
        consts = [Node(const_id, CONST_OP, value=float(value)) for value in palette]
        const_nodes = {kind.name: [(const, *added[kind.name]) for const in consts] for kind in kinds}
        sum_of, path_of, total = self.sums, self.paths, self.total
        kind_weights = {name: self.weight(_key_entry(nodes[0])) for name, nodes in added.items()}
        const_weights = [self.weight(_key_entry(const)) for const in consts]
        first, second = slot_weight(0), slot_weight(1)
        node_ids = [n.node_id for n in program.nodes]
        # real edges first, then the virtual edge (None) above the output node
        for edge in (*program.edges, None):
            if edge is None:
                src, blocked, refed, output, scale = program.output, (), {}, new_id, 1
            else:
                src, anchor, output = edge.src, edge.dst, program.output
                blocked = self.blocked(anchor)
                args = list(self.operands[anchor])
                args[edge.slot] = new_id
                refed = {anchor: tuple(args)}  # the anchor, fed from the new node
                scale = path_of[anchor] * slot_weight(edge.slot) % MODULUS
            # a record's fingerprint is offset + scale * t(N); lead and trail
            # weigh t of the new node's first and second operand
            offset = (total - scale * sum_of[src]) % MODULUS
            lead, trail = scale * first % MODULUS, scale * second % MODULUS
            src_sum = sum_of[src]
            unary = {new_id: (src,), **refed}
            pairs = with_const = const_terms = None
            for kind in kinds:
                at = (offset + scale * kind_weights[kind.name]) % MODULUS
                if kind.arity == 1:
                    yield (at + lead * src_sum) % MODULUS, ProgramEdit(self, output, unary, added[kind.name])
                elif kind.arity == 2:
                    if pairs is None:
                        # each choice of operands: its terms of the fingerprint, and its operand lists
                        pairs = []
                        for partner in node_ids:
                            if partner in blocked:
                                continue
                            other = sum_of[partner]
                            term = (lead * src_sum + trail * other) % MODULUS
                            pairs.append((term, {new_id: (src, partner), **refed}))
                            if partner != src:  # [src, src] has one operand order
                                term = (lead * other + trail * src_sum) % MODULUS
                                pairs.append((term, {new_id: (partner, src), **refed}))
                        with_const = ({new_id: (src, const_id), **refed}, {new_id: (const_id, src), **refed})
                        const_terms = [
                            ((lead * src_sum + trail * weight) % MODULUS, (lead * weight + trail * src_sum) % MODULUS)
                            for weight in const_weights
                        ]
                    for term, operands in pairs:
                        yield (at + term) % MODULUS, ProgramEdit(self, output, operands, added[kind.name])
                    for nodes, terms in zip(const_nodes[kind.name], const_terms):
                        for term, operands in zip(terms, with_const):
                            yield (at + term) % MODULUS, ProgramEdit(self, output, operands, nodes)

    def replacements(self, kinds: Sequence[OperatorKind]) -> Iterator[tuple[int, ProgramEdit]]:
        """Each operator node given every other kind in `kinds` of its arity,
        as its fingerprint and edit record: the base's fingerprint plus
        `p(v)` times the change of `v`'s weight."""
        arities, heads, output = self.registry.arities, self.heads, self.program.output
        for node in self.program.operator_nodes():
            arity = arities[node.op]
            nid = node.node_id
            scale = self.paths[nid]
            offset = self.total - scale * self.weight(heads[nid])
            for kind in kinds:
                if kind.arity != arity or kind.name == node.op:
                    continue
                new = Node(nid, kind.name, node.unit, node.shape, node.value)
                fingerprint = (offset + scale * self.weight(_key_entry(new))) % MODULUS
                yield fingerprint, ProgramEdit(self, output, {}, (new,))

    def deletions(self) -> Iterator[tuple[int, ProgramEdit]]:
        """Each unary operator node dropped, its consumers fed from its
        operand, as its fingerprint and edit record: the base's fingerprint
        plus `p(v) * (t(operand) - t(v))`, the output's included."""
        arities, program, operands, sum_of = self.registry.arities, self.program, self.operands, self.sums
        for node in program.operator_nodes():
            if arities[node.op] != 1:
                continue
            nid = node.node_id
            source = operands[nid][0]
            output = source if program.output == nid else program.output
            refed = {
                reader: tuple(source if a == nid else a for a in operands[reader])
                for reader in self.consumers.get(nid, ())
            }
            fingerprint = (self.total + self.paths[nid] * (sum_of[source] - sum_of[nid])) % MODULUS
            yield fingerprint, ProgramEdit(self, output, refed, removed=frozenset((nid,)))

    def rewires(self) -> Iterator[tuple[int, ProgramEdit]]:
        """Each edge given every other source that closes no cycle, as its
        fingerprint and edit record, which drops what the move leaves feeding
        nothing (`dropped`). The fingerprint is the base's plus
        `p(dst) * r_slot * (t(alt) - t(src))`: what the move drops leaves the
        tree with the old source's occurrence."""
        program, sum_of = self.program, self.sums
        for edge in program.edges:
            src, dst, slot = edge.src, edge.dst, edge.slot
            blocked = self.blocked(dst)
            # what the move leaves feeding nothing, unless the new source is
            # one of those nodes, which then stays with what feeds it
            dead = self.dropped(src)
            args = list(self.operands[dst])
            scale = self.paths[dst] * slot_weight(slot) % MODULUS
            offset = self.total - scale * sum_of[src]
            for node in program.nodes:
                alt = node.node_id
                if alt == src or alt in blocked:
                    continue
                dropped = self.dropped(src, alt) if alt in dead else dead
                args[slot] = alt
                fingerprint = (offset + scale * sum_of[alt]) % MODULUS
                yield fingerprint, ProgramEdit(self, program.output, {dst: tuple(args)}, removed=dropped)


class _NewFacts(dict):
    """The new facts of the nodes an edit touched, by id; a lookup of any
    other node reads `base`, the base's (`in` sees the new ones only)."""

    __slots__ = ("base",)

    def __missing__(self, nid: str) -> Facts:
        return self.base[nid]


class ProgramEdit:
    """One proposer candidate, told as one edit of an `EditBase`.

    * `output`: the candidate's output.
    * `operands`: the operand ids, by slot, of every node whose operands the
      edit sets: a new node, the node re-fed from it, a rewired node, a
      deleted node's consumers.
    * `nodes`: the nodes the edit adds or changes, an inserted operator last;
      `removed`: the ids it drops (a deleted node, or what a rewire leaves
      feeding nothing).

    It holds ids and nodes only, no edge: the record is all the proposer
    keeps of a candidate until it is drawn, and `build` then makes the
    candidate from it and the base's program.
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

    def build(self, shared: Optional[dict] = None) -> WorkflowProgram:
        """The candidate this edit makes of the base's program, its verdict
        slot (`model._VERDICT`) holding `(base.registry, self)`: valid for the
        base's registry object, as the edit kept the base valid, and carrying
        this record, from which `derive_state` derives its state.

        Its nodes are the base's, each changed node in its place and the
        removed ones left out, then the added nodes in record order. Its
        edges are the base's in order, less those into removed nodes; an edge
        into a node whose operands the edit sets is fed from that node's
        operand in its slot (a valid base has one edge per slot), and one
        re-fed from an added node moves to the end. After the base's come
        each added node's operand edges by slot, then those re-fed ones.

        The builds of one base's records pass one memo, `shared`, so the
        candidates a search tree keeps share each new `Edge`, each edge
        tuple and an insertion's node tuple. The last is keyed by the
        identity of the record's node tuple, never by value: `Node` equality
        merges the literals 0.0 and -0.0, which the canonical key tells apart.
        """
        base = self.base
        program, heads = base.program, base.heads
        shared = {} if shared is None else shared
        changed = {n.node_id: n for n in self.nodes if n.node_id in heads}
        added = tuple([n for n in self.nodes if n.node_id not in heads])
        removed, operands = self.removed, self.operands
        if changed or removed:
            nodes = tuple([changed.get(n.node_id, n) for n in program.nodes if n.node_id not in removed]) + added
        else:  # every node the record holds is added; the value keeps the key's object alive
            nodes = shared.setdefault(id(self.nodes), (self.nodes, program.nodes + added))[1]
        edges = program.edges
        if operands or removed:
            key = (tuple(operands.items()), removed, tuple([n.node_id for n in added]))
            edges = shared.get(key)
            if edges is None:
                kept: list[Edge] = []
                refed: list[Edge] = []
                for e in program.edges:
                    dst = e.dst
                    if dst in operands:
                        src = operands[dst][e.slot]
                        if src != e.src:
                            e = shared.setdefault((src, dst, e.slot), Edge(src, dst, e.slot))
                            if src not in heads:
                                refed.append(e)
                                continue
                    elif dst in removed:
                        continue
                    kept.append(e)
                for node in added:
                    nid = node.node_id
                    kept += [shared.setdefault((a, nid, k), Edge(a, nid, k)) for k, a in enumerate(operands.get(nid, ()))]
                edges = shared[key] = tuple(kept + refed)
        candidate = WorkflowProgram(nodes, edges, program.roots, self.output)
        object.__setattr__(candidate, _VERDICT, (base.registry, self))
        return candidate

    def state(self, candidate: WorkflowProgram) -> WorkflowState:
        """`model.derive_state` of `candidate`, the program this edit made,
        from the base's analysis and the nodes the edit touched.

        Facts flow from operands to consumers, so only the touched nodes can
        differ from the base's: the nodes the edit adds or changes and those
        whose operands it sets, with their consumers up to the output
        (`EditBase.consumers`), less the nodes it removes. Each gets new
        facts from `model._transfer`, operands first, in a walk from the
        output that enters touched nodes only; every other node's are the
        base's. The counts are the base's, less the base's verdicts of the
        touched and removed nodes, plus the touched nodes' new ones; the
        depth is the output's. The histogram counts `candidate.nodes` in
        declaration order, as `derive_state` does.

        Equal states of one base's candidates are one object: the base keeps
        each state it derives, keyed as `ConstraintScorer.static_vector`
        keys its memo (the depth, the histogram's items in order and the
        four counts), and a candidate whose state equals a kept one gets
        that one. Sibling tree nodes so share one state and its histogram
        dict, which nothing mutates.

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

        registry, base_operands = base.registry, base.operands
        output = self.output
        facts = _NewFacts()
        facts.base = analysis.facts
        stack = [output] if output in touched else []
        while stack:
            nid = stack[-1]
            args = operands[nid] if nid in operands else base_operands.get(nid, ())
            todo = [a for a in args if a in touched and a not in facts]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            if nid in facts:
                continue
            facts[nid], unit_ok, type_ok = _transfer(changed.get(nid) or base_nodes[nid], registry, args, facts)
            if unit_ok is not None:
                unit_passed += unit_ok
                unit_checked += 1
            if type_ok is not None:
                type_passed += type_ok
                type_checked += 1
        depth, histogram = facts[output].depth, _operator_histogram(candidate)
        key = (depth, tuple(histogram.items()), unit_passed, unit_checked, type_passed, type_checked)
        state = base._states.get(key)
        if state is None:
            state = base._states[key] = WorkflowState(
                depth, histogram, unit_passed, unit_checked, type_passed, type_checked
            )
        return state

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
        """`model.canonical_key` of the candidate: one `model._key_walk` from
        its output over the base's maps, with the heads of the nodes the edit
        adds or changes and the operand lists it sets. A removed node feeds
        nothing in the candidate, so the walk never meets it."""
        base = self.base
        fresh_heads = {n.node_id: _key_entry(n) for n in self.nodes}
        return _key_walk(self.output, base.heads, base.operands, fresh_heads, self.operands)


# a Mersenne prime: every fingerprint is a residue modulo it
MODULUS = (1 << 61) - 1


def _residue(value) -> int:
    """A fixed pseudo-random residue of `value`, from a digest of its repr:
    the same in every process, as `hash` of a str is not."""
    return int.from_bytes(blake2b(repr(value).encode(), digest_size=8).digest(), "big") % MODULUS


def head_weight(head: tuple) -> int:
    """`w(head)`: the weight of a key head (`model._key_entry` of a node)."""
    return _residue(head)


@lru_cache(maxsize=None)
def slot_weight(slot: int) -> int:
    """`r_s`: the weight of operand slot `slot`."""
    return _residue(("slot", slot))
