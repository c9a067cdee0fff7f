"""Deterministic stand-ins for the optimizer/executor roles, plus accounting.

The synthetic proposer checks and prunes its base once, enumerates the base's
minimal structural edits in a fixed order as edit records, and returns a
seeded sample drawn over them: only the candidates it draws are built, each
carrying the record its state is derived from when it is first scored. The
synthetic evaluator (in :mod:`wfopt.roles`, reachable here too) interprets a
program over a problem set. Both emit token records whose sizes are
deterministic functions of payload size, so efficiency metrics reproduce
exactly. Remote implementations of the same two roles are supported through
the wire protocol in :mod:`wfopt.adapter`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .edits import MODULUS, EditBase, ProgramEdit, slot_weight
from .model import (
    CONST_OP,
    INPUT_OP,
    Edge,
    InvalidProgramError,
    Node,
    OperatorRegistry,
    UnitSignature,
    WorkflowProgram,
    _key_entry,
    analyze_program,
    canonical_key,
    default_registry,
    fresh_node_id,
    interpret,
    validate_program,
)
# EvaluationError and SyntheticEvaluator are not used here; callers reach them through this module too
from .roles import EvaluationError, Problem, ProblemSet, ProposerConfig, SyntheticEvaluator, TokenRecord
from .runlog import RunLog

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class PriceMap:
    """Per-role (input, output) price per token."""

    prices: Mapping[str, tuple[float, float]]

    def __post_init__(self) -> None:
        for role, (pin, pout) in self.prices.items():
            if pin < 0 or pout < 0:
                raise ValueError(f"negative price for role {role!r}")

    @staticmethod
    def zero() -> "PriceMap":
        return PriceMap({"optimizer": (0.0, 0.0), "executor": (0.0, 0.0)})

    def for_role(self, role: str) -> tuple[float, float]:
        if role not in self.prices:
            raise KeyError(f"no price configured for role {role!r}")
        return self.prices[role]


def _built(records: list[ProgramEdit]) -> list[WorkflowProgram]:
    """The candidates of `records`, one base's, built now and vouched for by
    their records; they share the parts they have in common."""
    shared: dict = {}
    return [edit.vouch(edit.build(shared)) for edit in records]


class SyntheticProposer:
    """Enumerates structural edits: insert, replace, delete, rewire.

    Edits are generated in a fixed structural order; `propose` then applies a
    seeded permutation and returns the first `count` distinct candidates, so
    a fixed seed always yields the identical list.

    The registry may have no operator of arity 0: with one, an edit could
    leave a valid base's output reaching no leaf (`add(z, x0)` rewired to
    `add(z, z)`, `z` nullary), so edits would not keep a base valid.
    """

    def __init__(self, registry: Optional[OperatorRegistry] = None, config: ProposerConfig = ProposerConfig()):
        self.registry = registry or default_registry()
        self.config = config
        nullary = [kind.name for kind in self.registry if kind.arity == 0]
        if nullary:
            raise ValueError(f"proposer registry has nullary operators {nullary!r}")
        self._ops = config.operators(self.registry)
        self._request_counter = 0

    # -- edit enumeration ---------------------------------------------------

    def enumerate_edits(self, program: WorkflowProgram) -> list[WorkflowProgram]:
        """All distinct single-edit neighbours in fixed order.

        The base is checked once, on entry: one that fails `validate_program`
        against this proposer's registry raises `InvalidProgramError` with
        its violations (for a program the search holds, the check is the
        verdict lookup). A base with dead nodes is pruned of them first, and
        the pruned program is edited in its place (`_base`).

        Every edit of that clean, valid base keeps it valid by construction,
        so no candidate is checked. Each comes as its edit record
        (`edits.ProgramEdit`) over the base's one `edits.EditBase`, with its
        fingerprint beside it; a rewire drops on its record what it leaves
        feeding nothing (`EditBase.dropped`). A candidate is a duplicate when
        its canonical key is the base's or an earlier candidate's, and only a
        record whose fingerprint meets one of theirs can be one, so only such
        records are keyed (`ProgramEdit.key`). A base with
        `max_operator_nodes` operator nodes gets no insertions, and only a
        base above that size sizes its records
        (`ProgramEdit.operator_count`). Each kept record is built after the
        pass (`ProgramEdit.build`) and vouches for its candidate: this method
        builds every one, `propose` only those it draws.
        """
        return _built(self._distinct(program))

    def _base(self, program: WorkflowProgram) -> EditBase:
        """The `EditBase` this proposer edits for `program`.

        `program` is checked once: one that fails `validate_program` raises
        `InvalidProgramError`. Its `EditBase` finds its dead nodes, the
        operators and constants that feed nothing the output reads. Only
        when there are some is its copy without them and their edges built,
        in the same order and with every root, checked (an `EditBase` is
        built of a program that passed), and given its own `EditBase`. Of
        the edits of a clean base only a rewire can orphan a node, and its
        record drops what pruning would (`EditBase.dropped`).
        """
        registry = self.registry
        report = validate_program(program, registry)
        if not report.ok:
            raise InvalidProgramError("; ".join(report.violations))
        base = EditBase(program, registry)
        dead = base.dead
        if dead:
            # a node that feeds a live one is live, so every edge out of a
            # dead node goes into one
            pruned = WorkflowProgram(
                nodes=tuple([n for n in program.nodes if n.node_id not in dead]),
                edges=tuple([e for e in program.edges if e.dst not in dead]),
                roots=program.roots,
                output=program.output,
            )
            validate_program(pruned, registry)
            base = EditBase(pruned, registry)
        return base

    def _distinct(self, program: WorkflowProgram) -> list[ProgramEdit]:
        """The pass `enumerate_edits` and `propose` share: the record of each
        distinct candidate within the size limit, in the edit generators'
        order, unbuilt, each over the one `EditBase` of `_base(program)`.

        The fingerprint is a function of the canonical key (`edits`), so a
        record whose fingerprint neither the base nor an earlier record has
        cannot repeat either, and is kept unkeyed. A record whose fingerprint
        meets one already met is keyed, and so is the first record met with
        that fingerprint, once; it is dropped if its key is one of theirs.
        The kept records and their order are those of keying every record.
        """
        config = self.config
        base = self._base(program)
        max_nodes = config.max_operator_nodes
        # insertions are made only below the cap, and no other edit adds an
        # operator, so only a base above it makes records over it
        over = base.operator_count > max_nodes
        sources = []
        if config.allow_insert and base.operator_count < max_nodes:
            sources.append(self._insertions(base))
        if config.allow_replace:
            sources.append(self._replacements(base))
        if config.allow_delete:
            sources.append(self._deletions(base))
        if config.allow_rewire:
            sources.append(self._rewires(base))
        keys = {canonical_key(base.program)}
        # each fingerprint met: the first record met with it while that is
        # unkeyed, else None (the base's key is in `keys`)
        met: dict[int, Optional[ProgramEdit]] = {base.total: None}
        kept: list[ProgramEdit] = []
        for fingerprint, edit in chain.from_iterable(sources):
            if over and edit.operator_count() > max_nodes:
                continue
            first = met.setdefault(fingerprint, edit)
            if first is edit:
                kept.append(edit)
                continue
            if first is not None:
                keys.add(first.key())
                met[fingerprint] = None
            before = len(keys)
            keys.add(edit.key())
            if len(keys) > before:
                kept.append(edit)
        return kept

    def _insertions(self, base: EditBase):
        """One new operator node on each edge, or above the output, for each
        kind and choice of operands, as its edit record over `base` with its
        fingerprint from the base's tables.

        A record's nodes are its constant, if it has one, then the new node:
        they depend only on the kind and the constant, so each such tuple is
        made once per base. The operand lists it sets, the new node's and
        those of the node re-fed from it, depend only on the site and the
        operands, so each such map is made once per site and shared by every
        kind. The new node's second operand is neither the anchor nor one of
        its descendants (`EditBase.blocked`); above the output, where nothing
        is fed from it, any node.

        The new node `N` takes the place of `src` in one slot `s` of the
        anchor, which every path to that slot reaches, so the fingerprint is
        the base's plus `p(anchor) * r_s * (t(N) - t(src))`; above the output
        it is `t(N)`. `t(N)` is the kind's weight plus each operand's `t`, a
        constant's being its weight, times its slot's weight.
        """
        program = base.program
        # every insertion into this base adds the same fresh ids
        new_id = fresh_node_id(program)
        const_id = fresh_node_id(program, "c")
        added = {kind.name: (Node(new_id, kind.name),) for kind in self._ops}
        # one constant per palette entry, by position: a dict by value would
        # merge 0.0 and -0.0, which the canonical key tells apart
        consts = [Node(const_id, CONST_OP, value=float(value)) for value in self.config.const_palette]
        const_nodes = {kind.name: [(const, *added[kind.name]) for const in consts] for kind in self._ops}
        sum_of, path_of, total = base.sums, base.paths, base.total
        kind_weights = {name: base.weight(_key_entry(nodes[0])) for name, nodes in added.items()}
        const_weights = [base.weight(_key_entry(const)) for const in consts]
        first, second = slot_weight(0), slot_weight(1)
        node_ids = [n.node_id for n in program.nodes]
        # real edges first, then the virtual edge (None) above the output node
        for edge in (*program.edges, None):
            if edge is None:
                src, blocked, refed, output, scale = program.output, (), {}, new_id, 1
            else:
                src, anchor, output = edge.src, edge.dst, program.output
                blocked = base.blocked(anchor)
                args = list(base.operands[anchor])
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
            for kind in self._ops:
                at = (offset + scale * kind_weights[kind.name]) % MODULUS
                if kind.arity == 1:
                    yield (at + lead * src_sum) % MODULUS, ProgramEdit(base, output, unary, added[kind.name])
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
                        yield (at + term) % MODULUS, ProgramEdit(base, output, operands, added[kind.name])
                    for nodes, terms in zip(const_nodes[kind.name], const_terms):
                        for term, operands in zip(terms, with_const):
                            yield (at + term) % MODULUS, ProgramEdit(base, output, operands, nodes)

    def _replacements(self, base: EditBase):
        """Each operator node given every other kind of its arity, as its edit
        record over `base`. Its fingerprint is the base's plus `p(v)` times
        the change of `v`'s weight."""
        arities, heads, output = self.registry.arities, base.heads, base.program.output
        for node in base.program.operator_nodes():
            arity = arities[node.op]
            nid = node.node_id
            scale = base.paths[nid]
            offset = base.total - scale * base.weight(heads[nid])
            for kind in self._ops:
                if kind.arity != arity or kind.name == node.op:
                    continue
                new = Node(nid, kind.name, node.unit, node.shape, node.value)
                fingerprint = (offset + scale * base.weight(_key_entry(new))) % MODULUS
                yield fingerprint, ProgramEdit(base, output, {}, (new,))

    def _deletions(self, base: EditBase):
        """Each unary operator node with its operand dropped, its consumers
        fed from that operand, as its edit record over `base`. Its
        fingerprint is the base's plus `p(v) * (t(operand) - t(v))`, the
        output's included."""
        arities, program, operands, sum_of = self.registry.arities, base.program, base.operands, base.sums
        for node in program.operator_nodes():
            if arities[node.op] != 1:
                continue
            nid = node.node_id
            source = operands[nid][0]
            output = source if program.output == nid else program.output
            refed = {
                reader: tuple(source if a == nid else a for a in operands[reader])
                for reader in base.consumers.get(nid, ())
            }
            fingerprint = (base.total + base.paths[nid] * (sum_of[source] - sum_of[nid])) % MODULUS
            yield fingerprint, ProgramEdit(base, output, refed, removed=frozenset((nid,)))

    def _rewires(self, base: EditBase):
        """Each edge given every other source that closes no cycle, as its edit
        record over `base`. A rewire that leaves nodes feeding nothing drops
        them on its record. Its fingerprint is the base's plus
        `p(dst) * r_slot * (t(alt) - t(src))`: what the move drops leaves the
        tree with the old source's occurrence."""
        program, sum_of = base.program, base.sums
        for edge in program.edges:
            src, dst, slot = edge.src, edge.dst, edge.slot
            blocked = base.blocked(dst)
            # what the move leaves feeding nothing, unless the new source is
            # one of those nodes, which then stays with what feeds it
            dead = base.dropped(src)
            args = list(base.operands[dst])
            scale = base.paths[dst] * slot_weight(slot) % MODULUS
            offset = base.total - scale * sum_of[src]
            for node in program.nodes:
                alt = node.node_id
                if alt == src or alt in blocked:
                    continue
                dropped = base.dropped(src, alt) if alt in dead else dead
                args[slot] = alt
                fingerprint = (offset + scale * sum_of[alt]) % MODULUS
                yield fingerprint, ProgramEdit(base, program.output, {dst: tuple(args)}, removed=dropped)

    # -- the proposer role --------------------------------------------------

    def propose(
        self,
        program: WorkflowProgram,
        count: int,
        rng: np.random.Generator,
    ) -> tuple[list[WorkflowProgram], TokenRecord]:
        """Seeded sample of up to `count` distinct valid edits.

        The candidates of `enumerate_edits`, in its order, taken by the first
        `count` indices of `rng.permutation` of their number; with no more
        than `count` of them, all in order, and `rng` is not drawn from. The
        base is checked and pruned as there, and an invalid one raises
        `InvalidProgramError`. The sample is drawn over the edit records of
        the same pass before anything is built, so only the drawn records
        are built (`ProgramEdit.build`). Each carries its record, from which `derive_state`
        against this proposer's registry object derives its `WorkflowState`
        and one analysis of the base the drawn candidates share
        (`ProgramEdit.state`); no state is derived here. The prompt tokens
        count the program as passed in.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        records = self._distinct(program)
        if len(records) > count:
            order = rng.permutation(len(records))
            records = [records[i] for i in order[:count]]
        edits = _built(records)
        self._request_counter += 1
        prompt = 40 + 12 * len(program.nodes) + 6 * len(program.edges)
        completion = sum(8 + 3 * len(c.nodes) for c in edits)
        record = TokenRecord(
            role="optimizer",
            prompt_tokens=prompt,
            completion_tokens=completion,
            request_id=f"opt-{self._request_counter:05d}",
        )
        return edits, record


# ---------------------------------------------------------------------------
# Synthetic suite generation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSuite:
    initial_program: WorkflowProgram
    targets: Mapping[str, WorkflowProgram]   # category -> hidden target
    validation: ProblemSet
    test: ProblemSet

    @property
    def target(self) -> WorkflowProgram:
        if len(self.targets) != 1:
            raise ValueError("suite has multiple category targets")
        return next(iter(self.targets.values()))

    def all_problems(self) -> tuple[Problem, ...]:
        return self.validation.problems + self.test.problems


class SuiteGenerationError(RuntimeError):
    pass


MAX_ATTEMPTS = 200  # tries at growing a usable target, and at sampling each problem's inputs
PROBES = 4  # random input bindings a target is run on to judge it usable


def make_synthetic_suite(
    seed: int,
    n_problems: int,
    category_count: int = 1,
    *,
    registry: Optional[OperatorRegistry] = None,
    proposer_config: Optional[ProposerConfig] = None,
    n_roots: int = 2,
    target_edits: int = 3,
    unit_dims: Optional[Sequence[Optional[str]]] = None,
) -> SyntheticSuite:
    """Build a hidden-target optimization problem with a 1:4 val/test split.

    Targets are grown by random walks through the proposer's own edit space,
    so they are guaranteed reachable by the search. `unit_dims` optionally
    assigns a dimension name (or None) to each root.
    """
    if n_problems < 5:
        raise ValueError("need at least 5 problems for a 1:4 split")
    if category_count < 1:
        raise ValueError("category_count must be >= 1")
    import numpy as np  # here, not at module level: an evaluate-only stdio peer never needs it

    registry = registry or default_registry()
    proposer = SyntheticProposer(registry, proposer_config or ProposerConfig(ops=("add", "sub", "mul", "neg")))
    rng = np.random.default_rng(seed)

    roots = []
    for i in range(n_roots):
        dim = unit_dims[i] if unit_dims is not None and i < len(unit_dims) else None
        unit = UnitSignature.of({dim: 1}) if dim else None
        roots.append(Node(f"x{i}", INPUT_OP, unit=unit))
    root_ids = tuple(n.node_id for n in roots)
    # seed with one working operator node, the way real optimization starts
    # from a minimal functioning workflow rather than a bare input
    if n_roots >= 2:
        op = "add" if roots[0].unit == roots[1].unit else "mul"
        seed_node = Node("n0", op)
        seed_edges = (Edge(root_ids[0], "n0", 0), Edge(root_ids[1], "n0", 1))
    else:
        seed_node = Node("n0", "neg")
        seed_edges = (Edge(root_ids[0], "n0", 0),)
    initial = WorkflowProgram(
        nodes=tuple(roots) + (seed_node,),
        edges=seed_edges,
        roots=root_ids,
        output="n0",
    )

    targets: dict[str, WorkflowProgram] = {}
    categories = [f"cat{i}" for i in range(category_count)]
    for category in categories:
        targets[category] = _grow_target(initial, proposer, target_edits, rng)

    problems: list[Problem] = []
    for i in range(n_problems):
        category = categories[i % category_count]
        target = targets[category]
        problem = _sample_problem(target, registry, rng, category)
        problems.append(problem)

    n_val = max(1, n_problems // 5)
    validation = ProblemSet(tuple(problems[:n_val]), "validation")
    test = ProblemSet(tuple(problems[n_val:]), "test")
    return SyntheticSuite(initial, targets, validation, test)


def _grow_target(
    initial: WorkflowProgram,
    proposer: SyntheticProposer,
    target_edits: int,
    rng: np.random.Generator,
) -> WorkflowProgram:
    for _ in range(MAX_ATTEMPTS):
        program = initial
        for _ in range(target_edits):
            edits = proposer.enumerate_edits(program)
            if not edits:
                break
            program = edits[int(rng.integers(len(edits)))]
        if program.operator_nodes() and _target_is_usable(program, initial, proposer.registry, rng):
            return program
    ops, cap = proposer.config.ops, proposer.config.max_operator_nodes
    if not proposer.config.allow_insert:
        # a usable target has two operator kinds, and the initial program one operator node
        raise SuiteGenerationError(
            f"could not grow a usable target program in {MAX_ATTEMPTS} attempts: proposer.allow_insert is false, "
            "and only an insertion adds a second operator kind to the one-operator initial program"
        )
    raise SuiteGenerationError(
        f"could not grow a usable target program in {MAX_ATTEMPTS} attempts with proposer.ops = "
        f"{ops if ops is None else list(ops)}, proposer.max_operator_nodes = {cap} "
        f"and suite.target_edits = {target_edits}"
    )


def _target_is_usable(
    program: WorkflowProgram,
    initial: WorkflowProgram,
    registry: OperatorRegistry,
    rng: np.random.Generator,
) -> bool:
    """Target must be multi-step (two distinct operator kinds), run cleanly,
    stay unit-consistent, vary with its inputs, and not coincide with the
    initial program's behavior."""
    if len({n.op for n in program.operator_nodes()}) < 2:
        return False
    if not all(analyze_program(program, registry).unit_checks.values()):
        return False
    outputs = []
    differs = False
    for _ in range(PROBES):
        inputs = {rid: float(rng.integers(1, 10)) for rid in program.roots}
        trace = interpret(program, inputs, registry)
        if not trace.success:
            return False
        outputs.append(trace.output)
        baseline = interpret(initial, inputs, registry)
        if not baseline.success or baseline.output != trace.output:
            differs = True
    return len(set(outputs)) > 1 and differs


def _sample_problem(
    target: WorkflowProgram,
    registry: OperatorRegistry,
    rng: np.random.Generator,
    category: str,
) -> Problem:
    for _ in range(MAX_ATTEMPTS):
        inputs = {rid: float(rng.integers(1, 10)) for rid in target.roots}
        trace = interpret(target, inputs, registry)
        if trace.success and trace.output is not None and math.isfinite(trace.output):
            return Problem(inputs=inputs, expected=trace.output, category=category)
    raise SuiteGenerationError("target kept hitting domain violations on sampled inputs")


# ---------------------------------------------------------------------------
# Token and cost accounting.
# ---------------------------------------------------------------------------

def iter_token_usage(log: RunLog):
    for record in log:
        tin = record.get("tokens_in")
        tout = record.get("tokens_out")
        if tin is None and tout is None:
            continue
        yield record.get("role", "executor"), int(tin or 0), int(tout or 0)


def tokens_per_problem(log: RunLog, n_problems: int) -> float:
    """Total prompt+completion tokens across both roles, per problem."""
    if n_problems < 1:
        raise ValueError("n_problems must be >= 1")
    total = sum(tin + tout for _, tin, tout in iter_token_usage(log))
    return total / n_problems


def cost(log: RunLog, prices: PriceMap, n_problems: int) -> float:
    """Apply per-role token prices to the logged usage, averaged per problem."""
    if n_problems < 1:
        raise ValueError("n_problems must be >= 1")
    total = 0.0
    for role, tin, tout in iter_token_usage(log):
        pin, pout = prices.for_role(role)
        total += tin * pin + tout * pout
    return total / n_problems
