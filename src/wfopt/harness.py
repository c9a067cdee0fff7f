"""Deterministic stand-ins for the optimizer/executor roles, plus accounting.

The synthetic proposer checks and prunes its base once, enumerates the base's
minimal structural edits in a fixed order as edit records, and returns a
seeded sample drawn over them: only the candidates it draws are built, each
carrying the record its state is derived from when it is first scored. The
synthetic evaluator interprets a program over a problem set. Both emit token
records whose sizes are deterministic functions of payload size, so
efficiency metrics reproduce exactly. The evaluator interprets every problem
of a request in one `interpret_all` call, which orders the program and
resolves its operands in one walk for all of them, then runs each step once
over all their values. Remote implementations of the same two roles are
supported through the wire protocol in :mod:`wfopt.adapter`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .edits import EditBase, ProgramEdit
from .model import (
    CONST_OP,
    INPUT_OP,
    Edge,
    ExecutionTrace,
    InvalidProgramError,
    Node,
    OperatorRegistry,
    UnitSignature,
    WorkflowProgram,
    analyze_program,
    canonical_key,
    default_registry,
    fresh_node_id,
    interpret,
    interpret_all,
    validate_program,
)
from .runlog import RunLog

if TYPE_CHECKING:
    import numpy as np


class EvaluationError(RuntimeError):
    """An evaluator reported failure for one request (the run continues;
    the simulation scores a zero reward)."""


@dataclass(frozen=True)
class Problem:
    inputs: Mapping[str, float]
    expected: float
    category: str


@dataclass(frozen=True)
class ProblemSet:
    problems: tuple[Problem, ...]
    split: str  # "validation" | "test"

    def __post_init__(self) -> None:
        if self.split not in ("validation", "test"):
            raise ValueError(f"bad split {self.split!r}")

    def __len__(self) -> int:
        return len(self.problems)


@dataclass(frozen=True)
class TokenRecord:
    role: str  # "optimizer" | "executor"
    prompt_tokens: int
    completion_tokens: int
    request_id: str

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be >= 0")


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


@dataclass(frozen=True)
class ProposerConfig:
    """Controls the edit space the synthetic proposer enumerates."""

    ops: Optional[tuple[str, ...]] = None       # None = whole registry
    max_operator_nodes: int = 6
    const_palette: tuple[float, ...] = ()
    allow_insert: bool = True
    allow_replace: bool = True
    allow_delete: bool = True
    allow_rewire: bool = True

    def __post_init__(self) -> None:
        if self.max_operator_nodes < 1:
            raise ValueError("max_operator_nodes must be >= 1")


def _descendants(base: EditBase, nid: str) -> set[str]:
    """Every node `nid` feeds, directly or not."""
    consumers = base.consumers
    stack, seen = [nid], set()
    while stack:
        for nxt in consumers.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _prune_dead(program: WorkflowProgram) -> WorkflowProgram:
    """Drop operator/const nodes that no longer feed the output; keep roots.

    A node the program lacks feeds nothing: the walk back from the output
    stops there, so what fed only such a node is dropped with its edge, and
    pruning again drops nothing more. A program with nothing to drop is
    returned as it is. The proposer prunes a dirty base once, before it
    edits it; of its edits of a clean base only a rewire can orphan a node,
    and its record drops what pruning would (`EditBase.dropped`).
    """
    inc = program.incoming()
    present = {n.node_id for n in program.nodes}
    live: set[str] = set()
    stack = [program.output]
    while stack:
        cur = stack.pop()
        if cur in live or cur not in present:
            continue
        live.add(cur)
        stack.extend(inc[cur].values())
    nodes = tuple(
        n for n in program.nodes
        if n.node_id in live or n.op == INPUT_OP
    )
    kept = {n.node_id for n in nodes}
    edges = tuple(e for e in program.edges if e.src in kept and e.dst in kept)
    if len(nodes) == len(program.nodes) and len(edges) == len(program.edges):
        return program
    return WorkflowProgram(nodes=nodes, edges=edges, roots=program.roots, output=program.output)


# The deferred builds of `SyntheticProposer`'s edits. An edit generator
# yields each candidate as a flat entry `(edit, make, *args)`: its record,
# then the function that builds it and that function's arguments. A kept
# entry holds no more objects than that tuple and the record, which keeps
# the collector's count of new objects down while a pass holds the entries
# of every distinct candidate.

def _replaced(program: WorkflowProgram, at: int, node: Node) -> WorkflowProgram:
    """`program` with the node at position `at` swapped for `node`."""
    nodes = list(program.nodes)
    nodes[at] = node
    return WorkflowProgram(tuple(nodes), program.edges, program.roots, program.output)


def _deleted(program: WorkflowProgram, nid: str, source: str, output: str) -> WorkflowProgram:
    """`program` without the node `nid`, its consumers fed from `source`."""
    nodes = tuple(n for n in program.nodes if n.node_id != nid)
    edges = []
    for e in program.edges:
        if e.dst == nid:
            continue
        edges.append(Edge(source, e.dst, e.slot) if e.src == nid else e)
    return WorkflowProgram(nodes, tuple(edges), program.roots, output)


def _rewired(program: WorkflowProgram, at: int, alt: str, dropped: frozenset) -> WorkflowProgram:
    """`program` with the edge at position `at` moved to the source `alt`,
    and without the nodes in `dropped` and their edges."""
    edge = program.edges[at]
    edges = list(program.edges)
    edges[at] = Edge(alt, edge.dst, edge.slot)
    nodes = program.nodes
    if dropped:
        nodes = tuple([n for n in nodes if n.node_id not in dropped])
        edges = [e for e in edges if e.src not in dropped and e.dst not in dropped]
    return WorkflowProgram(nodes, tuple(edges), program.roots, program.output)


def _built(entry: tuple) -> WorkflowProgram:
    """The candidate of an edit generator's entry `(edit, make, *args)`,
    made now and vouched for by its record."""
    candidate = entry[1](*entry[2:])
    entry[0].vouch(candidate)
    return candidate


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
        names = config.ops if config.ops is not None else self.registry.names
        for name in names:
            if name not in self.registry:
                raise ValueError(f"proposer op {name!r} not in registry")
        self._ops = tuple(self.registry.get(name) for name in names)
        self._request_counter = 0

    # -- edit enumeration ---------------------------------------------------

    def enumerate_edits(self, program: WorkflowProgram) -> list[WorkflowProgram]:
        """All distinct single-edit neighbours in fixed order.

        The base is checked once, on entry: one that fails `validate_program`
        against this proposer's registry raises `InvalidProgramError` with
        its violations (for a program the search holds, the check is the
        verdict lookup). A base with dead nodes is pruned of them first, and
        the pruned program is edited in its place.

        Every edit of that clean, valid base keeps it valid by construction,
        so no candidate is checked. Each comes as its edit record
        (`edits.ProgramEdit`) over maps of the base built once
        (`edits.EditBase`), beside a deferred build. The record sizes the
        candidate (`ProgramEdit.operator_count`) and keys it for
        deduplication against the base and the candidates before it
        (`ProgramEdit.key`); a rewire drops on its record what it leaves
        feeding nothing (`EditBase.dropped`). A base with
        `max_operator_nodes` operator nodes gets no insertions. Each kept
        candidate is built after the pass, and vouched for by its record:
        this method builds every one, `propose` only those it draws.

        A candidate is built from parts it shares with its base and with the
        other candidates of that base: the base's own `Node` and `Edge`
        objects, and tuples of them cut or joined once per base, per edit
        site or per operator kind.
        """
        return [_built(entry) for entry in self._distinct(program)]

    def _distinct(self, program: WorkflowProgram) -> list[tuple]:
        """The pass `enumerate_edits` and `propose` share: the base checked
        and pruned, then the entry of each distinct candidate within the
        size limit, in the edit generators' order, unbuilt."""
        registry, config = self.registry, self.config
        report = validate_program(program, registry)
        if not report.ok:
            raise InvalidProgramError("; ".join(report.violations))
        pruned = _prune_dead(program)
        if pruned is not program:
            validate_program(pruned, registry)  # an EditBase is built of a program that passed
        base = EditBase(pruned, registry)
        max_nodes = config.max_operator_nodes
        sources = []
        if config.allow_insert and base.operator_count < max_nodes:
            sources.append(self._insertions(pruned, base))
        if config.allow_replace:
            sources.append(self._replacements(pruned, base))
        if config.allow_delete:
            sources.append(self._deletions(pruned, base))
        if config.allow_rewire:
            sources.append(self._rewires(pruned, base))
        seen = {canonical_key(pruned)}
        kept: list[tuple] = []
        for entry in chain.from_iterable(sources):
            edit = entry[0]
            if edit.operator_count() > max_nodes:
                continue
            before = len(seen)
            seen.add(edit.key())
            if len(seen) > before:
                kept.append(entry)
        base.walks.clear()  # they serve the dedup only; the records the candidates carry need not hold them
        return kept

    def _insertions(self, program: WorkflowProgram, base: EditBase):
        """One new operator node on each edge, or above the output, for each
        kind and choice of operands, as its edit record over `base` beside
        its deferred build.

        An insertion's nodes are the base's, then its constant if it has one,
        then the new node: they depend only on the kind and the constant, so
        each such tuple is built once per base. Its edges are the base's
        without the anchor edge, then the new node's operand edges by slot,
        then the anchor edge re-pointed from the new node: they depend only
        on the site and the operands, so each such tuple is built once per
        site and shared by every kind. The operand lists a record sets are
        shared the same way.
        """
        nodes, edges, roots = program.nodes, program.edges, program.roots
        # every insertion into this base adds the same fresh ids
        new_id = fresh_node_id(program)
        const_id = fresh_node_id(program, "c")
        # each kind's new node, and the candidate's nodes beside the ones it
        # adds, which its record holds
        new_nodes = {kind.name: Node(new_id, kind.name) for kind in self._ops}
        op_nodes = {name: (nodes + (new,), (new,)) for name, new in new_nodes.items()}
        # one constant per palette entry, by position: a dict by value would
        # merge 0.0 and -0.0, which the canonical key tells apart
        consts = [Node(const_id, CONST_OP, value=float(value)) for value in self.config.const_palette]
        const_nodes = {
            kind.name: [(nodes + (const, new_nodes[kind.name]), (const, new_nodes[kind.name])) for const in consts]
            for kind in self._ops if kind.arity == 2
        }
        node_ids = [n.node_id for n in nodes]
        # the new node's operand edges, by slot and then by operand
        into = [{nid: Edge(nid, new_id, slot) for nid in (*node_ids, const_id)} for slot in (0, 1)]
        # by anchor: the nodes that are neither the anchor nor one of its
        # descendants, the new node's second operands; the output site
        # (None) feeds nothing, so any node may pair with it
        partners_of: dict[Optional[str], list[str]] = {None: node_ids}

        def choice(site, *args: str):
            """One choice of the new node's operands at a site: the edges, and
            the operand lists its edit record sets."""
            kept, repointed, refed = site
            edges_in = tuple(into[slot][a] for slot, a in enumerate(args))
            return kept + edges_in + repointed, {new_id: args, **refed}

        # real edges first, then the virtual edge (None) above the output node
        for at, edge in enumerate((*edges, None)):
            if edge is None:
                src, anchor, kept, repointed, refed, output = program.output, None, edges, (), {}, new_id
            else:
                src, anchor, output = edge.src, edge.dst, program.output
                kept = edges[:at] + edges[at + 1:]
                repointed = (Edge(new_id, anchor, edge.slot),)
                args = list(base.operands[anchor])
                args[edge.slot] = new_id
                refed = {anchor: tuple(args)}  # the anchor, fed from the new node
            site = (kept, repointed, refed)
            unary = choice(site, src)
            pairs = with_const = None
            for kind in self._ops:
                if kind.arity == 1:
                    built = ((op_nodes[kind.name], unary),)
                elif kind.arity == 2:
                    if pairs is None:
                        partners = partners_of.get(anchor)
                        if partners is None:
                            blocked = _descendants(base, anchor) | {anchor}
                            partners = partners_of[anchor] = [nid for nid in node_ids if nid not in blocked]
                        pairs = []
                        for partner in partners:
                            pairs.append(choice(site, src, partner))
                            if partner != src:  # [src, src] has one operand order
                                pairs.append(choice(site, partner, src))
                        with_const = (choice(site, src, const_id), choice(site, const_id, src))
                    built = [(op_nodes[kind.name], pair) for pair in pairs]
                    built += [(node_lists, pair) for node_lists in const_nodes[kind.name] for pair in with_const]
                else:
                    continue
                for (node_tuple, added), (operand_edges, set_operands) in built:
                    edit = ProgramEdit(base, output, set_operands, added)
                    yield edit, WorkflowProgram, node_tuple, operand_edges, roots, output

    def _replacements(self, program: WorkflowProgram, base: EditBase):
        """Each operator node given every other kind of its arity, as its edit
        record over `base` beside its deferred build."""
        arities = self.registry.arities
        for at, node in enumerate(program.nodes):
            if node.is_leaf():
                continue
            arity = arities[node.op]
            for kind in self._ops:
                if kind.arity != arity or kind.name == node.op:
                    continue
                new = Node(node.node_id, kind.name, node.unit, node.shape, node.value)
                yield ProgramEdit(base, program.output, {}, (new,)), _replaced, program, at, new

    def _deletions(self, program: WorkflowProgram, base: EditBase):
        """Each unary operator node with its operand dropped, its consumers
        fed from that operand, as its edit record over `base` beside its
        deferred build."""
        arities, operands = self.registry.arities, base.operands
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
            yield ProgramEdit(base, output, refed, removed=frozenset((nid,))), _deleted, program, nid, source, output

    def _rewires(self, program: WorkflowProgram, base: EditBase):
        """Each edge given every other source that closes no cycle, as its edit
        record over `base` beside its deferred build. A rewire that leaves
        nodes feeding nothing drops them, on its record and in its build."""
        blocked_by: dict[str, set[str]] = {}  # edge.dst -> itself and its descendants
        for at, edge in enumerate(program.edges):
            src, dst, slot = edge.src, edge.dst, edge.slot
            blocked = blocked_by.get(dst)
            if blocked is None:
                blocked = blocked_by[dst] = _descendants(base, dst) | {dst}
            # what the move leaves feeding nothing, unless the new source is
            # one of those nodes, which then stays with what feeds it
            dead = base.dropped(src)
            args = list(base.operands[dst])
            for node in program.nodes:
                alt = node.node_id
                if alt == src or alt in blocked:
                    continue
                dropped = base.dropped(src, alt) if alt in dead else dead
                args[slot] = alt
                edit = ProgramEdit(base, program.output, {dst: tuple(args)}, removed=dropped)
                yield edit, _rewired, program, at, alt, dropped

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
        the same pass before anything is built, so only the drawn candidates
        are built. Each carries its record, from which `derive_state`
        against this proposer's registry object derives its `WorkflowState`
        and one analysis of the base the drawn candidates share
        (`ProgramEdit.state`); no state is derived here. The prompt tokens
        count the program as passed in.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        entries = self._distinct(program)
        if len(entries) > count:
            order = rng.permutation(len(entries))
            entries = [entries[i] for i in order[:count]]
        edits = [_built(entry) for entry in entries]
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


# a problem is solved when the output is within this of the expected value
TOLERANCE = 1e-9


class SyntheticEvaluator:
    """Interprets a program over a problem set; reward is the solved fraction."""

    def __init__(self, problems: ProblemSet, registry: Optional[OperatorRegistry] = None):
        if not problems.problems:
            raise ValueError("evaluator needs a non-empty problem set")
        self.problems = problems
        self.registry = registry or default_registry()
        self._request_counter = 0

    def evaluate(self, program: WorkflowProgram) -> tuple[float, list[ExecutionTrace], TokenRecord]:
        traces = interpret_all(program, [p.inputs for p in self.problems.problems], self.registry)
        solved = 0
        for problem, trace in zip(self.problems.problems, traces):
            if trace.success and trace.output is not None and abs(trace.output - problem.expected) <= TOLERANCE:
                solved += 1
        reward = solved / len(self.problems.problems)
        self._request_counter += 1
        prompt = 20 + 8 * len(program.nodes) + 5 * len(self.problems.problems)
        completion = sum(4 + 2 * len(t.values) for t in traces)
        record = TokenRecord(
            role="executor",
            prompt_tokens=prompt,
            completion_tokens=completion,
            request_id=f"exe-{self._request_counter:05d}",
        )
        return reward, traces, record


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
    raise SuiteGenerationError("could not grow a usable target program")


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
