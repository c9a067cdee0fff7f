"""Deterministic stand-ins for the optimizer/executor roles, plus token prices.

The synthetic proposer checks and prunes its base once, takes the base's
distinct one-edit records (:mod:`wfopt.edits`, which builds them and writes
each built candidate's verdict) in a fixed order, and returns a seeded sample
drawn over them; only the records it draws are built. The
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

from .edits import EditBase, ProgramEdit
from .model import (
    INPUT_OP,
    Edge,
    InvalidProgramError,
    Node,
    OperatorRegistry,
    UnitSignature,
    WorkflowProgram,
    analyze_program,
    canonical_key,
    default_registry,
    interpret,
    validate_program,
)
# EvaluationError and SyntheticEvaluator are not used here; callers reach them through this module too
from .roles import EvaluationError, Problem, ProblemSet, ProposerConfig, SyntheticEvaluator, TokenRecord

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

    def charge(self, role: str, tokens_in: int, tokens_out: int) -> float:
        """The price of one request's tokens to `role`."""
        pin, pout = self.for_role(role)
        return tokens_in * pin + tokens_out * pout


def _built(records: list[ProgramEdit]) -> list[WorkflowProgram]:
    """The candidates of `records`, one base's, sharing one build memo."""
    shared: dict = {}
    return [edit.build(shared) for edit in records]


class SyntheticProposer:
    """Proposes structural edits of a base (insert, replace, delete, rewire)
    by the policy of its `ProposerConfig`: the operators, the edit kinds, the
    size cap and the seeded draw.

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
        """All distinct single-edit neighbours of `program`, in fixed order,
        each built from its record (`_distinct`)."""
        return _built(self._distinct(program))

    def _base(self, program: WorkflowProgram) -> EditBase:
        """The `EditBase` this proposer edits for `program`, which must pass
        `validate_program` or raise `InvalidProgramError`. A program with
        dead nodes is edited as its copy without them and their edges, in
        the same order and with every root, which is checked in turn."""
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
        """The unbuilt record of each distinct candidate within the size cap,
        in the edit generators' order, over the one `EditBase` of
        `_base(program)`.

        A record is keyed only when its fingerprint meets the base's or an
        earlier record's, and so, once, is the first record met with that
        fingerprint; it is dropped if its key is one of theirs. The kept
        records and their order are those of keying every record.
        """
        config = self.config
        base = self._base(program)
        max_nodes = config.max_operator_nodes
        # insertions are made only below the cap, and no other edit adds an
        # operator, so only a base above it makes records over it
        over = base.operator_count > max_nodes
        sources = []
        if config.allow_insert and base.operator_count < max_nodes:
            sources.append(base.insertions(self._ops, config.const_palette))
        if config.allow_replace:
            sources.append(base.replacements(self._ops))
        if config.allow_delete:
            sources.append(base.deletions())
        if config.allow_rewire:
            sources.append(base.rewires())
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
        sample is drawn over the records, so only the drawn ones are built.
        The prompt tokens count the program as passed in.
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
    """A generated suite: the initial program, each category's target, and the two problem sets."""

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
