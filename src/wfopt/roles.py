"""What the two roles exchange, and the synthetic evaluator: no proposer, and only :mod:`wfopt.model`.

The two ways a role fails live here as well: `EvaluationError`, one request
failed, and `AdapterError`, a remote role that cannot be reached or breaks
the protocol. `wfopt.adapter` re-exports the latter, so the CLI and the
driver can name it without loading the wire protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .model import ExecutionTrace, OperatorKind, OperatorRegistry, WorkflowProgram, default_registry, interpret_all


class EvaluationError(RuntimeError):
    """An evaluator reported failure for one request (the run continues;
    the simulation scores a zero reward)."""


class AdapterError(RuntimeError):
    """Remote role unreachable or speaking a malformed protocol."""


@dataclass(frozen=True)
class Problem:
    """One task: the value of each root input, the expected output, and its category."""

    inputs: Mapping[str, float]
    expected: float
    category: str


@dataclass(frozen=True)
class ProblemSet:
    """The problems of one split, validation or test."""

    problems: tuple[Problem, ...]
    split: str  # "validation" | "test"

    def __post_init__(self) -> None:
        if self.split not in ("validation", "test"):
            raise ValueError(f"bad split {self.split!r}")

    def __len__(self) -> int:
        return len(self.problems)


@dataclass(frozen=True, slots=True)
class TokenRecord:
    """The token usage of one request to a role."""

    role: str  # "optimizer" | "executor"
    prompt_tokens: int
    completion_tokens: int
    request_id: str

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be >= 0")


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

    def operators(self, registry: OperatorRegistry) -> tuple[OperatorKind, ...]:
        """The kinds of `registry` a proposer with this config edits with, in
        order; an op `registry` lacks raises `ValueError`."""
        names = self.ops if self.ops is not None else registry.names
        for name in names:
            if name not in registry:
                raise ValueError(f"proposer op {name!r} not in registry")
        return tuple(registry.get(name) for name in names)


# a problem is solved when the output is within this of the expected value
TOLERANCE = 1e-9


class SyntheticEvaluator:
    """Interprets a program over a problem set; reward is the solved fraction.

    It interprets every problem of a request in one `interpret_all` call,
    which orders the program and resolves its operands in one walk for all
    of them, then runs each step once over all their values. Its token
    records' sizes are deterministic functions of payload size."""

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
