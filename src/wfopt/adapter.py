"""Wire protocol for remote proposer/evaluator implementations.

Requests and responses are single JSON documents, newline-delimited over a
child process's standard streams or POSTed over HTTP:

    request:  {"kind": "propose", "program": {...}, "params": {"count": 8, "seed": 7}}
    response: {"candidates": [{...}], "usage": {"prompt_tokens": n, "completion_tokens": n}}

    request:  {"kind": "evaluate", "program": {...}, "params": {"problems": [...]}}
    response: {"reward": r, "traces": [{...}], "usage": {...}}

The engine treats remote and synthetic implementations identically; running
``python -m wfopt.adapter`` serves the synthetic roles over stdio, which is
how the protocol tests exercise both sides.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import urllib.request
from typing import Mapping, Optional, Sequence

import numpy as np

from .harness import (
    EvaluationError,
    Problem,
    ProblemSet,
    ProposerConfig,
    SyntheticEvaluator,
    SyntheticProposer,
    TokenRecord,
)
from .model import (
    ExecutionTrace,
    OperatorRegistry,
    WorkflowProgram,
    default_registry,
    program_from_dict,
    program_to_dict,
)


class AdapterError(RuntimeError):
    """Remote role unreachable or speaking a malformed protocol."""


def trace_to_dict(trace: ExecutionTrace) -> dict:
    return {
        "values": list(trace.values),
        "inputs": list(trace.input_constants),
        "success": trace.success,
        "output": trace.output,
        "violation": trace.violation,
    }


def trace_from_dict(data: Mapping) -> ExecutionTrace:
    return ExecutionTrace(
        values=tuple(float(v) for v in data["values"]),
        input_constants=tuple(float(v) for v in data["inputs"]),
        success=bool(data["success"]),
        output=None if data.get("output") is None else float(data["output"]),
        violation=data.get("violation"),
    )


def problem_to_dict(problem: Problem) -> dict:
    return {
        "inputs": dict(problem.inputs),
        "expected": problem.expected,
        "category": problem.category,
        "constants": list(problem.constants),
    }


def _usage_record(role: str, usage: Mapping, request_id: str) -> TokenRecord:
    return TokenRecord(
        role=role,
        prompt_tokens=int(usage.get("prompt_tokens", 0)),
        completion_tokens=int(usage.get("completion_tokens", 0)),
        request_id=request_id,
    )


class _Transport:
    def request(self, payload: dict) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


class StdioTransport(_Transport):
    """Spawn a child process and exchange one JSON line per request."""

    def __init__(self, command: Sequence[str]):
        try:
            self._proc = subprocess.Popen(
                list(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
        except OSError as exc:
            raise AdapterError(f"cannot start external role: {exc}") from None

    def request(self, payload: dict) -> dict:
        assert self._proc.stdin and self._proc.stdout
        try:
            self._proc.stdin.write(json.dumps(payload) + "\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise AdapterError(f"external role pipe failed: {exc}") from None
        if not line:
            raise AdapterError("external role closed the stream")
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise AdapterError(f"malformed response line: {exc}") from None

    def close(self) -> None:
        """End the peer's input and reap it; a peer that does not exit is killed."""
        if self._proc.stdin:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._proc.stdout:
            self._proc.stdout.close()


class HttpTransport(_Transport):
    def __init__(self, address: str, timeout: float = 30.0):
        self.address = address
        self.timeout = timeout

    def request(self, payload: dict) -> dict:
        req = urllib.request.Request(
            self.address,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode())
        except OSError as exc:
            raise AdapterError(f"external role at {self.address} unreachable: {exc}") from None


class ExternalProposer:
    """Proposer role backed by a remote process; mirrors SyntheticProposer."""

    def __init__(self, transport: _Transport):
        self.transport = transport
        self._request_counter = 0

    def propose(self, program: WorkflowProgram, count: int, rng: np.random.Generator):
        seed = int(rng.integers(2**31 - 1))
        response = self.transport.request(
            {
                "kind": "propose",
                "program": program_to_dict(program),
                "params": {"count": count, "seed": seed},
            }
        )
        if "candidates" not in response:
            raise AdapterError("propose response missing 'candidates'")
        candidates = [program_from_dict(c) for c in response["candidates"]]
        self._request_counter += 1
        record = _usage_record("optimizer", response.get("usage", {}), f"opt-{self._request_counter:05d}")
        return candidates, record


class ExternalEvaluator:
    """Evaluator role backed by a remote process; mirrors SyntheticEvaluator."""

    def __init__(self, transport: _Transport, problems: ProblemSet):
        if not problems.problems:
            raise ValueError("evaluator needs a non-empty problem set")
        self.transport = transport
        self.problems = problems
        self._request_counter = 0

    def evaluate(self, program: WorkflowProgram):
        response = self.transport.request(
            {
                "kind": "evaluate",
                "program": program_to_dict(program),
                "params": {"problems": [problem_to_dict(p) for p in self.problems.problems]},
            }
        )
        if "error" in response:
            raise EvaluationError(str(response["error"]))
        if "reward" not in response:
            raise AdapterError("evaluate response missing 'reward'")
        reward = float(response["reward"])
        if not math.isfinite(reward):
            raise EvaluationError(f"non-finite reward {reward!r}")
        traces = [trace_from_dict(t) for t in response.get("traces", [])]
        self._request_counter += 1
        record = _usage_record("executor", response.get("usage", {}), f"exe-{self._request_counter:05d}")
        return reward, traces, record


# ---------------------------------------------------------------------------
# Server side: the synthetic roles behind the same protocol.
# ---------------------------------------------------------------------------

def handle_request(
    payload: Mapping,
    registry: Optional[OperatorRegistry] = None,
    proposer_config: ProposerConfig = ProposerConfig(),
) -> dict:
    registry = registry or default_registry()
    kind = payload.get("kind")
    program = program_from_dict(payload["program"])
    params = payload.get("params", {})
    if kind == "propose":
        proposer = SyntheticProposer(registry, proposer_config)
        rng = np.random.default_rng(int(params.get("seed", 0)))
        candidates, usage = proposer.propose(program, int(params.get("count", 8)), rng)
        return {
            "candidates": [program_to_dict(c) for c in candidates],
            "usage": {"prompt_tokens": usage.prompt_tokens, "completion_tokens": usage.completion_tokens},
        }
    if kind == "evaluate":
        problems = tuple(
            Problem(
                inputs={str(k): float(v) for k, v in entry["inputs"].items()},
                expected=float(entry["expected"]),
                category=str(entry.get("category", "default")),
                constants=tuple(float(x) for x in entry.get("constants", [])),
            )
            for entry in params["problems"]
        )
        evaluator = SyntheticEvaluator(ProblemSet(problems, "validation"), registry)
        reward, traces, usage = evaluator.evaluate(program)
        return {
            "reward": reward,
            "traces": [trace_to_dict(t) for t in traces],
            "usage": {"prompt_tokens": usage.prompt_tokens, "completion_tokens": usage.completion_tokens},
        }
    return {"error": f"unknown request kind {kind!r}"}


def serve_stdio(registry: Optional[OperatorRegistry] = None, proposer_config: ProposerConfig = ProposerConfig()) -> None:
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            response = handle_request(payload, registry, proposer_config)
        except Exception as exc:  # protocol errors are reported in-band
            response = {"error": str(exc)}
        sys.stdout.write(json.dumps(response) + "\n")
        sys.stdout.flush()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Serve the synthetic roles over stdio.")
    parser.add_argument("--ops", nargs="*", default=None, help="restrict the proposer's operator set")
    parser.add_argument("--max-nodes", type=int, default=6)
    args = parser.parse_args(argv)
    config = ProposerConfig(
        ops=tuple(args.ops) if args.ops else None,
        max_operator_nodes=args.max_nodes,
    )
    serve_stdio(proposer_config=config)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
