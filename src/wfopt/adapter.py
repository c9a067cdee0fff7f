"""Wire protocol for remote proposer/evaluator implementations.

Requests and responses are single JSON documents, newline-delimited over a
child process's standard streams or POSTed over HTTP:

    request:  {"kind": "propose", "program": {...}, "params": {"count": 8, "seed": 7}}
    response: {"candidates": [{...}], "usage": {"prompt_tokens": n, "completion_tokens": n}}

    request:  {"kind": "evaluate", "program": {...}, "params": {"problems": [...]}}
    response: {"reward": r, "traces": [{...}], "usage": {...}}

A transport sends one encoded request line and returns the decoded reply.
`ExternalEvaluator` encodes its problem list once, when it is built, and
splices it after each request's program, so every request is still exactly
the `json.dumps` of its payload. The engine treats remote and synthetic
implementations identically. An evaluate reply that is valid JSON but
carries bad content (a reward that is not a number in [0, 1], a malformed
trace) fails that one request with `EvaluationError`; a reply that breaks
the protocol itself raises `AdapterError`. A propose reply has no
per-request failure: one that is not an object, reports an error, lacks a
`candidates` list, holds a candidate that does not decode as a program or
carries a bad usage count raises `AdapterError`. So does a reply longer than
`MAX_REPLY`, which is read no further.

Running ``python -m wfopt.adapter`` serves the synthetic roles over stdio,
which is how the protocol tests exercise both sides. The peer keeps one
`SyntheticRoles` for its lifetime and loads numpy only for its first
propose request, so an evaluate-only peer starts without it. It validates
each request's program before either role sees it, and answers an invalid
one with ``{"error": "invalid program: <violations>"}``. The proposer edits
a valid program with dead nodes (nodes that do not feed the output) as the
program pruned of them, so it answers with the pruned program's candidates.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

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
    validate_program,
)

if TYPE_CHECKING:
    import numpy as np


class AdapterError(RuntimeError):
    """Remote role unreachable or speaking a malformed protocol."""


MAX_REPLY = 1 << 24  # the longest reply read: characters of a stdio line, newline included, or HTTP body bytes


def trace_to_dict(trace: ExecutionTrace) -> dict:
    return {
        "values": list(trace.values),
        "inputs": list(trace.input_constants),
        "success": trace.success,
        "output": trace.output,
        "violation": trace.violation,
    }


# bool is an int subclass, but JSON true/false is not a number
_NUMBER_TYPES = frozenset((int, float))


def trace_from_dict(data: dict) -> ExecutionTrace:
    """Decode one trace of an evaluate reply; bad content raises ValueError.

    All five keys must be present. A failed trace may carry any numbers, but
    a successful one must be finite throughout, since its values feed the
    magnitude score.
    """
    if type(data) is not dict:
        raise ValueError(f"trace is not an object: {data!r}")
    try:
        values, inputs, success, output, violation = (
            data["values"], data["inputs"], data["success"], data["output"], data["violation"]
        )
    except KeyError as exc:
        raise ValueError(f"trace lacks {exc.args[0]}") from None
    if type(values) is not list or type(inputs) is not list:
        raise ValueError(f"malformed trace: {data!r}")
    numbers = values + inputs if output is None else values + inputs + [output]
    if not (
        _NUMBER_TYPES.issuperset(map(type, numbers))
        and type(success) is bool
        and (violation is None or type(violation) is str)
    ):
        raise ValueError(f"malformed trace: {data!r}")
    if success and not all(map(math.isfinite, numbers)):
        raise ValueError("successful trace has a non-finite value")
    return ExecutionTrace(
        values=tuple(map(float, values)),
        input_constants=tuple(map(float, inputs)),
        success=success,
        output=None if output is None else float(output),
        violation=violation,
    )


def problem_to_dict(problem: Problem) -> dict:
    return {
        "inputs": dict(problem.inputs),
        "expected": problem.expected,
        "category": problem.category,
    }


def problem_from_dict(entry: Mapping) -> Problem:
    """Decode one problem; keys other than the three it reads are ignored."""
    return Problem(
        inputs={str(k): float(v) for k, v in entry["inputs"].items()},
        expected=float(entry["expected"]),
        category=str(entry.get("category", "default")),
    )


def _token_count(usage: Mapping, key: str) -> int:
    value = usage.get(key, 0)
    if type(value) not in _NUMBER_TYPES or not 0 <= value < math.inf:
        raise ValueError(f"usage {key} is not a non-negative number: {value!r}")
    return int(value)


def _usage_record(role: str, usage: Mapping, request_id: str) -> TokenRecord:
    """Decode a reply's usage field; bad content raises ValueError."""
    if not isinstance(usage, Mapping):
        raise ValueError(f"usage is not an object: {usage!r}")
    return TokenRecord(
        role=role,
        prompt_tokens=_token_count(usage, "prompt_tokens"),
        completion_tokens=_token_count(usage, "completion_tokens"),
        request_id=request_id,
    )


class _Transport:
    def request(self, line: str) -> dict:
        """Send one encoded request (a JSON document, no newline); return the decoded reply."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class StdioTransport(_Transport):
    """Spawn a child process and exchange one JSON line per request.

    A request that fails mid-line (the pipe fails, the stream closes, the
    reply is not UTF-8 or is longer than `MAX_REPLY`) leaves the two ends
    out of step: what is left of that line would be read as the next reply.
    So the first such failure breaks the transport, and every later request
    raises `AdapterError` naming it, without touching the pipe. A whole line
    that is not a valid reply leaves the ends in step and breaks nothing.
    """

    def __init__(self, command: Sequence[str]):
        self._broken: Optional[str] = None  # the failure that broke the transport
        try:
            self._proc = subprocess.Popen(
                list(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
        except OSError as exc:
            raise AdapterError(f"cannot start external role: {exc}") from None

    def _break(self, reason: str) -> AdapterError:
        self._broken = reason
        return AdapterError(reason)

    def request(self, line: str) -> dict:
        if self._broken is not None:
            raise AdapterError(f"external role transport broken by an earlier failure: {self._broken}")
        assert self._proc.stdin and self._proc.stdout
        try:
            self._proc.stdin.write(line + "\n")
            self._proc.stdin.flush()
            reply = self._proc.stdout.readline(MAX_REPLY + 1)
        except (BrokenPipeError, OSError) as exc:
            raise self._break(f"external role pipe failed: {exc}") from None
        except UnicodeDecodeError as exc:
            raise self._break(f"malformed response line: {exc}") from None
        if not reply:
            raise self._break("external role closed the stream")
        if len(reply) > MAX_REPLY:
            raise self._break(f"response line longer than {MAX_REPLY} characters")
        try:
            return json.loads(reply)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
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

    def request(self, line: str) -> dict:
        import urllib.request  # here, not at module level: it pulls in http.client and ssl

        req = urllib.request.Request(
            self.address,
            data=line.encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = resp.read(MAX_REPLY + 1)
        except OSError as exc:
            raise AdapterError(f"external role at {self.address} unreachable: {exc}") from None
        if len(body) > MAX_REPLY:
            raise AdapterError(f"response from {self.address} longer than {MAX_REPLY} bytes")
        try:
            return json.loads(body.decode())
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise AdapterError(f"malformed response from {self.address}: {exc}") from None


class ExternalProposer:
    """Proposer role backed by a remote process; mirrors SyntheticProposer."""

    def __init__(self, transport: _Transport):
        self.transport = transport
        self._request_counter = 0

    def propose(self, program: WorkflowProgram, count: int, rng: np.random.Generator):
        seed = int(rng.integers(2**31 - 1))
        response = self.transport.request(json.dumps(
            {
                "kind": "propose",
                "program": program_to_dict(program),
                "params": {"count": count, "seed": seed},
            }
        ))
        if not isinstance(response, dict):
            raise AdapterError("propose response is not a JSON object")
        if "error" in response:
            raise AdapterError(f"external proposer failed: {response['error']}")
        entries = response.get("candidates")
        if type(entries) is not list:
            raise AdapterError(f"propose response 'candidates' is missing or not a list: {entries!r}")
        try:
            candidates = [program_from_dict(entry) for entry in entries]
            record = _usage_record("optimizer", response.get("usage", {}), f"opt-{self._request_counter + 1:05d}")
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            # there is no per-request failure on this side: a bad reply ends the run
            raise AdapterError(f"malformed propose response: {exc!r}") from None
        self._request_counter += 1
        return candidates, record


class ExternalEvaluator:
    """Evaluator role backed by a remote process; mirrors SyntheticEvaluator."""

    def __init__(self, transport: _Transport, problems: ProblemSet):
        if not problems.problems:
            raise ValueError("evaluator needs a non-empty problem set")
        self.transport = transport
        self.problems = problems
        # Every request carries the same problem list, so its JSON is encoded
        # once and spliced after each program's: `json.dumps` of the whole
        # request gives these bytes, with its default separators.
        problems_json = json.dumps([problem_to_dict(p) for p in problems.problems])
        self._request_tail = ', "params": {"problems": ' + problems_json + "}}"
        self._request_counter = 0

    def evaluate(self, program: WorkflowProgram):
        response = self.transport.request(
            '{"kind": "evaluate", "program": ' + json.dumps(program_to_dict(program)) + self._request_tail
        )
        if not isinstance(response, dict):
            raise AdapterError("evaluate response is not a JSON object")
        if "error" in response:
            raise EvaluationError(str(response["error"]))
        if "reward" not in response:
            raise AdapterError("evaluate response missing 'reward'")
        try:
            reward = response["reward"]
            if type(reward) not in _NUMBER_TYPES:
                raise ValueError(f"reward is not a number: {reward!r}")
            reward = float(reward)
            if not math.isfinite(reward):
                raise ValueError(f"non-finite reward {reward!r}")
            if not 0.0 <= reward <= 1.0:
                raise ValueError(f"reward {reward!r} is outside [0, 1]")
            entries = response.get("traces", [])
            if type(entries) is not list:
                raise ValueError(f"traces is not a list: {entries!r}")
            traces = [trace_from_dict(entry) for entry in entries]
            record = _usage_record("executor", response.get("usage", {}), f"exe-{self._request_counter + 1:05d}")
        except (ValueError, OverflowError) as exc:
            # a well-formed reply with bad content fails this request only
            raise EvaluationError(str(exc)) from None
        self._request_counter += 1
        return reward, traces, record


# ---------------------------------------------------------------------------
# Server side: the synthetic roles behind the same protocol.
# ---------------------------------------------------------------------------

class SyntheticRoles:
    """Answers protocol requests with the synthetic roles, kept across requests.

    The registry and the proposer live as long as the object. The evaluator
    is kept for the last problem list received and rebuilt only when a
    request carries a different list. The roles count their requests, but no
    response field reports a count, so every response equals what a fresh
    object would give for the same request.
    """

    def __init__(self, registry: Optional[OperatorRegistry] = None, proposer_config: ProposerConfig = ProposerConfig()):
        self.registry = registry or default_registry()
        self.proposer = SyntheticProposer(self.registry, proposer_config)
        self._problem_dicts: Optional[list] = None
        self._evaluator: Optional[SyntheticEvaluator] = None
        self._reusable = False

    def handle(self, payload: Mapping) -> dict:
        """Answer one request. A program that fails `validate_program`
        against this object's registry gets an in-band error, and neither
        role sees it; one that passes is remembered as valid for that
        registry, so the proposer's own check of it is the verdict lookup.
        A propose request for a program with dead nodes gets the candidates
        of the program pruned of them."""
        kind = payload.get("kind")
        program = program_from_dict(payload["program"])
        params = payload.get("params", {})
        if kind not in ("propose", "evaluate"):
            return {"error": f"unknown request kind {kind!r}"}
        report = validate_program(program, self.registry)
        if not report.ok:
            return {"error": "invalid program: " + "; ".join(report.violations)}
        if kind == "propose":
            import numpy as np  # here, not at module level: an evaluate-only peer starts without it

            rng = np.random.default_rng(int(params.get("seed", 0)))
            candidates, usage = self.proposer.propose(program, int(params.get("count", 8)), rng)
            return {
                "candidates": [program_to_dict(c) for c in candidates],
                "usage": {"prompt_tokens": usage.prompt_tokens, "completion_tokens": usage.completion_tokens},
            }
        reward, traces, usage = self._evaluator_for(params["problems"]).evaluate(program)
        return {
            "reward": reward,
            "traces": [trace_to_dict(t) for t in traces],
            "usage": {"prompt_tokens": usage.prompt_tokens, "completion_tokens": usage.completion_tokens},
        }

    def _evaluator_for(self, problem_dicts: list) -> SyntheticEvaluator:
        if not self._reusable or problem_dicts != self._problem_dicts:
            problems = tuple(problem_from_dict(entry) for entry in problem_dicts)
            self._evaluator = SyntheticEvaluator(ProblemSet(problems, "validation"), self.registry)
            self._problem_dicts = problem_dicts
            # `==` takes -0.0 for 0.0, and the sign of a zero input can reach
            # a trace value; a list with a zero input is rebuilt every time
            self._reusable = all(v != 0.0 for p in problems for v in p.inputs.values())
        return self._evaluator


def serve_stdio(registry: Optional[OperatorRegistry] = None, proposer_config: ProposerConfig = ProposerConfig()) -> None:
    """Answer one JSON request per input line until end of input, with one `SyntheticRoles`."""
    roles = SyntheticRoles(registry, proposer_config)
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            response = roles.handle(json.loads(line))
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
