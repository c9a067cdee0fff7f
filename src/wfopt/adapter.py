"""Wire protocol for a remote evaluator.

Requests and responses are single JSON documents, newline-delimited over a
child process's standard streams or POSTed over HTTP:

    request:  {"kind": "evaluate", "program": {...}, "params": {"problems": [...]}}
    response: {"reward": r, "traces": [{...}], "usage": {"prompt_tokens": n, "completion_tokens": n}}

A transport sends one encoded request line and returns the decoded reply.
`ExternalEvaluator` encodes its problem list once, when it is built, and
splices it after each request's program, so every request is still exactly
the `json.dumps` of its payload. A reply's traces are decoded by
`trace_from_dict`, one per entry, into `ExecutionTrace` named tuples. The
engine treats a remote evaluator and the synthetic one identically.

The field rules of these documents live in `wfopt.schema`. A bad document
fails at one of three layers: a decoder (`trace_from_dict`,
`problem_from_dict`, `_usage_record`, `SyntheticRoles.handle`) raises
`ValueError` naming the field; `ExternalEvaluator` fails a reply that is
valid JSON but carries bad content with `EvaluationError`, for that request
only; and a reply that breaks the protocol itself raises `AdapterError`
(defined in `wfopt.roles`), as does a reply longer than `MAX_REPLY`, which
is read no further.

Running ``python -m wfopt.adapter``, with no argument, serves the synthetic
evaluator over stdio, which is how the protocol tests exercise both sides.
The engine always proposes in process, so the peer has no proposer and loads
neither numpy nor `wfopt.harness`: a propose request is answered as any
unknown kind is. The peer keeps one `SyntheticRoles` for its lifetime,
decodes a request ending with an earlier one's problem text from its head
(`serve_stdio`), and exits without interpreter finalization. It validates
each request's program before the evaluator sees it, and answers an invalid
one with ``{"error": "invalid program: <violations>"}``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Mapping, Optional, Sequence

from . import schema
from .model import (
    ExecutionTrace,
    OperatorRegistry,
    WorkflowProgram,
    default_registry,
    program_from_dict,
    program_to_dict,
    validate_program,
)
from .roles import (
    AdapterError,
    EvaluationError,
    Problem,
    ProblemSet,
    SyntheticEvaluator,
    TokenRecord,
)

MAX_REPLY = 1 << 24  # the longest reply read: characters of a stdio line, newline included, or HTTP body bytes


def trace_to_dict(trace: ExecutionTrace) -> dict:
    return {
        "values": list(trace.values),
        "inputs": list(trace.input_constants),
        "success": trace.success,
        "output": trace.output,
        "violation": trace.violation,
    }


def trace_from_dict(data: dict) -> ExecutionTrace:
    """Decode one trace of an evaluate reply; bad content raises ValueError.

    All five keys must be present. A failed trace may hold NaN and infinities;
    a successful one has an output and only finite values, which feed the
    magnitude score. JSON integers become floats, and other floats stay as decoded."""
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
    kinds = set(map(type, numbers))
    if not (kinds <= schema.NUMBERS and type(success) is bool
            and (violation is None or type(violation) is str)):
        raise ValueError(f"malformed trace: {data!r}")
    if success and (output is None or not schema.finite(numbers)):
        raise ValueError("successful trace has a non-finite value" if output is not None
                         else "successful trace has no output")
    if int in kinds:
        if not schema.finite(n for n in numbers if type(n) is int):
            raise ValueError("trace has " + schema.TOO_LARGE)
        values, inputs = map(float, values), map(float, inputs)
        output = None if output is None else float(output)
    return ExecutionTrace(tuple(values), tuple(inputs), success, output, violation)


def problem_to_dict(problem: Problem) -> dict:
    return {
        "inputs": dict(problem.inputs),
        "expected": problem.expected,
        "category": problem.category,
    }


def problem_from_dict(entry: object) -> Problem:
    """Decode one problem: an object of `inputs` (an object of numbers),
    `expected` (a number) and an optional string `category`, with any other
    key ignored; anything else raises `ValueError` naming the field."""
    schema.obj(entry, "problem", required=("inputs", "expected"))
    inputs = schema.obj(entry["inputs"], "problem inputs")
    return Problem(
        inputs={k: schema.number(v, f"problem input {k!r}", finite_want="a number") for k, v in inputs.items()},
        expected=schema.number(entry["expected"], "problem expected", finite_want="a number"),
        category=schema.string(entry.get("category", "default"), "problem category"),
    )


def _usage_record(usage: Mapping, request_id: str) -> TokenRecord:
    """Decode an evaluate reply's usage field: each token count, 0 if absent,
    a whole number from 0 to 2**53. Bad content raises ValueError naming the field."""
    schema.obj(usage, "usage")
    counts = []
    for key in ("prompt_tokens", "completion_tokens"):
        value = usage.get(key, 0)
        try:
            counts.append(schema.whole(value, key, 0))
        except schema.FieldError as exc:
            if exc.want.startswith("a count") and value > 0:
                raise ValueError(f"usage {key} is above 2**53") from None
            what = "a whole number" if exc.want == "a whole number" else "a non-negative number"
            raise ValueError(f"usage {key} is not {what}: {exc.got}") from None
    return TokenRecord("executor", *counts, request_id)


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
        import subprocess  # here, not at module level: a peer, which imports this module, never spawns
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
        import subprocess
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


_PROBLEMS_AT = ', "params": {"problems": '  # what an evaluate request's problem list follows


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
        self._request_tail = _PROBLEMS_AT + problems_json + "}}"
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
            if type(reward) not in schema.NUMBERS:
                raise ValueError(f"reward is not a number: {reward!r}")
            reward = float(reward)  # an integer too large for a float raises OverflowError
            if not 0.0 <= reward <= 1.0:
                raise ValueError(f"reward {reward!r} is outside [0, 1]" if schema.finite((reward,))
                                 else f"non-finite reward {reward!r}")
            traces = [trace_from_dict(entry) for entry in schema.listed(response.get("traces", []), "traces")]
            record = _usage_record(response.get("usage", {}), f"exe-{self._request_counter + 1:05d}")
        except schema.FieldError as exc:  # worded as the reply's other faults are
            raise EvaluationError(f"{exc.field} is not {exc.want}: {exc.got}") from None
        except (ValueError, OverflowError) as exc:
            # a well-formed reply with bad content fails this request only
            raise EvaluationError(str(exc)) from None
        self._request_counter += 1
        return reward, traces, record


# ---------------------------------------------------------------------------
# Server side: the synthetic evaluator behind the same protocol.
# ---------------------------------------------------------------------------

class SyntheticRoles:
    """Answers protocol requests with the synthetic evaluator, kept across requests.

    The registry lives as long as the object. The evaluator is kept for the
    last problem list object received, and rebuilt for any other
    (`serve_stdio` passes the same object for the same problem text); a
    caller must not change a list it has passed. The evaluator counts its
    requests, but no response field reports a count, so every response
    equals what a fresh object would give for the same request.
    """

    def __init__(self, registry: Optional[OperatorRegistry] = None):
        self.registry = registry or default_registry()
        self._problem_dicts: Optional[list] = None
        self._evaluator: Optional[SyntheticEvaluator] = None

    def handle(self, payload: object) -> dict:
        """Answer one evaluate request. A program that fails
        `validate_program` against this object's registry gets an in-band
        error, and the evaluator does not see it; so does a request of any
        other kind. A request field that breaks its rule raises `ValueError`
        naming it."""
        request = schema.obj(payload, "request", required=("program",))
        program = program_from_dict(request["program"])
        params = schema.obj(request.get("params", {}), "params")
        kind = request.get("kind")
        if kind != "evaluate":
            return {"error": f"unknown request kind {kind!r}"}
        report = validate_program(program, self.registry)
        if not report.ok:
            return {"error": "invalid program: " + "; ".join(report.violations)}
        problems = schema.obj(params, "params", required=("problems",))["problems"]
        reward, traces, usage = self._evaluator_for(schema.listed(problems, "params.problems")).evaluate(program)
        return {"reward": reward, "traces": [trace_to_dict(t) for t in traces],
                "usage": {"prompt_tokens": usage.prompt_tokens, "completion_tokens": usage.completion_tokens}}

    def _evaluator_for(self, problem_dicts: list) -> SyntheticEvaluator:
        if self._evaluator is None or problem_dicts is not self._problem_dicts:
            problems = tuple(problem_from_dict(entry) for entry in problem_dicts)
            self._evaluator = SyntheticEvaluator(ProblemSet(problems, "validation"), self.registry)
            self._problem_dicts = problem_dicts
        return self._evaluator


def _problem_tail(line: str, payload: object) -> Optional[tuple[str, dict]]:
    """`line`'s text from its last `_PROBLEMS_AT` on, and the params of
    `payload`, the line decoded whole, if they hold only `problems` and that
    text, less `_PROBLEMS_AT` and `}}`, decodes to their value; else None."""
    params = payload.get("params") if type(payload) is dict else None
    at = line.rfind(_PROBLEMS_AT)
    if type(params) is dict and params.keys() == {"problems"} and at >= 0 and line.endswith("}}"):
        try:
            if json.loads(line[at + len(_PROBLEMS_AT):-2]) == params["problems"]:
                return line[at:], params
        except (ValueError, RecursionError):
            pass
    return None


def serve_stdio(registry: Optional[OperatorRegistry] = None) -> None:
    """Answer one JSON request per input line until end of input, with one `SyntheticRoles`.

    A line ending with the problem text of the last line `_problem_tail`
    kept is decoded from its head, closed with `}`, and given the kept params:
    the same text, so the same values, signed zeros included. A line whose
    head does not decode to a non-empty object (`{` alone gives `{}`, though
    the line is no JSON) is decoded whole, so every reply is a whole decode's.
    """
    roles = SyntheticRoles(registry)
    tail, params = None, None  # the kept problem text and params
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            try:
                payload = json.loads(line[: -len(tail)] + "}") if tail and line.endswith(tail) else None
            except (ValueError, RecursionError):
                payload = None
            if payload:
                payload["params"] = params
            else:
                payload = json.loads(line)
                tail, params = _problem_tail(line, payload) or (tail, params)
            response = roles.handle(payload)
        except Exception as exc:  # protocol errors are reported in-band
            response = {"error": str(exc)}
        sys.stdout.write(json.dumps(response) + "\n")
        sys.stdout.flush()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Serve the synthetic evaluator over stdio. The peer takes no argument:
    any is refused, with status 2, before a request is read."""
    args = sys.argv[1:] if argv is None else argv
    if args:
        sys.stderr.write(f"usage: python -m wfopt.adapter\nerror: unrecognized arguments: {' '.join(args)}\n")
        return 2
    serve_stdio()
    return 0


if __name__ == "__main__":
    status = main()
    # every reply was flushed as written, and the peer holds no file, thread or
    # exit hook: skipping interpreter finalization loses nothing, spares close() a wait
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)
