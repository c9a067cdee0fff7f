import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wfopt.adapter import (
    AdapterError,
    ExternalEvaluator,
    HttpTransport,
    StdioTransport,
    SyntheticRoles,
    problem_to_dict,
    serve_stdio,
    trace_from_dict,
    trace_to_dict,
)
from wfopt import adapter, driver
from wfopt.config import config_from_dict
from wfopt.constraints import ConstraintScorer
from wfopt.harness import (
    EvaluationError,
    Problem,
    ProblemSet,
    ProposerConfig,
    SyntheticEvaluator,
    SyntheticProposer,
    make_synthetic_suite,
)
from wfopt.search import Optimizer, SearchBudget
from wfopt.model import (
    Edge, ExecutionTrace, Node, WorkflowProgram, canonical_key, default_registry, interpret, program_from_dict,
    program_to_dict,
)

from conftest import binary, chain


PROBLEMS = ProblemSet(
    (
        Problem(inputs={"x0": 2.0, "x1": 3.0}, expected=5.0, category="c"),
        Problem(inputs={"x0": 1.0, "x1": 1.0}, expected=2.0, category="c"),
    ),
    "validation",
)
ADD = program_to_dict(binary("add", "input", "input"))


class TestHandleRequest:
    def test_propose_matches_synthetic(self, registry):
        program = binary("add", "input", "input")
        config = ProposerConfig(ops=("add", "mul", "neg"))
        response = SyntheticRoles(registry, config).handle(
            {"kind": "propose", "program": program_to_dict(program), "params": {"count": 5, "seed": 9}}
        )
        local, _ = SyntheticProposer(registry, config).propose(program, 5, np.random.default_rng(9))
        from wfopt.model import program_from_dict

        got = [canonical_key(program_from_dict(c)) for c in response["candidates"]]
        assert got == [canonical_key(p) for p in local]
        assert response["usage"]["prompt_tokens"] > 0

    def test_evaluate_matches_synthetic(self, registry):
        program = binary("add", "input", "input")
        response = SyntheticRoles(registry).handle(
            {
                "kind": "evaluate",
                "program": program_to_dict(program),
                "params": {"problems": [problem_to_dict(p) for p in PROBLEMS.problems]},
            }
        )
        local_reward, local_traces, _ = SyntheticEvaluator(PROBLEMS, registry).evaluate(program)
        assert response["reward"] == local_reward == 1.0
        assert [trace_from_dict(t) for t in response["traces"]] == local_traces

    def test_unknown_kind_reports_error(self, registry):
        response = SyntheticRoles(registry).handle(
            {"kind": "destroy", "program": program_to_dict(binary("add", "input", "input"))}
        )
        assert "error" in response

    def test_in_band_error_raises_evaluation_error(self):
        class _ErrTransport:
            def request(self, line):
                return {"error": "model refused"}

        evaluator = ExternalEvaluator(_ErrTransport(), PROBLEMS)
        with pytest.raises(EvaluationError, match="model refused"):
            evaluator.evaluate(binary("add", "input", "input"))

    def test_evaluate_request_problem_fields(self, registry):
        sent = []

        class _Recorder:
            def request(self, line):
                sent.append(json.loads(line))
                return SyntheticRoles(registry).handle(json.loads(line))

        reward, _, _ = ExternalEvaluator(_Recorder(), PROBLEMS).evaluate(binary("add", "input", "input"))
        assert reward == 1.0
        problems = sent[0]["params"]["problems"]
        assert [set(p) for p in problems] == [{"inputs", "expected", "category"}] * len(PROBLEMS)
        assert problems[0] == {"inputs": {"x0": 2.0, "x1": 3.0}, "expected": 5.0, "category": "c"}

    @pytest.mark.parametrize("kind", ["propose", "evaluate"])
    def test_invalid_program_is_refused(self, registry, kind):
        """Neither role sees a program that fails validation; it used to raise KeyError: 'ghost'."""
        request = _ghost_request(kind)
        assert SyntheticRoles(registry).handle(request) == {"error": GHOST_ERROR}

    def test_invalid_program_is_refused_over_stdio(self):
        """Both request kinds get the in-band error from a `python -m wfopt.adapter` peer, which then
        answers a valid request as before."""
        valid = _evaluate(binary("add", "input", "input"), PROBLEMS.problems)
        transport = StdioTransport([sys.executable, "-m", "wfopt.adapter"])
        try:
            assert transport.request(json.dumps(_ghost_request("propose"))) == {"error": GHOST_ERROR}
            assert transport.request(json.dumps(_ghost_request("evaluate"))) == {"error": GHOST_ERROR}
            assert transport.request(json.dumps(valid))["reward"] == 1.0
        finally:
            transport.close()
        with pytest.raises(EvaluationError, match="invalid program"):
            ExternalEvaluator(_Direct(), PROBLEMS).evaluate(_ghost_program())

    def test_program_with_a_dead_node_gets_its_pruned_candidates(self, registry):
        """A valid program with a node that feeds nothing is proposed from as
        the program pruned of it; the prompt still counts the program sent."""
        pruned = chain("neg", "neg", n_roots=2)
        dead = WorkflowProgram(pruned.nodes + (Node("d0", "neg"),), pruned.edges + (Edge("x1", "d0", 0),),
                               pruned.roots, pruned.output)
        config = ProposerConfig(ops=("add", "mul", "neg"))

        def propose(program):
            request = {"kind": "propose", "program": program_to_dict(program), "params": {"count": 5, "seed": 9}}
            return SyntheticRoles(registry, config).handle(request)

        got, want = propose(dead), propose(pruned)
        assert len(got["candidates"]) == 5
        assert got["candidates"] == want["candidates"]
        assert got["usage"] == dict(want["usage"], prompt_tokens=want["usage"]["prompt_tokens"] + 12 + 6)

    def test_problem_keys_it_does_not_read_are_ignored(self, registry):
        """A client that still sends each problem's `constants` gets the same answer."""
        program = binary("add", "input", "input")
        request = _evaluate(program, PROBLEMS.problems)
        older = json.loads(json.dumps(request))
        for entry in older["params"]["problems"]:
            entry["constants"] = list(entry["inputs"].values())
        assert SyntheticRoles(registry).handle(older) == SyntheticRoles(registry).handle(request)

    @pytest.mark.parametrize("entry, message", [
        ({"inputs": {"x0": "2.5"}, "expected": 2.5}, "problem input 'x0' must be a number, got '2.5'"),
        ({"inputs": {"x0": "nan"}, "expected": 2.5}, "problem input 'x0' must be a number, got 'nan'"),
        ({"inputs": {"x0": math.nan}, "expected": 2.5}, "problem input 'x0' must be a number, got nan"),
        ({"inputs": {"x0": 1e400}, "expected": 2.5}, "problem input 'x0' must be a number, got inf"),
        ({"inputs": {"x0": 10**400}, "expected": 2.5},
         "problem input 'x0' must be a number, got an integer too large for a float"),
        ({"inputs": {"x0": True}, "expected": 2.5}, "problem input 'x0' must be a number, got True"),
        ({"inputs": [2.5], "expected": 2.5}, "problem inputs must be an object, got [2.5]"),
        ({"inputs": {"x0": 2.5}, "expected": True}, "problem expected must be a number, got True"),
        ({"inputs": {"x0": 2.5}, "expected": "-2.5"}, "problem expected must be a number, got '-2.5'"),
        ({"inputs": {"x0": 2.5}, "expected": 2.5, "category": None}, "problem category must be a string, got None"),
        ({"inputs": {"x0": 2.5}, "expected": 2.5, "category": 3}, "problem category must be a string, got 3"),
        ({}, "problem lacks 'inputs'"),
        ({"inputs": {"x0": 2.5}}, "problem lacks 'expected'"),
        (None, "problem must be an object, got None"),
        ([{"x0": 2.5}, 2.5], "problem must be an object, got [{'x0': 2.5}, 2.5]"),
    ], ids=["string-input", "nan-string-input", "nan-input", "overflowing-input", "huge-int-input", "bool-input",
            "list-inputs", "bool-expected", "string-expected", "null-category", "number-category", "empty",
            "no-expected", "null", "list"])
    def test_malformed_problem_is_refused_in_band(self, registry, monkeypatch, entry, message):
        """A problem field that is no finite JSON number (or, for the category, no
        string) is refused by name, and the peer's answer is the in-band error
        in strict JSON: a "nan" input converted to a float would put a bare NaN
        in the reply."""
        with pytest.raises(ValueError) as raised:
            adapter.problem_from_dict(entry)
        assert str(raised.value) == message
        request = _evaluate(chain("neg"), ())
        request["params"]["problems"] = [entry]
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request) + "\n"))
        monkeypatch.setattr(sys, "stdout", stdout)
        serve_stdio(registry)
        assert json.loads(stdout.getvalue(), parse_constant=_no_constant) == {"error": message}

    @pytest.mark.parametrize("request_, message", [
        ([1], "request must be an object, got [1]"),
        ("evaluate", "request must be an object, got 'evaluate'"),
        ({"kind": "evaluate", "program": ADD, "params": [1]}, "params must be an object, got [1]"),
        ({"kind": "evaluate", "program": ADD, "params": {"problems": 5}}, "params.problems must be a list, got 5"),
        ({"kind": "evaluate", "program": ADD}, "params lacks 'problems'"),
        ({"kind": "propose", "program": ADD, "params": {"seed": 1.7}}, "params.seed must be a whole number, got 1.7"),
        ({"kind": "propose", "program": ADD, "params": {"seed": True}}, "params.seed must be an integer, got True"),
        ({"kind": "propose", "program": ADD, "params": {"seed": -1}},
         "params.seed must be a count from 0 to 2**53, got -1"),
        ({"kind": "propose", "program": ADD, "params": {"count": 2.9}},
         "params.count must be a whole number, got 2.9"),
        ({"kind": "propose", "program": ADD, "params": {"count": 0}},
         "params.count must be a count from 1 to 2**53, got 0"),
        ({"kind": "propose", "program": ADD, "params": {"count": 1e300}},
         "params.count must be a count from 1 to 2**53, got 1e+300"),
        ({"kind": "propose", "program": ADD, "params": {"count": 10**30}},
         f"params.count must be a count from 1 to 2**53, got {10**30}"),
    ], ids=["list", "string", "list-params", "number-problems", "no-params", "fractional-seed", "bool-seed",
            "negative-seed", "fractional-count", "zero-count", "huge-float-count", "huge-count"])
    def test_malformed_request_is_refused_by_name(self, registry, monkeypatch, request_, message):
        """A request that is no object, or whose params, problems, seed or
        count breaks its rule, raises `ValueError` naming the field, which the
        stdio peer answers in band; the peer then answers a valid request."""
        with pytest.raises(ValueError) as raised:
            SyntheticRoles(registry).handle(json.loads(json.dumps(request_)))
        assert str(raised.value) == message
        valid = _propose(binary("add", "input", "input"), 5, 9)
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request_) + "\n" + json.dumps(valid) + "\n"))
        monkeypatch.setattr(sys, "stdout", stdout)
        serve_stdio(registry)
        refused, answered = map(json.loads, stdout.getvalue().splitlines())
        assert refused == {"error": message}
        assert answered == SyntheticRoles(registry).handle(valid)

    @pytest.mark.parametrize("shape, bad", [({"vector": 0}, 0), ({"vector": -3}, -3), ({"matrix": [0, 2]}, 0),
                                            ({"matrix": [2, -1]}, -1)],
                             ids=["zero-vector", "negative-vector", "zero-rows", "negative-columns"])
    def test_shape_dimension_below_one_is_refused_in_band(self, registry, monkeypatch, shape, bad):
        """A shape dimension is a count from 1: a program declaring one below
        that is refused by name, by the decoder and in the peer's answer."""
        data = program_to_dict(chain("neg"))
        data["nodes"][0]["shape"] = shape
        message = f"a shape dimension must be a count from 1 to 2**53, got {bad}"
        with pytest.raises(ValueError) as raised:
            program_from_dict(data)
        assert str(raised.value) == message
        request = _evaluate(chain("neg"), PROBLEMS.problems)
        request["program"] = data
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request) + "\n"))
        monkeypatch.setattr(sys, "stdout", stdout)
        serve_stdio(registry)
        assert json.loads(stdout.getvalue()) == {"error": message}

    def test_unbound_root_is_refused_in_band_unquoted(self, registry, monkeypatch):
        """A problem that binds no value to a root of the program gets the
        interpreter's message as it reads, with no quotes around it."""
        request = _evaluate(binary("add", "input", "input"), ())
        request["params"]["problems"] = [{"inputs": {"x0": 2.0}, "expected": 2.0}]
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request) + "\n"))
        monkeypatch.setattr(sys, "stdout", stdout)
        serve_stdio(registry)
        assert json.loads(stdout.getvalue()) == {"error": "no input value for root 'x1'"}

    def test_well_formed_problem_reads_as_before(self):
        problem = adapter.problem_from_dict({"inputs": {"x0": 2, "x1": -0.0}, "expected": 5})
        assert problem == Problem(inputs={"x0": 2.0, "x1": -0.0}, expected=5.0, category="default")
        assert [type(v) for v in problem.inputs.values()] == [float, float] and type(problem.expected) is float
        assert math.copysign(1.0, problem.inputs["x1"]) == -1.0


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


GOOD_TRACE = {"values": [5.0], "inputs": [2.0, 3.0], "success": True, "output": 5.0, "violation": None}

# evaluate replies that are valid JSON but carry bad content, and the failure each one logs
BAD_CONTENT = [
    pytest.param({"reward": math.nan}, "non-finite reward nan", id="nan"),
    pytest.param({"reward": math.inf}, "non-finite reward inf", id="inf"),
    pytest.param({"reward": -math.inf}, "non-finite reward -inf", id="-inf"),
    pytest.param({"reward": 1.5}, "reward 1.5 is outside [0, 1]", id="above-one"),
    pytest.param({"reward": -0.1}, "reward -0.1 is outside [0, 1]", id="below-zero"),
    pytest.param({"reward": "high"}, "reward is not a number: 'high'", id="string"),
    pytest.param({"reward": None}, "reward is not a number: None", id="null"),
    pytest.param({"reward": True}, "reward is not a number: True", id="true"),
    pytest.param({"reward": [0.5]}, "reward is not a number: [0.5]", id="list"),
    pytest.param({"reward": 10**400}, "int too large to convert to float", id="huge-int"),
    pytest.param({"traces": None}, "traces is not a list: None", id="traces-null"),
    *(
        pytest.param({"traces": [trace]}, f"malformed trace: {trace!r}", id=name)
        for name, trace in [
            ("values-string", dict(GOOD_TRACE, values="5")),
            ("input-string", dict(GOOD_TRACE, inputs=[2.0, "3"])),
            ("output-string", dict(GOOD_TRACE, output="5")),
            ("success-string", dict(GOOD_TRACE, success="yes")),
            ("violation-number", dict(GOOD_TRACE, violation=3)),
        ]
    ),
    pytest.param({"traces": [{k: v for k, v in GOOD_TRACE.items() if k != "violation"}]},
                 "trace lacks violation", id="trace-lacks-key"),
    pytest.param({"traces": [GOOD_TRACE, [5.0]]}, "trace is not an object: [5.0]", id="trace-list"),
    pytest.param({"traces": [dict(GOOD_TRACE, values=[math.nan])]}, "successful trace has a non-finite value",
                 id="success-nan-value"),
    pytest.param({"traces": [dict(GOOD_TRACE, output=math.inf)]}, "successful trace has a non-finite value",
                 id="success-inf-output"),
    # the interpreter never makes a successful trace without an output
    pytest.param({"traces": [dict(GOOD_TRACE, output=None)]}, "successful trace has no output",
                 id="success-null-output"),
    # a failed trace may hold NaN and infinities, but no number a float cannot hold
    pytest.param({"traces": [dict(GOOD_TRACE, success=False, values=[10**400], output=None)]},
                 "trace has an integer too large for a float", id="failed-huge-int"),
    pytest.param({"usage": {"prompt_tokens": "many"}}, "usage prompt_tokens is not a non-negative number: 'many'",
                 id="usage-string"),
    pytest.param({"usage": {"completion_tokens": -3}}, "usage completion_tokens is not a non-negative number: -3",
                 id="usage-negative"),
    # counts above 2**53: a huge one would overflow the run's summary
    pytest.param({"usage": {"prompt_tokens": 10**400}}, "usage prompt_tokens is above 2**53", id="usage-huge-int"),
    pytest.param({"usage": {"completion_tokens": 2**53 + 1}}, "usage completion_tokens is above 2**53",
                 id="usage-above-2**53"),
    pytest.param({"usage": {"prompt_tokens": 1e300}}, "usage prompt_tokens is above 2**53", id="usage-huge-float"),
    # a fractional count would be logged truncated, and the report refuses it
    pytest.param({"usage": {"prompt_tokens": 1.5}}, "usage prompt_tokens is not a whole number: 1.5",
                 id="usage-fraction"),
    pytest.param({"usage": {"completion_tokens": 2.9}}, "usage completion_tokens is not a whole number: 2.9",
                 id="usage-larger-fraction"),
]


class TestNonFiniteReward:
    """An evaluate reply that is valid JSON but carries bad content is an evaluation failure."""

    class _Transport:
        def __init__(self, reply):
            self.reply = reply

        def request(self, line):
            # what json.loads makes of a peer that prints this reply, NaN and Infinity included
            return json.loads(json.dumps(self.reply))

    @staticmethod
    def reply(overrides):
        return dict({"reward": 1.0, "traces": [GOOD_TRACE], "usage": {"prompt_tokens": 3}}, **overrides)

    def test_good_reply_is_accepted(self):
        failed = dict(GOOD_TRACE, values=[math.inf], success=False, output=None, violation="overflow")
        reply = self.reply({"traces": [GOOD_TRACE, failed]})
        reward, traces, record = ExternalEvaluator(self._Transport(reply), PROBLEMS).evaluate(
            binary("add", "input", "input"))
        assert reward == 1.0
        assert [t.success for t in traces] == [True, False]
        assert (record.prompt_tokens, record.completion_tokens) == (3, 0)

    @pytest.mark.parametrize("overrides, failure", BAD_CONTENT)
    def test_raises_evaluation_error(self, overrides, failure):
        evaluator = ExternalEvaluator(self._Transport(self.reply(overrides)), PROBLEMS)
        with pytest.raises(EvaluationError) as raised:
            evaluator.evaluate(binary("add", "input", "input"))
        assert str(raised.value) == failure

    def test_largest_token_count_is_accepted(self):
        reply = self.reply({"usage": {"prompt_tokens": 2**53, "completion_tokens": float(2**53)}})
        _, _, record = ExternalEvaluator(self._Transport(reply), PROBLEMS).evaluate(binary("add", "input", "input"))
        assert (record.prompt_tokens, record.completion_tokens) == (2**53, 2**53)

    @pytest.mark.parametrize("reply", [{"traces": []}, [1.0], "reward"], ids=["no-reward", "list", "string"])
    def test_protocol_break_raises_adapter_error(self, reply):
        evaluator = ExternalEvaluator(self._Transport(reply), PROBLEMS)
        with pytest.raises(AdapterError):
            evaluator.evaluate(binary("add", "input", "input"))

    @pytest.mark.parametrize("overrides, failure", BAD_CONTENT)
    def test_run_continues_with_zero_reward(self, registry, overrides, failure):
        config = ProposerConfig(ops=("add", "mul", "neg"), max_operator_nodes=2)
        suite = make_synthetic_suite(seed=0, n_problems=10, proposer_config=config, target_edits=2)
        optimizer = Optimizer(
            suite.initial_program,
            SyntheticProposer(registry, config),
            ExternalEvaluator(self._Transport(self.reply(overrides)), suite.validation),
            ConstraintScorer(registry, library=None, category="cat0"),
            budget=SearchBudget(rounds=2, simulations_per_round=3, seed=0),
        )
        optimizer.run()
        simulated = optimizer.log.by_event("simulated")
        assert len(simulated) > 1
        for record in simulated:
            assert record["reward"] == 0.0
            assert record["failure"] == failure


def _evaluate(program, problems):
    return {"kind": "evaluate", "program": program_to_dict(program),
            "params": {"problems": [problem_to_dict(p) for p in problems]}}


def _ghost_program():
    """add(x0, x1) with one more edge into slot 0, from a node the program lacks."""
    program = binary("add", "input", "input")
    return dataclasses.replace(program, edges=program.edges + (Edge("ghost", "n0", 0),))


GHOST_ERROR = "invalid program: edge 'ghost'->'n0' references a missing node"


def _ghost_request(kind):
    if kind == "propose":
        return _propose(_ghost_program(), 5, 9)
    return _evaluate(_ghost_program(), PROBLEMS.problems)


class _Direct:
    """A transport that answers with a fresh `SyntheticRoles`, through JSON both ways."""

    def request(self, line):
        return json.loads(json.dumps(SyntheticRoles().handle(json.loads(line))))


def _propose(program, count, seed):
    return {"kind": "propose", "program": program_to_dict(program), "params": {"count": count, "seed": seed}}


# A peer that only evaluates must not load these.
HEAVY_MODULES = (
    "numpy", "urllib.request", "ssl", "wfopt.harness", "wfopt.edits", "wfopt.runlog", "hashlib", "subprocess",
)

LEAN_PEER = """
import json, sys
from wfopt.adapter import SyntheticRoles

evaluate, propose = json.loads(sys.stdin.read())
roles = SyntheticRoles()
evaluated = roles.handle(evaluate)
loaded = [name for name in %r if name in sys.modules]
print(json.dumps({"evaluated": evaluated, "loaded": loaded, "proposed": roles.handle(propose)}))
""" % (HEAVY_MODULES,)


class TestSyntheticRoles:
    def test_kept_roles_answer_as_fresh_ones(self, registry, monkeypatch):
        """One stdio server's responses are byte-identical to a fresh `SyntheticRoles` for each request."""
        config = ProposerConfig(ops=("add", "mul", "neg", "sqrt"), max_operator_nodes=3)
        other = (
            Problem(inputs={"x0": -4.0, "x1": -1.0}, expected=4.0, category="c"),
            Problem(inputs={"x0": -9.0, "x1": 2.0}, expected=-18.0, category="c"),
        )
        # equal under `==`, but the sign of the zero reaches the trace of `neg`
        zero = (Problem(inputs={"x0": 0.0}, expected=0.0, category="c"),)
        negative_zero = (Problem(inputs={"x0": -0.0}, expected=0.0, category="c"),)
        add, failing = binary("add", "input", "input"), chain("sqrt", n_roots=2)
        payloads = [
            _evaluate(add, PROBLEMS.problems),
            _evaluate(add, other),
            _evaluate(add, PROBLEMS.problems),
            _evaluate(failing, other),
            _evaluate(add, other),
            _propose(add, 5, 9),
            _evaluate(add, ()),
            _evaluate(failing, PROBLEMS.problems),
            _evaluate(chain("neg"), zero),
            _evaluate(chain("neg"), negative_zero),
            _evaluate(chain("neg"), zero),
            _propose(failing, 3, 1),
            _evaluate(add, ()),
            _evaluate(add, PROBLEMS.problems),
        ]

        def fresh(payload):
            try:
                return SyntheticRoles(registry, config).handle(payload)
            except Exception as exc:
                return {"error": str(exc)}

        expected = [json.dumps(fresh(json.loads(json.dumps(p)))) for p in payloads]
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(json.dumps(p) + "\n" for p in payloads)))
        monkeypatch.setattr(sys, "stdout", stdout)
        serve_stdio(registry, config)
        assert stdout.getvalue().splitlines() == expected
        answers = [json.loads(line) for line in expected]
        assert [a["reward"] for a in answers[:5]] == [1.0, 0.0, 1.0, 0.0, 0.0]
        assert not any(t["success"] for t in answers[3]["traces"])
        assert answers[6] == answers[12] == {"error": "evaluator needs a non-empty problem set"}
        assert expected[8] != expected[9]

    def test_short_decode_answers_as_a_full_decode(self, registry, monkeypatch):
        """A line ending with the problem text of an earlier one is decoded from
        its head alone; every reply is still byte-identical to a fresh
        `SyntheticRoles` answering the line decoded whole."""
        add, neg = program_to_dict(binary("add", "input", "input")), program_to_dict(chain("neg"))
        other = (Problem(inputs={"x0": -4.0, "x1": -1.0}, expected=4.0, category="c"),)
        zero = (Problem(inputs={"x0": 0.0}, expected=0.0, category="c"),)
        negative_zero = (Problem(inputs={"x0": -0.0}, expected=0.0, category="c"),)

        def tail(problems):
            return ', "params": {"problems": ' + json.dumps([problem_to_dict(p) for p in problems]) + "}}"

        def evaluate(program, problems, head='{"kind": "evaluate", "program": '):
            return head + json.dumps(program) + tail(problems)

        lines = [
            evaluate(add, PROBLEMS.problems),
            evaluate(add, PROBLEMS.problems),  # the same tail repeated
            evaluate(neg, PROBLEMS.problems),
            "{" + tail(PROBLEMS.problems),  # `{}` as a head, but no JSON as a line
            evaluate(add, PROBLEMS.problems, head='{"kind": "evaluate", "params": {"problems": []}, "program": '),
            evaluate(add, PROBLEMS.problems, head='{"kind": "evaluate", "program": nope'),
            '{"kind": "evaluate"' + tail(PROBLEMS.problems),  # no program
            evaluate(add, other),  # a change of problem list, and back again
            evaluate(add, PROBLEMS.problems),
            json.dumps(_propose(binary("add", "input", "input"), 5, 9)),
            evaluate(add, PROBLEMS.problems),
            evaluate(neg, zero),
            evaluate(neg, zero),
            evaluate(neg, negative_zero),  # the same values under `==`, but not the same text
            evaluate(neg, negative_zero),
            evaluate(neg, zero),
        ]

        def fresh(line):
            try:
                return SyntheticRoles(registry).handle(json.loads(line))
            except Exception as exc:
                return {"error": str(exc)}

        expected = [json.dumps(fresh(line)) for line in lines]
        decoded: list = []  # per line read, the texts the peer decoded for it

        def stdin():
            for line in lines:
                decoded.append([])
                yield line + "\n"

        def loads(text):
            decoded[-1].append(text)
            return json.loads(text)

        monkeypatch.setattr(adapter, "json", SimpleNamespace(dumps=json.dumps, loads=loads))
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdin", stdin())
        monkeypatch.setattr(sys, "stdout", stdout)
        serve_stdio(registry)
        assert stdout.getvalue().splitlines() == expected
        answers = [json.loads(line) for line in expected]
        assert "error" in answers[3] and "error" in answers[5] and answers[6] == {"error": "request lacks 'program'"}
        assert expected[13] != expected[12] == expected[15]  # the sign of the zero reaches the trace
        # a line is decoded whole only when its head does not decode to a
        # non-empty object or it does not end with the last kept problem text
        assert [i for i, texts in enumerate(decoded) if lines[i] in texts] == [0, 3, 5, 7, 8, 9, 11, 13, 15]

    def test_lean_peer(self, registry):
        """An evaluate-only peer loads no numpy, urllib or ssl; proposals still match the local proposer."""
        program = binary("add", "input", "input")
        requests = [_evaluate(program, PROBLEMS.problems), _propose(program, 5, 9)]
        proc = subprocess.run([sys.executable, "-c", LEAN_PEER], input=json.dumps(requests),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        answer = json.loads(proc.stdout)
        assert answer["loaded"] == []
        assert answer["evaluated"] == SyntheticRoles(registry).handle(requests[0])
        local, usage = SyntheticProposer(registry).propose(program, 5, np.random.default_rng(9))
        assert answer["proposed"]["candidates"] == [program_to_dict(p) for p in local]
        assert answer["proposed"]["usage"] == {"prompt_tokens": usage.prompt_tokens,
                                               "completion_tokens": usage.completion_tokens}


class TestTraceSerialization:
    def test_trace_contract(self):
        """The trace keeps its fields, default, repr and immutability."""
        trace = ExecutionTrace((1.5, -3.0), (2.0,), True, -3.0)
        assert ExecutionTrace._fields == ("values", "input_constants", "success", "output", "violation")
        assert trace.violation is None
        assert repr(trace) == ("ExecutionTrace(values=(1.5, -3.0), input_constants=(2.0,), success=True, "
                               "output=-3.0, violation=None)")
        for field in ExecutionTrace._fields:
            with pytest.raises(AttributeError):
                setattr(trace, field, None)
        # documented: a trace equals the plain tuple of its fields
        assert trace == ((1.5, -3.0), (2.0,), True, -3.0, None)

    def test_json_integers_decode_as_floats(self):
        trace = trace_from_dict({"values": [5, 2.5], "inputs": [2, 3.0], "success": True, "output": 5,
                                 "violation": None})
        assert trace == ExecutionTrace((5.0, 2.5), (2.0, 3.0), True, 5.0)
        assert {type(v) for v in trace.values + trace.input_constants + (trace.output,)} == {float}

    def test_negative_zero_keeps_its_sign(self):
        trace = ExecutionTrace((-0.0, 1.0), (-0.0, 0.0), True, -0.0)
        restored = trace_from_dict(json.loads(json.dumps(trace_to_dict(trace))))
        signs = [math.copysign(1.0, v) for v in restored.values + restored.input_constants + (restored.output,)]
        assert signs == [-1.0, 1.0, -1.0, 1.0, -1.0]

    @pytest.mark.parametrize("entry, failure", [
        pytest.param(entry, case.values[1], id=case.id) for case in BAD_CONTENT
        if type(case.values[0].get("traces")) is list for entry in case.values[0]["traces"] if entry != GOOD_TRACE
    ])
    def test_every_rejection_raises_value_error(self, entry, failure):
        with pytest.raises(ValueError) as raised:
            trace_from_dict(json.loads(json.dumps(entry)))
        assert str(raised.value) == failure

    def test_round_trip(self):
        program = binary("mul", "input", "input")
        trace = interpret(program, {"x0": 3.0, "x1": 4.0})
        assert trace_from_dict(trace_to_dict(trace)) == trace

    def test_failed_trace_round_trip(self):
        from conftest import chain

        trace = interpret(chain("sqrt"), {"x0": -1.0})
        restored = trace_from_dict(trace_to_dict(trace))
        assert restored == trace
        assert restored.output is None


class TestStdioAdapter:
    @pytest.fixture()
    def transport(self):
        t = StdioTransport([sys.executable, "-m", "wfopt.adapter", "--ops", "add", "mul", "neg"])
        yield t
        t.close()

    def test_propose_round_trip(self, registry, transport):
        """A propose request sent through the transport gets the candidates
        and the usage of a local `SyntheticProposer` seeded with the
        request's seed."""
        program = binary("add", "input", "input")
        reply = transport.request(json.dumps(_propose(program, 4, 5)))
        proposer = SyntheticProposer(default_registry(), ProposerConfig(ops=("add", "mul", "neg")))
        candidates, record = proposer.propose(program, 4, np.random.default_rng(5))
        assert len(candidates) == 4 and record.prompt_tokens > 0
        assert reply == {
            "candidates": [program_to_dict(c) for c in candidates],
            "usage": {"prompt_tokens": record.prompt_tokens, "completion_tokens": record.completion_tokens},
        }

    def test_evaluate_round_trip(self, registry, transport):
        evaluator = ExternalEvaluator(transport, PROBLEMS)
        reward, traces, record = evaluator.evaluate(binary("add", "input", "input"))
        assert reward == 1.0
        assert len(traces) == 2
        assert record.role == "executor"

    def test_engine_agnostic_to_transport(self, registry, transport):
        """Remote and in-process roles produce identical evaluations and
        identical candidates. The peer validates each request's program, so
        its proposer's own check of it is the verdict lookup; the in-process
        proposer gets a program with no verdict, and checks it on entry."""
        program = binary("mul", "input", "input")
        remote = ExternalEvaluator(transport, PROBLEMS).evaluate(program)
        local = SyntheticEvaluator(PROBLEMS, registry).evaluate(program)
        assert remote[0] == local[0]
        assert remote[1] == local[1]

        base = binary("add", "input", "input")
        remote_candidates = transport.request(json.dumps(_propose(base, 6, 5)))["candidates"]
        proposer = SyntheticProposer(default_registry(), ProposerConfig(ops=("add", "mul", "neg")))
        local_candidates, _ = proposer.propose(binary("add", "input", "input"), 6, np.random.default_rng(5))
        assert len(proposer.enumerate_edits(base)) > len(remote_candidates) == 6
        assert remote_candidates == [program_to_dict(c) for c in local_candidates]

    def test_peer_module_runs_once(self):
        """`-m wfopt.adapter` must not import the module a second time before running it."""
        transport = StdioTransport([sys.executable, "-W", "error::RuntimeWarning", "-m", "wfopt.adapter"])
        try:
            reward, traces, _ = ExternalEvaluator(transport, PROBLEMS).evaluate(binary("add", "input", "input"))
        finally:
            transport.close()
        assert reward == 1.0
        assert len(traces) == 2

    def test_peer_answers_as_fresh_roles_and_exits_zero(self):
        """A peer that evaluates, builds its proposer for a propose request and
        evaluates again answers each request as a fresh `SyntheticRoles`. At
        end of input it exits with status 0, without interpreter
        finalization, and its last reply, the longest, arrives whole, also
        through a block-buffered pipe."""
        add = binary("add", "input", "input")
        many = tuple(Problem(inputs={"x0": float(i), "x1": 1.0}, expected=i + 1.0, category="c") for i in range(1000))
        requests = [_evaluate(add, PROBLEMS.problems), _evaluate(chain("neg", n_roots=2), PROBLEMS.problems),
                    _propose(add, 5, 9), _evaluate(add, many)]
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        proc = subprocess.run([sys.executable, "-m", "wfopt.adapter"], input="".join(json.dumps(r) + "\n" for r in requests),
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.endswith("\n") and len(proc.stdout.splitlines()[-1]) > 1 << 16
        assert proc.stdout.splitlines() == [json.dumps(SyntheticRoles().handle(json.loads(json.dumps(r))))
                                            for r in requests]

    @pytest.mark.parametrize("flags, message", [
        (["--ops", "nosuch"], "ValueError: proposer op 'nosuch' not in registry"),
        (["--max-nodes", "0"], "ValueError: max_operator_nodes must be >= 1"),
    ], ids=["unknown-op", "no-nodes"])
    def test_bad_flag_fails_before_a_request_is_read(self, flags, message):
        request = json.dumps(_evaluate(binary("add", "input", "input"), PROBLEMS.problems))
        proc = subprocess.run([sys.executable, "-m", "wfopt.adapter", *flags], input=request + "\n",
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == message

    @pytest.mark.parametrize("reply", [b"not json", b"\xff\xfe{}", b"[" * 200_000],
                             ids=["not-json", "not-utf8", "deep-nesting"])
    def test_garbage_reply_raises_adapter_error(self, reply, tmp_path):
        # a file, not `-c`: one command-line argument is capped at 128 KiB
        peer = tmp_path / "peer.py"
        peer.write_text(f"import sys\nsys.stdin.readline()\n"
                        f"sys.stdout.buffer.write({reply!r} + b'\\n')\nsys.stdout.flush()")
        transport = StdioTransport([sys.executable, str(peer)])
        try:
            with pytest.raises(AdapterError, match="malformed response line"):
                transport.request('{"kind": "evaluate"}')
        finally:
            transport.close()

    def test_over_long_reply_raises_adapter_error(self, tmp_path, monkeypatch):
        # a valid evaluate reply; the cap counts its newline
        reply = json.dumps({"reward": 1.0, "traces": [], "pad": "x" * 200})
        peer, seen = tmp_path / "peer.py", tmp_path / "seen"
        peer.write_text(f"import sys\nn = 0\nfor _ in sys.stdin:\n    n += 1\n    print({reply!r}, flush=True)\n"
                        f"open({str(seen)!r}, 'w').write(str(n))\n")
        for cap in (len(reply), 100):  # the line's newline does not fit; the read stops inside the line
            transport = StdioTransport([sys.executable, str(peer)])
            try:
                monkeypatch.setattr(adapter, "MAX_REPLY", len(reply) + 1)
                assert transport.request('{"kind": "evaluate"}')["reward"] == 1.0
                monkeypatch.setattr(adapter, "MAX_REPLY", cap)
                first = f"response line longer than {cap} characters"
                with pytest.raises(AdapterError, match=first):
                    transport.request('{"kind": "evaluate"}')
                # the transport is broken: every later request names the
                # first failure, even one whose reply would now fit
                for later in (100, len(reply) + 1):
                    monkeypatch.setattr(adapter, "MAX_REPLY", later)
                    with pytest.raises(AdapterError, match=f"broken by an earlier failure: {first}"):
                        transport.request('{"kind": "evaluate"}')
                # the transport read one character past the cap and no
                # further: the rest of the line is all the pipe still holds
                transport._proc.stdin.close()
                assert transport._proc.stdout.read() == (reply + "\n")[cap + 1:]
            finally:
                transport.close()
            assert seen.read_text() == "2"  # the later requests never reached the peer

    @pytest.mark.parametrize("answer, first", [
        ("sys.stdout.buffer.write(b'\\xff\\xfe{}\\n')", "malformed response line"),
        ("sys.exit(0)", "external role closed the stream"),
    ], ids=["not-utf8", "closed"])
    def test_failure_mid_line_breaks_the_transport(self, tmp_path, answer, first):
        """A reply that is not UTF-8, or a stream that closes, breaks the
        transport as an over-long reply does; a whole line that is not JSON
        does not."""
        peer, seen = tmp_path / "peer.py", tmp_path / "seen"
        peer.write_text(
            f"import sys\nn = 0\nfor line in sys.stdin:\n    n += 1\n"
            f"    open({str(seen)!r}, 'w').write(str(n))\n"
            f"    if n == 1:\n        print('not json', flush=True)\n"
            f"    else:\n        {answer}\n        sys.stdout.flush()\n"
        )
        transport = StdioTransport([sys.executable, str(peer)])
        try:
            with pytest.raises(AdapterError, match="malformed response line: Expecting value"):
                transport.request('{"kind": "evaluate"}')
            with pytest.raises(AdapterError, match=first) as failure:
                transport.request('{"kind": "evaluate"}')
            for _ in range(2):
                with pytest.raises(AdapterError, match="broken by an earlier failure: ") as later:
                    transport.request('{"kind": "evaluate"}')
                assert str(later.value).endswith(str(failure.value))
        finally:
            transport.close()
        assert seen.read_text() == "2"

    def test_dead_process_raises(self):
        transport = StdioTransport([sys.executable, "-c", "pass"])
        try:
            with pytest.raises(AdapterError):
                transport.request('{"kind": "propose"}')
        finally:
            transport.close()


# Problem lists whose JSON is easy to get wrong by hand: both zeros, the
# largest floats, integer-valued floats (written `2.0`, not `2`) and a
# category that `json.dumps` writes with `\u` escapes.
WIRE_PROBLEMS = ProblemSet(
    (
        Problem(inputs={"x0": -0.0, "x1": 1e308}, expected=2.0, category="caf\u00e9"),
        Problem(inputs={"x0": 0.0, "x1": -1.7976931348623157e308}, expected=-0.0, category="\u6e2c\u8a66"),
        Problem(inputs={"x0": 3.0, "x1": 1e-320}, expected=1e16, category="c"),
    ),
    "validation",
)

# A stdio peer that appends each line it reads to the file named by its
# argument, byte for byte, and answers with an empty evaluation.
RECORDING_PEER = """
import sys
for line in sys.stdin.buffer:
    with open(sys.argv[1], "ab") as fh:
        fh.write(line)
    sys.stdout.write('{"reward": 0.0, "traces": []}\\n')
    sys.stdout.flush()
"""


class TestWireBytes:
    """An evaluate request is the `json.dumps` of its whole payload, though
    the evaluator encodes its problem list only once."""

    PROGRAMS = [binary("add", "input", "input"), binary("mul", "input", -0.0), chain("neg", "neg")]

    @staticmethod
    def payloads(problems):
        return [json.dumps(_evaluate(program, problems.problems)) for program in TestWireBytes.PROGRAMS]

    def test_stdio_lines(self, tmp_path):
        received = tmp_path / "received"
        transport = StdioTransport([sys.executable, "-c", RECORDING_PEER, str(received)])
        try:
            evaluator = ExternalEvaluator(transport, WIRE_PROBLEMS)
            for program in self.PROGRAMS:
                evaluator.evaluate(program)
        finally:
            transport.close()
        expected = "".join(line + "\n" for line in self.payloads(WIRE_PROBLEMS))
        assert received.read_bytes() == expected.encode()

    def test_http_bodies(self):
        bodies = []

        class RecordingHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                bodies.append(self.rfile.read(int(self.headers["Content-Length"])))
                body = b'{"reward": 0.0, "traces": []}'
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        with _http_server(RecordingHandler) as address:
            evaluator = ExternalEvaluator(HttpTransport(address, timeout=10), WIRE_PROBLEMS)
            for program in self.PROGRAMS:
                evaluator.evaluate(program)
        assert bodies == [payload.encode() for payload in self.payloads(WIRE_PROBLEMS)]

    @pytest.mark.parametrize("problems", [WIRE_PROBLEMS, PROBLEMS], ids=["extremes", "plain"])
    def test_lines_decode_to_the_payload(self, problems):
        sent = []

        class Recorder:
            def request(self, line):
                sent.append(line)
                return {"reward": 0.0, "traces": []}

        evaluator = ExternalEvaluator(Recorder(), problems)
        for program in self.PROGRAMS:
            evaluator.evaluate(program)
        assert sent == self.payloads(problems)
        assert [repr(json.loads(line)) for line in sent] == [
            repr(_evaluate(program, problems.problems)) for program in self.PROGRAMS
        ]


def _perfbench_tracer():
    """`perfbench/tracer.py`, loaded by path: the benchmark is no package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_remote_run_logs_what_the_untraced_run_logs(tmp_path):
    """The benchmark's tracer swaps the adapter's `json` for a proxy holding
    only `dumps`, `loads` and `JSONDecodeError`; a search through a stdio peer
    must run under it and log the same bytes."""
    config = config_from_dict({
        "seed": 3,
        "budget": {"rounds": 2, "simulations_per_round": 3, "max_candidates_per_expansion": 4},
        "suite": {"n_problems": 10},
        "proposer": {"ops": ["add", "mul", "neg"], "max_operator_nodes": 2},
        "executor": {"mode": "external", "command": [sys.executable, "-m", "wfopt.adapter"]},
    })
    driver.execute_run(config, tmp_path / "plain")
    tracing = _perfbench_tracer()
    tracer = tracing.Tracer(run_id="traced")
    with tracing.patched() as patches:
        tracer.install(patches)
        driver.execute_run(config, tmp_path / "traced")
    assert tracer.calls["adapter.request"] > 1
    assert tracer.counts["adapter.bytes_out"] > 0 and tracer.counts["adapter.bytes_in"] > 0
    traced = (tmp_path / "traced" / "runlog.ndjson").read_bytes()
    assert traced == (tmp_path / "plain" / "runlog.ndjson").read_bytes()


class TestRunClosesStdioPeer:
    """`execute_run` stops the stdio peer it starts, whether the search ends or fails."""

    @pytest.fixture()
    def started(self, monkeypatch):
        transports = []

        class RecordingTransport(StdioTransport):
            def __init__(self, command):
                super().__init__(command)
                transports.append(self)

        monkeypatch.setattr(adapter, "StdioTransport", RecordingTransport)
        return transports

    @staticmethod
    def config(command):
        return config_from_dict({
            "budget": {"rounds": 1, "simulations_per_round": 2, "max_candidates_per_expansion": 3},
            "suite": {"n_problems": 10},
            "proposer": {"ops": ["add", "mul", "neg"], "max_operator_nodes": 2},
            "executor": {"mode": "external", "command": command},
        })

    def test_peer_exits_when_run_returns(self, started):
        result = driver.execute_run(self.config([sys.executable, "-m", "wfopt.adapter"]))
        assert result.log.by_event("simulated")
        assert len(started) == 1
        assert started[0]._proc.poll() == 0

    def test_peer_exits_when_run_fails(self, started):
        garbage = "import sys\nfor _ in sys.stdin:\n    print('not json', flush=True)"
        with pytest.raises(AdapterError):
            driver.execute_run(self.config([sys.executable, "-c", garbage]))
        assert len(started) == 1
        assert started[0]._proc.poll() is not None


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        response = SyntheticRoles(default_registry()).handle(payload)
        body = json.dumps(response).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextmanager
def _http_server(handler):
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_port}/"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)


class TestHttpAdapter:
    @pytest.fixture()
    def server(self):
        with _http_server(_Handler) as address:
            yield address

    @pytest.mark.parametrize("body", [b"not json", b"\xff\xfe{}", b"[" * 200_000],
                             ids=["not-json", "not-utf8", "deep-nesting"])
    def test_garbage_reply_raises_adapter_error(self, body):
        class GarbageHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        with _http_server(GarbageHandler) as address:
            with pytest.raises(AdapterError, match="malformed response"):
                HttpTransport(address, timeout=10).request('{"kind": "evaluate"}')

    def test_over_long_reply_raises_adapter_error(self, monkeypatch):
        body = json.dumps({"reward": 1.0, "traces": [], "pad": "x" * 200}).encode()

        class LongHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        with _http_server(LongHandler) as address:
            transport = HttpTransport(address, timeout=10)
            monkeypatch.setattr(adapter, "MAX_REPLY", len(body))
            assert transport.request('{"kind": "evaluate"}')["reward"] == 1.0
            monkeypatch.setattr(adapter, "MAX_REPLY", len(body) - 1)
            with pytest.raises(AdapterError, match=f"longer than {len(body) - 1} bytes"):
                transport.request('{"kind": "evaluate"}')

    def test_evaluate_over_http(self, server):
        evaluator = ExternalEvaluator(HttpTransport(server), PROBLEMS)
        reward, traces, _ = evaluator.evaluate(binary("add", "input", "input"))
        assert reward == 1.0
        assert len(traces) == 2

    def test_unreachable_address(self):
        transport = HttpTransport("http://127.0.0.1:1/", timeout=0.2)
        with pytest.raises(AdapterError):
            transport.request('{"kind": "evaluate"}')
