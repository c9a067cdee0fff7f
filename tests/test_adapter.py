import json
import math
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from wfopt.adapter import (
    AdapterError,
    ExternalEvaluator,
    ExternalProposer,
    HttpTransport,
    StdioTransport,
    handle_request,
    problem_to_dict,
    trace_from_dict,
    trace_to_dict,
)
from wfopt import driver
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
from wfopt.model import canonical_key, default_registry, interpret, program_to_dict

from conftest import binary


PROBLEMS = ProblemSet(
    (
        Problem(inputs={"x0": 2.0, "x1": 3.0}, expected=5.0, category="c", constants=(2.0, 3.0)),
        Problem(inputs={"x0": 1.0, "x1": 1.0}, expected=2.0, category="c", constants=(1.0, 1.0)),
    ),
    "validation",
)


class TestHandleRequest:
    def test_propose_matches_synthetic(self, registry):
        program = binary("add", "input", "input")
        config = ProposerConfig(ops=("add", "mul", "neg"))
        response = handle_request(
            {"kind": "propose", "program": program_to_dict(program), "params": {"count": 5, "seed": 9}},
            registry,
            config,
        )
        local, _ = SyntheticProposer(registry, config).propose(program, 5, np.random.default_rng(9))
        from wfopt.model import program_from_dict

        got = [canonical_key(program_from_dict(c)) for c in response["candidates"]]
        assert got == [canonical_key(p) for p in local]
        assert response["usage"]["prompt_tokens"] > 0

    def test_evaluate_matches_synthetic(self, registry):
        program = binary("add", "input", "input")
        response = handle_request(
            {
                "kind": "evaluate",
                "program": program_to_dict(program),
                "params": {"problems": [problem_to_dict(p) for p in PROBLEMS.problems]},
            },
            registry,
        )
        local_reward, local_traces, _ = SyntheticEvaluator(PROBLEMS, registry).evaluate(program)
        assert response["reward"] == local_reward == 1.0
        assert [trace_from_dict(t) for t in response["traces"]] == local_traces

    def test_unknown_kind_reports_error(self, registry):
        response = handle_request(
            {"kind": "destroy", "program": program_to_dict(binary("add", "input", "input"))},
            registry,
        )
        assert "error" in response

    def test_in_band_error_raises_evaluation_error(self):
        class _ErrTransport:
            def request(self, payload):
                return {"error": "model refused"}

        evaluator = ExternalEvaluator(_ErrTransport(), PROBLEMS)
        with pytest.raises(EvaluationError, match="model refused"):
            evaluator.evaluate(binary("add", "input", "input"))


class TestNonFiniteReward:
    """A remote reward that is not a finite number is an evaluation failure."""

    class _Transport:
        def __init__(self, reward):
            self.reward = reward

        def request(self, payload):
            # what json.loads makes of a peer that prints NaN or Infinity
            return json.loads(json.dumps({"reward": self.reward, "traces": [], "usage": {}}))

    @pytest.mark.parametrize("reward", [math.nan, math.inf, -math.inf])
    def test_raises_evaluation_error(self, reward):
        evaluator = ExternalEvaluator(self._Transport(reward), PROBLEMS)
        with pytest.raises(EvaluationError, match="non-finite reward"):
            evaluator.evaluate(binary("add", "input", "input"))

    @pytest.mark.parametrize("reward", [math.nan, math.inf])
    def test_run_continues_with_zero_reward(self, registry, reward):
        config = ProposerConfig(ops=("add", "mul", "neg"), max_operator_nodes=2)
        suite = make_synthetic_suite(seed=0, n_problems=10, proposer_config=config, target_edits=2)
        optimizer = Optimizer(
            suite.initial_program,
            SyntheticProposer(registry, config),
            ExternalEvaluator(self._Transport(reward), suite.validation),
            ConstraintScorer(registry, library=None, category="cat0"),
            budget=SearchBudget(rounds=2, simulations_per_round=3, seed=0),
        )
        optimizer.run()
        simulated = optimizer.log.by_event("simulated")
        assert len(simulated) > 1
        for record in simulated:
            assert record["reward"] == 0.0
            assert record["failure"] == f"non-finite reward {reward!r}"


class TestTraceSerialization:
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
        proposer = ExternalProposer(transport)
        program = binary("add", "input", "input")
        candidates, record = proposer.propose(program, 4, np.random.default_rng(5))
        assert len(candidates) == 4
        assert record.role == "optimizer"
        assert record.prompt_tokens > 0

    def test_evaluate_round_trip(self, registry, transport):
        evaluator = ExternalEvaluator(transport, PROBLEMS)
        reward, traces, record = evaluator.evaluate(binary("add", "input", "input"))
        assert reward == 1.0
        assert len(traces) == 2
        assert record.role == "executor"

    def test_engine_agnostic_to_transport(self, registry, transport):
        """Remote and in-process roles produce identical evaluations."""
        program = binary("mul", "input", "input")
        remote = ExternalEvaluator(transport, PROBLEMS).evaluate(program)
        local = SyntheticEvaluator(PROBLEMS, registry).evaluate(program)
        assert remote[0] == local[0]
        assert remote[1] == local[1]

    def test_dead_process_raises(self):
        transport = StdioTransport([sys.executable, "-c", "pass"])
        try:
            with pytest.raises(AdapterError):
                transport.request({"kind": "propose"})
        finally:
            transport.close()


class TestRunClosesStdioPeer:
    """`execute_run` stops the stdio peer it starts, whether the search ends or fails."""

    @pytest.fixture()
    def started(self, monkeypatch):
        transports = []

        class RecordingTransport(StdioTransport):
            def __init__(self, command):
                super().__init__(command)
                transports.append(self)

        monkeypatch.setattr(driver, "StdioTransport", RecordingTransport)
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
        response = handle_request(payload, default_registry())
        body = json.dumps(response).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestHttpAdapter:
    @pytest.fixture()
    def server(self):
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{httpd.server_port}/"
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)

    def test_evaluate_over_http(self, server):
        evaluator = ExternalEvaluator(HttpTransport(server), PROBLEMS)
        reward, traces, _ = evaluator.evaluate(binary("add", "input", "input"))
        assert reward == 1.0
        assert len(traces) == 2

    def test_unreachable_address(self):
        transport = HttpTransport("http://127.0.0.1:1/", timeout=0.2)
        with pytest.raises(AdapterError):
            transport.request({"kind": "evaluate"})
