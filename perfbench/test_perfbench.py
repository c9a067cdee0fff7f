"""Tests of the benchmark itself: trace accounting and declared names."""

import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from wfopt import driver, model  # noqa: E402
from wfopt.config import config_from_dict  # noqa: E402

TINY = {
    "seed": 3,
    "budget": {"rounds": 3, "simulations_per_round": 3},
    "proposer": {"ops": ["add", "sub", "mul", "neg"], "max_operator_nodes": 4},
}


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    config = config_from_dict(TINY)
    plain_dir, traced_dir = tmp_path_factory.mktemp("plain"), tmp_path_factory.mktemp("traced")
    driver.execute_run(config, plain_dir)
    trace = tracer.Tracer(run_id="tiny")
    with tracer.patched() as patches:
        trace.install(patches)
        start = perf_counter()
        result = driver.execute_run(config, traced_dir)
        wall = perf_counter() - start
    return trace, result, wall, plain_dir, traced_dir


def test_self_times_and_untraced_time_add_up_to_wall_time(traced_run):
    trace, _, wall, _, _ = traced_run
    self_times = trace.span_self_times()
    untraced = wall - trace.root_time()
    assert untraced >= 0
    assert min(self_times.values()) >= -1e-9
    assert sum(self_times.values()) + untraced == pytest.approx(wall, abs=1e-6)
    by_name = sum(s for name, s in trace.self_s.items() if name in tracer.LAYERS)
    assert by_name == pytest.approx(sum(self_times.values()), abs=1e-6)
    assert sum(trace.layer_shares(wall).values()) == pytest.approx(1 - untraced / wall, abs=1e-6)


def test_spans_nest_under_one_root(traced_run):
    trace = traced_run[0]
    roots = [s for s in trace.spans if s[1] is None]
    assert [s[2] for s in roots] == ["driver.execute_run"]
    ids = {s[0] for s in trace.spans}
    assert all(parent in ids for _, parent, _, _, _ in trace.spans if parent is not None)


def test_tracing_changes_no_output_and_is_undone(traced_run):
    _, _, _, plain_dir, traced_dir = traced_run
    for name in ("runlog.ndjson", "best_workflow.json", "summary.json"):
        assert (plain_dir / name).read_bytes() == (traced_dir / name).read_bytes()
    assert driver.execute_run.__module__ == "wfopt.driver"
    assert model.WorkflowProgram.incoming.__qualname__ == "WorkflowProgram.incoming"


def test_layer_metrics_are_the_declared_ones(traced_run):
    trace, result, wall, _, _ = traced_run
    metrics = trace.layer_metrics(result, wall, runlog_bytes=1, peers_left=0)
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert metrics["constraints.static_vector.calls"] > 0
    assert metrics["model.validate_program.calls"] >= metrics["model.canonical_key.calls"] > 0


def test_printed_names_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w["why"] for n, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]
