#!/usr/bin/env python3
"""Time the engine's per-layer hot calls on fixed inputs; write BENCH_<label>.json.

Each call runs on fixed programs with 3, 6 and 8 operator nodes, built the
same way every time, so two checkouts can be compared call by call:

  enumerate_edits        SyntheticProposer over add/sub/mul/neg, max 8 nodes
                         (the edit_heavy workload's proposer), which checks each
                         program once, on its first call, as the search's first
                         proposal from a program does; also per candidate
  propose                the same proposer drawing 8 candidates, with a
                         generator seeded the same way on every call
  validate_program       the default registry
  canonical_key
  derive_state+static_vector
                         scoring with a seeded motif library of the default size,
                         each call on a fresh copy of the program and with a
                         fresh scorer, so nothing is remembered between calls
  score children         enumerate_edits of the 6-node program, then
                         derive_state + static_vector + total over every
                         candidate, with a fresh scorer per sample: each
                         candidate's state comes from the edit record it
                         carries and one analysis of the base, as a search's
                         children do, and a record is derived once, so the
                         candidates are made anew in every call (the
                         enumerate_edits row times that part); also per child
  with_magnitude         folding the 40 fixed traces of `evaluate` into a vector
  evaluate               SyntheticEvaluator over 40 fixed problems
  evaluate reply         ExternalEvaluator over the same problems, with an
                         in-memory transport answering the peer's reply,
                         parsed once: the client's side of a stdio request
                         without the pipe and the JSON parse
  peer evaluate          SyntheticRoles.handle on the same evaluate request,
                         parsed once: the peer's side without the JSON text
  trace decode           trace_from_dict of the first trace of that reply,
                         parsed once: one trace of an evaluate reply
  program decode         program_from_dict of the program, parsed once: the
                         peer's decode of a request's program
  peer start             from spawning `python -m wfopt.adapter` through a
                         StdioTransport to its reply to the first evaluate
                         request (the 3-node program over the 40 problems)
  peer exit              StdioTransport.close of that peer, after that one
                         reply: ending its input and reaping it
  select+backprop        one select and one backpropagate on a fixed tree
                         (341 nodes; it holds no program, so it is timed once)
  runlog append          RunLog.append of each record of a fixed round shaped
                         like a `wide_scoring` round (8 selections, each
                         proposing 64 candidates, 62 kept and simulated), to
                         a log on os.devnull: encoding and buffered writes
                         but no disk; per record
  fold record            StatsFold.add of each record of that round, into a
                         fresh fold with zero prices: the report's and the
                         driver's summary; per record
  engine import          importing `wfopt.driver` and `wfopt.config`, timed
                         inside a fresh process: the part of a benchmark
                         worker's set-up that compiles and builds the engine
  cli start              a fresh `python -m wfopt` process, spawn to exit,
                         for `--help`, for `report` of the run log of a fixed
                         tiny run (`TINY_RUN`), and for `export` of its best
                         workflow
  tree bytes             the `tracemalloc` bytes that dropping the finished
                         tree frees, per tree node, after a fixed small
                         search shaped like the `wide_scoring` workload
                         (seed 42, 2 rounds of 8 simulations, 64 candidates
                         per expansion, add/mul/neg, max 4 nodes); with the
                         node count and the number of distinct state
                         objects; a size, not a time

A sample times enough calls to last about 20 ms; each figure is the median
and the best of `--repeat` samples, in microseconds per call. The two peer
rows take one sample per peer, `--repeat` peers after one that is not
counted; the peer imports `wfopt` as this script does. The two start-up
rows take one sample per fresh process, from max(`--repeat`, 9) processes
run one after another after one round that is not counted, each with
PYTHONDONTWRITEBYTECODE=1, so each compiles the package from source (unless
a `__pycache__` is already there to read). The file also
records the git revision, the Python and numpy versions and the platform.
End-to-end timing of whole searches is the benchmark in `perfbench/`.

Usage:  PYTHONPATH=src python scripts/bench.py --label 6 [--repeat 15] [--out-dir .]
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from wfopt.adapter import ExternalEvaluator, StdioTransport, SyntheticRoles, problem_to_dict, trace_from_dict
from wfopt.config import MotifConfig, config_from_dict
from wfopt.constraints import AggregationConfig, ConstraintScorer
from wfopt.driver import execute_run
from wfopt.harness import Problem, ProblemSet, ProposerConfig, SyntheticEvaluator, SyntheticProposer
from wfopt.model import (
    INPUT_OP,
    Edge,
    Node,
    WorkflowProgram,
    WorkflowState,
    canonical_key,
    default_registry,
    derive_state,
    program_from_dict,
    program_to_dict,
    validate_program,
)
from wfopt.motifs import init_templates
from wfopt.reporting import StatsFold
from wfopt.runlog import RunLog
from wfopt.search import SearchNode, backpropagate, select
from wfopt.weights import WeightVector

SIZES = (3, 6, 8)
CHILDREN_OF = 6  # the program size whose edits "score children" scores
PROPOSED = 8  # candidates per propose call, the search's default per expansion
OPS = ("add", "mul", "neg", "sub")
SAMPLE_S = 0.02
TREE_CALLS = 200  # select+backprop calls per sample, on one fresh tree
# the search whose finished tree "tree bytes" weighs: `wide_scoring`'s shape, 2 rounds
TREE_SEARCH = {
    "seed": 42,
    "budget": {"rounds": 2, "simulations_per_round": 8, "max_candidates_per_expansion": 64},
    "proposer": {"ops": ["add", "mul", "neg"], "max_operator_nodes": 4},
}

# the run whose log `cli start` reports and whose best workflow it exports
TINY_RUN = {
    "seed": 42,
    "budget": {"rounds": 2, "simulations_per_round": 4, "max_candidates_per_expansion": 8},
    "suite": {"n_problems": 5},
}
FRESH = 9  # the fewest fresh processes a start-up row is the median of
ENGINE_IMPORT = ("import time\nstart = time.perf_counter()\nimport wfopt.config, wfopt.driver\n"
                 "print(time.perf_counter() - start)")


def fixed_program(n_ops: int) -> WorkflowProgram:
    """Two inputs and a chain of `n_ops` operators, each fed by the two nodes
    before it (a unary one by the last), so every node feeds the output."""
    nodes = [Node("x0", INPUT_OP), Node("x1", INPUT_OP)]
    edges = []
    ids = ["x0", "x1"]
    for i in range(n_ops):
        op = OPS[i % len(OPS)]
        nid = f"n{i}"
        operands = [ids[-1]] if op == "neg" else [ids[-1], ids[-2]]
        edges.extend(Edge(src, nid, slot) for slot, src in enumerate(operands))
        nodes.append(Node(nid, op))
        ids.append(nid)
    return WorkflowProgram(tuple(nodes), tuple(edges), ("x0", "x1"), ids[-1])


def fixed_problems(n: int = 40) -> ProblemSet:
    return ProblemSet(
        tuple(
            Problem({"x0": float(1 + i % 9), "x1": float(1 + (3 * i) % 7)}, float(i), "cat0")
            for i in range(n)
        ),
        "validation",
    )


def fixed_tree(branching: int = 4, depth: int = 4) -> SearchNode:
    """A full tree with deterministic visit counts, values and compliance."""
    program = fixed_program(1)
    state = WorkflowState(1, {"add": 1})
    counter = 0

    def make(parent, level):
        nonlocal counter
        node = SearchNode(program=program, state=state, node_id=f"n{counter}", node_depth=level, parent=parent,
                          compliance=0.3 + (counter * 37 % 61) / 100, expanded=level < depth,
                          visit_count=1 + counter % 5, total_value=(counter * 13 % 17) / 10)
        counter += 1
        if level < depth:
            node.children = [make(node, level + 1) for _ in range(branching)]
        return node

    return make(None, 0)


def fixed_round() -> list[dict]:
    """The records of one search round shaped like a `wide_scoring` round:
    8 selections, each proposing 64 candidates of which 62 are kept and
    simulated, then the weight update; values vary by a fixed rule."""
    families = ("depth", "diversity", "magnitude", "pattern", "types", "units")
    records = []
    for step in range(8):
        parent = f"n{step}"
        records.append({"event": "selected", "round": 3, "node_id": parent, "C_total": 0.78 + step / 1000})
        records.append({"event": "proposed", "round": 3, "role": "optimizer", "request_id": f"opt-{step:05d}",
                        "tokens_in": 130, "tokens_out": 1604, "node_id": parent, "count": 64})
        for i in range(64):
            vector = {f: ((step * 64 + i) * (k + 3) % 97) / 97 for k, f in enumerate(families)}
            common = {"round": 3, "parent": parent, "C_vector": vector, "C_total": sum(vector.values()) / 6,
                      "tau": 0.5}
            if i % 32 == 31:
                records.append({"event": "pruned", "node_id": None, "families": ["diversity"], **common})
                continue
            child = f"n{100 + step * 64 + i}"
            records.append({"event": "expanded", "node_id": child, "fallback": False, **common})
            records.append({"event": "simulated", "round": 3, "role": "executor", "request_id": f"exe-{i:05d}",
                            "tokens_in": 70, "tokens_out": 20, "node_id": child, "C_vector": vector,
                            "C_total": common["C_total"], "reward": i / 64, "trace_peak": 9.0, "credit": 0.0})
    records.append({"event": "weights_updated", "round": 3, "weights": dict.fromkeys(families, 1 / 6),
                    "correlations": dict.fromkeys(families, 0.0), "updated": False})
    return records


class FixedReply:
    """A transport that answers every request with the same decoded reply."""

    def __init__(self, reply: dict):
        self.reply = reply

    def request(self, line: str) -> dict:
        return self.reply


def measure(fn, repeat: int) -> tuple[float, float]:
    """Median and best time per call of `fn()`, in microseconds."""
    fn()
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    inner = max(1, int(SAMPLE_S / max(once, 1e-7)))
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner * 1e6)
    return statistics.median(samples), min(samples)


def figures(fn, repeat: int, **extra) -> dict:
    median, best = measure(fn, repeat)
    return {"median_us": round(median, 3), "best_us": round(best, 3), **extra}


def summary(samples: list[float]) -> dict:
    """Median and best of `samples`, in microseconds."""
    return {"median_us": round(statistics.median(samples), 3), "best_us": round(min(samples), 3)}


def tree_bytes() -> dict:
    """The `tree bytes` row: run `TREE_SEARCH` under tracemalloc, then drop
    its tree and count the traced bytes that frees."""
    config = config_from_dict(TREE_SEARCH)
    gc.collect()
    tracemalloc.start()
    try:
        optimizer = execute_run(config).optimizer
        nodes = list(optimizer._walk())
        count, states = len(nodes), len({id(node.state) for node in nodes})
        del nodes
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        optimizer.root = None
        gc.collect()  # a node and its parent refer to each other
        freed = kept - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {"bytes_per_node": round(freed / count, 1), "nodes": count, "states": states}


def peer_rows(line: str, repeat: int) -> dict:
    """The `peer start` and `peer exit` rows: one stdio peer per sample,
    answering the evaluate request `line` once."""
    start, stop = [], []
    for _ in range(repeat + 1):  # the first peer pays for a cold file cache and is not counted
        began = time.perf_counter()
        transport = StdioTransport([sys.executable, "-m", "wfopt.adapter"])
        try:
            transport.request(line)
            replied = time.perf_counter()
        finally:
            transport.close()
        start.append((replied - began) * 1e6)
        stop.append((time.perf_counter() - replied) * 1e6)
    return {"peer start": {"process": summary(start[1:])}, "peer exit": {"process": summary(stop[1:])}}


def start_rows(repeat: int) -> dict:
    """The `engine import` and `cli start` rows: one sample per fresh
    process, the rows taking turns, so that a slow spell of the machine
    falls on all of them alike."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

    def elapsed_us(*args: str) -> float:
        began = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL)
        return (time.perf_counter() - began) * 1e6

    def import_us() -> float:
        proc = subprocess.run([sys.executable, "-c", ENGINE_IMPORT], env=env, check=True, capture_output=True,
                              text=True)
        return float(proc.stdout) * 1e6

    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        execute_run(config_from_dict(TINY_RUN), run_dir)
        commands = {
            "--help": ("--help",),
            "report": ("report", str(run_dir / "runlog.ndjson")),
            "export": ("export", str(run_dir / "best_workflow.json"), str(Path(tmp) / "copy.json")),
        }
        samples: dict[str, list[float]] = {"engine import": [], **{name: [] for name in commands}}
        for _ in range(max(repeat, FRESH) + 1):  # the first round warms the file cache and is not counted
            samples["engine import"].append(import_us())
            for name, args in commands.items():
                samples[name].append(elapsed_us("-m", "wfopt", *args))
    row = {name: dict(summary(times[1:]), processes=len(times) - 1) for name, times in samples.items()}
    return {"engine import": {"process": row.pop("engine import")}, "cli start": row}


def git_rev() -> str:
    try:
        # "-dirty" marks a tree with uncommitted changes to tracked files
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run(repeat: int) -> dict:
    registry = default_registry()
    proposer = SyntheticProposer(registry, ProposerConfig(ops=OPS, max_operator_nodes=8))
    library = init_templates(["cat0"], MotifConfig(), registry_ops=registry.names, seed=42)
    problems = fixed_problems()
    evaluator = SyntheticEvaluator(problems, registry)
    roles = SyntheticRoles(registry)
    weights = WeightVector.uniform()

    def new_scorer() -> ConstraintScorer:
        return ConstraintScorer(registry, library=library, category="cat0")

    def unchecked(program: WorkflowProgram) -> WorkflowProgram:
        # an equal program that has not passed validate_program yet
        return dataclasses.replace(program)

    def score_children(program: WorkflowProgram) -> None:
        scorer = new_scorer()
        for child in proposer.enumerate_edits(program):
            scorer.total(scorer.static_vector(child, derive_state(child, registry)), weights)

    results: dict[str, dict] = {name: {} for name in (
        "enumerate_edits", "propose", "validate_program", "canonical_key", "derive_state+static_vector",
        "score children", "with_magnitude", "evaluate", "evaluate reply", "peer evaluate", "trace decode",
        "program decode")}
    for size in SIZES:
        program = fixed_program(size)
        key = str(size)
        children = proposer.enumerate_edits(program)
        entry = figures(lambda: proposer.enumerate_edits(program), repeat, candidates=len(children))
        entry["per_candidate_median_us"] = round(entry["median_us"] / len(children), 3)
        entry["per_candidate_best_us"] = round(entry["best_us"] / len(children), 3)
        results["enumerate_edits"][key] = entry
        results["propose"][key] = figures(lambda: proposer.propose(program, PROPOSED, np.random.default_rng(size)),
                                          repeat, count=PROPOSED)
        results["validate_program"][key] = figures(lambda: validate_program(unchecked(program), registry), repeat)
        results["canonical_key"][key] = figures(lambda: canonical_key(program), repeat)
        results["derive_state+static_vector"][key] = figures(
            lambda: new_scorer().static_vector(program, derive_state(unchecked(program), registry)), repeat)
        if size == CHILDREN_OF:
            entry = figures(lambda: score_children(program), repeat, children=len(children))
            entry["per_child_median_us"] = round(entry["median_us"] / len(children), 3)
            entry["per_child_best_us"] = round(entry["best_us"] / len(children), 3)
            results["score children"][key] = entry
        scorer = new_scorer()
        vector = scorer.static_vector(program, derive_state(program, registry))
        traces = evaluator.evaluate(program)[1]
        results["with_magnitude"][key] = figures(lambda: scorer.with_magnitude(vector, traces), repeat,
                                                 traces=len(traces))
        results["evaluate"][key] = figures(lambda: evaluator.evaluate(program), repeat)
        request = json.loads(json.dumps({"kind": "evaluate", "program": program_to_dict(program),
                                         "params": {"problems": [problem_to_dict(p) for p in problems.problems]}}))
        reply = json.loads(json.dumps(roles.handle(request)))
        remote = ExternalEvaluator(FixedReply(reply), problems)
        results["evaluate reply"][key] = figures(lambda: remote.evaluate(program), repeat)
        results["peer evaluate"][key] = figures(lambda: roles.handle(request), repeat)
        results["trace decode"][key] = figures(lambda: trace_from_dict(reply["traces"][0]), repeat)
        results["program decode"][key] = figures(lambda: program_from_dict(request["program"]), repeat)
        if size == SIZES[0]:
            results.update(peer_rows(json.dumps(request), repeat))

    cfg = AggregationConfig()
    samples = []
    for _ in range(repeat):
        root = fixed_tree()  # every sample starts from the same tree
        start = time.perf_counter()
        for _ in range(TREE_CALLS):
            backpropagate(select(root, cfg), 0.5)
        samples.append((time.perf_counter() - start) / TREE_CALLS * 1e6)
    results["select+backprop"] = {"tree": dict(summary(samples), calls_per_sample=TREE_CALLS)}

    records = fixed_round()
    log = RunLog(path=os.devnull)

    def append_round() -> None:
        for record in records:
            log.append(**record)

    def fold_round() -> None:
        fold = StatsFold()
        for record in records:
            fold.add(record)

    for name, fn in (("runlog append", append_round), ("fold record", fold_round)):
        median, best = measure(fn, repeat)
        results[name] = {"record": {"median_us": round(median / len(records), 3),
                                    "best_us": round(best / len(records), 3), "records_per_round": len(records)}}
    log.close()
    results.update(start_rows(repeat))
    results["tree bytes"] = {"node": tree_bytes()}
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--repeat", type=int, default=15, help="samples per figure")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="created, with its parents, if missing")
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)  # before the timing, so no run is lost to a missing directory

    report = {
        "label": args.label,
        "git_rev": git_rev(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "repeat": args.repeat,
        "results": run(args.repeat),
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    for name, by_size in report["results"].items():
        if name == "tree bytes":
            tree = by_size["node"]
            print(f"{name:>28}  {tree['bytes_per_node']:.1f} bytes per node ({tree['nodes']} nodes, "
                  f"{tree['states']} states)")
            continue
        cells = "  ".join(f"{size}: {e['median_us']:.1f} ({e['best_us']:.1f})" for size, e in by_size.items())
        print(f"{name:>28}  {cells}  us median (best)")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
