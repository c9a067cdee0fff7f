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
  select+backprop        one select and one backpropagate on a fixed tree
                         (341 nodes; it holds no program, so it is timed once)

A sample times enough calls to last about 20 ms; each figure is the median
and the best of `--repeat` samples, in microseconds per call. The file also
records the git revision, the Python and numpy versions and the platform.
End-to-end timing of whole searches is the benchmark in `perfbench/`.

Usage:  PYTHONPATH=src python scripts/bench.py --label 6 [--repeat 15] [--out-dir .]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from wfopt.config import MotifConfig
from wfopt.constraints import AggregationConfig, ConstraintScorer
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
    validate_program,
)
from wfopt.motifs import init_templates
from wfopt.search import SearchNode, backpropagate, select
from wfopt.weights import WeightVector

SIZES = (3, 6, 8)
CHILDREN_OF = 6  # the program size whose edits "score children" scores
PROPOSED = 8  # candidates per propose call, the search's default per expansion
OPS = ("add", "mul", "neg", "sub")
SAMPLE_S = 0.02
TREE_CALLS = 200  # select+backprop calls per sample, on one fresh tree


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
    library = init_templates(["cat0"], MotifConfig().templates_per_category, registry_ops=registry.names, seed=42)
    evaluator = SyntheticEvaluator(fixed_problems(), registry)
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
        "score children", "with_magnitude", "evaluate")}
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

    cfg = AggregationConfig()
    samples = []
    for _ in range(repeat):
        root = fixed_tree()  # every sample starts from the same tree
        start = time.perf_counter()
        for _ in range(TREE_CALLS):
            backpropagate(select(root, cfg), 0.5)
        samples.append((time.perf_counter() - start) / TREE_CALLS * 1e6)
    results["select+backprop"] = {"tree": {
        "median_us": round(statistics.median(samples), 3), "best_us": round(min(samples), 3), "calls_per_sample": TREE_CALLS,
    }}
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
        cells = "  ".join(f"{size}: {e['median_us']:.1f} ({e['best_us']:.1f})" for size, e in by_size.items())
        print(f"{name:>28}  {cells}  us median (best)")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
