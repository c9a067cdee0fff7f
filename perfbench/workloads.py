"""The benchmark's workloads: three closed-loop search configs.

Each workload is one `execute_run` config. A run of the benchmark is a closed
loop with one client: it starts the next search only after the previous one
has finished, so a slower engine simply completes fewer searches in the
measured window. Every config keeps the engine's default constants except for
the keys listed; the seed comes from the benchmark's `--seed` argument.

Why each workload exists, and the layer shares that justify it, are recorded
next to it. A share is the self time of one layer's spans over the traced
run's wall time, from `python3 perfbench/run.py --workload W --seed 42
--trace 1` on a 2-core x86-64 container (Python 3.11, numpy 2.4), one traced
search each. The layers are: proposer (`propose`, with the validation and
canonical keys it calls), scoring (`derive_state`, `static_vector`, `total`,
`with_magnitude`), evaluator (`SyntheticEvaluator.evaluate`), adapter
(`ExternalEvaluator.evaluate` and the stdio request), tree (the loop,
select, backpropagate, weight update, refine), runlog (`save`) and driver.
A change to one layer names a workload where the layer is large
(its mechanism is exercised) and one where it is small (the prediction there
is no change).

ROADMAP's default config and the desk-scale config of acceptance test C3 are
left out on purpose: the default is proposer-bound like `edit_heavy` (about
80%), and the desk-scale config is a smaller `wide_scoring`.

An evaluator-bound workload (`eval_heavy`: 15 x 8 simulations, programs of
at most 3 operators, 400 validation problems; evaluator 75%, almost all
`interpret`, proposer 7.6%) was dropped so that each workload can run
longer: on a small shared machine three workloads of 30 s give steadier
figures than four shorter ones in the same total time. No ROADMAP item
targets the interpreter, and its per-layer metrics (`model.interpret.*`,
`harness.evaluate.*`) are still reported by every traced run.
"""

from __future__ import annotations

import sys

OPS4 = ["add", "sub", "mul", "neg"]

WORKLOADS: dict[str, dict] = {
    # ROADMAP's 30 x 16 / max-8 config cut to 8 rounds, about 3 s a search,
    # so that a run holds several searches. Measured shares: proposer 81%,
    # scoring 13%, tree 2.5%, evaluator 1.9%, runlog 0.6%. The case for
    # proposer work: edit enumeration, validation, canonical keys.
    "edit_heavy": {
        "why": "8x16 sims, max 8 nodes: edit enumeration, validation and canonical keys dominate",
        "config": {
            "budget": {"rounds": 8, "simulations_per_round": 16},
            "proposer": {"ops": OPS4, "max_operator_nodes": 8},
        },
    },
    # 64 candidates per expansion in a small edit space, so nearly every
    # enumerated edit is scored; 8 rounds, about 2.5 s. Measured shares:
    # scoring 55%, proposer 23%, tree 9.0%, evaluator 8.1%, runlog 3.6%. It
    # builds the largest tree (about 3.8k nodes, against 1k and 0.5k) and run
    # log, so the duplicate `static_vector` per kept child, per-round
    # O(nodes) work and the run log show here.
    "wide_scoring": {
        "why": "64 candidates per expansion: nearly every edit is scored; largest tree and run log",
        "config": {
            "budget": {"rounds": 8, "simulations_per_round": 8, "max_candidates_per_expansion": 64},
            "proposer": {"ops": ["add", "mul", "neg"], "max_operator_nodes": 4},
        },
    },
    # The evaluator is an external stdio peer (`python -m wfopt.adapter`), so
    # evaluation goes through the wire protocol; 8 rounds, about 2 s.
    # Measured shares: adapter 44% (most of it waiting on the peer),
    # proposer 40%, scoring 11%, tree 3.0%. The only workload that measures
    # the adapter. One peer with one request outstanding shares the search's
    # CPU.
    "remote_eval": {
        "why": "evaluator served by a stdio peer process: the only workload through the adapter",
        "config": {
            "budget": {"rounds": 8, "simulations_per_round": 8},
            "proposer": {"ops": OPS4, "max_operator_nodes": 4},
            "suite": {"n_problems": 200},
            "executor": {"mode": "external", "command": [sys.executable, "-m", "wfopt.adapter"]},
        },
    },
}


def run_config(workload: str, seed: int, in_process: bool = False) -> dict:
    """The config document for one search of `workload` at `seed`.

    `in_process` swaps the external executor for the synthetic one, which is
    the independent path the adapter is cross-checked against.
    """
    config = dict(WORKLOADS[workload]["config"], seed=seed)
    if in_process:
        config.pop("executor", None)
    return config
