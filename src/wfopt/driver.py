"""Turns a RunConfig into a finished run with artifacts on disk.

Artifacts written to the output directory, which is created once the suite
is built and the category checked:
  runlog.ndjson        the full event stream (meta record first), written as
                       the search goes and flushed every round, so a run that
                       fails mid-search keeps it; its summary stats are folded
                       from the same records as they are appended
  best_workflow.json   the winning program in the workflow JSON format
  motifs.json          the final motif library snapshot
  summary.json         headline metrics for the run

Only a run with an external executor loads `wfopt.adapter`, the wire
protocol: `execute_run` imports it in that branch, so a set-up that builds
an in-process run compiles none of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .config import STAGES, ConfigError, RunConfig
from .constraints import ConstraintScorer
from .harness import SyntheticProposer, SyntheticSuite, make_synthetic_suite
from .model import WorkflowProgram, default_registry, export_workflow
from .motifs import init_templates, save_library
from .reporting import StatsFold
from .roles import SyntheticEvaluator
from .runlog import RunLog
from .search import Optimizer
from .weights import FAMILIES


@dataclass
class RunResult:
    """A finished run: its best program, run log, optimizer, suite and summary."""

    best_program: WorkflowProgram
    log: RunLog
    optimizer: Optimizer
    suite: SyntheticSuite
    summary: dict


def build_suite(config: RunConfig) -> SyntheticSuite:
    return make_synthetic_suite(
        seed=config.seed,
        n_problems=config.suite.n_problems,
        category_count=config.suite.category_count,
        proposer_config=config.proposer,
        n_roots=config.suite.n_roots,
        target_edits=config.suite.target_edits,
        unit_dims=config.suite.unit_dims,
    )


def execute_run(config: RunConfig, out_dir: Optional[str | Path] = None) -> RunResult:
    registry = default_registry()
    suite = build_suite(config)
    categories = sorted({p.category for p in suite.all_problems()})
    if config.category is not None and config.category not in categories:
        raise ConfigError(f"category {config.category!r} is not one of the suite's categories {categories}")
    category = config.category or categories[0]

    library = init_templates(categories, config.motifs, registry_ops=registry.names, seed=config.seed)
    scorer = ConstraintScorer(
        registry,
        agg=config.aggregation,
        depth_diversity=config.depth_diversity,
        magnitude=config.magnitude,
        library=library,
        category=category,
        enabled_families=config.ablation.enabled_families,
    )
    proposer = SyntheticProposer(registry, config.proposer)

    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    fold = StatsFold()
    log = RunLog(path=None if out is None else out / "runlog.ndjson", fold=fold.add)
    transport = None
    try:
        log.append(
            "meta",
            round=None,
            seed=config.seed,
            n_problems=len(suite.validation) + len(suite.test),
            n_validation=len(suite.validation),
            n_test=len(suite.test),
            category=category,
            prices={role: list(p) for role, p in config.prices.prices.items()},
            config=config.to_dict(),
        )
        if config.executor.mode == "external":
            # only an external executor speaks the wire protocol, so only its run loads it
            from .adapter import ExternalEvaluator, HttpTransport, StdioTransport

            if config.executor.command:
                transport = StdioTransport(config.executor.command)
            else:
                transport = HttpTransport(config.executor.address)  # type: ignore[arg-type]
            evaluator = ExternalEvaluator(transport, suite.validation)
        else:
            evaluator = SyntheticEvaluator(suite.validation, registry)
        optimizer = Optimizer(
            suite.initial_program,
            proposer,
            evaluator,
            scorer,
            schedule=config.threshold,
            adaptation=config.adaptation,
            budget=config.budget,
            stages=config.ablation.stage_switches(),
            adaptive_weights=config.ablation.adaptive_weights,
            log=log,
        )
        best, _ = optimizer.run()
    finally:
        log.close()
        # the remote role is needed only by the search; stop a stdio peer here
        if transport is not None:
            transport.close()

    test_reward = None
    if suite.test.problems:
        test_eval = SyntheticEvaluator(suite.test, registry)
        test_reward, _, _ = test_eval.evaluate(best)

    stats = fold.stats()
    summary = {
        "seed": config.seed,
        "category": category,
        "best_validation_reward": optimizer.best_node_stats().get("mean_reward"),
        "best_test_reward": test_reward,
        "rounds": config.budget.rounds,
        "pruning_rate": stats.pruning_rate,
        "tokens_per_problem": stats.tokens_per_problem,
        "cost_per_problem": stats.cost_per_problem,
        "mean_round_score": stats.mean_score,
        "std_round_score": stats.std_score,
        "final_weights": optimizer.weights.as_dict(),
        "motif_count": len(optimizer.scorer.library.motifs) if optimizer.scorer.library else 0,
        "enabled_families": list(config.ablation.enabled_families),
        "enabled_stages": list(config.ablation.enabled_stages),
        "adaptive_weights": config.ablation.adaptive_weights,
    }

    if out is not None:
        export_workflow(best, out / "best_workflow.json", registry)
        if optimizer.scorer.library is not None:
            # snapshots are test-phase artifacts: refinement stops here
            save_library(optimizer.scorer.library.freeze(), out / "motifs.json")
        (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")

    return RunResult(best_program=best, log=log, optimizer=optimizer, suite=suite, summary=summary)


def ablation_grid(config: RunConfig) -> dict[str, RunConfig]:
    """Family-only, stage-only, and fixed-weight variants of a base config."""
    from dataclasses import replace

    grid: dict[str, RunConfig] = {"full": config}
    for family in FAMILIES:
        grid[f"family_{family}"] = replace(
            config, ablation=replace(config.ablation, enabled_families=(family,))
        )
    for stage in STAGES:
        grid[f"stage_{stage}"] = replace(
            config, ablation=replace(config.ablation, enabled_stages=(stage,))
        )
    grid["fixed_weights"] = replace(
        config, ablation=replace(config.ablation, adaptive_weights=False)
    )
    return grid
