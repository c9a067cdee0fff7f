"""Command-line entry point: run, report, export, ablate.

Each command imports only the part of the engine it runs, when it runs:
parsing and ``--help`` load no engine module; ``report`` loads the run-log
reader and the fold (`wfopt.reporting`); ``export`` loads `wfopt.model`;
``run`` and ``ablate`` load the driver, and with it numpy and the search.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from .config import ExecutorConfig, RunConfig


def _parse_executor(value: str) -> ExecutorConfig:
    from .config import ConfigError, ExecutorConfig

    if value == "synthetic":
        return ExecutorConfig(mode="synthetic")
    if value.startswith("external:"):
        try:
            return ExecutorConfig(mode="external", address=value.split(":", 1)[1])
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError("expected 'synthetic' or 'external:ADDR'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wfopt", description="Constraint-guided workflow search")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one optimization and write artifacts")
    run_p.add_argument("--config", type=Path, default=None, help="RunConfig JSON path")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed (default 42)")
    run_p.add_argument("--out", type=Path, default=Path("out"), help="artifact directory")
    run_p.add_argument("--executor", type=_parse_executor, default=None,
                       help="synthetic | external:ADDR")

    report_p = sub.add_parser("report", help="summarize one or more run logs")
    report_p.add_argument("logs", nargs="+", type=Path)

    export_p = sub.add_parser("export", help="re-export a workflow JSON canonically")
    export_p.add_argument("source", type=Path)
    export_p.add_argument("dest", type=Path)

    ablate_p = sub.add_parser("ablate", help="run the family/stage ablation grid")
    ablate_p.add_argument("--config", type=Path, default=None)
    ablate_p.add_argument("--seed", type=int, default=None)
    ablate_p.add_argument("--out", type=Path, default=Path("ablations"))
    return parser


def _load(config_path: Optional[Path], seed: Optional[int], executor: Optional[ExecutorConfig]) -> RunConfig:
    from .config import RunConfig, load_config, with_overrides

    config = load_config(config_path) if config_path else RunConfig()
    return with_overrides(config, seed=seed, executor=executor)


def cmd_run(args: argparse.Namespace) -> int:
    from .driver import execute_run

    config = _load(args.config, args.seed, args.executor)
    result = execute_run(config, args.out)
    print(f"best validation reward: {result.summary['best_validation_reward']:.4f}")
    print(f"best test reward:       {result.summary['best_test_reward']:.4f}")
    print(f"pruning rate:           {result.summary['pruning_rate']:.3f}")
    print(f"tokens per problem:     {result.summary['tokens_per_problem']:.1f}")
    print(f"artifacts in:           {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .reporting import report

    _, table = report(args.logs)
    print(table)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from .model import export_workflow, loads_program, validate_program

    program = loads_program(args.source.read_text())
    check = validate_program(program)
    if not check.ok:
        print("invalid workflow:", file=sys.stderr)
        for violation in check.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    export_workflow(program, args.dest)
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    from .driver import ablation_grid, execute_run

    config = _load(args.config, args.seed, None)
    results = {}
    for name, variant in ablation_grid(config).items():
        result = execute_run(variant, Path(args.out) / name)
        results[name] = result.summary
        print(
            f"{name:<20} best={result.summary['best_validation_reward']:.3f} "
            f"prune={result.summary['pruning_rate']:.3f} "
            f"tokens={result.summary['tokens_per_problem']:.0f}"
        )
    (Path(args.out) / "grid_summary.json").write_text(
        json.dumps(results, sort_keys=True, indent=2) + "\n"
    )
    return 0


def _reported_errors() -> tuple[type[Exception], ...]:
    """The errors `main` reports as ``error: ...`` with exit status 2; a
    `ConfigError` is a `ValueError`. The except clause calls this only once a
    command has raised, so no command loads a module just to catch its error."""
    from .harness import SuiteGenerationError
    from .roles import AdapterError

    return (AdapterError, SuiteGenerationError, ValueError, OSError)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "report": cmd_report, "export": cmd_export, "ablate": cmd_ablate}
    try:
        return handlers[args.command](args)
    except _reported_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
