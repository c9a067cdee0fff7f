"""Constraint-guided MCTS over operator-graph workflow programs.

The names in ``__all__`` are exported lazily (PEP 562): ``import wfopt`` loads
no submodule, and each name imports the module that defines it when it is
first looked up. A process that needs only part of the package, such as the
stdio peer started by ``python -m wfopt.adapter``, loads only that part. A
looked-up name is not stored in the package namespace, so ``wfopt.<name>``
is always the object its module holds at that moment.
"""

from importlib import import_module

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "AggregationConfig",
            "ConstraintScorer",
            "ConstraintVector",
            "DepthDiversityConfig",
            "MagnitudeConfig",
            "ThresholdSchedule",
            "score_depth",
            "score_diversity",
            "score_magnitude",
            "score_types",
            "score_units",
            "threshold",
        ),
        "constraints",
    ),
    **dict.fromkeys(
        (
            "PriceMap",
            "SyntheticProposer",
            "make_synthetic_suite",
        ),
        "harness",
    ),
    **dict.fromkeys(("Problem", "ProblemSet", "ProposerConfig", "SyntheticEvaluator", "TokenRecord"), "roles"),
    **dict.fromkeys(
        (
            "ExecutionTrace",
            "Node",
            "OperatorKind",
            "OperatorRegistry",
            "Shape",
            "UnitSignature",
            "WorkflowProgram",
            "WorkflowState",
            "default_registry",
            "derive_state",
            "dumps_program",
            "export_workflow",
            "interpret",
            "loads_program",
            "validate_program",
        ),
        "model",
    ),
    **dict.fromkeys(
        (
            "FrozenLibraryError",
            "Motif",
            "MotifLibrary",
            "cosine_similarity",
            "init_templates",
            "refine",
            "score_pattern",
        ),
        "motifs",
    ),
    "execute_run": "driver",
    "RunLog": "runlog",
    **dict.fromkeys(
        (
            "Optimizer",
            "SearchBudget",
            "SearchNode",
            "StageSwitches",
            "backpropagate",
            "select",
            "selection_score",
        ),
        "search",
    ),
    **dict.fromkeys(
        (
            "AdaptationConfig",
            "ObservationBuffer",
            "WeightVector",
            "pearson_corr",
            "update_weights",
        ),
        "weights",
    ),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Any other name raises AttributeError, so that `from wfopt import driver`
    # falls back to importing the submodule.
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
