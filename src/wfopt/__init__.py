"""Constraint-guided MCTS over operator-graph workflow programs."""

from .constraints import (
    AggregationConfig,
    ConstraintScorer,
    ConstraintVector,
    DepthDiversityConfig,
    MagnitudeConfig,
    ThresholdSchedule,
    aggregate,
    score_depth,
    score_diversity,
    score_magnitude,
    score_types,
    score_units,
    threshold,
)
from .harness import (
    PriceMap,
    Problem,
    ProblemSet,
    ProposerConfig,
    SyntheticEvaluator,
    SyntheticProposer,
    TokenRecord,
    cost,
    make_synthetic_suite,
    tokens_per_problem,
)
from .model import (
    ExecutionTrace,
    Node,
    OperatorKind,
    OperatorRegistry,
    Shape,
    UnitSignature,
    WorkflowProgram,
    WorkflowState,
    default_registry,
    derive_state,
    dumps_program,
    interpret,
    loads_program,
    validate_program,
)
from .motifs import (
    FrozenLibraryError,
    Motif,
    MotifLibrary,
    cosine_similarity,
    init_templates,
    refine,
    score_pattern,
)
from .driver import execute_run, export_workflow
from .runlog import RunLog
from .search import (
    Optimizer,
    SearchBudget,
    SearchNode,
    StageSwitches,
    backpropagate,
    select,
    selection_score,
)
from .weights import (
    AdaptationConfig,
    ObservationBuffer,
    WeightVector,
    pearson_corr,
    update_weights,
)

__version__ = "0.1.0"
