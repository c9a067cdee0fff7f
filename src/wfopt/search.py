"""Compliance-shaped Monte Carlo tree search over workflow programs.

The four stages of the loop each consume the compliance signal in their own
way: selection multiplies UCT by exp(lambda * C_total), expansion gates
candidates against the depth-aware threshold (keeping the best one as a
fallback when everything falls below it), simulation folds the measured
magnitude score back into the node's compliance, and backpropagation credits
reward * C_total up the path. Each stage can be disabled independently for
ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .constraints import (
    UNVISITED_PRIORITY,
    AggregationConfig,
    ConstraintScorer,
    ConstraintVector,
    ThresholdSchedule,
    threshold,
    trace_peaks,
)
from .harness import SyntheticProposer
from .model import WorkflowProgram, WorkflowState, derive_state
from .motifs import refine
from .roles import EvaluationError, SyntheticEvaluator, TokenRecord
from .runlog import RunLog
from .weights import AdaptationConfig, ObservationBuffer, WeightVector, correlations, update_weights


@dataclass(slots=True)
class SearchNode:
    """One node of the search tree: its program and state, its links, and its visit and reward tallies."""

    program: WorkflowProgram
    state: WorkflowState
    node_id: str
    node_depth: int
    parent: Optional["SearchNode"] = None
    children: list["SearchNode"] = field(default_factory=list)
    visit_count: int = 0
    total_value: float = 0.0
    own_simulations: int = 0
    own_reward_sum: float = 0.0
    compliance: float = 0.0
    scores: Optional[ConstraintVector] = None
    expanded: bool = False
    created_index: int = 0

    @property
    def q_value(self) -> float:
        return self.total_value / self.visit_count if self.visit_count > 0 else 0.0

    @property
    def mean_reward(self) -> float:
        return self.own_reward_sum / self.own_simulations if self.own_simulations > 0 else 0.0


@dataclass(frozen=True)
class SearchBudget:
    """Search effort knobs.

    ``simulations_per_round`` counts select/expand/simulate iterations; one
    iteration evaluates every child its expansion attaches, so the number of
    executor calls per round is usually larger.
    """

    rounds: int = 15
    simulations_per_round: int = 8
    max_candidates_per_expansion: int = 8
    seed: int = 42

    def __post_init__(self) -> None:
        if self.rounds < 0 or self.simulations_per_round < 0:
            raise ValueError("budget counts must be >= 0")
        if self.max_candidates_per_expansion < 1:
            raise ValueError("max_candidates_per_expansion must be >= 1")


@dataclass(frozen=True)
class StageSwitches:
    """Which parts of the loop consume the compliance signal."""

    selection: bool = True
    expansion: bool = True
    simulation: bool = True
    backprop: bool = True

    def __post_init__(self) -> None:
        if not (self.selection or self.expansion or self.simulation or self.backprop):
            raise ValueError("at least one injection stage must be enabled")


def selection_score(node: SearchNode, parent_visits: int, cfg: AggregationConfig, shaped: bool = True) -> float:
    """Shaped UCT: (Q + c * U) * exp(lambda * C_total).

    Unvisited nodes get a large base priority instead of an infinite one, so
    the compliance factor still orders them.
    """
    if parent_visits < 1:
        raise ValueError("parent_visits must be >= 1")
    lam = cfg.lambda_shaping if shaped else 0.0
    if node.visit_count == 0:
        return UNVISITED_PRIORITY * math.exp(lam * node.compliance)
    u = math.sqrt(math.log(parent_visits) / node.visit_count)
    return (node.q_value + cfg.uct_c * u) * math.exp(lam * node.compliance)


def select(root: SearchNode, cfg: AggregationConfig, shaped: bool = True) -> SearchNode:
    """Descend by argmax shaped score; ties go to the lowest child index."""
    node = root
    while node.expanded and node.children:
        parent_visits = max(1, node.visit_count)
        best = node.children[0]
        best_score = selection_score(best, parent_visits, cfg, shaped)
        for child in node.children[1:]:
            score = selection_score(child, parent_visits, cfg, shaped)
            if score > best_score:
                best, best_score = child, score
        node = best
    return node


def backpropagate(node: SearchNode, reward: float, shaped: bool = True) -> float:
    """Credit reward * C_total(node) (or raw reward) along the path to the root."""
    credit = reward * node.compliance if shaped else reward
    cursor: Optional[SearchNode] = node
    while cursor is not None:
        cursor.visit_count += 1
        cursor.total_value += credit
        cursor = cursor.parent
    return credit


class Optimizer:
    """Owns the search tree, the weight state, and the run log."""

    def __init__(
        self,
        initial_program: WorkflowProgram,
        proposer: SyntheticProposer,
        evaluator: SyntheticEvaluator,
        scorer: ConstraintScorer,
        *,
        schedule: ThresholdSchedule = ThresholdSchedule(),
        adaptation: AdaptationConfig = AdaptationConfig(),
        budget: SearchBudget = SearchBudget(),
        stages: StageSwitches = StageSwitches(),
        adaptive_weights: bool = True,
        log: Optional[RunLog] = None,
    ):
        self.proposer = proposer
        self.evaluator = evaluator
        self.scorer = scorer
        self.schedule = schedule
        self.adaptation = adaptation
        self.budget = budget
        self.stages = stages
        self.adaptive_weights = adaptive_weights
        self.category = scorer.category

        self.weights = WeightVector.uniform()
        self.buffer = ObservationBuffer(window=10)
        self.log = log if log is not None else RunLog()
        self._node_counter = 0
        self._expansion_counter = 0
        self._round_histograms: list[tuple[str, tuple[int, ...]]] = []

        state = derive_state(initial_program, registry=scorer.registry)
        vector = scorer.static_vector(initial_program, state)
        self.root = self._make_node(initial_program, state, vector, scorer.total(vector, self.weights), parent=None)

    # -- bookkeeping ----------------------------------------------------------

    def _make_node(
        self,
        program: WorkflowProgram,
        state: WorkflowState,
        scores: ConstraintVector,
        compliance: float,
        parent: Optional[SearchNode],
    ) -> SearchNode:
        node = SearchNode(
            program=program,
            state=state,
            node_id=f"n{self._node_counter}",
            node_depth=0 if parent is None else parent.node_depth + 1,
            parent=parent,
            compliance=compliance,
            scores=scores,
            created_index=self._node_counter,
        )
        self._node_counter += 1
        return node

    # -- the four stages -------------------------------------------------------

    def expand(self, node: SearchNode, round_index: int) -> list[SearchNode]:
        rng = np.random.default_rng([self.budget.seed, self._expansion_counter])
        self._expansion_counter += 1
        candidates, tokens = self.proposer.propose(
            node.program, self.budget.max_candidates_per_expansion, rng
        )
        self.log.append(
            "proposed", round=round_index, **_token_fields(tokens), node_id=node.node_id, count=len(candidates)
        )
        node.expanded = True
        if not candidates:
            return []

        tau = threshold(node.node_depth, self.schedule)
        scored = []
        for candidate in candidates:
            state = derive_state(candidate, registry=self.scorer.registry)
            vector = self.scorer.static_vector(candidate, state)
            total = self.scorer.total(vector, self.weights)
            scored.append((candidate, state, vector, total))

        keep = [not self.stages.expansion or entry[3] >= tau for entry in scored]
        fallback = not any(keep)
        if fallback:  # the gate dropped every candidate: keep the first of the best
            keep[max(range(len(scored)), key=lambda i: scored[i][3])] = True

        children: list[SearchNode] = []
        for (candidate, state, vector, total), kept in zip(scored, keep):
            if kept:
                child = self._make_node(candidate, state, vector, total, parent=node)
                node.children.append(child)
                children.append(child)
                self.log.append(
                    "expanded",
                    round=round_index,
                    node_id=child.node_id,
                    parent=node.node_id,
                    C_vector=vector.as_dict(),
                    C_total=total,
                    tau=tau,
                    fallback=fallback,
                )
            else:
                self.log.append(
                    "pruned",
                    round=round_index,
                    node_id=None,
                    parent=node.node_id,
                    C_vector=vector.as_dict(),
                    C_total=total,
                    tau=tau,
                    families=_dominant_families(vector),
                )
        return children

    def simulate(self, node: SearchNode, round_index: int) -> tuple[float, dict]:
        """Evaluate `node`; return the reward and the fields of its `simulated` record.

        The caller appends the record once the reward has been backpropagated.
        """
        try:
            reward, traces, tokens = self.evaluator.evaluate(node.program)
        except EvaluationError as exc:
            # transient evaluator failure: score zero, keep searching
            node.own_simulations += 1
            return 0.0, dict(
                round=round_index, node_id=node.node_id, C_total=node.compliance, reward=0.0, failure=str(exc)
            )
        # the adapter rejects a remote reward outside [0, 1]; a library-API
        # evaluator's is bounded here: NaN fails `> 0.0` and so gives 0.0, as
        # do negatives and -0.0, and anything above 1, +inf included, gives 1.0
        reward = min(float(reward), 1.0) if reward > 0.0 else 0.0
        peaks = trace_peaks(traces)  # one scan of each trace's values, for the fold and trace_peak
        if self.stages.simulation:
            node.scores = self.scorer.with_magnitude(node.scores, traces, peaks)
            node.compliance = self.scorer.total(node.scores, self.weights)
        peak = max((p for t, p in zip(traces, peaks) if t.success and p is not None), default=None)
        node.own_simulations += 1
        node.own_reward_sum += reward
        self.buffer.push(node.scores, reward)
        counts = node.state.operator_histogram
        histogram = tuple([counts.get(op, 0) for op in self.scorer.registry.names])
        self._round_histograms.append((self.category, histogram))
        return reward, dict(
            round=round_index,
            **_token_fields(tokens),
            node_id=node.node_id,
            C_vector=node.scores.as_dict(),
            C_total=node.compliance,
            reward=reward,
            trace_peak=peak,
        )

    # -- the loop ---------------------------------------------------------------

    def _iteration(self, round_index: int) -> None:
        node = select(self.root, self.scorer.agg, shaped=self.stages.selection)
        self.log.append("selected", round=round_index, node_id=node.node_id, C_total=node.compliance)
        if not node.expanded:
            children = self.expand(node, round_index)
            targets: Sequence[SearchNode] = children if children else [node]
        else:
            targets = [node]
        for target in targets:
            reward, fields = self.simulate(target, round_index)
            credit = backpropagate(target, reward, shaped=self.stages.backprop)
            self.log.append("simulated", **fields, credit=credit)

    def run(self) -> tuple[WorkflowProgram, RunLog]:
        budget = self.budget
        if budget.rounds > 0 and budget.simulations_per_round > 0:
            reward, fields = self.simulate(self.root, 0)
            backpropagate(self.root, reward, shaped=self.stages.backprop)
            self.log.append("simulated", **fields)

        for round_index in range(budget.rounds):
            self._round_histograms = []
            for _ in range(budget.simulations_per_round):
                self._iteration(round_index)
            self._update_weights(round_index)
            self._refine_motifs(round_index)
            self.log.flush()  # a failed or killed run keeps every finished round
        return self.best_program(), self.log

    def _update_weights(self, round_index: int) -> None:
        corr = correlations(self.buffer) if len(self.buffer) >= 2 else None
        updated = False
        if self.adaptive_weights and round_index >= self.adaptation.warmup_rounds and corr is not None:
            self.weights = update_weights(self.weights, self.buffer, self.adaptation, round_index)
            updated = True
        self.log.append(
            "weights_updated",
            round=round_index,
            weights=self.weights.as_dict(),
            correlations=corr,
            updated=updated,
        )

    def _refine_motifs(self, round_index: int) -> None:
        lib = self.scorer.library
        if lib is None or lib.frozen:
            return
        if round_index == 0 or round_index % lib.config.refinement_period != 0:
            return
        if not self._round_histograms:
            return
        self.scorer.library = refine(
            lib,
            self._round_histograms,
            round_index=round_index,
            seed=self.budget.seed + round_index,
        )
        self.log.append(
            "refined",
            round=round_index,
            library_size=len(self.scorer.library.motifs),
            observed=len(self._round_histograms),
        )

    def best_program(self) -> WorkflowProgram:
        """Highest mean simulated reward; ties favor compliance, then age."""
        return self._best_node().program

    def best_node_stats(self) -> dict:
        node = self._best_node()
        return {
            "node_id": node.node_id,
            "mean_reward": node.mean_reward,
            "simulations": node.own_simulations,
            "compliance": node.compliance,
        }

    def _best_node(self) -> SearchNode:
        best = self.root
        best_key = (-1.0, -1.0, 0)
        for node in self._walk():
            if node.own_simulations == 0:
                continue
            key = (node.mean_reward, node.compliance, -node.created_index)
            if key > best_key:
                best, best_key = node, key
        return best

    def _walk(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def _token_fields(record: TokenRecord) -> dict:
    """The usage fields of a record whose event consumed a proposer or executor request."""
    return dict(
        role=record.role,
        request_id=record.request_id,
        tokens_in=record.prompt_tokens,
        tokens_out=record.completion_tokens,
    )


def _dominant_families(vector: ConstraintVector) -> list[str]:
    """Families most responsible for a low score: everything failing (< 0.5),
    or the argmin when nothing is on the failing side."""
    scores = vector.as_dict()
    failing = sorted((fam for fam, s in scores.items() if s < 0.5), key=lambda f: scores[f])
    if failing:
        return failing
    low = min(scores.values())
    return [fam for fam, s in scores.items() if s == low]

