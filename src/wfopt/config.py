"""Run configuration: every engine constant in one strict JSON document.

Unknown keys are rejected everywhere so typos cannot silently fall back to
defaults. Defaults follow the published hyperparameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .constraints import (
    AggregationConfig,
    DepthDiversityConfig,
    MagnitudeConfig,
    ThresholdSchedule,
)
from .harness import PriceMap, ProposerConfig
from .search import SearchBudget, StageSwitches
from .weights import FAMILIES, AdaptationConfig

STAGES = ("selection", "expansion", "simulation", "backprop")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SuiteConfig:
    n_problems: int = 10
    category_count: int = 1
    n_roots: int = 2
    target_edits: int = 3
    unit_dims: Optional[tuple[Optional[str], ...]] = None

    def __post_init__(self) -> None:
        if self.n_problems < 5:
            raise ConfigError("suite.n_problems must be >= 5")
        if self.category_count < 1:
            raise ConfigError("suite.category_count must be >= 1")


@dataclass(frozen=True)
class MotifConfig:
    templates_per_category: int = 10
    refinement_period: int = 3
    cluster_count_per_category: int = 20
    min_separation: float = 0.3
    max_per_category: int = 30

    def __post_init__(self) -> None:
        # refinement runs on rounds divisible by the period, and keeps up to
        # that many centroids per category; below 1 either is meaningless
        if self.refinement_period < 1:
            raise ConfigError("motifs.refinement_period must be >= 1")
        if self.cluster_count_per_category < 1:
            raise ConfigError("motifs.cluster_count_per_category must be >= 1")


@dataclass(frozen=True)
class ExecutorConfig:
    mode: str = "synthetic"          # "synthetic" | "external"
    address: Optional[str] = None    # http URL for external mode
    command: Optional[tuple[str, ...]] = None  # stdio child process

    def __post_init__(self) -> None:
        if self.mode not in ("synthetic", "external"):
            raise ConfigError(f"executor.mode must be synthetic or external, got {self.mode!r}")
        if self.mode == "external" and not (self.address or self.command):
            raise ConfigError("external executor needs an address or a command")


@dataclass(frozen=True)
class AblationConfig:
    enabled_families: tuple[str, ...] = FAMILIES
    enabled_stages: tuple[str, ...] = STAGES
    adaptive_weights: bool = True

    def __post_init__(self) -> None:
        bad = set(self.enabled_families) - set(FAMILIES)
        if bad:
            raise ConfigError(f"unknown constraint families: {sorted(bad)}")
        bad = set(self.enabled_stages) - set(STAGES)
        if bad:
            raise ConfigError(f"unknown injection stages: {sorted(bad)}")
        if not self.enabled_stages:
            raise ConfigError("at least one injection stage must be enabled")
        if not self.enabled_families:
            raise ConfigError("at least one constraint family must be enabled")

    def stage_switches(self) -> StageSwitches:
        on = set(self.enabled_stages)
        return StageSwitches(
            selection="selection" in on,
            expansion="expansion" in on,
            simulation="simulation" in on,
            backprop="backprop" in on,
        )


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    category: Optional[str] = None   # None: use the suite's first category
    executor: ExecutorConfig = ExecutorConfig()
    aggregation: AggregationConfig = AggregationConfig()
    threshold: ThresholdSchedule = ThresholdSchedule()
    depth_diversity: DepthDiversityConfig = DepthDiversityConfig()
    magnitude: MagnitudeConfig = MagnitudeConfig()
    adaptation: AdaptationConfig = AdaptationConfig()
    budget: SearchBudget = SearchBudget()
    suite: SuiteConfig = SuiteConfig()
    motifs: MotifConfig = MotifConfig()
    proposer: ProposerConfig = ProposerConfig(ops=("add", "sub", "mul", "neg"))
    prices: PriceMap = field(default_factory=PriceMap.zero)
    ablation: AblationConfig = AblationConfig()

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "category": self.category,
            "executor": {
                "mode": self.executor.mode,
                "address": self.executor.address,
                "command": list(self.executor.command) if self.executor.command else None,
            },
            "aggregation": {
                "epsilon": self.aggregation.epsilon,
                "lambda_shaping": self.aggregation.lambda_shaping,
                "uct_c": self.aggregation.uct_c,
            },
            "threshold": {
                "tau0": self.threshold.tau0,
                "tau_min": self.threshold.tau_min,
                "decay_k": self.threshold.decay_k,
            },
            "depth_diversity": {"d_max": self.depth_diversity.d_max, "beta": self.depth_diversity.beta},
            "magnitude": {"gamma": self.magnitude.gamma, "delta": self.magnitude.delta},
            "adaptation": {
                "eta": self.adaptation.eta,
                "alpha": self.adaptation.alpha,
                "warmup_rounds": self.adaptation.warmup_rounds,
            },
            "budget": {
                "rounds": self.budget.rounds,
                "simulations_per_round": self.budget.simulations_per_round,
                "max_candidates_per_expansion": self.budget.max_candidates_per_expansion,
            },
            "suite": {
                "n_problems": self.suite.n_problems,
                "category_count": self.suite.category_count,
                "n_roots": self.suite.n_roots,
                "target_edits": self.suite.target_edits,
                "unit_dims": list(self.suite.unit_dims) if self.suite.unit_dims else None,
            },
            "motifs": {
                "templates_per_category": self.motifs.templates_per_category,
                "refinement_period": self.motifs.refinement_period,
                "cluster_count_per_category": self.motifs.cluster_count_per_category,
                "min_separation": self.motifs.min_separation,
                "max_per_category": self.motifs.max_per_category,
            },
            "proposer": {
                "ops": list(self.proposer.ops) if self.proposer.ops else None,
                "max_operator_nodes": self.proposer.max_operator_nodes,
                "const_palette": list(self.proposer.const_palette),
                "allow_insert": self.proposer.allow_insert,
                "allow_replace": self.proposer.allow_replace,
                "allow_delete": self.proposer.allow_delete,
                "allow_rewire": self.proposer.allow_rewire,
            },
            "prices": {role: list(p) for role, p in self.prices.prices.items()},
            "ablation": {
                "enabled_families": list(self.ablation.enabled_families),
                "enabled_stages": list(self.ablation.enabled_stages),
                "adaptive_weights": self.ablation.adaptive_weights,
            },
        }


def _section(data: Mapping, name: str, allowed: Sequence[str]) -> dict:
    section = data.get(name, {})
    if not isinstance(section, Mapping):
        raise ConfigError(f"{name} must be an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    return dict(section)


_TOP_KEYS = (
    "seed", "category", "executor", "aggregation", "threshold", "depth_diversity",
    "magnitude", "adaptation", "budget", "suite", "motifs", "proposer", "prices", "ablation",
)


def config_from_dict(data: Mapping) -> RunConfig:
    unknown = set(data) - set(_TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        executor = _section(data, "executor", ("mode", "address", "command"))
        if executor.get("command") is not None:
            executor["command"] = tuple(str(c) for c in executor["command"])
        agg = _section(data, "aggregation", ("epsilon", "lambda_shaping", "uct_c"))
        thr = _section(data, "threshold", ("tau0", "tau_min", "decay_k"))
        dd = _section(data, "depth_diversity", ("d_max", "beta"))
        mag = _section(data, "magnitude", ("gamma", "delta"))
        ada = _section(data, "adaptation", ("eta", "alpha", "warmup_rounds"))
        bud = _section(data, "budget", ("rounds", "simulations_per_round", "max_candidates_per_expansion"))
        suite = _section(data, "suite", ("n_problems", "category_count", "n_roots", "target_edits", "unit_dims"))
        if suite.get("unit_dims") is not None:
            suite["unit_dims"] = tuple(suite["unit_dims"])
        motifs = _section(
            data, "motifs",
            ("templates_per_category", "refinement_period", "cluster_count_per_category",
             "min_separation", "max_per_category"),
        )
        prop = _section(
            data, "proposer",
            ("ops", "max_operator_nodes", "const_palette", "allow_insert",
             "allow_replace", "allow_delete", "allow_rewire"),
        )
        if prop.get("ops") is not None:
            prop["ops"] = tuple(str(o) for o in prop["ops"])
        if "const_palette" in prop:
            prop["const_palette"] = tuple(float(v) for v in prop["const_palette"])
        abl = _section(data, "ablation", ("enabled_families", "enabled_stages", "adaptive_weights"))
        for key in ("enabled_families", "enabled_stages"):
            if key in abl:
                abl[key] = tuple(str(x) for x in abl[key])
        prices_raw = data.get("prices", {"optimizer": [0.0, 0.0], "executor": [0.0, 0.0]})
        if not isinstance(prices_raw, Mapping):
            raise ConfigError("prices must map role -> [input_price, output_price]")
        prices = PriceMap({str(role): (float(p[0]), float(p[1])) for role, p in prices_raw.items()})

        seed = int(data.get("seed", 42))
        budget_kwargs = dict(bud)
        return RunConfig(
            seed=seed,
            category=data.get("category"),
            executor=ExecutorConfig(**executor),
            aggregation=AggregationConfig(**agg),
            threshold=ThresholdSchedule(**thr),
            depth_diversity=DepthDiversityConfig(**dd),
            magnitude=MagnitudeConfig(**mag),
            adaptation=AdaptationConfig(**ada),
            budget=SearchBudget(seed=seed, **budget_kwargs),
            suite=SuiteConfig(**suite),
            motifs=MotifConfig(**motifs),
            proposer=ProposerConfig(**prop) if prop else ProposerConfig(ops=("add", "sub", "mul", "neg")),
            prices=prices,
            ablation=AblationConfig(**abl),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


def load_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(data)


def with_overrides(config: RunConfig, *, seed: Optional[int] = None, executor: Optional[ExecutorConfig] = None) -> RunConfig:
    from dataclasses import replace

    updated = config
    if seed is not None:
        updated = replace(updated, seed=seed, budget=replace(updated.budget, seed=seed))
    if executor is not None:
        updated = replace(updated, executor=executor)
    return updated
