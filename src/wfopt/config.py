"""Run configuration: every engine constant in one strict JSON document.

Unknown keys are rejected everywhere so typos cannot silently fall back to
defaults. Defaults follow the published hyperparameters. The keys of each
section are the fields of its dataclass; a key a section leaves out keeps
the value it has in `RunConfig()`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Optional, Union, get_args, get_origin, get_type_hints
from urllib.parse import urlsplit

from . import schema
from .constraints import (
    AggregationConfig,
    DepthDiversityConfig,
    MagnitudeConfig,
    ThresholdSchedule,
)
from .harness import ProposerConfig
from .motifs import MotifConfig
from .reporting import PriceMap
from .search import SearchBudget, StageSwitches
from .weights import FAMILIES, AdaptationConfig

STAGES = tuple(f.name for f in fields(StageSwitches))


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SuiteConfig:
    """The synthetic suite: problem, category and root counts, and each target's distance from the start."""

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
        if self.n_roots < 1:
            raise ConfigError("suite.n_roots must be >= 1")
        # a target must differ from the one-operator initial program
        if self.target_edits < 1:
            raise ConfigError("suite.target_edits must be >= 1")


@dataclass(frozen=True)
class ExecutorConfig:
    """Where the executor role runs: in-process, at an HTTP address, or behind a stdio command."""

    mode: str = "synthetic"          # "synthetic" | "external"
    address: Optional[str] = None    # http URL for external mode
    command: Optional[tuple[str, ...]] = None  # stdio child process

    def __post_init__(self) -> None:
        if self.mode not in ("synthetic", "external"):
            raise ConfigError(f"executor.mode must be synthetic or external, got {self.mode!r}")
        if self.mode == "external" and not (self.address or self.command):
            raise ConfigError("external executor needs an address or a command")
        if self.address and self.command:  # an empty command is unset, as above
            raise ConfigError("executor.address and executor.command are both set; an executor takes exactly one")
        if self.address is not None:
            try:
                url = urlsplit(self.address)
                url.port  # raises for a port that is no number
                ok = url.scheme in ("http", "https") and bool(url.hostname)
            except ValueError:  # a port that is no number, or a malformed host
                ok = False
            if not ok:
                raise ConfigError(
                    "executor.address must be an http or https URL with a host and an optional numeric port, "
                    f"such as http://127.0.0.1:8080/, got {self.address!r}"
                )


@dataclass(frozen=True)
class AblationConfig:
    """The families and injection stages a run enables, and whether the family weights adapt."""

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
        self.stage_switches()  # rejects an empty stage set
        if not self.enabled_families:
            raise ConfigError("at least one constraint family must be enabled")

    def stage_switches(self) -> StageSwitches:
        return StageSwitches(**{stage: stage in self.enabled_stages for stage in STAGES})


@dataclass(frozen=True)
class RunConfig:
    """Every setting of one run, one section each; the JSON config document decodes into it."""

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

    @property
    def seed(self) -> int:
        """The run's one seed; the JSON document holds it at the top level."""
        return self.budget.seed

    def to_dict(self) -> dict:
        out: dict = {
            "seed": self.seed,
            "category": self.category,
            "prices": {role: list(p) for role, p in self.prices.prices.items()},
        }
        for name in _SECTIONS:
            section = getattr(self, name)
            values = {f.name: getattr(section, f.name) for f in fields(section)}
            out[name] = {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}
        del out["budget"]["seed"]
        return out


# section name -> its defaults; the keys a section accepts are its fields
_SECTIONS = {
    f.name: getattr(RunConfig(), f.name) for f in fields(RunConfig) if f.name not in ("category", "prices")
}


def _required(hint):
    """X for `Optional[X]`, any other hint as it is; the caller has handled null."""
    if get_origin(hint) is Union:
        return next(arg for arg in get_args(hint) if arg is not type(None))
    return hint


def _check_type(key: str, value: object, hint) -> None:
    """A bool, int or str setting takes exactly that JSON type; a float one a
    `schema.number`, as `json.loads` reads NaN, Infinity and any integer."""
    hint = _required(hint)
    if hint is float:
        schema.number(value, key, "float")
    elif type(value) is not hint:
        raise schema.FieldError(key, hint.__name__, value)


def _section(name: str, default, given: object):
    declared = {f.name: f for f in fields(default) if (name, f.name) != ("budget", "seed")}
    hints = get_type_hints(type(default))
    values = dict(schema.obj(given, name, known=declared.keys()))
    for key, value in given.items():
        # null stands for a setting only where its dataclass default is None
        if value is None and declared[key].default is None:
            continue
        hint = _required(hints[key])
        if get_origin(hint) is not tuple:
            _check_type(f"{name}.{key}", value, hint)
            continue
        # a list setting, tuple[entry, ...]: a float list's numbers become
        # floats, and null is an entry only of an Optional entry type
        entry = get_args(hint)[0]
        for item in schema.listed(value, f"{name}.{key}"):
            if item is not None or type(None) not in get_args(entry):
                _check_type(f"each entry of {name}.{key}", item, entry)
        values[key] = tuple(map(float, value)) if entry is float else tuple(value)
    return replace(default, **values)


def _checked_seed(seed: object) -> int:
    """The run's seed: an int that numpy can seed a generator with."""
    _check_type("seed", seed, int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _check_proposer(proposer: ProposerConfig) -> None:
    """A proposer with no operator or no edit kind cannot grow a target."""
    if proposer.ops is not None and not proposer.ops:
        raise ConfigError("proposer.ops must name at least one operator (or be null for the whole registry)")
    flags = ("allow_insert", "allow_replace", "allow_delete", "allow_rewire")
    if not any(getattr(proposer, flag) for flag in flags):
        raise ConfigError(f"proposer allows no edit kind: set one of {', '.join('proposer.' + f for f in flags)}")


def config_from_dict(data: Mapping) -> RunConfig:
    if not isinstance(data, Mapping):
        raise ConfigError("config must be an object")
    unknown = set(data) - {"seed", "category", "prices", *_SECTIONS}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        sections = {name: _section(name, default, data.get(name, {})) for name, default in _SECTIONS.items()}
        _check_proposer(sections["proposer"])
        if not 10 <= sections["motifs"].templates_per_category <= 15:  # what `init_templates` places
            raise ConfigError("motifs.templates_per_category must lie in [10, 15]")
        seed = _checked_seed(data.get("seed", _SECTIONS["budget"].seed))
        sections["budget"] = replace(sections["budget"], seed=seed)
        category = data.get("category")
        if category is not None:
            _check_type("category", category, str)
        prices = PriceMap(schema.prices(data["prices"], "float")) if "prices" in data else PriceMap.zero()
        return RunConfig(category=category, prices=prices, **sections)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


def load_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(data)


def with_overrides(config: RunConfig, *, seed: Optional[int] = None, executor: Optional[ExecutorConfig] = None) -> RunConfig:
    updated = config
    if seed is not None:
        updated = replace(updated, budget=replace(updated.budget, seed=_checked_seed(seed)))
    if executor is not None:
        updated = replace(updated, executor=executor)
    return updated
