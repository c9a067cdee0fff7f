"""Golden digests of the default run, the desk-scale runs and the benchmark's workloads.

`test_c6_determinism` compares two runs of one build; these digests hold the
same artifacts fixed across changes to the code. A refactor must leave them
unchanged. A change that alters them on purpose updates the digest here and
says in CHANGES.md which behaviour changed and why.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from wfopt.config import RunConfig, config_from_dict
from wfopt.constraints import AggregationConfig, ConstraintScorer, ThresholdSchedule
from wfopt.driver import execute_run
from wfopt.harness import ProposerConfig, SyntheticEvaluator, SyntheticProposer, make_synthetic_suite
from wfopt.model import default_registry
from wfopt.search import Optimizer, SearchBudget

# sha256 of each artifact of `execute_run(RunConfig())`, seed 42
GOLDEN = {
    "runlog.ndjson": "5e2a8950eacfebfcea9f007d1454127ad400a7478b4ef0eb552cee12e82fd3a4",
    "best_workflow.json": "ec9b47a7ed27fa620258024356ac8b890381732a43663fcf3d89ba5fffee25cf",
    "motifs.json": "90269e4da93f8dbf03ad815cde2e8db9d9c4b7ba943fb0fccb242873be8d0798",
    "summary.json": "2c596b376e0ef279ec6fd34df9cb6ca05a66a2f58a7717c0cca3d48d4c8f1c0b",
}


def test_default_run_artifacts_match_golden_digests(tmp_path):
    config = RunConfig()
    assert config.seed == 42
    execute_run(config, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert digests == GOLDEN


# sha256 of the saved run log of the desk-scale run that acceptance test C3
# makes for each seed. `max_operator_nodes=2` makes the proposer's size check
# reject candidates, a path the default run does not exercise as often.
DESK_RUNLOGS = {
    0: "07767908679c398feda128fd911c9b183791cddf422c89eaca3720154632eb3c",
    1: "94b6cf9f7bcc0036831f96be743af01609e26e32331e6100072bd65cac58ea6e",
    2: "99bdaa097cf4a24350868c5216ee9008c8bd9150dbef76e8d0cb26a5baadf215",
    3: "5ed9c533b2db6661bef88331afbb350832e53630963938a7a97b71dec20a96fb",
    4: "facc9872b5780fd42638b4283ed78c7176ce70352482599c3972229a5a66011a",
}


def desk_run_log(seed):
    registry = default_registry()
    proposer_config = ProposerConfig(ops=("add", "mul", "neg"), max_operator_nodes=2)
    suite = make_synthetic_suite(seed=seed, n_problems=10, proposer_config=proposer_config, target_edits=2)
    optimizer = Optimizer(
        suite.initial_program,
        SyntheticProposer(registry, proposer_config),
        SyntheticEvaluator(suite.validation, registry),
        ConstraintScorer(registry, library=None, category="cat0", agg=AggregationConfig(lambda_shaping=0.5)),
        budget=SearchBudget(rounds=15, simulations_per_round=8, max_candidates_per_expansion=64, seed=seed),
        schedule=ThresholdSchedule(),
    )
    _, log = optimizer.run()
    return log


@pytest.mark.parametrize("seed", sorted(DESK_RUNLOGS))
def test_desk_run_logs_match_golden_digests(tmp_path, seed):
    path = tmp_path / "runlog.ndjson"
    desk_run_log(seed).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DESK_RUNLOGS[seed]


def _benchmark_workloads():
    """`perfbench/workloads.py`, loaded by path: the benchmark is no package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of the saved run log of one search of each workload in
# `perfbench/workloads.py`, by workload and seed: seed 42 computed at commit
# e367cdf, seed 7 at commit c8c6c3a (`remote_eval` at commit 97c74d5).
# `edit_heavy` and `wide_scoring` equal the digests that
# `python3 perfbench/run.py --workload W --seed S` prints.
# `remote_eval` is evaluated in-process here, as the benchmark's cross-check
# does: the config of the stdio peer names the interpreter's path, so its run
# log, and the digest the benchmark prints, differ by machine.
WORKLOAD_RUNLOGS = {
    ("edit_heavy", 42): "a7eed2ed4c6315bb085f8097d102f1e83a0af05b6bc5e3951f1a55f58c764f19",
    ("wide_scoring", 42): "58f595e48e2c19936bf9cf70b800f1589981fc06c7849dfb88db968f07805f41",
    ("remote_eval", 42): "061b2eeab1c8f273b809774e81e85cc1bb1bdc35774e1a2d00c8b064fb2d68f7",
    ("edit_heavy", 7): "d01bd29f2be295fa5a13954118195b786a3f2697a6ce0a7eae3deb1961000229",
    ("wide_scoring", 7): "94a1067849c18c38b90f8b6fb3331d9e714c18dc73ae461cf81c2b5a94f15ff6",
    ("remote_eval", 7): "2715c5871731ce952eb299d380b8b01ae2a9960795b382c9134980321d32195c",
}


def runlog_digest(config, out):
    execute_run(config_from_dict(config), out)
    return hashlib.sha256((out / "runlog.ndjson").read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "workload, seed", sorted(WORKLOAD_RUNLOGS),
    ids=[w if s == 42 else f"{w}-seed{s}" for w, s in sorted(WORKLOAD_RUNLOGS)],
)
def test_workload_run_logs_match_golden_digests(tmp_path, workload, seed):
    config = _benchmark_workloads().run_config(workload, seed=seed, in_process=True)
    assert runlog_digest(config, tmp_path) == WORKLOAD_RUNLOGS[workload, seed]


# No run above offers a constant to the proposer. With a palette holding both
# zeros, a candidate set that merged 0.0 and -0.0 would sample other edits and
# so change this digest (computed at commit e367cdf).
PALETTE_CONFIG = {
    "seed": 42,
    "budget": {"rounds": 4, "simulations_per_round": 8},
    "proposer": {"ops": ["add", "sub", "mul", "neg"], "const_palette": [0.0, -0.0, 1.0], "max_operator_nodes": 4},
}
PALETTE_RUNLOG = "190549c639fa5e6fc5a2ce8658adf77a02fe34b1c384dba48c32b0bff083d618"


def test_const_palette_run_log_matches_golden_digest(tmp_path):
    assert runlog_digest(PALETTE_CONFIG, tmp_path) == PALETTE_RUNLOG


# No run above tags its roots with units or offers signed constants with the
# whole registry, so none makes the unit check fail or the sign rules decide a
# domain check. This one does (computed at commit 4261b54).
UNITS_CONFIG = {
    "seed": 42,
    "budget": {"rounds": 8, "simulations_per_round": 8},
    "suite": {"unit_dims": ["m", "s"]},
    "proposer": {"ops": None, "const_palette": [-1.0, 0.0, 2.0], "max_operator_nodes": 4},
}
UNITS_RUNLOG = "617d666c02cd8dea0fa33e471ec6e15fe6b6a9f075b6aca28ce94ad11af0c06d"


def test_units_and_signs_run_log_matches_golden_digest(tmp_path):
    assert runlog_digest(UNITS_CONFIG, tmp_path) == UNITS_RUNLOG
