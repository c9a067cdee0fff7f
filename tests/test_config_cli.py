import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from wfopt.cli import main
from wfopt.config import (
    ConfigError,
    ExecutorConfig,
    RunConfig,
    config_from_dict,
    load_config,
    with_overrides,
)
from wfopt.driver import ablation_grid, execute_run
from wfopt.model import loads_program, validate_program
from wfopt import runlog
from wfopt.runlog import RunLog

SRC = Path(__file__).resolve().parents[1] / "src"


def small_config_dict(**overrides):
    data = {
        "seed": 42,
        "budget": {"rounds": 3, "simulations_per_round": 4, "max_candidates_per_expansion": 6},
        "suite": {"n_problems": 10},
        "proposer": {"ops": ["add", "mul", "neg"], "max_operator_nodes": 2},
        "motifs": {"templates_per_category": 10},
    }
    data.update(overrides)
    return data


def neg_workflow(*, node=None, **fields):
    """The workflow `x0 -> neg n0`, its second node updated with `node` and
    its top-level fields replaced by `fields`."""
    data = {"nodes": [{"id": "x0", "op": "input"}, {"id": "n0", "op": "neg", **(node or {})}],
            "edges": [["x0", "n0", 0]], "roots": ["x0"], "output": "n0"}
    data.update(fields)
    return json.dumps(data)


class TestConfigParsing:
    def test_defaults(self):
        config = config_from_dict({})
        assert config.seed == 42
        assert config.aggregation.epsilon == 0.01
        assert config.threshold.tau0 == 0.6
        assert config.budget.rounds == 15
        assert config.adaptation.warmup_rounds == 5

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown keys in threshold"):
            config_from_dict({"threshold": {"tau0": 0.5, "extra": 1}})

    def test_no_stages_rejected(self):
        with pytest.raises(ConfigError, match="injection stage"):
            config_from_dict({"ablation": {"enabled_stages": []}})

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match="unknown constraint families"):
            config_from_dict({"ablation": {"enabled_families": ["vibes"]}})

    def test_bad_value_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            config_from_dict({"aggregation": {"epsilon": -1.0}})

    def test_seed_flows_into_budget(self):
        config = config_from_dict({"seed": 7})
        assert config.budget.seed == 7

    def test_overrides(self):
        config = with_overrides(RunConfig(), seed=9, executor=ExecutorConfig(mode="synthetic"))
        assert config.seed == 9
        assert config.budget.seed == 9

    def test_seed_is_not_a_second_field(self):
        with pytest.raises(TypeError):
            RunConfig(seed=7)
        with pytest.raises(TypeError):
            replace(RunConfig(), seed=7)

    def test_round_trip_through_dict(self):
        config = config_from_dict(small_config_dict())
        again = config_from_dict(config.to_dict())
        assert again == config

    @pytest.mark.parametrize(
        "section, value",
        [
            ("executor", {"command": ()}),
            ("suite", {"unit_dims": ()}),
            ("proposer", {"ops": None}),
            ("suite", {"unit_dims": ("m", None)}),
        ],
        # the ids the cases had beside a case of empty `proposer.ops`, which
        # is now refused (test_proposer_that_cannot_edit_rejected)
        ids=["executor-value1", "suite-value2", "proposer-value3", "suite-value4"],
    )
    def test_round_trip_keeps_empty_and_null_lists(self, section, value):
        config = RunConfig()
        config = replace(config, **{section: replace(getattr(config, section), **value)})
        assert config_from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_partial_proposer_keeps_default_ops(self):
        config = config_from_dict({"proposer": {"max_operator_nodes": 6}})
        assert config.proposer == RunConfig().proposer
        assert config.proposer.ops == ("add", "sub", "mul", "neg")

    @pytest.mark.parametrize(
        "section, value, key",
        [
            ("suite", {"unit_dims": "ab"}, "suite.unit_dims"),
            ("proposer", {"ops": "add"}, "proposer.ops"),
            ("proposer", {"const_palette": None}, "proposer.const_palette"),
            ("suite", {"n_roots": 0}, "suite.n_roots"),
            ("suite", {"target_edits": -1}, "suite.target_edits"),
            ("prices", {"optimizer": [1]}, "prices.optimizer"),
            # numbers that overflow a float, or divide by zero, mid-search
            ("magnitude", {"gamma": 309}, "magnitude.gamma must be in [0, 308]"),
            ("magnitude", {"gamma": -400}, "magnitude.gamma must be in [0, 308]"),
            ("magnitude", {"gamma": -1}, "magnitude.gamma must be in [0, 308]"),
            ("aggregation", {"epsilon": 2000}, "aggregation.lambda_shaping * (1 + aggregation.epsilon) must be <= 682"),
            ("aggregation", {"lambda_shaping": 1e300}, "aggregation.lambda_shaping * (1 + aggregation.epsilon)"),
            ("adaptation", {"eta": 1e308}, "adaptation.eta must be in [0, 700]"),
            ("adaptation", {"eta": 700.5}, "adaptation.eta must be in [0, 700]"),
            # a run's records are charged to both roles
            ("prices", {"optimizer": [1e-6, 2e-6]}, "prices.executor is missing"),
            ("prices", {"executor": [0, 0]}, "prices.optimizer is missing"),
            ("prices", {}, "prices.optimizer is missing"),
            # an address the HTTP transport cannot reach
            ("executor", {"address": "http://host:notaport/"}, "executor.address must be an http or https URL"),
            ("executor", {"address": "notaurl"}, "executor.address"),
            ("executor", {"mode": "external", "address": "localhost:8080"}, "executor.address"),
            ("executor", {"address": "ftp://host:21/"}, "executor.address"),
            ("executor", {"address": "http://:8080/"}, "executor.address"),
            ("executor", {"address": "http://host:70000/"}, "executor.address"),
            ("executor", {"address": "http://[::1/"}, "executor.address"),
            # and the other range checks of the scoring sections name theirs
            ("threshold", {"tau_min": 0.7}, "threshold.tau_min <= threshold.tau0"),
            ("threshold", {"decay_k": -1}, "threshold.decay_k must be >= 0"),
            ("depth_diversity", {"d_max": 0}, "depth_diversity.d_max must be >= 1"),
            ("depth_diversity", {"beta": -1}, "depth_diversity.beta must be >= 0"),
            ("aggregation", {"epsilon": 0}, "aggregation.epsilon must be > 0"),
            ("magnitude", {"delta": 2}, "magnitude.delta must be in [0, 1]"),
            ("adaptation", {"alpha": 2}, "adaptation.alpha must be in [0, 1]"),
            # two transports: the stdio command would silently win
            ("executor", {"mode": "external", "address": "http://127.0.0.1:8080/", "command": ["peer"]},
             "executor.address and executor.command"),
        ],
    )
    def test_malformed_setting_rejected(self, section, value, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_dict({section: value})

    @pytest.mark.parametrize(
        "data, message",
        [
            *(
                ({"proposer": {key: "no"}}, f"proposer.{key} must be bool, got 'no'")
                for key in ("allow_insert", "allow_replace", "allow_delete", "allow_rewire")
            ),
            ({"proposer": {"allow_insert": 0}}, "proposer.allow_insert must be bool, got 0"),
            ({"proposer": {"allow_insert": None}}, "proposer.allow_insert must be bool, got None"),
            ({"seed": 7.9}, "seed must be int, got 7.9"),
            ({"seed": True}, "seed must be int, got True"),
            ({"seed": "7"}, "seed must be int, got '7'"),
            ({"budget": {"rounds": True}}, "budget.rounds must be int, got True"),
            ({"budget": {"rounds": 2.0}}, "budget.rounds must be int, got 2.0"),
            ({"budget": {"rounds": None}}, "budget.rounds must be int, got None"),
            ({"threshold": {"tau0": True}}, "threshold.tau0 must be float, got True"),
            ({"aggregation": {"epsilon": "0.1"}}, "aggregation.epsilon must be float, got '0.1'"),
            ({"executor": {"mode": 5}}, "executor.mode must be str, got 5"),
            ({"executor": {"address": 5}}, "executor.address must be str, got 5"),
            ({"category": 0}, "category must be str, got 0"),
            # json.loads reads NaN, Infinity and -Infinity as floats
            (json.loads('{"aggregation": {"uct_c": NaN}}'), "aggregation.uct_c must be a finite number, got nan"),
            (json.loads('{"aggregation": {"epsilon": Infinity}}'),
             "aggregation.epsilon must be a finite number, got inf"),
            (json.loads('{"adaptation": {"eta": Infinity}}'), "adaptation.eta must be a finite number, got inf"),
            (json.loads('{"depth_diversity": {"beta": NaN}}'), "depth_diversity.beta must be a finite number, got nan"),
            (json.loads('{"threshold": {"tau0": -Infinity}}'), "threshold.tau0 must be a finite number, got -inf"),
            # and an integer of any size, which float() cannot always take
            ({"aggregation": {"uct_c": 10**400}},
             "aggregation.uct_c must be a finite number, got an integer too large for a float"),
            (json.loads('{"threshold": {"tau0": -1' + "0" * 400 + '}}'),
             "threshold.tau0 must be a finite number, got an integer too large for a float"),
        ],
    )
    def test_setting_of_wrong_type_rejected(self, data, message):
        with pytest.raises(ConfigError) as raised:
            config_from_dict(data)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"proposer": {"const_palette": [True, "2"]}}, "each entry of proposer.const_palette must be float, got True"),
            ({"proposer": {"const_palette": [1, "2"]}}, "each entry of proposer.const_palette must be float, got '2'"),
            ({"proposer": {"ops": [1, 2]}}, "each entry of proposer.ops must be str, got 1"),
            ({"executor": {"mode": "external", "command": ["python", None]}},
             "each entry of executor.command must be str, got None"),
            ({"ablation": {"enabled_stages": [False]}}, "each entry of ablation.enabled_stages must be str, got False"),
            ({"prices": {"optimizer": [True, "0.5"]}}, "each price of prices.optimizer must be float, got True"),
            ({"prices": {"executor": [0, "0.5"]}}, "each price of prices.executor must be float, got '0.5'"),
            (json.loads('{"proposer": {"const_palette": [NaN]}}'),
             "each entry of proposer.const_palette must be a finite number, got nan"),
            (json.loads('{"prices": {"optimizer": [NaN, 1]}}'),
             "each price of prices.optimizer must be a finite number, got nan"),
            (json.loads('{"prices": {"executor": [0, Infinity]}}'),
             "each price of prices.executor must be a finite number, got inf"),
            ({"prices": {"optimizer": [10**400, 1]}},
             "each price of prices.optimizer must be a finite number, got an integer too large for a float"),
            (json.loads('{"proposer": {"const_palette": [1' + "0" * 400 + ']}}'),
             "each entry of proposer.const_palette must be a finite number, got an integer too large for a float"),
            ({"suite": {"unit_dims": [{"a": 1}]}}, "each entry of suite.unit_dims must be str, got {'a': 1}"),
            ({"suite": {"unit_dims": [5, "m"]}}, "each entry of suite.unit_dims must be str, got 5"),
            ({"suite": {"unit_dims": [5]}}, "each entry of suite.unit_dims must be str, got 5"),
        ],
    )
    def test_list_entry_of_wrong_type_rejected(self, data, message):
        # a number in a float list or a price is converted, as before; a
        # true/false, a string or a null is not taken for one
        with pytest.raises(ConfigError) as raised:
            config_from_dict(data)
        assert str(raised.value) == message

    def test_numbers_in_float_lists_become_floats(self):
        config = config_from_dict({"proposer": {"const_palette": [1, -0.0]},
                                   "prices": {"optimizer": [0, 2], "executor": [0, 0]}})
        assert [repr(v) for v in config.proposer.const_palette] == ["1.0", "-0.0"]
        assert [repr(v) for v in config.prices.for_role("optimizer")] == ["0.0", "2.0"]

    def test_valid_setting_kept_as_given(self):
        data = {"threshold": {"tau0": 1}, "executor": {"address": None}, "category": None, "seed": 7}
        config = config_from_dict(data)
        written = config.to_dict()
        assert type(written["threshold"]["tau0"]) is int
        assert (written["executor"]["address"], written["category"], written["seed"]) == (None, None, 7)
        assert config_from_dict(written) == config

    def test_readme_lists_every_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert config_from_dict(json.loads(block)) == RunConfig()
        assert json.loads(block) == RunConfig().to_dict()

    def test_external_needs_address(self):
        with pytest.raises(ConfigError):
            config_from_dict({"executor": {"mode": "external"}})

    @pytest.mark.parametrize(
        "address", ["http://127.0.0.1:8080/", "https://example.org:443/path", "http://[::1]:1", "http://host/",
                    "https://example.org/path"])
    def test_http_address_with_host_accepted(self, address):
        assert config_from_dict({"executor": {"mode": "external", "address": address}}).executor.address == address

    @pytest.mark.parametrize(
        "key, value",
        [("refinement_period", 0), ("refinement_period", -3), ("cluster_count_per_category", 0)],
    )
    def test_motif_setting_below_one_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"motifs.{key} must be >= 1"):
            config_from_dict({"motifs": {key: value}})

    @pytest.mark.parametrize(
        "motifs, message",
        [
            ({"max_per_category": 0}, "motifs.max_per_category must be >= motifs.templates_per_category"),
            ({"templates_per_category": 31}, "motifs.max_per_category must be >= motifs.templates_per_category"),
            ({"min_separation": 1.5}, "motifs.min_separation must be in [0, 1]"),
            ({"min_separation": -0.1}, "motifs.min_separation must be in [0, 1]"),
            ({"templates_per_category": 5}, "motifs.templates_per_category must lie in [10, 15]"),
        ],
    )
    def test_motif_setting_out_of_range_rejected(self, motifs, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict({"motifs": motifs})


    @pytest.mark.parametrize(
        "proposer, key",
        [
            ({"ops": []}, "proposer.ops"),
            ({flag: False for flag in ("allow_insert", "allow_replace", "allow_delete", "allow_rewire")},
             "proposer.allow_insert"),
        ],
        ids=["no-ops", "no-edit-kind"],
    )
    def test_proposer_that_cannot_edit_rejected(self, proposer, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_dict({"proposer": proposer})

    @pytest.mark.parametrize("seed", [-1, -5, -(2**70)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match=re.escape(f"seed must be >= 0, got {seed}")):
            config_from_dict({"seed": seed})
        with pytest.raises(ConfigError, match=re.escape(f"seed must be >= 0, got {seed}")):
            with_overrides(RunConfig(), seed=seed)
        assert config_from_dict({"seed": 0}).seed == with_overrides(RunConfig(), seed=0).seed == 0

class TestAblationGrid:
    def test_grid_contents(self):
        grid = ablation_grid(RunConfig())
        names = set(grid)
        assert "full" in names and "fixed_weights" in names
        assert {f"family_{f}" for f in ("units", "types", "pattern", "magnitude", "depth", "diversity")} <= names
        assert {f"stage_{s}" for s in ("selection", "expansion", "simulation", "backprop")} <= names
        assert grid["family_depth"].ablation.enabled_families == ("depth",)
        assert grid["stage_selection"].ablation.enabled_stages == ("selection",)
        assert grid["fixed_weights"].ablation.adaptive_weights is False


class TestCli:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config_dict()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        for name in ("runlog.ndjson", "best_workflow.json", "motifs.json", "summary.json"):
            assert (out / name).exists()
        assert "best validation reward" in capsys.readouterr().out

    def test_run_deterministic_artifacts(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config_dict()))
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_path), "--out", str(a)])
        main(["run", "--config", str(config_path), "--out", str(b)])
        for name in ("runlog.ndjson", "best_workflow.json", "motifs.json", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"bogus": true}')
        assert main(["run", "--config", str(config_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_zero_refinement_period_is_a_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config_dict(motifs={"refinement_period": 0})))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert "motifs.refinement_period" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "separation, message",
        [(1.5, "motifs.min_separation must be in [0, 1]"), (1.0, "cannot place 10 templates")],
    )
    def test_bad_min_separation_exits_2(self, tmp_path, capsys, separation, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config_dict(motifs={"min_separation": separation})))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_category_not_in_suite_exits_2(self, tmp_path, capsys, command):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config_dict(category="cat9")))
        assert main([command, "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert "error: category 'cat9' is not one of the suite's categories ['cat0']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "proposer, message",
        [
            ({"ops": []}, "error: proposer.ops must name at least one operator"),
            ({flag: False for flag in ("allow_insert", "allow_replace", "allow_delete", "allow_rewire")},
             "error: proposer allows no edit kind"),
            ({"ops": ["neg"], "max_operator_nodes": 1},
             "error: could not grow a usable target program in 200 attempts with proposer.ops = ['neg'], "
             "proposer.max_operator_nodes = 1 and suite.target_edits = 3"),
            ({"allow_insert": False},
             "error: could not grow a usable target program in 200 attempts: proposer.allow_insert is false"),
        ],
        ids=["no-ops", "no-edit-kind", "cannot-grow-a-target", "no-insertion"],
    )
    def test_proposer_that_cannot_grow_a_target_exits_2(self, tmp_path, capsys, proposer, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"proposer": proposer}))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"magnitude": {"gamma": 309}}, "error: magnitude.gamma must be in [0, 308]"),
            ({"magnitude": {"gamma": -400}}, "error: magnitude.gamma must be in [0, 308]"),
            ({"aggregation": {"epsilon": 2000}},
             "error: aggregation.lambda_shaping * (1 + aggregation.epsilon) must be <= 682"),
            ({"adaptation": {"eta": 1e308}}, "error: adaptation.eta must be in [0, 700]"),
            ({"prices": {"optimizer": [1e-6, 2e-6]}}, "error: prices.executor is missing"),
            ({"executor": {"mode": "external", "address": "http://host:notaport/"}},
             "error: executor.address must be an http or https URL with a host and an optional numeric port"),
            ({"executor": {"mode": "external", "address": "notaurl"}}, "error: executor.address"),
            ({"aggregation": {"uct_c": -1}}, "error: aggregation.uct_c must be a finite number >= 0"),
            # 1e300 alone scores a visited child about 1e301 at the default lambda_shaping; at 20 it overflows
            ({"aggregation": {"uct_c": 1e300, "lambda_shaping": 20}},
             "error: aggregation.uct_c is so large that a selection score overflows"),
        ],
        ids=["gamma-309", "gamma-minus-400", "epsilon-2000", "eta-1e308", "prices-without-executor",
             "address-port-not-a-number", "address-not-a-url", "uct-c-minus-1", "uct-c-1e300"],
    )
    def test_setting_that_would_fail_mid_run_exits_2(self, tmp_path, capsys, config, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config_dict(**config)))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("address", ["localhost:8080", "http://host:notaport/"])
    def test_executor_flag_names_the_address(self, tmp_path, capsys, address):
        with pytest.raises(SystemExit) as raised:
            main(["run", "--out", str(tmp_path / "out"), "--executor", f"external:{address}"])
        assert raised.value.code == 2
        assert "argument --executor: executor.address must be an http or https URL" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [["--seed", "-3"], ["--config", "negative-seed.json"]])
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        Path("negative-seed.json").write_text(json.dumps({"seed": -5}))
        assert main(["run", *args, "--out", "out"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0, got -")
        assert not Path("out").exists()

    def test_unreachable_external_executor_nonzero_exit(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config_dict()))
        code = main([
            "run", "--config", str(config_path), "--out", str(tmp_path / "out"),
            "--executor", "external:http://127.0.0.1:1/",
        ])
        assert code == 2
        assert "unreachable" in capsys.readouterr().err

    def test_report_on_run_output(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config_dict()))
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        assert main(["report", str(out / "runlog.ndjson")]) == 0
        table = capsys.readouterr().out
        assert "prune%" in table and "tok/prob" in table

    def test_report_two_logs_variance_ratio(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config_dict()))
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_path), "--out", str(a)])
        main(["run", "--config", str(config_path), "--out", str(b)])
        main(["report", str(a / "runlog.ndjson"), str(b / "runlog.ndjson")])
        out = capsys.readouterr().out
        assert "variance ratio" in out
        assert "1.0000" in out  # identical runs

    def test_report_malformed_log(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text('{"event": "meta"}\nnot json at all\n')
        assert main(["report", str(bad)]) == 2
        assert "2" in capsys.readouterr().err  # names the offending line

    @pytest.mark.parametrize("line, message", [
        ("[1,2]", "bad.ndjson:2: log line is not a JSON object with an 'event'"),
        ('{"round": 0}', "bad.ndjson:2: log line is not a JSON object with an 'event'"),
        ("[" * 100_000, "bad.ndjson:2: malformed log line"),
        ('{"event": "simulated", "reward": 0.5}', "simulated record without 'round'"),
        ('{"event": "simulated", "round": 0}', "simulated record without 'reward'"),
    ], ids=["not-an-object", "no-event", "nested-too-deeply", "no-round", "no-reward"])
    def test_report_bad_log_line_exits_2(self, tmp_path, capsys, line, message):
        bad = tmp_path / "bad.ndjson"
        bad.write_text('{"event": "meta"}\n' + line + "\n")
        assert main(["report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("line, message", [
        ('{"event": "simulated", "round": 0, "reward": "x"}', "'reward' is not a number"),
        ('{"event": "proposed", "round": 0, "count": [1]}', "'count' is not an integer"),
        ('{"event": "meta", "round": null, "prices": {"optimizer": 5}}',
         "'prices' is not a pair of numbers for role 'optimizer'"),
        ('{"event": "simulated", "round": [0], "reward": 0.5}', "'round' is not an integer"),
        ('{"event": "simulated", "round": 0, "reward": 0.5, "role": "critic", "tokens_in": 3}',
         "'role' is not a priced role"),
        # counts outside 0 to 2**53: a huge one would overflow the summary's division
        ('{"event": "simulated", "round": 0, "reward": 0.5, "tokens_in": 1' + "0" * 400 + "}",
         "'tokens_in' is not a count from 0 to 2**53"),
        ('{"event": "simulated", "round": 0, "reward": 0.5, "tokens_in": 1, "tokens_out": 9007199254740993}',
         "'tokens_out' is not a count from 0 to 2**53"),
        ('{"event": "simulated", "round": 0, "reward": 0.5, "tokens_in": -1}',
         "'tokens_in' is not a count from 0 to 2**53"),
    ], ids=["string-reward", "list-count", "number-prices", "list-round", "unpriced-role", "huge-tokens-in",
            "tokens-out-above-2**53", "negative-tokens-in"])
    def test_report_mistyped_field_exits_2(self, tmp_path, capsys, line, message):
        bad = tmp_path / "bad.ndjson"
        bad.write_text(line + "\n")
        assert main(["report", str(bad)]) == 2
        err = capsys.readouterr().err
        event = json.loads(line)["event"]
        assert err.startswith(f"error: {event} record {{") and message in err

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("[" * 100_000)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {config_path}: invalid JSON:")
        with pytest.raises(ConfigError):
            load_config(config_path)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        json.dumps({"nodes": None, "edges": [], "roots": [], "output": "x0"}),
        json.dumps({"nodes": [{"id": "x0", "op": "input"}], "edges": None, "roots": ["x0"], "output": "x0"}),
        json.dumps({"nodes": [{"id": "x0", "op": "input", "unit": [1]}], "edges": [], "roots": ["x0"],
                    "output": "x0"}),
        '{"nodes": [{"id": "x0", "op": "input", "unit": {"m": 1e400}}], "edges": [], "roots": ["x0"], "output": "x0"}',
        json.dumps({"nodes": [{"id": "x0", "op": "input"}], "edges": [], "roots": ["x0"]}),
        "null",
        *(json.dumps({"nodes": [{"id": "x0", "op": "input", "unit": {"m": exponent}}], "edges": [], "roots": ["x0"],
                      "output": "x0"}) for exponent in (1.5, True, "1")),
        *(json.dumps({"nodes": [{"id": "x0", "op": "input"}, {"id": "n0", "op": "add"}],
                      "edges": [["x0", "n0", 0], ["x0", "n0", slot]], "roots": ["x0"], "output": "n0"})
          for slot in (1.9, True, "1")),
        *(json.dumps({"nodes": [{"id": "x0", "op": "input", "shape": shape}], "edges": [], "roots": ["x0"],
                      "output": "x0"}) for shape in ({"vector": 2.5}, {"vector": "3"}, {"matrix": [2, False]})),
        neg_workflow(node={"id": 1}),
        neg_workflow(node={"op": None}),
        neg_workflow(roots=[True]),
        neg_workflow(output=None),
        neg_workflow(edges=[[["x0"], "n0", 0]]),
        neg_workflow(edges=[["x0", 0, 0]]),
        neg_workflow(node={"op": "const", "value": "2.5"}, edges=[]),
        neg_workflow(node={"op": "const", "value": True}, edges=[]),
        neg_workflow(node={"op": "const", "value": math.nan}, edges=[]),
        neg_workflow(node={"op": "const", "value": math.inf}, edges=[]),
        neg_workflow(roots="x0"),
        neg_workflow(edges=[["x0", "n0"]]),
        json.dumps({"nodes": [{"id": "x0", "op": "input", "shape": {"matrix": [2, 3, 4]}}], "edges": [],
                    "roots": ["x0"], "output": "x0"}),
    ], ids=["nested-too-deeply", "null-nodes", "null-edges", "list-unit", "huge-exponent", "no-output", "null",
            "fractional-exponent", "bool-exponent", "string-exponent", "fractional-slot", "bool-slot", "string-slot",
            "fractional-dimension", "string-dimension", "bool-dimension", "number-id", "null-op", "bool-root",
            "null-output", "list-edge-source", "number-edge-destination", "string-value", "bool-value", "nan-value", "infinite-value",
            "string-roots", "two-entry-edge", "three-dimension-matrix"])
    def test_export_malformed_workflow_exits_2(self, tmp_path, capsys, text):
        source, dest = tmp_path / "bad.json", tmp_path / "out.json"
        source.write_text(text)
        with pytest.raises(ValueError):
            loads_program(text)
        assert main(["export", str(source), str(dest)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not dest.exists()

    @pytest.mark.parametrize("text, message", [
        (json.dumps({"nodes": None, "edges": [], "roots": [], "output": "x0"}), "nodes must be a list, got None"),
        (json.dumps({"nodes": [{"id": "x0", "op": "input", "unit": [1]}], "edges": [], "roots": ["x0"],
                     "output": "x0"}), "a node unit must be an object of exponents, got [1]"),
        (neg_workflow(edges=[["x0", "n0"]]), "an edge must be a [source, destination, slot] list, got ['x0', 'n0']"),
        (json.dumps({"nodes": [{"id": "x0", "op": "input", "shape": {"matrix": [2, 3, 4]}}], "edges": [],
                     "roots": ["x0"], "output": "x0"}), "a matrix shape must list two dimensions, got [2, 3, 4]"),
        (neg_workflow(nodes=[1]), "a node must be an object, got 1"),
        (neg_workflow(nodes=["ab"]), "a node must be an object, got 'ab'"),
        (neg_workflow(nodes=[["id", "x0"]]), "a node must be an object, got ['id', 'x0']"),
        (neg_workflow(nodes=[["id", "op"]]), "a node must be an object, got ['id', 'op']"),
        (neg_workflow(nodes=[{"op": "input"}]), "missing node key 'id' in {'op': 'input'}"),
        (neg_workflow(nodes=[{"id": "x0"}]), "missing node key 'op' in {'id': 'x0'}"),
        (json.dumps({"nodes": [], "edges": [], "roots": []}), "missing program keys: ['output']"),
        (json.dumps({"nodes": [], "roots": [], "output": "x0"}), "missing program keys: ['edges']"),
        (neg_workflow(edges=[None]), "an edge must be a [source, destination, slot] list, got None"),
        # a shape tag is exactly {"vector": n} or {"matrix": [m, n]}
        (json.dumps({"nodes": [{"id": "x0", "op": "input", "shape": {"vector": 3, "matrix": [2, 2]}}], "edges": [],
                     "roots": ["x0"], "output": "x0"}), "bad shape tag: {'vector': 3, 'matrix': [2, 2]}"),
        (json.dumps({"nodes": [{"id": "x0", "op": "input", "shape": {"matrix": [2, 3], "junk": 1}}], "edges": [],
                     "roots": ["x0"], "output": "x0"}), "bad shape tag: {'matrix': [2, 3], 'junk': 1}"),
    ], ids=["null-nodes", "list-unit", "two-entry-edge", "three-dimension-matrix", "number-node", "string-node",
            "pair-node", "key-pair-node", "node-without-id", "node-without-op", "no-output", "no-edges",
            "null-edge", "vector-and-matrix-shape", "matrix-shape-with-junk"])
    def test_export_names_the_malformed_field(self, tmp_path, capsys, text, message):
        source = tmp_path / "bad.json"
        source.write_text(text)
        assert main(["export", str(source), str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_export_round_trip_bytes(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config_dict()))
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        first = out / "best_workflow.json"
        second = tmp_path / "exported.json"
        third = tmp_path / "exported2.json"
        assert main(["export", str(first), str(second)]) == 0
        assert main(["export", str(second), str(third)]) == 0
        assert first.read_bytes() == second.read_bytes() == third.read_bytes()

    def test_export_rejects_invalid_program(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "nodes": [{"id": "x0", "op": "input"}, {"id": "n0", "op": "add"}],
            "edges": [["x0", "n0", 0]],
            "roots": ["x0"],
            "output": "n0",
        }))
        dest = tmp_path / "out.json"
        assert main(["export", str(bad), str(dest)]) == 1
        assert not dest.exists()
        assert "missing input slot" in capsys.readouterr().err

    def test_exported_workflow_revalidates_and_scores(self, tmp_path, registry):
        from wfopt.harness import SyntheticEvaluator

        config = config_from_dict(small_config_dict())
        out = tmp_path / "out"
        result = execute_run(config, out)
        program = loads_program((out / "best_workflow.json").read_text())
        assert validate_program(program, registry).ok
        reward, _, _ = SyntheticEvaluator(result.suite.validation, registry).evaluate(program)
        assert reward == result.summary["best_validation_reward"]


class TestRunLogFile:
    def test_meta_record_first(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config_dict()))
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        log = RunLog.load(out / "runlog.ndjson")
        assert log.records[0]["event"] == "meta"
        assert log.records[0]["n_problems"] == 10
        assert log.records[0]["config"]["seed"] == 42

    def test_a_killed_run_keeps_its_finished_rounds(self, tmp_path, monkeypatch):
        """`wfopt run` of a search of a million rounds, killed with SIGKILL
        once its log holds a `weights_updated` record, leaves a file whose
        whole lines are the whole first round and more, and are the first
        lines the same search writes in process: a prefix of its log, since
        the search is deterministic (it is stopped there, not run to the
        end)."""
        document = small_config_dict(budget={"rounds": 10**6, "simulations_per_round": 4,
                                             "max_candidates_per_expansion": 6})
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(document))
        path = tmp_path / "killed" / "runlog.ndjson"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        child = subprocess.Popen(
            [sys.executable, "-m", "wfopt", "run", "--config", str(config_path), "--out", str(path.parent)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30
            while b'"event": "weights_updated"' not in (path.read_bytes() if path.exists() else b""):
                assert child.poll() is None and time.monotonic() < deadline, "no round reached the disk"
                time.sleep(0.001)
            child.send_signal(signal.SIGKILL)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == -signal.SIGKILL
        *kept, _ = path.read_text().split("\n")  # whole lines only: the last piece has no newline

        # the run in process, stopped once it has written more lines than were kept
        class Enough(Exception):
            pass

        append, written = RunLog.append, []

        def append_until_enough(log, event, **fields):
            append(log, event, **fields)
            written.append(fields["round"])
            if len(written) > len(kept):
                raise Enough

        monkeypatch.setattr(RunLog, "append", append_until_enough)
        with pytest.raises(Enough):
            execute_run(config_from_dict(document), tmp_path / "whole")
        lines = (tmp_path / "whole" / "runlog.ndjson").read_text().splitlines()
        assert kept == lines[:len(kept)]
        assert written[len(kept)] not in (None, 0)  # the first line not kept is of a later round

    def test_a_run_that_fails_mid_search_keeps_its_log(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config_dict()))
        code = main([
            "run", "--config", str(config_path), "--out", str(tmp_path / "out"),
            "--executor", "external:http://127.0.0.1:1/",
        ])
        assert code == 2
        assert "unreachable" in capsys.readouterr().err
        lines = (tmp_path / "out" / "runlog.ndjson").read_text().splitlines()
        assert json.loads(lines[0])["event"] == "meta"

    def test_the_run_log_holds_no_record_in_memory(self, tmp_path):
        """What `src/wfopt/runlog.py` allocated and is still live after a run
        is far less than one record a simulation: each record is written
        to the file as it is appended and then dropped."""
        config = config_from_dict(small_config_dict(budget={"rounds": 12, "simulations_per_round": 4}))
        tracemalloc.start()
        try:
            result = execute_run(config, tmp_path)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        kept = snapshot.filter_traces([tracemalloc.Filter(True, runlog.__file__)])
        live = sum(stat.size for stat in kept.statistics("filename"))
        assert len(result.log) > 100
        assert live < 64 * 1024
