import json
import math

import pytest

from wfopt.reporting import analyze, report, variance_ratio
from wfopt.runlog import RunLog


def log_with_round_scores(scores, proposed=0, pruned=0):
    log = RunLog()
    log.append("meta", round=None, n_problems=4, prices={"optimizer": [0, 0], "executor": [0, 0]})
    if proposed:
        log.append("proposed", round=0, role="optimizer", node_id="n0", count=proposed,
                   tokens_in=10, tokens_out=5)
    for _ in range(pruned):
        log.append("pruned", round=0, node_id=None, parent="n0", C_total=0.2, tau=0.6)
    for rnd, score in enumerate(scores):
        log.append("simulated", round=rnd, role="executor", node_id=f"n{rnd}",
                   reward=score, C_total=0.5, tokens_in=100, tokens_out=20)
        log.append("simulated", round=rnd, role="executor", node_id=f"m{rnd}",
                   reward=score / 2, C_total=0.5, tokens_in=100, tokens_out=20)
    return log


def test_round_scores_take_best_per_round():
    log = log_with_round_scores([0.5, 0.7, 0.9])
    assert analyze(log).round_scores == (0.5, 0.7, 0.9)


def test_mean_and_population_std_hand_case():
    stats = analyze(log_with_round_scores([0.5, 0.7, 0.9]))
    assert stats.mean_score == pytest.approx(0.7, abs=1e-12)
    assert stats.std_score == pytest.approx(math.sqrt(0.08 / 3), abs=1e-12)
    assert stats.std_score == pytest.approx(0.1633, abs=1e-4)


def test_pruning_rate_one_third():
    stats = analyze(log_with_round_scores([0.5], proposed=3, pruned=1))
    assert stats.pruning_rate == pytest.approx(1 / 3, abs=1e-12)


def test_tokens_use_meta_problem_count():
    stats = analyze(log_with_round_scores([0.5]))
    # two simulated records of 120 tokens each over 4 problems
    assert stats.tokens_per_problem == pytest.approx(60.0, abs=1e-12)


def test_variance_ratio_identical_logs():
    a = analyze(log_with_round_scores([0.5, 0.7, 0.9]))
    b = analyze(log_with_round_scores([0.5, 0.7, 0.9]))
    assert variance_ratio(a, b) == pytest.approx(1.0, abs=1e-12)


def test_report_requires_a_log():
    with pytest.raises(ValueError):
        report([])


def test_report_table_lists_each_run(tmp_path):
    for name in ("one", "two"):
        log_with_round_scores([0.4, 0.6]).save(tmp_path / f"{name}.ndjson")
    stats, table = report([tmp_path / "one.ndjson", tmp_path / "two.ndjson"])
    assert len(stats) == 2
    assert "variance ratio" in table


def test_ndjson_bytes_match_json_dumps(tmp_path):
    log = RunLog()
    log.append("meta", seed=3, config={"b": {"z": 1, "a": [1.5, None]}, "a": None}, tags=["x", "é"])
    log.append("simulated", round=0, node_id=None, reward=0.1 + 0.2, C_vector={"units": 1e-300, "types": -0.0},
               correlations=None, scores=[float("inf"), float("nan"), 3])
    log.append("weights_updated", round=1, weights={"units": 1 / 3}, updated=True)
    expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in log)
    log.save(tmp_path / "log.ndjson")
    assert (tmp_path / "log.ndjson").read_bytes() == expected.encode()


@pytest.mark.parametrize("line, message", [
    ('{"event": "simulated", "round": 0, "reward": NaN}', "'reward' is not a finite number"),
    ('{"event": "simulated", "round": 0, "reward": 1e400}', "'reward' is not a finite number"),
    ('{"event": "simulated", "round": 0, "reward": -Infinity}', "'reward' is not a finite number"),
    ('{"event": "simulated", "round": 0, "reward": 1' + "0" * 400 + "}", "'reward' is not a finite number"),
    ('{"event": "meta", "prices": {"optimizer": [NaN, 0], "executor": [0, 0]}}',
     "'prices' is not a pair of numbers for role 'optimizer'"),
    ('{"event": "meta", "prices": {"optimizer": [0, 0], "executor": [0, 1' + "0" * 400 + "]}}",
     "'prices' is not a pair of numbers for role 'executor'"),
], ids=["nan-reward", "overflowing-float-reward", "minus-infinity-reward", "huge-integer-reward", "nan-price",
        "huge-integer-price"])
def test_report_refuses_a_number_no_float_holds(tmp_path, line, message):
    """A reward or price that is NaN, infinite or an integer too large for a
    float is refused by name, as a mistyped one is: it would otherwise print
    as `nan` or `inf`, or end the report in an `OverflowError`."""
    path = tmp_path / "log.ndjson"
    path.write_text(line + "\n")
    event = line.split('"event": "', 1)[1].split('"', 1)[0]
    with pytest.raises(ValueError) as raised:
        report([path])
    assert str(raised.value).startswith(f"{event} record {{") and message in str(raised.value)


def test_whole_numbers_may_be_written_as_floats():
    """A run log is a wire document: a count written `2.0` is the count 2, as
    JSON Schema reads it, while a fractional one is refused by name."""
    log = log_with_round_scores([0.5], proposed=3)
    records = [dict(record) for record in log]
    for record in records:
        for name in ("count", "round", "tokens_in", "tokens_out", "n_problems"):
            if type(record.get(name)) is int:
                record[name] = float(record[name])
    assert analyze(records) == analyze(log)
    records[1]["count"] = 2.5
    with pytest.raises(ValueError, match="'count' is not a whole number"):
        analyze(records)
