import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfopt import adapter
from wfopt.cli import main
from wfopt.config import config_from_dict
from wfopt.constraints import (
    AggregationConfig,
    ConstraintScorer,
    ConstraintVector,
    DepthDiversityConfig,
    MagnitudeConfig,
    ThresholdSchedule,
    score_depth,
    score_diversity,
    score_magnitude,
    threshold,
)
from wfopt.driver import execute_run
from wfopt.edits import EditBase
from wfopt.harness import ProposerConfig, SyntheticProposer
from wfopt.model import (
    ExecutionTrace,
    MissingInputError,
    WorkflowProgram,
    WorkflowState,
    default_registry,
    interpret,
    loads_program,
    program_to_dict,
    validate_program,
)
from wfopt.motifs import MotifConfig, init_templates
from wfopt.weights import FAMILIES, AdaptationConfig, ObservationBuffer, WeightVector, update_weights

from conftest import binary, every_entry, prune_dead, random_program, without_verdict

REGISTRY = default_registry()

scores6 = st.lists(st.floats(0, 1), min_size=6, max_size=6)
positive_weights = st.lists(st.floats(0.01, 5.0), min_size=6, max_size=6)


def simplex(raw):
    total = sum(raw)
    return WeightVector.from_iterable(v / total for v in raw)


@settings(derandomize=True, deadline=None)
@given(scores6, positive_weights)
def test_aggregate_range(scores, raw_weights):
    total = ConstraintScorer(REGISTRY, agg=AggregationConfig()).total
    value = total(ConstraintVector(*scores), simplex(raw_weights))
    assert 0.01 - 1e-12 <= value <= 1.01 + 1e-12


@settings(derandomize=True, deadline=None)
@given(scores6, positive_weights, st.integers(0, 5), st.floats(0.0, 0.3))
def test_aggregate_monotone(scores, raw_weights, index, bump):
    total = ConstraintScorer(REGISTRY, agg=AggregationConfig()).total
    weights = simplex(raw_weights)
    bumped = list(scores)
    bumped[index] = min(1.0, bumped[index] + bump)
    assert total(ConstraintVector(*bumped), weights) >= total(ConstraintVector(*scores), weights) - 1e-12


@settings(derandomize=True, deadline=None)
@given(st.dictionaries(st.sampled_from(REGISTRY.names), st.integers(1, 50), min_size=1), st.integers(2, 12))
def test_diversity_scale_invariance(histogram, factor):
    base = score_diversity(WorkflowState(1, histogram), len(REGISTRY))
    scaled = score_diversity(WorkflowState(1, {k: factor * v for k, v in histogram.items()}), len(REGISTRY))
    assert scaled == pytest.approx(base, abs=1e-9)
    assert 0.0 <= base <= 1.0


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 200))
def test_depth_score_in_range_and_monotone(depth):
    cfg = DepthDiversityConfig()
    score = score_depth(WorkflowState(depth, {}), cfg)
    assert 0.0 <= score <= 1.0
    assert score >= score_depth(WorkflowState(depth + 1, {}), cfg)


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 500))
def test_threshold_floor(depth):
    sched = ThresholdSchedule()
    value = threshold(depth, sched)
    assert sched.tau_min <= value <= sched.tau0
    assert value >= threshold(depth + 1, sched)


@settings(derandomize=True, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    st.lists(st.floats(0.1, 1e3), min_size=1, max_size=4),
    st.floats(0.001, 1e3),
)
def test_magnitude_scale_invariance(values, inputs, scale):
    cfg = MagnitudeConfig()
    base = score_magnitude(ExecutionTrace(tuple(values), tuple(inputs), True, values[-1]), cfg)
    scaled = score_magnitude(
        ExecutionTrace(tuple(v * scale for v in values), tuple(v * scale for v in inputs), True, values[-1] * scale),
        cfg,
    )
    assert scaled == pytest.approx(base, abs=1e-9)
    assert 0.0 <= base <= 1.0


@settings(derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.lists(st.floats(0, 1), min_size=6, max_size=6), st.floats(0, 1)), min_size=1, max_size=40))
@example(observations=[([0.0] * 6, 0.0), ([0.0] * 5 + [1.175494351e-38], 2.832910288406577e-154)])
def test_weight_updates_stay_on_simplex(observations):
    buffer = ObservationBuffer(window=10)
    weights = WeightVector.uniform()
    cfg = AdaptationConfig()
    for step, (scores, reward) in enumerate(observations):
        buffer.push(ConstraintVector(*scores), reward)
        weights = update_weights(weights, buffer, cfg, round_index=cfg.warmup_rounds + step)
        assert sum(weights.as_tuple()) == pytest.approx(1.0, abs=1e-9)
        assert all(v > 0 for v in weights.as_tuple())


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.integers(0, 2**31 - 1))
def test_random_programs_interpret_or_fail_cleanly(seed):
    rng = np.random.default_rng(seed)
    program = random_program(rng, REGISTRY)
    inputs = {rid: float(rng.integers(-9, 10)) for rid in program.roots}
    trace = interpret(program, inputs, REGISTRY)
    if trace.success:
        assert trace.values
        assert all(math.isfinite(v) for v in trace.values)
    else:
        assert trace.violation


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.integers(0, 2**31 - 1))
def test_every_generated_edit_is_valid_after_pruning(seed):
    """Each edit generator builds only valid programs from a valid base, pruned
    of its dead nodes as the proposer prunes it, before the proposer's size
    limit and deduplication apply. A build carries its record's verdict, so
    an equal copy without it is checked in full."""
    rng = np.random.default_rng(seed)
    program = prune_dead(random_program(rng, REGISTRY))
    proposer = SyntheticProposer(REGISTRY, ProposerConfig(const_palette=(0.0, 1.5)))
    for edit in every_entry(proposer, program):
        report = validate_program(without_verdict(edit.build()), REGISTRY)
        assert report.ok, report.violations


def test_only_rewires_orphan_nodes_of_a_clean_base():
    """On a base where every node feeds the output, no candidate is left with
    a dead node: insertions, replacements and deletions orphan none, and a
    rewire that orphans some drops them, on its record and in its build."""
    rng = np.random.default_rng(17)
    proposer = SyntheticProposer(REGISTRY, ProposerConfig(const_palette=(0.0, 1.5)))
    orphaning_rewires = 0
    for _ in range(60):
        program = prune_dead(random_program(rng, REGISTRY))
        for edit in every_entry(proposer, program):
            candidate = edit.build()
            assert prune_dead(candidate) is candidate
        rewires = EditBase(program, REGISTRY).rewires()
        orphaning_rewires += sum(bool(edit.removed) for _, edit in rewires)
    assert orphaning_rewires > 0


# A valid workflow document that holds every kind of field the decoder reads.
WORKFLOW = {
    "nodes": [
        {"id": "x0", "op": "input", "unit": {"m": 1, "s": -2}, "shape": "scalar"},
        {"id": "c0", "op": "const", "value": 2.5, "shape": {"vector": 3}},
        {"id": "n0", "op": "mul", "shape": {"matrix": [2, 3]}},
    ],
    "edges": [["x0", "n0", 0], ["c0", "n0", 1]],
    "roots": ["x0"],
    "output": "n0",
}
# placeholders for JSON text `json.dumps` does not write, put in after it
RAW_TEXT = {"\x00big": "1e400", "\x00nested": "[" * 500 + "]" * 500, "\x00too-deep": "[" * 100_000 + "]" * 100_000}
ODD_VALUES = [None, True, 0, -1, 1.5, 10**400, math.nan, math.inf, "", "x" * 10_000, [], [1], {}, {"vector": None},
              *RAW_TEXT]


def _places(value, path=()):
    """The path of every value in a JSON document, the document's own first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _places(item, path + (key,))


PLACES = list(_places(WORKFLOW))


def _mutated_text(document, mutations, values):
    """The JSON text of `document` with each (path, change) of `mutations`
    made in turn: "drop" deletes the value at `path`, an index puts in that
    entry of `values`. A path an earlier mutation removed is skipped."""
    document = copy.deepcopy(document)
    for path, change in mutations:
        parent, value = None, document
        try:
            for key in path:
                if not isinstance(value, (dict, list)):
                    raise TypeError
                parent, value = value, value[key]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed this place
        if change == "drop":
            if parent is not None:
                del parent[path[-1]]
        elif parent is None:
            document = copy.deepcopy(values[change])
        else:
            parent[path[-1]] = copy.deepcopy(values[change])
    text = json.dumps(document)
    for placeholder, raw in RAW_TEXT.items():
        text = text.replace(json.dumps(placeholder), raw)
    return text


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(PLACES), st.sampled_from(["drop", *range(len(ODD_VALUES))])),
                min_size=1, max_size=3))
@example(mutations=[(("nodes", 0), ODD_VALUES.index(0))])
@example(mutations=[(("nodes", 2, "id"), "drop")])
@example(mutations=[(("edges", 1), ODD_VALUES.index(None))])
def test_a_broken_workflow_document_raises_only_a_named_value_error(mutations):
    """`loads_program` of a valid workflow document with keys dropped, or
    values changed to another type, to null, to numbers no float holds, to
    NaN, to a long string or to deep nesting, returns a program or raises a
    `ValueError` that names what is wrong: never another exception, and
    never a bare one wrapped as `malformed program: ...`."""
    text = _mutated_text(WORKFLOW, mutations, ODD_VALUES)
    try:
        program = loads_program(text)
    except ValueError as exc:
        assert not str(exc).startswith("malformed program: "), str(exc)
    else:
        assert isinstance(program, WorkflowProgram)


# Valid documents of the wire protocol, each holding every kind of field its
# decoder reads, and the decoder: an evaluate reply's traces and usage, a
# problem, and the two kinds of stdio request. The peer's roles decode a
# request; a KeyError they raise is a problem list that binds no value to a
# root of the program, which names the root.
PROBLEM = {"inputs": {"x0": 2.5, "x1": -1}, "expected": 1.5, "category": "c"}
ADD = program_to_dict(binary("add", "input", "input"))
WIRE_DOCUMENTS = {
    "trace": (adapter.trace_from_dict,
              {"values": [5.0, -2], "inputs": [2, 3.0], "success": True, "output": 5.0, "violation": None}),
    "failed trace": (adapter.trace_from_dict,
                     {"values": [1.5], "inputs": [-1.0], "success": False, "output": None, "violation": "sqrt"}),
    "usage": (lambda usage: adapter._usage_record(usage, "exe-00001"),
              {"prompt_tokens": 12, "completion_tokens": 3.0}),
    "problem": (adapter.problem_from_dict, PROBLEM),
    "evaluate request": (lambda request: adapter.SyntheticRoles(REGISTRY).handle(request),
                         {"kind": "evaluate", "program": ADD, "params": {"problems": [PROBLEM, PROBLEM]}}),
    "propose request": (lambda request: adapter.SyntheticRoles(REGISTRY).handle(request),
                        {"kind": "propose", "program": ADD, "params": {"count": 3, "seed": 7}}),
}


@st.composite
def wire_mutations(draw):
    """A document of `WIRE_DOCUMENTS` and up to three changes to it."""
    name = draw(st.sampled_from(sorted(WIRE_DOCUMENTS)))
    places = list(_places(WIRE_DOCUMENTS[name][1]))
    changes = st.tuples(st.sampled_from(places), st.sampled_from(["drop", *range(len(ODD_VALUES))]))
    return name, draw(st.lists(changes, min_size=1, max_size=3))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(wire_mutations())
@example(case=("trace", [(("success",), ODD_VALUES.index(None))]))
@example(case=("failed trace", [(("values", 0), ODD_VALUES.index(10**400))]))
@example(case=("usage", [(("prompt_tokens",), ODD_VALUES.index("\x00big"))]))
@example(case=("problem", [(("inputs",), ODD_VALUES.index("\x00too-deep"))]))
@example(case=("evaluate request", [(("params", "problems", 0), ODD_VALUES.index("x" * 10_000))]))
@example(case=("propose request", [(("params", "count"), ODD_VALUES.index(math.nan))]))
def test_a_broken_wire_document_is_refused_by_name(case):
    """A wire document with keys dropped, or values changed to another type,
    to null, to numbers no float holds, to NaN, to a long string or to deep
    nesting, decodes, or its decoder raises a `ValueError` that names the
    document or one of its fields: never another exception. An answer the
    peer's roles give in band names one too. JSON nested too deeply for
    `json.loads` is refused before any decoder sees it."""
    name, mutations = case
    decode, document = WIRE_DOCUMENTS[name]
    text = _mutated_text(document, mutations, ODD_VALUES)
    try:
        data = json.loads(text)
    except RecursionError:
        assert "\x00too-deep" in [ODD_VALUES[change] for _, change in mutations if change != "drop"]
        return
    # the document's name and its keys, in the singular ("a node value" names a field of "nodes")
    names = {name.split()[-1], *(key.rstrip("s") for place in _places(document) for key in place if type(key) is str)}
    try:
        decoded = decode(data)
    except (ValueError, MissingInputError) as exc:
        message = str(exc)
    else:
        message = decoded.get("error", "") if type(decoded) is dict else ""
    assert not message or any(key in message for key in names), message[:200]


# Numbers at the edges of what a float holds, for the config fuzz below; an
# int stays an int, so that the integer settings draw them too.
EXTREMES = [0, 1, -1, 1e-300, -1e-300, 1e300, -1e300, 308, 309, -324, 2000, 2**53 + 1]
# A run that takes tens of milliseconds: the fuzz leaves its sizes alone, so
# no draw can make it hang.
TINY_RUN = {
    "budget": {"rounds": 4, "simulations_per_round": 3, "max_candidates_per_expansion": 3},
    "suite": {"n_problems": 5, "target_edits": 1},
    "motifs": {"templates_per_category": 10, "cluster_count_per_category": 2, "max_per_category": 12},
    "proposer": {"ops": ["add", "mul", "neg"], "max_operator_nodes": 3},
    "prices": {"optimizer": [0.0, 0.0], "executor": [0.0, 0.0]},
}
# The place of each numeric setting the fuzz changes: a key path, a price's
# index in its pair, and the const palette's one entry.
NUMERIC_SETTINGS = [
    ("seed",),
    *((section, key) for section, keys in {
        "aggregation": ("epsilon", "lambda_shaping", "uct_c"),
        "threshold": ("tau0", "tau_min", "decay_k"),
        "depth_diversity": ("d_max", "beta"),
        "magnitude": ("gamma", "delta"),
        "adaptation": ("eta", "alpha", "warmup_rounds"),
        "motifs": ("refinement_period", "min_separation"),
    }.items() for key in keys),
    *(("prices", role, i) for role in ("optimizer", "executor") for i in (0, 1)),
    ("proposer", "const_palette", 0),
]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.sampled_from(NUMERIC_SETTINGS), st.sampled_from(EXTREMES)), min_size=1, max_size=3))
@example(changes=[(("magnitude", "gamma"), 309)])
@example(changes=[(("magnitude", "gamma"), -324)])
@example(changes=[(("aggregation", "epsilon"), 2000)])
@example(changes=[(("adaptation", "eta"), 1e300), (("adaptation", "warmup_rounds"), 0)])
@example(changes=[(("adaptation", "eta"), 309), (("adaptation", "alpha"), 0), (("adaptation", "warmup_rounds"), 0)])
@example(changes=[(("aggregation", "uct_c"), -1)])
@example(changes=[(("aggregation", "uct_c"), 1e300), (("aggregation", "lambda_shaping"), 309)])
def test_a_run_config_of_extreme_numbers_exits_0_or_2(changes):
    """`wfopt run` of a tiny run's config with up to three numeric settings
    set to extremes (0, ±1, ±1e-300, ±1e300, 308, 309, -324, 2000 and
    2**53 + 1) runs, or refuses the config with exit code 2 before it
    creates the output directory: no setting the config accepts ends the
    search in a traceback or an error."""
    document = copy.deepcopy(TINY_RUN)
    document["proposer"]["const_palette"] = [1.0]
    for path, value in changes:
        parent = document
        for key in path[:-1]:
            parent = parent.setdefault(key, {})
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(document))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--config", str(config), "--out", str(Path(tmp) / "out")])
        assert code in (0, 2)
        assert (Path(tmp) / "out").exists() == (code == 0)


# The odd values of the workflow fuzz, and the largest float: a reward that
# large overflowed the report's standard deviation.
LOG_VALUES = [*ODD_VALUES, 1.7976931348623157e308]


@functools.lru_cache(maxsize=None)
def tiny_run_records():
    """The records of one `TINY_RUN` search's log."""
    return tuple(execute_run(config_from_dict(TINY_RUN)).log)


@st.composite
def log_mutations(draw):
    """A record of `tiny_run_records`, a place in it and a change there."""
    records = tiny_run_records()
    index = draw(st.integers(0, len(records) - 1))
    place = draw(st.sampled_from(list(_places(records[index]))))
    return index, place, draw(st.sampled_from(["drop", *range(len(LOG_VALUES))]))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(log_mutations(), max_size=3), st.none() | st.integers(1, 10_000))
@example(mutations=[], cut=5)
@example(mutations=[(0, ("n_problems",), LOG_VALUES.index(10**400))], cut=None)
@example(mutations=[(1, ("reward",), len(LOG_VALUES) - 1)], cut=None)
def test_a_broken_run_log_is_reported_or_refused_by_name(mutations, cut):
    """`wfopt report` of a tiny run's log with keys dropped, or values changed
    to another type, to null, to numbers no float holds, to NaN, to a long
    string or to deep nesting, exits 0, or 2 with an `error: ...` message:
    never another way. With its last line cut short (after `cut` % its
    length characters, at least one), it exits 2; without other changes the
    message names that line."""
    records = tiny_run_records()
    lines = [_mutated_text(record, [(place, change) for i, place, change in mutations if i == index], LOG_VALUES)
             for index, record in enumerate(records)]
    if cut is not None and len(lines[-1]) > 1:
        lines[-1] = lines[-1][:1 + cut % (len(lines[-1]) - 1)]
    else:
        cut = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runlog.ndjson"
        path.write_text("\n".join(lines) + ("\n" if cut is None else ""))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["report", str(path)])
    assert code in (0, 2)
    assert code == 0 or err.getvalue().startswith("error: "), err.getvalue()
    if cut is not None:
        assert code == 2
        assert mutations or err.getvalue().startswith(f"error: {path}:{len(lines)}: ")


# Inputs of the scorer's memos: a small pool of each, so that a sequence of
# calls repeats inputs, as a search does.
LIBRARIES = [None] + [
    init_templates(["cat0", "cat1"], MotifConfig(), registry_ops=REGISTRY.names, seed=seed) for seed in (3, 4)
]
CATEGORIES = ["cat0", "cat1", "none"]
_zeros_and_more = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0, 1)


@st.composite
def workflow_states(draw):
    ops = st.sampled_from(REGISTRY.names[:5] + ("other",))
    unit_checked, type_checked = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return WorkflowState(
        depth=draw(st.integers(0, 20)),
        operator_histogram=draw(st.dictionaries(ops, st.integers(0, 4), max_size=4)),
        unit_passed=draw(st.integers(0, unit_checked)),
        unit_checked=unit_checked,
        type_passed=draw(st.integers(0, type_checked)),
        type_checked=type_checked,
    )


def _flip_zeros(vector):
    """`vector` with the sign of each of its zeros flipped."""
    return ConstraintVector(*(-x if x == 0.0 else x for x in vector.as_tuple()))


def _variants(state):
    """`state` and three states that differ from it in one part of the key."""
    histogram = state.operator_histogram
    return [
        state,
        dataclasses.replace(state, depth=state.depth + 6),
        dataclasses.replace(state, operator_histogram=dict(reversed(list(histogram.items())))),
        dataclasses.replace(state, unit_passed=state.unit_checked - state.unit_passed,
                            type_passed=state.type_checked - state.type_passed),
    ]


def _bits(result):
    if isinstance(result, ConstraintVector):
        return [repr(x) for x in result.as_tuple()]
    return repr(result)


trace_values = st.lists(st.sampled_from([0.0, -0.0, 1.0, -3.0, 130.0, 1e4]) | st.floats(-1e6, 1e6), max_size=4)
STATIC_CALLS = [("static", i) for i in range(12)]
VECTOR_CALLS = [(kind, v, i) for kind in ("total", "fold") for v in range(8) for i in range(3)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.lists(st.sampled_from(FAMILIES), min_size=1, unique=True),
    st.lists(workflow_states(), min_size=3, max_size=3),
    st.lists(st.lists(_zeros_and_more, min_size=6, max_size=6), min_size=4, max_size=4),
    st.lists(positive_weights, min_size=3, max_size=3),
    st.lists(st.lists(st.tuples(trace_values, trace_values), min_size=1, max_size=3), min_size=3, max_size=3),
    st.lists(st.tuples(st.sampled_from(LIBRARIES), st.sampled_from(CATEGORIES)), min_size=2, max_size=4),
    st.permutations(STATIC_CALLS + VECTOR_CALLS),
)
def test_a_scorer_with_memos_scores_as_a_fresh_one(families, states, raw_vectors, raw_weights, raw_traces, setups, calls):
    """Whatever a scorer has scored before, each static vector, total and
    folded vector it returns is, to the sign of a zero, what a new scorer
    returns: after `library` or `category` is reassigned, for every weight
    vector object, and for vectors that differ only in the sign of a zero."""
    program = binary("add", "input", "input")
    states = [variant for state in states for variant in _variants(state)]
    drawn = [ConstraintVector(*raw) for raw in raw_vectors]
    vectors = drawn + [_flip_zeros(v) for v in drawn]
    weights = [simplex(raw) for raw in raw_weights]
    traces = [[ExecutionTrace(tuple(v), tuple(i), True, None) for v, i in group] for group in raw_traces]
    scorer = ConstraintScorer(REGISTRY, enabled_families=families)
    for library, category in setups:
        scorer.library, scorer.category = library, category
        for call in calls * 2:
            fresh = ConstraintScorer(REGISTRY, library=library, category=category, enabled_families=families)
            kind, index, other = (*call, None)[:3]
            if kind == "static":
                state = states[index]
                assert _bits(scorer.static_vector(program, state)) == _bits(fresh.static_vector(program, state))
            elif kind == "total":
                vector, w = vectors[index], weights[other]
                assert _bits(scorer.total(vector, w)) == _bits(fresh.total(vector, w))
            else:
                vector, group = vectors[index], traces[other]
                assert _bits(scorer.with_magnitude(vector, group)) == _bits(fresh.with_magnitude(vector, group))
