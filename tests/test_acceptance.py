"""Acceptance suite: one test per criterion, printed as a pass line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
inline). Every numeric tolerance is pinned here; the runtime bounds are
asserted with wall-clock measurements.
"""

import math
import time
from collections import defaultdict

import numpy as np
import pytest

from wfopt.config import RunConfig, config_from_dict
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
    score_types,
    score_units,
    threshold,
)
from wfopt.driver import ablation_grid, execute_run
from wfopt.harness import (
    ProposerConfig,
    SyntheticEvaluator,
    SyntheticProposer,
    make_synthetic_suite,
)
from wfopt.model import (
    CONST_OP,
    INPUT_OP,
    Edge,
    ExecutionTrace,
    Node,
    Shape,
    UnitSignature,
    WorkflowProgram,
    WorkflowState,
    canonical_key,
    default_registry,
    derive_state,
)
from wfopt.motifs import (
    FrozenLibraryError,
    MotifLibrary,
    cosine_similarity,
    refine,
    score_pattern,
)
from wfopt.reporting import PriceMap, analyze
from wfopt.runlog import RunLog
from wfopt.search import Optimizer, SearchBudget, selection_score
from wfopt.weights import (
    FAMILIES,
    AdaptationConfig,
    ObservationBuffer,
    WeightVector,
    pearson_corr,
    update_weights,
)

from conftest import binary, random_program

REGISTRY = default_registry()
TOL = 1e-9

DESK_PROPOSER = ProposerConfig(ops=("add", "mul", "neg"), max_operator_nodes=2)
DESK_BUDGET = dict(rounds=15, simulations_per_round=8, max_candidates_per_expansion=64)


def reachable_closure(initial, proposer):
    seen = {canonical_key(initial)}
    frontier = [initial]
    programs = [initial]
    while frontier:
        nxt = []
        for program in frontier:
            for edit in proposer.enumerate_edits(program):
                key = canonical_key(edit)
                if key not in seen:
                    seen.add(key)
                    nxt.append(edit)
                    programs.append(edit)
        frontier = nxt
    return programs


def desk_run(seed, lam=0.5, budget_overrides=None, proposer_config=DESK_PROPOSER,
             suite_kwargs=None, search_proposer=None, schedule=None):
    suite = make_synthetic_suite(
        seed=seed, n_problems=10, proposer_config=proposer_config,
        target_edits=2, **(suite_kwargs or {}),
    )
    proposer = SyntheticProposer(REGISTRY, search_proposer or proposer_config)
    evaluator = SyntheticEvaluator(suite.validation, REGISTRY)
    scorer = ConstraintScorer(REGISTRY, library=None, category="cat0",
                              agg=AggregationConfig(lambda_shaping=lam))
    budget = dict(DESK_BUDGET)
    budget.update(budget_overrides or {})
    optimizer = Optimizer(
        suite.initial_program, proposer, evaluator, scorer,
        budget=SearchBudget(seed=seed, **budget),
        schedule=schedule if schedule is not None else ThresholdSchedule(),
    )
    best, log = optimizer.run()
    return suite, optimizer, best, log


def test_c1_formula_conformance():
    start = time.perf_counter()

    # aggregation (weighted geometric mean with smoothing)
    uniform = WeightVector.uniform()
    cfg = AggregationConfig()
    total = ConstraintScorer(REGISTRY, agg=cfg).total
    assert total(ConstraintVector(*(1.0,) * 6), uniform) == pytest.approx(1.01, abs=TOL)
    assert total(ConstraintVector(*(0.0,) * 6), uniform) == pytest.approx(0.01, abs=TOL)
    mixed = math.exp((5 * math.log(1.01) + math.log(0.01)) / 6)
    assert total(ConstraintVector(1, 1, 1, 1, 0, 1), uniform) == pytest.approx(mixed, abs=TOL)

    # depth-aware threshold
    sched = ThresholdSchedule()
    assert threshold(0, sched) == pytest.approx(0.6, abs=TOL)
    assert threshold(6, sched) == pytest.approx(0.3, abs=TOL)
    assert threshold(100, sched) == pytest.approx(0.3, abs=TOL)

    # depth penalty
    dd = DepthDiversityConfig()
    assert score_depth(WorkflowState(10, {}), dd) == pytest.approx(1.0, abs=TOL)
    assert score_depth(WorkflowState(20, {}), dd) == pytest.approx(0.5, abs=TOL)
    assert score_depth(WorkflowState(30, {}), dd) == pytest.approx(0.0, abs=TOL)

    # diversity (normalized entropy)
    assert score_diversity(WorkflowState(1, {n: 1 for n in REGISTRY.names}), 8) == pytest.approx(1.0, abs=TOL)
    assert score_diversity(WorkflowState(1, {"add": 5}), 8) == pytest.approx(0.0, abs=TOL)
    assert score_diversity(WorkflowState(1, {"add": 2, "mul": 2}), 8) == pytest.approx(1 / 3, abs=TOL)

    # unit consistency
    length = UnitSignature.of(length=1)
    time_u = UnitSignature.of(time=1)
    assert score_units(derive_state(binary("add", "input", "input"))) == pytest.approx(0.5, abs=TOL)
    mixed_units = WorkflowProgram(
        nodes=(
            Node("x0", INPUT_OP, unit=length), Node("x1", INPUT_OP, unit=length),
            Node("x2", INPUT_OP, unit=time_u),
            Node("good", "add"), Node("bad", "add"),
        ),
        edges=(
            Edge("x0", "good", 0), Edge("x1", "good", 1),
            Edge("x0", "bad", 0), Edge("x2", "bad", 1),
        ),
        roots=("x0", "x1", "x2"),
        output="bad",
    )
    assert score_units(derive_state(mixed_units)) == pytest.approx(0.5, abs=TOL)
    assert score_units(derive_state(binary("mul", "input", "input", units=(length, length)))) == pytest.approx(1.0, abs=TOL)

    # type compatibility
    sqrt_neg = WorkflowProgram(
        nodes=(Node("x0", INPUT_OP), Node("c0", CONST_OP, value=-3.0), Node("n0", "sqrt")),
        edges=(Edge("c0", "n0", 0),),
        roots=("x0",),
        output="n0",
    )
    assert score_types(derive_state(sqrt_neg)) == pytest.approx(0.0, abs=TOL)
    matmul = binary("mul", "input", "input", shapes=(Shape.matrix(2, 3), Shape.matrix(3, 4)))
    assert score_types(derive_state(matmul)) == pytest.approx(1.0, abs=TOL)

    # magnitude sanity (theta = max(|V_in|) * 100)
    mag = MagnitudeConfig()
    assert score_magnitude(ExecutionTrace((50.0,), (1.0,), True, 50.0), mag) == pytest.approx(1.0, abs=TOL)
    assert score_magnitude(ExecutionTrace((200.0,), (1.0,), True, 200.0), mag) == pytest.approx(0.5, abs=TOL)
    assert score_magnitude(ExecutionTrace((400.0,), (1.0,), True, 400.0), mag) == pytest.approx(0.0, abs=TOL)

    # shaped selection score
    class _N:  # minimal stats carrier for the formula check
        pass

    for visits, value, compliance, parent in ((25, 12.5, 1.0, 100), (3, 1.2, 0.42, 7), (50, 10.0, 0.61, 51)):
        node = _N()
        node.visit_count = visits
        node.q_value = value / visits
        node.compliance = compliance
        u = math.sqrt(math.log(parent) / visits)
        expected = (value / visits + cfg.uct_c * u) * math.exp(cfg.lambda_shaping * compliance)
        assert selection_score(node, parent, cfg) == pytest.approx(expected, abs=TOL)
    assert (0.5 + 1.414 * 0.2) * math.exp(0.5) == pytest.approx(1.2906, abs=1e-4)

    # adaptive weighting
    warm = update_weights(WeightVector.uniform(), ObservationBuffer(), AdaptationConfig(), round_index=3)
    assert warm == WeightVector.uniform()
    buffer = ObservationBuffer()
    for c, r in (((0.0, 0.5, 0.5, 0.5, 0.5, 0.5), 0.0),
                 ((0.5, 0.5, 0.5, 0.5, 0.5, 0.5), 0.5),
                 ((1.0, 0.5, 0.5, 0.5, 0.5, 0.5), 1.0)):
        buffer.push(ConstraintVector(*c), r)
    updated = update_weights(WeightVector.uniform(), buffer, AdaptationConfig(), round_index=9)
    expected_units = 0.99 * math.exp(0.1) / (math.exp(0.1) + 5) + 0.01 / 6
    assert updated.units == pytest.approx(expected_units, abs=TOL)

    # correlation and similarity primitives
    assert pearson_corr((1, 2, 3), (2, 4, 6)) == pytest.approx(1.0, abs=TOL)
    assert pearson_corr((1, 2, 3), (3, 2, 1)) == pytest.approx(-1.0, abs=TOL)
    assert pearson_corr((1, 1, 1), (0, 1, 0)) == pytest.approx(0.0, abs=TOL)
    assert cosine_similarity((1, 2, 3), (1, 2, 3)) == pytest.approx(1.0, abs=TOL)
    assert cosine_similarity((1, 0, 0), (0, 1, 0)) == pytest.approx(0.0, abs=TOL)
    assert cosine_similarity((1, 1, 0), (1, 0, 0)) == pytest.approx(1 / math.sqrt(2), abs=TOL)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE C1 PASS formula conformance ({elapsed * 1000:.0f} ms)")


def test_c2_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = 10_000

    # all six scores stay in [0, 1] on random programs, states, and traces
    scorer = ConstraintScorer(REGISTRY)
    for _ in range(cases):
        program = random_program(rng, REGISTRY, max_ops=5)
        state = derive_state(program, registry=REGISTRY)
        vector = scorer.static_vector(program, state)
        for value in vector.as_tuple():
            assert 0.0 <= value <= 1.0
    mag_cfg = MagnitudeConfig()
    for _ in range(cases):
        values = rng.uniform(-1e4, 1e4, size=int(rng.integers(1, 6)))
        inputs = rng.uniform(0.0, 50.0, size=int(rng.integers(0, 4)))
        trace = ExecutionTrace(tuple(values), tuple(inputs), True, float(values[-1]))
        assert 0.0 <= score_magnitude(trace, mag_cfg) <= 1.0

    # aggregate range and per-component monotonicity
    total = ConstraintScorer(REGISTRY, agg=AggregationConfig()).total
    for _ in range(cases):
        scores = rng.random(6)
        raw = rng.random(6) + 0.01
        weights = WeightVector.from_iterable(raw / raw.sum())
        value = total(ConstraintVector(*scores), weights)
        assert 0.01 - 1e-12 <= value <= 1.01 + 1e-12
        i = int(rng.integers(6))
        bumped = scores.copy()
        bumped[i] = min(1.0, bumped[i] + rng.random() * 0.3)
        assert total(ConstraintVector(*bumped), weights) >= value - 1e-12

    # weight simplex under arbitrary update sequences
    ada = AdaptationConfig()
    weights = WeightVector.uniform()
    buffer = ObservationBuffer(window=10)
    for step in range(cases):
        buffer.push(ConstraintVector(*rng.random(6)), float(rng.random()))
        weights = update_weights(weights, buffer, ada, round_index=ada.warmup_rounds + step)
        assert abs(sum(weights.as_tuple()) - 1.0) <= 1e-9
        assert all(v > 0.0 for v in weights.as_tuple())

    # threshold: non-increasing with a floor
    sched = ThresholdSchedule()
    for _ in range(cases):
        d = int(rng.integers(0, 1000))
        assert sched.tau_min <= threshold(d, sched) <= sched.tau0
        assert threshold(d, sched) >= threshold(d + 1, sched)

    # diversity scale invariance
    for _ in range(cases):
        support = rng.choice(8, size=int(rng.integers(1, 9)), replace=False)
        hist = {REGISTRY.names[j]: int(rng.integers(1, 30)) for j in support}
        k = int(rng.integers(2, 9))
        a = score_diversity(WorkflowState(1, hist), 8)
        b = score_diversity(WorkflowState(1, {op: k * c for op, c in hist.items()}), 8)
        assert abs(a - b) <= 1e-9

    # magnitude scale invariance
    for _ in range(cases):
        values = rng.uniform(-1e4, 1e4, size=3)
        inputs = rng.uniform(0.5, 20.0, size=2)
        s = float(rng.uniform(0.01, 1000.0))
        a = score_magnitude(ExecutionTrace(tuple(values), tuple(inputs), True, 0.0), mag_cfg)
        b = score_magnitude(ExecutionTrace(tuple(values * s), tuple(inputs * s), True, 0.0), mag_cfg)
        assert abs(a - b) <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE C2 PASS property suites, {cases} cases each ({elapsed:.1f} s)")


def test_c3_oracle_equivalence_at_desk_scale():
    start = time.perf_counter()
    for seed in range(5):
        suite, optimizer, best, log = desk_run(seed)
        proposer = SyntheticProposer(REGISTRY, DESK_PROPOSER)
        space = reachable_closure(suite.initial_program, proposer)
        assert len(space) <= 200, f"seed {seed}: space {len(space)} exceeds desk scale"
        evaluator = SyntheticEvaluator(suite.validation, REGISTRY)
        oracle_best = max(evaluator.evaluate(p)[0] for p in space)
        mcts_best = evaluator.evaluate(best)[0]
        assert mcts_best == pytest.approx(oracle_best, abs=TOL), (
            f"seed {seed}: oracle {oracle_best} vs search {mcts_best}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE C3 PASS oracle equivalence on 5 seeds ({elapsed:.1f} s)")


def _audit_expansions(log):
    """Check gate soundness and the fallback rule over every expansion."""
    pruned = log.by_event("pruned")
    for record in pruned:
        assert record["C_total"] < record["tau"], f"pruned candidate at/above gate: {record}"

    by_parent = defaultdict(lambda: {"kept": [], "pruned": []})
    for record in log.by_event("expanded"):
        by_parent[record["parent"]]["kept"].append(record)
    for record in pruned:
        by_parent[record["parent"]]["pruned"].append(record)

    fallbacks = 0
    for parent, group in by_parent.items():
        kept = group["kept"]
        assert kept, f"expansion at {parent} kept no child"
        all_below = all(r["C_total"] < r["tau"] for r in kept + group["pruned"])
        if all_below:
            # the fallback rule: exactly one flagged child, the argmax
            assert len(kept) == 1 and kept[0]["fallback"] is True
            best_pruned = max((r["C_total"] for r in group["pruned"]), default=-1.0)
            assert kept[0]["C_total"] >= best_pruned
            fallbacks += 1
        else:
            for r in kept:
                assert r["C_total"] >= r["tau"] and r["fallback"] is False
    return fallbacks


def test_c4_pruning_behavior():
    start = time.perf_counter()
    _, optimizer, _, log = desk_run(42)

    pruned = log.by_event("pruned")
    proposed = sum(r["count"] for r in log.by_event("proposed"))
    assert proposed > 0 and len(pruned) > 0, "pruning rate must be strictly positive"
    _audit_expansions(log)

    # Same suite under a gate no candidate can clear: every expansion must go
    # through the fallback path and still keep exactly the argmax child.
    strict = ThresholdSchedule(tau0=0.95, tau_min=0.9, decay_k=0.05)
    _, _, _, strict_log = desk_run(
        42, schedule=strict, budget_overrides=dict(rounds=5, simulations_per_round=6),
    )
    fallbacks = _audit_expansions(strict_log)
    assert fallbacks > 0, "the tight-gate run never exercised the fallback rule"
    assert fallbacks == len({r["parent"] for r in strict_log.by_event("expanded")})

    elapsed = time.perf_counter() - start
    rate = len(pruned) / proposed
    print(f"\nACCEPTANCE C4 PASS pruning audit (rate {rate:.1%}, "
          f"{fallbacks} fallback expansions, {elapsed:.1f} s)")


def test_c5_shaping_effect():
    start = time.perf_counter()
    clean = ProposerConfig(ops=("add", "sub", "mul"), max_operator_nodes=2)
    rich = ProposerConfig(
        ops=("add", "sub", "mul", "neg", "sqrt", "log", "div"),
        max_operator_nodes=2,
        const_palette=(100.0, -3.0),
    )

    def sims_until_oracle_best(seed, lam):
        _, optimizer, _, log = desk_run(
            seed, lam=lam,
            budget_overrides=dict(simulations_per_round=12, max_candidates_per_expansion=24),
            proposer_config=clean,
            suite_kwargs=dict(unit_dims=("length", "length")),
            search_proposer=rich,
        )
        count = 0
        for record in log.by_event("simulated"):
            count += 1
            if record["reward"] == 1.0:  # the hidden target's reward is the oracle best
                return count
        return math.inf

    wins = 0
    found = 0
    for seed in range(5):
        shaped = sims_until_oracle_best(seed, 0.5)
        unshaped = sims_until_oracle_best(seed, 0.0)
        wins += shaped <= unshaped
        found += math.isfinite(shaped) or math.isfinite(unshaped)
    assert wins >= 4, f"shaped engine won only {wins}/5 seeds"
    assert found >= 3, "the target was almost never found; suite too hard to be meaningful"

    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE C5 PASS shaping effect ({wins}/5 seeds, {elapsed:.1f} s)")


def test_c6_determinism(tmp_path):
    start = time.perf_counter()
    config = RunConfig()
    assert config.seed == 42
    a, b = tmp_path / "a", tmp_path / "b"
    execute_run(config, a)
    execute_run(config, b)
    for name in ("runlog.ndjson", "best_workflow.json", "motifs.json", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs between runs"
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE C6 PASS byte-identical artifacts ({elapsed:.1f} s)")


def test_c7_ablation_mechanics(tmp_path):
    start = time.perf_counter()
    base = config_from_dict({
        "seed": 42,
        "budget": {"rounds": 4, "simulations_per_round": 4, "max_candidates_per_expansion": 6},
        "proposer": {"ops": ["add", "mul", "neg"], "max_operator_nodes": 2},
    })
    grid = ablation_grid(base)

    for family in FAMILIES:
        result = execute_run(grid[f"family_{family}"], tmp_path / f"family_{family}")
        for record in result.log.records:
            vector = record.get("C_vector")
            if not vector:
                continue
            for other in FAMILIES:
                if other == family:
                    continue
                assert vector[other] == 0.5, (
                    f"family-only {family}: {other} not neutral in {record['event']}"
                )

    for stage in ("selection", "expansion", "simulation", "backprop"):
        result = execute_run(grid[f"stage_{stage}"], tmp_path / f"stage_{stage}")
        log = result.log
        if stage != "expansion":
            assert log.by_event("pruned") == [], f"stage-only {stage}: gate should be bypassed"
        if stage != "simulation":
            for record in log.by_event("simulated"):
                assert record["C_vector"]["magnitude"] == 1.0, (
                    f"stage-only {stage}: magnitude should stay pinned"
                )
        for record in log.by_event("simulated"):
            if "credit" not in record:
                continue
            if stage == "backprop":
                assert record["credit"] == pytest.approx(record["reward"] * record["C_total"], abs=TOL)
            else:
                assert record["credit"] == pytest.approx(record["reward"], abs=TOL)

    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE C7 PASS ablation mechanics, 10 variants ({elapsed:.1f} s)")


def test_c8_motif_refinement():
    start = time.perf_counter()
    lib = MotifLibrary(motifs=(), registry_ops=REGISTRY.names)
    rng = np.random.default_rng(9)
    a_center = np.array([5.0, 1.0, 0, 0, 0, 0, 0, 0])
    b_center = np.array([0, 0, 0, 1.0, 5.0, 0, 0, 0])
    observed = []
    for _ in range(20):
        observed.append(("cat", tuple(a_center + rng.random(8) * 0.1)))
        observed.append(("cat", tuple(b_center + rng.random(8) * 0.1)))
    refined = refine(lib, observed, round_index=3, seed=7)
    motifs = refined.in_category("cat")
    assert len(motifs) == 2, f"expected exactly two retained motifs, got {len(motifs)}"
    assert 1 - cosine_similarity(motifs[0].vector, motifs[1].vector) >= 0.3

    frozen = refined.freeze()
    state = WorkflowState(1, {"add": 3, "mul": 1})
    before = score_pattern(state, "cat", frozen)
    with pytest.raises(FrozenLibraryError):
        refine(frozen, observed, round_index=3, seed=8)
    assert score_pattern(state, "cat", frozen) == before

    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE C8 PASS motif refinement ({elapsed:.1f} s)")


def _priced_log(n_problems, prices=None):
    """An empty run log whose meta record gives the problem count and, if any, the per-role prices."""
    log = RunLog()
    meta = {} if prices is None else {"prices": {role: list(pair) for role, pair in prices.prices.items()}}
    log.append("meta", n_problems=n_problems, **meta)
    return log


def test_c9_accounting():
    start = time.perf_counter()
    log = _priced_log(5)
    log.append("simulated", round=0, reward=0.0, role="optimizer", tokens_in=100, tokens_out=50)
    log.append("simulated", round=0, reward=0.0, role="executor", tokens_in=200, tokens_out=150)
    assert analyze(log).tokens_per_problem == pytest.approx(100.0, rel=1e-12)
    assert analyze(_priced_log(7)).tokens_per_problem == 0.0

    prices = PriceMap({"optimizer": (0.0, 0.0), "executor": (1e-6, 2e-6)})
    single = _priced_log(1, prices)
    single.append("simulated", round=0, reward=0.0, role="executor", tokens_in=1000, tokens_out=500)
    assert analyze(single).cost_per_problem == pytest.approx(0.002, rel=1e-12)

    prices = PriceMap({"optimizer": (2e-6, 3e-6), "executor": (5e-7, 7e-7)})
    doubled = PriceMap({role: (2 * a, 2 * b) for role, (a, b) in prices.prices.items()})
    expected = (1234 * 2e-6 + 567 * 3e-6 + 89 * 5e-7 + 10 * 7e-7) / 3
    for price_map, want in ((prices, expected), (doubled, 2 * expected)):
        both = _priced_log(3, price_map)
        both.append("proposed", round=0, role="optimizer", tokens_in=1234, tokens_out=567)
        both.append("simulated", round=0, reward=0.0, role="executor", tokens_in=89, tokens_out=10)
        assert analyze(both).cost_per_problem == pytest.approx(want, rel=1e-12)

    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE C9 PASS accounting ({elapsed * 1000:.0f} ms)")
