import json
import math

import numpy as np
import pytest
from scipy.spatial.distance import cosine as scipy_cosine_distance

from wfopt.model import WorkflowState, default_registry
from wfopt.motifs import (
    FrozenLibraryError,
    Motif,
    MotifConfig,
    MotifInitError,
    MotifLibrary,
    cosine_similarity,
    init_templates,
    library_to_dict,
    refine,
    save_library,
    score_pattern,
)

from conftest import library_from_dict

OPS = default_registry().names


def unit(vec):
    arr = np.asarray(vec, dtype=float)
    return tuple(float(x) for x in arr / np.linalg.norm(arr))


def state_with(hist):
    return WorkflowState(depth=1, operator_histogram=hist)


def empty_library(**overrides):
    defaults = dict(motifs=(), registry_ops=OPS)
    defaults.update(overrides)
    return MotifLibrary(**defaults)


class TestCosine:
    def test_identical(self):
        assert cosine_similarity((1, 2, 3), (1, 2, 3)) == pytest.approx(1.0)

    def test_disjoint_support(self):
        assert cosine_similarity((1, 0, 0), (0, 1, 0)) == pytest.approx(0.0)

    def test_hand_case(self):
        assert cosine_similarity((1, 1, 0), (1, 0, 0)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity((0, 0), (1, 0))

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.random(8) + 1e-6
            b = rng.random(8) + 1e-6
            assert 1 - cosine_similarity(a, b) == pytest.approx(scipy_cosine_distance(a, b), abs=1e-9)


class TestScorePattern:
    def test_empty_category_neutral(self):
        lib = empty_library()
        assert score_pattern(state_with({"add": 2}), "algebra", lib) == 0.5

    def test_self_similarity(self):
        hist = {"add": 2, "mul": 2}
        vec = unit([hist.get(op, 0) for op in OPS])
        lib = empty_library(motifs=(Motif("algebra", vec, "baseline_template"),))
        assert score_pattern(state_with(hist), "algebra", lib) == pytest.approx(1.0)

    def test_max_over_motifs(self):
        # histogram (2,2,0,...) vs motifs e0 and e2: best is 1/sqrt(2)
        m1 = Motif("c", unit([1] + [0] * 7), "baseline_template")
        m2 = Motif("c", unit([0, 0, 1] + [0] * 5), "baseline_template")
        lib = empty_library(motifs=(m1, m2))
        score = score_pattern(state_with({OPS[0]: 2, OPS[1]: 2}), "c", lib)
        assert score == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_empty_histogram_neutral(self):
        lib = empty_library(motifs=(Motif("c", unit([1] * 8), "baseline_template"),))
        assert score_pattern(state_with({}), "c", lib) == 0.5

    def test_other_category_ignored(self):
        lib = empty_library(motifs=(Motif("geometry", unit([1] * 8), "baseline_template"),))
        assert score_pattern(state_with({"add": 1}), "algebra", lib) == 0.5

    def test_only_parallel_histogram_scores_one(self):
        motif = Motif("c", unit([2, 1, 0, 0, 0, 0, 0, 0]), "baseline_template")
        lib = empty_library(motifs=(motif,))
        parallel = {OPS[0]: 4, OPS[1]: 2}   # same direction, scaled
        skewed = {OPS[0]: 4, OPS[1]: 3}
        assert score_pattern(state_with(parallel), "c", lib) == pytest.approx(1.0, abs=1e-12)
        assert score_pattern(state_with(skewed), "c", lib) < 1.0


class TestInitTemplates:
    def test_counts(self):
        lib = init_templates(["a", "b", "c", "d"], MotifConfig(), registry_ops=OPS, seed=42)
        assert len(lib.motifs) == 40
        for cat in ("a", "b", "c", "d"):
            assert len(lib.in_category(cat)) == 10

    def test_pairwise_separation(self):
        lib = init_templates(["a", "b"], MotifConfig(templates_per_category=12), registry_ops=OPS, seed=42)
        for cat in ("a", "b"):
            motifs = lib.in_category(cat)
            for i in range(len(motifs)):
                for j in range(i + 1, len(motifs)):
                    assert 1 - cosine_similarity(motifs[i].vector, motifs[j].vector) >= 0.3 - 1e-12

    def test_deterministic(self):
        a = init_templates(["a"], MotifConfig(), registry_ops=OPS, seed=42)
        b = init_templates(["a"], MotifConfig(), registry_ops=OPS, seed=42)
        assert a == b

    def test_template_count_bounds(self):
        with pytest.raises(ValueError):
            init_templates(["a"], MotifConfig(templates_per_category=9), registry_ops=OPS)
        with pytest.raises(ValueError):
            init_templates(["a"], MotifConfig(templates_per_category=16), registry_ops=OPS)

    def test_infeasible_separation(self):
        # two dimensions cannot host 10 non-negative directions 0.95 apart
        with pytest.raises(MotifInitError):
            init_templates(["a"], MotifConfig(min_separation=0.95), registry_ops=("add", "mul"), seed=1)


class TestRefine:
    def test_no_observations_unchanged(self):
        lib = init_templates(["a"], MotifConfig(), registry_ops=OPS, seed=42)
        assert refine(lib, [], round_index=3, seed=1) == lib

    def test_duplicated_point_collapses_to_one_motif(self):
        lib = empty_library()
        hist = [3.0, 1.0] + [0.0] * 6
        observed = [("a", hist)] * 30
        refined = refine(lib, observed, round_index=3, seed=1)
        assert len(refined.in_category("a")) == 1
        assert refined.in_category("a")[0].origin == "clustered"
        assert np.allclose(refined.in_category("a")[0].vector, unit(hist))

    def test_two_clusters_two_motifs(self):
        lib = empty_library()
        rng = np.random.default_rng(9)
        a_center = np.array([5.0, 1.0, 0, 0, 0, 0, 0, 0])
        b_center = np.array([0, 0, 0, 1.0, 5.0, 0, 0, 0])
        assert 1 - cosine_similarity(a_center, b_center) >= 0.8
        observed = []
        for _ in range(20):
            observed.append(("a", tuple(a_center + rng.random(8) * 0.1)))
            observed.append(("a", tuple(b_center + rng.random(8) * 0.1)))
        refined = refine(lib, observed, round_index=3, seed=7)
        motifs = refined.in_category("a")
        assert len(motifs) == 2
        assert 1 - cosine_similarity(motifs[0].vector, motifs[1].vector) >= 0.3

    def test_frozen_rejects(self):
        lib = init_templates(["a"], MotifConfig(), registry_ops=OPS, seed=42).freeze()
        with pytest.raises(FrozenLibraryError):
            refine(lib, [("a", (1.0,) * 8)], round_index=3, seed=1)

    def test_frozen_scores_unchanged_after_rejection(self):
        lib = init_templates(["a"], MotifConfig(), registry_ops=OPS, seed=42).freeze()
        state = state_with({"add": 1, "mul": 2})
        before = score_pattern(state, "a", lib)
        with pytest.raises(FrozenLibraryError):
            refine(lib, [("a", (1.0,) * 8)], round_index=3, seed=1)
        assert score_pattern(state, "a", lib) == before

    def test_off_schedule_round_rejected(self):
        lib = empty_library()
        with pytest.raises(ValueError, match="schedule"):
            refine(lib, [("a", (1.0,) * 8)], round_index=4, seed=1)

    def test_deterministic(self):
        lib = init_templates(["a"], MotifConfig(), registry_ops=OPS, seed=42)
        rng = np.random.default_rng(3)
        observed = [("a", tuple(rng.random(8))) for _ in range(40)]
        assert refine(lib, observed, 3, seed=5) == refine(lib, observed, 3, seed=5)

    def test_separation_invariant_after_refine(self):
        lib = init_templates(["a"], MotifConfig(), registry_ops=OPS, seed=42)
        rng = np.random.default_rng(4)
        observed = [("a", tuple(rng.random(8))) for _ in range(60)]
        refined = refine(lib, observed, 3, seed=5)
        motifs = refined.in_category("a")
        for i in range(len(motifs)):
            for j in range(i + 1, len(motifs)):
                d = 1 - cosine_similarity(motifs[i].vector, motifs[j].vector)
                assert d >= 0.3 - 1e-9, (i, j, d)

    def test_clustered_replaces_nearby_baseline(self):
        baseline = Motif("a", unit([1, 0, 0, 0, 0, 0, 0, 0]), "baseline_template")
        lib = empty_library(motifs=(baseline,))
        observed = [("a", (1.0, 0.05, 0, 0, 0, 0, 0, 0))] * 10
        refined = refine(lib, observed, 3, seed=2)
        motifs = refined.in_category("a")
        assert len(motifs) == 1
        assert motifs[0].origin == "clustered"

    def test_size_cap_respected(self):
        lib = empty_library(config=MotifConfig(templates_per_category=3, max_per_category=3))
        rng = np.random.default_rng(8)
        observed = [("a", tuple(rng.random(8))) for _ in range(100)]
        refined = refine(lib, observed, 3, seed=6)
        assert len(refined.in_category("a")) <= 3


class TestPersistence:
    def test_round_trip(self, tmp_path):
        lib = init_templates(["a", "b"], MotifConfig(), registry_ops=OPS, seed=42)
        path = tmp_path / "motifs.json"
        save_library(lib, path)
        assert library_from_dict(json.loads(path.read_text())) == lib

    def test_frozen_flag_persisted(self, tmp_path):
        lib = init_templates(["a"], MotifConfig(), registry_ops=OPS, seed=42).freeze()
        path = tmp_path / "motifs.json"
        save_library(lib, path)
        assert library_from_dict(json.loads(path.read_text())).frozen is True

    def test_dict_schema(self):
        lib = init_templates(["a"], MotifConfig(), registry_ops=OPS, seed=42)
        data = library_to_dict(lib)
        assert set(data) == {"version", "registry", "categories", "frozen", "params"}
        assert data["categories"][0]["name"] == "a"
        assert library_from_dict(data) == lib
