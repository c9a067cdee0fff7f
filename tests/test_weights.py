import math

import numpy as np
import pytest
from scipy.stats import pearsonr

from wfopt.constraints import ConstraintVector
from wfopt.weights import (
    FAMILIES,
    AdaptationConfig,
    ObservationBuffer,
    WeightVector,
    correlations,
    pearson_corr,
    update_weights,
)


def vector(values):
    return ConstraintVector(*values)


def filled_buffer(rows, rewards, window=10):
    buffer = ObservationBuffer(window=window)
    for row, reward in zip(rows, rewards):
        buffer.push(vector(row), reward)
    return buffer


class TestPearson:
    def test_exact_positive(self):
        assert pearson_corr((1, 2, 3), (2, 4, 6)) == pytest.approx(1.0, abs=1e-12)

    def test_exact_negative(self):
        assert pearson_corr((1, 2, 3), (3, 2, 1)) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_neutral(self):
        assert pearson_corr((1, 1, 1), (0, 1, 0)) == 0.0
        assert pearson_corr((0, 1, 0), (1, 1, 1)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_corr((1, 2), (1, 2, 3))

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson_corr((1,), (2,))

    def test_variance_product_underflow(self):
        # both variances are non-zero, their product underflows to 0.0
        x, y = (0.0, 1.175494351e-38), (0.0, 2.832910288406577e-154)
        assert pearson_corr(x, y) == pytest.approx(1.0, abs=1e-12)
        assert pearson_corr(x, y[::-1]) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.random(10)
            y = rng.random(10)
            assert pearson_corr(x, y) == pytest.approx(pearsonr(x, y).statistic, abs=1e-12)


class TestWeightVector:
    def test_uniform(self):
        w = WeightVector.uniform()
        assert sum(w.as_tuple()) == pytest.approx(1.0, abs=1e-12)
        assert all(v == pytest.approx(1 / 6) for v in w.as_tuple())

    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError):
            WeightVector(0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            WeightVector(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class TestUpdateWeights:
    def test_warmup_returns_input_unchanged(self):
        w = WeightVector.uniform()
        buffer = filled_buffer([(0.1,) * 6, (0.9,) * 6], [0.0, 1.0])
        out = update_weights(w, buffer, AdaptationConfig(), round_index=3)
        assert out is w

    def test_small_buffer_returns_input(self):
        w = WeightVector.uniform()
        buffer = filled_buffer([(0.5,) * 6], [1.0])
        assert update_weights(w, buffer, AdaptationConfig(), round_index=9) is w

    def test_equal_correlations_fixed_point(self):
        # identical columns: every family has the same correlation
        rows = [(0.2,) * 6, (0.8,) * 6, (0.5,) * 6]
        buffer = filled_buffer(rows, [0.1, 0.9, 0.4])
        w = WeightVector.uniform()
        out = update_weights(w, buffer, AdaptationConfig(), round_index=9)
        for value in out.as_tuple():
            assert value == pytest.approx(1 / 6, abs=1e-12)

    def test_hand_derived_single_positive_correlation(self):
        # units column tracks rewards exactly; all other columns constant.
        rows = [
            (0.0, 0.5, 0.5, 0.5, 0.5, 0.5),
            (0.5, 0.5, 0.5, 0.5, 0.5, 0.5),
            (1.0, 0.5, 0.5, 0.5, 0.5, 0.5),
        ]
        buffer = filled_buffer(rows, [0.0, 0.5, 1.0])
        corr = correlations(buffer)
        assert corr["units"] == pytest.approx(1.0, abs=1e-12)
        assert all(corr[f] == 0.0 for f in FAMILIES if f != "units")

        out = update_weights(WeightVector.uniform(), buffer, AdaptationConfig(), round_index=9)
        # closed form: 0.99 * e^0.1 / (e^0.1 + 5) + 0.01 / 6
        expected_units = 0.99 * math.exp(0.1) / (math.exp(0.1) + 5) + 0.01 / 6
        expected_other = 0.99 * 1.0 / (math.exp(0.1) + 5) + 0.01 / 6
        assert out.units == pytest.approx(expected_units, abs=1e-12)
        assert expected_units == pytest.approx(0.1808785550, abs=1e-9)
        for fam in FAMILIES:
            if fam != "units":
                assert getattr(out, fam) == pytest.approx(expected_other, abs=1e-12)

    def test_simplex_preserved_over_random_sequences(self):
        rng = np.random.default_rng(1)
        cfg = AdaptationConfig()
        w = WeightVector.uniform()
        buffer = ObservationBuffer(window=10)
        for step in range(500):
            buffer.push(vector(rng.random(6)), float(rng.random()))
            w = update_weights(w, buffer, cfg, round_index=step + cfg.warmup_rounds)
            assert sum(w.as_tuple()) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= cfg.alpha / 6 - 1e-15 for v in w.as_tuple())
            assert all(v < 1.0 for v in w.as_tuple())

    def test_weights_stay_positive_without_decay(self):
        # alpha 0 and the largest eta: the constant families' weights fall by
        # e^-700 per step, below the smallest float by the second
        cfg = AdaptationConfig(eta=700, alpha=0.0, warmup_rounds=0)
        rewards = [0.0, 0.5, 1.0]
        buffer = filled_buffer([(r, 0.5, 0.5, 0.5, 0.5, 0.5) for r in rewards], rewards)
        w = WeightVector.uniform()
        for step in range(4):
            w = update_weights(w, buffer, cfg, round_index=step)
            assert all(v > 0 for v in w.as_tuple())
        assert w.units == pytest.approx(1.0)

    def test_monotone_in_correlation(self):
        # raising the units column's alignment with rewards never lowers w_units
        cfg = AdaptationConfig()
        rewards = [0.0, 0.25, 0.5, 0.75, 1.0]
        aligned = filled_buffer([(r, 0.5, 0.4, 0.6, 0.5, 0.5) for r in rewards], rewards)
        anti = filled_buffer([(1 - r, 0.5, 0.4, 0.6, 0.5, 0.5) for r in rewards], rewards)
        w_aligned = update_weights(WeightVector.uniform(), aligned, cfg, 9)
        w_anti = update_weights(WeightVector.uniform(), anti, cfg, 9)
        assert w_aligned.units > w_anti.units

    def test_determinism(self):
        rng = np.random.default_rng(2)
        rows = [tuple(rng.random(6)) for _ in range(8)]
        rewards = list(rng.random(8))
        a = update_weights(WeightVector.uniform(), filled_buffer(rows, rewards), AdaptationConfig(), 9)
        b = update_weights(WeightVector.uniform(), filled_buffer(rows, rewards), AdaptationConfig(), 9)
        assert a == b


class TestObservationBuffer:
    def test_eviction_order(self):
        buffer = ObservationBuffer(window=3)
        for i in range(5):
            buffer.push(vector((i / 10.0,) * 6), i / 10.0)
        assert len(buffer) == 3
        assert buffer.rewards() == [0.2, 0.3, 0.4]
        assert buffer.column("units") == [0.2, 0.3, 0.4]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ObservationBuffer(window=0)
