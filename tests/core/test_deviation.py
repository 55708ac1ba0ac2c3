"""Deviation-math tests: the paper's equations, plus hypothesis properties."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.deviation import (
    DeviationConfig,
    compute_deviations,
    deviation_series,
    feature_weights,
    normalize_to_unit,
    normalized_deviations,
    sliding_history_stats,
)
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.utils.timeutil import TWO_TIMEFRAMES

CFG = DeviationConfig(window=5, delta=3.0, epsilon=1e-6)


class TestConfig:
    def test_history_days(self):
        assert DeviationConfig(window=30).history_days == 29

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 1},
            {"delta": 0.0},
            {"epsilon": 0.0},
            {"ddof": 2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DeviationConfig(**kwargs)


class TestSlidingStats:
    def test_alignment(self):
        # Day d uses days [d-4, d-1] as history with window=5.
        m = np.arange(10.0)
        mean, std = sliding_history_stats(m, CFG)
        assert mean.shape == (6,)
        # History of day 4 is [0,1,2,3] -> mean 1.5.
        assert mean[0] == pytest.approx(1.5)
        # History of day 9 is [5,6,7,8] -> mean 6.5.
        assert mean[-1] == pytest.approx(6.5)

    def test_std_floor(self):
        m = np.zeros(10)
        _, std = sliding_history_stats(m, CFG)
        assert np.all(std == CFG.epsilon)

    def test_needs_enough_days(self):
        with pytest.raises(ValueError):
            sliding_history_stats(np.zeros(4), CFG)


class TestDeviationSeries:
    def test_constant_series_has_zero_sigma(self):
        m = np.full(12, 7.0)
        sigma, _ = deviation_series(m, CFG)
        np.testing.assert_array_equal(sigma, np.zeros(8))

    def test_step_change_saturates(self):
        m = np.concatenate([np.zeros(6), [50.0]])
        sigma, _ = deviation_series(m, CFG)
        assert sigma[-1] == CFG.delta

    def test_negative_deviation(self):
        m = np.concatenate([np.full(6, 50.0), [0.0]])
        sigma, _ = deviation_series(m, CFG)
        assert sigma[-1] == -CFG.delta

    def test_white_tail_after_burst(self):
        """After a one-day burst enters the history, subsequent sigmas
        shrink because the history std inflates (Figure 4's white tails)."""
        m = np.concatenate([np.zeros(6), [30.0], np.zeros(6)])
        sigma, _ = deviation_series(m, CFG)
        burst_index = 2  # day 6 in output space (6 - history 4)
        assert sigma[burst_index] == CFG.delta
        after = sigma[burst_index + 1 :]
        assert np.all(np.abs(after) < CFG.delta)

    def test_exact_zscore_value(self):
        m = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        sigma, _ = deviation_series(m, CFG)
        hist = m[:4]
        expected = (10.0 - hist.mean()) / hist.std()
        assert sigma[0] == pytest.approx(min(expected, 3.0))

    def test_multi_dim_broadcast(self):
        m = np.random.default_rng(0).poisson(5.0, size=(4, 3, 2, 20)).astype(float)
        sigma, weights = deviation_series(m, CFG)
        assert sigma.shape == (4, 3, 2, 16)
        assert weights.shape == sigma.shape

    @given(
        arrays(
            np.float64,
            (20,),
            elements=st.floats(min_value=0, max_value=1000, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_sigma_always_bounded(self, m):
        sigma, _ = deviation_series(m, CFG)
        assert np.all(sigma <= CFG.delta)
        assert np.all(sigma >= -CFG.delta)

    @given(
        arrays(
            np.float64,
            (20,),
            elements=st.floats(min_value=0, max_value=1000, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, m):
        """Adding a constant to the series leaves z-scores unchanged
        (up to the epsilon floor on zero-variance histories)."""
        sigma_a, _ = deviation_series(m, CFG)
        sigma_b, _ = deviation_series(m + 100.0, CFG)
        np.testing.assert_allclose(sigma_a, sigma_b, atol=1e-6)


class TestWeights:
    def test_weight_one_for_small_std(self):
        assert feature_weights(np.array([0.0]))[0] == 1.0
        assert feature_weights(np.array([2.0]))[0] == 1.0

    def test_weight_decreases_with_std(self):
        w = feature_weights(np.array([2.0, 4.0, 16.0, 256.0]))
        assert np.all(np.diff(w) < 0)
        assert w[1] == pytest.approx(0.5)
        assert w[2] == pytest.approx(0.25)

    @given(st.floats(min_value=0, max_value=1e9, allow_nan=False))
    def test_weights_in_unit_interval(self, std):
        w = feature_weights(np.array([std]))[0]
        assert 0.0 < w <= 1.0


class TestNormalizeToUnit:
    def test_bounds_map(self):
        np.testing.assert_allclose(
            normalize_to_unit(np.array([-3.0, 0.0, 3.0]), 3.0), [0.0, 0.5, 1.0]
        )

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            normalize_to_unit(np.zeros(3), 0.0)


def make_cube(n_users=4, n_days=15, seed=0):
    fs = FeatureSet([AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a")))])
    users = [f"u{i}" for i in range(n_users)]
    days = [date(2010, 1, 1) + timedelta(days=i) for i in range(n_days)]
    values = np.random.default_rng(seed).poisson(6.0, size=(n_users, 2, 2, n_days)).astype(float)
    return MeasurementCube(values, users, fs, TWO_TIMEFRAMES, days)


class TestComputeDeviations:
    def test_day_axis_shortened_by_history(self):
        cube = make_cube(n_days=15)
        dev = compute_deviations(cube, config=CFG)
        assert len(dev.days) == 15 - CFG.history_days
        assert dev.days[0] == cube.days[CFG.history_days]

    def test_single_group_by_default(self):
        dev = compute_deviations(make_cube(), config=CFG)
        assert dev.groups == ["all"]
        assert set(dev.group_of_user) == {0}

    def test_group_sigma_is_deviation_of_group_mean(self):
        cube = make_cube()
        group_map = {u: ("g1" if i < 2 else "g2") for i, u in enumerate(cube.users)}
        dev = compute_deviations(cube, group_map, CFG)
        assert dev.groups == ["g1", "g2"]
        expected_mean_series = cube.values[:2].mean(axis=0)
        expected_sigma, _ = deviation_series(expected_mean_series, CFG)
        np.testing.assert_allclose(dev.group_sigma[0], expected_sigma)

    def test_group_map_must_cover_users(self):
        cube = make_cube()
        with pytest.raises(ValueError, match="missing users"):
            compute_deviations(cube, {"u0": "g"}, CFG)

    def test_day_index_raises_for_consumed_history(self):
        cube = make_cube()
        dev = compute_deviations(cube, config=CFG)
        with pytest.raises(KeyError):
            dev.day_index(cube.days[0])

    def test_user_index(self):
        dev = compute_deviations(make_cube(), config=CFG)
        assert dev.user_index("u1") == 1
        with pytest.raises(KeyError):
            dev.user_index("nope")


def test_normalized_deviations_is_train_max_normalization():
    cube = make_cube(n_users=5)
    group_map = {u: ("g1" if i < 2 else "g2") for i, u in enumerate(cube.users)}
    delta = 3.0
    produced = normalized_deviations(cube, group_map, cube.days[:10], delta)
    maxima = np.maximum(cube.values[..., :10].max(axis=-1, keepdims=True), 1.0)
    expected = (np.clip(cube.values / maxima, 0.0, 1.0) * 2.0 - 1.0) * delta
    np.testing.assert_array_equal(produced.sigma, expected)
    np.testing.assert_array_equal(produced.weights, np.ones_like(expected))
    assert produced.days == list(cube.days)
    assert produced.groups == ["g1", "g2"]
    with pytest.raises(ValueError, match="do not overlap"):
        normalized_deviations(cube, group_map, [date(2031, 1, 1)], delta)
