"""Staged pipeline tests: the stages reproduce the reference math.

The representation stage must produce exactly
:func:`repro.core.deviation.compute_deviations` (deviation models) and
the train-max normalization (1-Day / Baseline models); the critic stage
must rank exactly like :func:`repro.core.critic.investigation_list`.
"""

from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from repro.core.critic import investigation_list
from repro.core.detector import CompoundBehaviorModel, ModelConfig, make_acobe
from repro.core.deviation import DeviationConfig, compute_deviations
from repro.core.pipeline import CriticStage, DetectionPipeline, RepresentationStage
from repro.eval.experiments import CERT_SMALL
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import AutoencoderConfig
from repro.obs import Telemetry, set_telemetry
from repro.utils.timeutil import TWO_TIMEFRAMES

TINY_AE = AutoencoderConfig(
    encoder_units=(8, 4),
    epochs=2,
    batch_size=16,
    optimizer="adam",
    early_stopping_patience=None,
    validation_split=0.0,
    seed=1,
)

N_DAYS = 26
N_TRAIN_DAYS = 18


def build_scenario(n_users: int, seed: int = 4):
    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
        ]
    )
    days = [date(2010, 1, 1) + timedelta(days=i) for i in range(N_DAYS)]
    users = [f"u{i}" for i in range(n_users)]
    values = (
        np.random.default_rng(seed)
        .poisson(5.0, size=(n_users, 3, 2, N_DAYS))
        .astype(float)
    )
    cube = MeasurementCube(values, users, fs, TWO_TIMEFRAMES, days)
    half = max(1, n_users // 2)
    group_map = {u: ("g1" if i < half else "g2") for i, u in enumerate(users)}
    return cube, group_map, days


def fit(cube, group_map, days):
    model = CompoundBehaviorModel(
        ModelConfig(window=4, matrix_days=4, critic_n=2, autoencoder=TINY_AE)
    )
    model.fit(cube, group_map, days[:N_TRAIN_DAYS])
    return model


def test_deviation_cube_equals_compute_deviations():
    cube, group_map, _ = build_scenario(7)
    config = DeviationConfig(window=4)
    produced = RepresentationStage().deviation_cube(cube, group_map, config)
    expected = compute_deviations(cube, group_map, config)
    for name in ("sigma", "weights", "group_sigma", "group_weights"):
        np.testing.assert_array_equal(getattr(produced, name), getattr(expected, name))
    assert produced.days == expected.days
    assert produced.groups == expected.groups
    assert produced.group_of_user == expected.group_of_user


def test_normalized_cube_is_train_max_normalization():
    cube, group_map, days = build_scenario(5)
    delta = 3.0
    produced = RepresentationStage().normalized_cube(cube, group_map, days[:10], delta)
    maxima = np.maximum(cube.values[..., :10].max(axis=-1, keepdims=True), 1.0)
    expected = (np.clip(cube.values / maxima, 0.0, 1.0) * 2.0 - 1.0) * delta
    np.testing.assert_array_equal(produced.sigma, expected)
    np.testing.assert_array_equal(produced.weights, np.ones_like(expected))
    assert produced.days == list(cube.days)
    assert produced.groups == ["g1", "g2"]


def test_critic_stage_equals_investigation_list():
    users = ["u0", "u1", "u2", "u3"]
    arrays = {
        "a": np.array([0.1, 0.9, 0.4, 0.3]),
        "b": np.array([0.5, 0.2, 0.8, 0.1]),
    }
    produced = CriticStage().investigate(arrays, users, n_votes=2)
    expected = investigation_list(
        {aspect: dict(zip(users, map(float, arr))) for aspect, arr in arrays.items()}, 2
    )
    assert [(e.user, e.priority, e.ranks) for e in produced.entries] == [
        (e.user, e.priority, e.ranks) for e in expected.entries
    ]


def test_pipeline_telemetry_spans():
    cube, group_map, days = build_scenario(6)
    telemetry = Telemetry(enabled=True)
    previous = set_telemetry(telemetry)
    try:
        model = fit(cube, group_map, days)
        model.investigate(model.valid_anchor_days(days))
    finally:
        set_telemetry(previous)
    span_names = {span["name"] for span in _walk_spans(telemetry.snapshot()["spans"])}
    assert {"pipeline.representation", "pipeline.critic", "detector.score"} <= span_names


def _walk_spans(spans):
    for span in spans:
        yield span
        yield from _walk_spans(span.get("children", []))


def test_engine_property_exposes_pipeline():
    cube, group_map, days = build_scenario(5)
    model = fit(cube, group_map, days)
    assert isinstance(model.engine, DetectionPipeline)
    assert isinstance(model.engine.representation, RepresentationStage)
    assert isinstance(model.engine.critic, CriticStage)


def test_retired_shard_keywords_accept_only_one():
    """``make_acobe(n_shards=)`` and ``CertBenchmarkConfig.n_shards`` stay
    for callers written before sharding was removed; 1 is a no-op and any
    other value is an error, never a silent fallback."""
    assert make_acobe(n_shards=1).config == make_acobe().config
    assert replace(CERT_SMALL, n_shards=1) == CERT_SMALL
    with pytest.raises(ValueError, match="n_shards"):
        make_acobe(n_shards=2)
    with pytest.raises(ValueError, match="n_shards"):
        replace(CERT_SMALL, n_shards=3)
