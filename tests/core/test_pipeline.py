"""Detection-pipeline tests: representation -> autoencoders -> critic.

The detector's representation must be exactly
:func:`repro.core.deviation.compute_deviations`, and each step records
its ``pipeline.*`` telemetry span.
"""

from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from repro.core.detector import CompoundBehaviorModel, ModelConfig, make_acobe
from repro.core.deviation import DeviationConfig, compute_deviations
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
    """The detector's representation is exactly ``compute_deviations``."""
    cube, group_map, days = build_scenario(7)
    model = fit(cube, group_map, days)
    expected = compute_deviations(cube, group_map, DeviationConfig(window=4))
    produced = model.deviations
    for name in ("sigma", "weights", "group_sigma", "group_weights"):
        np.testing.assert_array_equal(getattr(produced, name), getattr(expected, name))
    assert produced.days == expected.days
    assert produced.groups == expected.groups
    assert produced.group_of_user == expected.group_of_user


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
