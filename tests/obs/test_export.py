"""Metric exporters: Prometheus rendering, JSONL flushes, durable counters."""

import json
from datetime import date, timedelta

import numpy as np
import pytest

from repro.obs import MetricsExporter, Telemetry, render_prometheus


class TestRenderPrometheus:
    def test_counter_gauge_histogram_families(self):
        t = Telemetry(enabled=True)
        t.counter("stream.days_total").inc(3)
        t.gauge("pool.workers").set(2)
        for v in (0.1, 0.2, 0.3, 0.4):
            t.histogram("day_seconds").observe(v)
        snap = t.metrics.snapshot()
        text = render_prometheus(snap["counters"], snap["gauges"], snap["histograms"])
        assert "# TYPE acobe_stream_days_total counter" in text
        assert "acobe_stream_days_total 3" in text
        assert "# TYPE acobe_pool_workers gauge" in text
        assert "acobe_pool_workers 2.0" in text
        assert "# TYPE acobe_day_seconds summary" in text
        assert 'acobe_day_seconds{quantile="0.5"}' in text
        assert 'acobe_day_seconds{quantile="0.95"}' in text
        assert 'acobe_day_seconds{quantile="0.99"}' in text
        assert "acobe_day_seconds_count 4" in text
        assert text.endswith("\n")

    def test_seconds_counters_keep_their_fraction(self):
        text = render_prometheus({"nn.phase.forward_seconds": 1.25, "nn.fits_total": 2}, {}, {})
        assert "acobe_nn_phase_forward_seconds 1.25" in text
        assert "acobe_nn_fits_total 2" in text

    def test_durable_counters_render_as_gauges(self):
        text = render_prometheus({}, {}, {}, durable={"stream.days_observed": 7})
        assert "# TYPE acobe_stream_days_observed gauge" in text
        assert "acobe_stream_days_observed 7.0" in text
        assert "checkpoint-backed" in text

    def test_names_are_sanitized_and_non_finite_gauges_skipped(self):
        text = render_prometheus(
            {"a.b-c/d": 1},
            {"bad": float("nan"), "worse": float("inf"), "none": None, "ok": 2.0},
            {},
        )
        assert "acobe_a_b_c_d 1" in text
        assert "bad" not in text and "worse" not in text and "none" not in text
        assert "acobe_ok 2.0" in text

    def test_empty_histogram_renders_zero_count_only(self):
        text = render_prometheus({}, {}, {"h": {"values": [], "count": 0}})
        assert "acobe_h_count 0" in text
        assert "quantile" not in text


class TestMetricsExporter:
    def test_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            MetricsExporter(tmp_path, every=0)

    def test_tick_flushes_on_cadence(self, tmp_path):
        t = Telemetry(enabled=True)
        exporter = MetricsExporter(tmp_path, every=3)
        flushed = [exporter.tick(t) for _ in range(7)]
        assert flushed == [False, False, True, False, False, True, False]
        lines = exporter.jsonl_path.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["seq"] for line in lines] == [0, 1]

    def test_flush_writes_both_formats(self, tmp_path):
        t = Telemetry(enabled=True)
        t.counter("c").inc(2)
        t.histogram("h").observe(1.5)
        exporter = MetricsExporter(tmp_path)
        document = exporter.flush(t, durable={"stream.days_observed": 4})
        assert document["counters"] == {"c": 2}
        assert document["histograms"]["h"]["count"] == 1
        assert document["durable"] == {"stream.days_observed": 4.0}
        assert document["run_id"] == t.run_id
        prom = exporter.prom_path.read_text()
        assert "acobe_c 2" in prom
        assert "acobe_stream_days_observed 4.0" in prom
        on_disk = json.loads(exporter.jsonl_path.read_text())
        assert on_disk == document

    def test_prom_file_is_replaced_not_appended(self, tmp_path):
        t = Telemetry(enabled=True)
        exporter = MetricsExporter(tmp_path)
        t.counter("c").inc()
        exporter.flush(t)
        t.counter("c").inc()
        exporter.flush(t)
        prom = exporter.prom_path.read_text()
        value_lines = [l for l in prom.splitlines() if l.startswith("acobe_c ")]
        assert value_lines == ["acobe_c 2"]
        # No leftover temp files from the atomic replace.
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".metrics-")] == []


@pytest.fixture(scope="module")
def stream_parts():
    """A tiny fitted model + cube, enough for a full streaming run."""
    from repro.core.detector import CompoundBehaviorModel, ModelConfig
    from repro.features.measurements import MeasurementCube
    from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
    from repro.nn.autoencoder import AutoencoderConfig
    from repro.utils.timeutil import TWO_TIMEFRAMES

    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
        ]
    )
    users = [f"u{i}" for i in range(6)]
    n_days = 30
    days = [date(2010, 1, 1) + timedelta(days=i) for i in range(n_days)]
    values = np.random.default_rng(7).poisson(5.0, size=(6, 3, 2, n_days)).astype(float)
    cube = MeasurementCube(values, users, fs, TWO_TIMEFRAMES, days)
    group_map = {u: ("g1" if i < 3 else "g2") for i, u in enumerate(users)}
    ae = AutoencoderConfig(
        encoder_units=(8, 4), epochs=2, batch_size=16,
        early_stopping_patience=None, validation_split=0.0, seed=1,
    )
    model = CompoundBehaviorModel(
        ModelConfig(window=5, matrix_days=5, critic_n=2, autoencoder=ae)
    )
    model.fit(cube, group_map, days[:20])
    return model, cube, group_map, days


def _fresh_stream(stream_parts):
    from repro.core.streaming import StreamingDetector

    model, cube, group_map, _ = stream_parts
    return StreamingDetector(model, cube.users, group_map)


class TestStreamingIntegration:
    def test_exporter_ticks_once_per_observed_day(self, tmp_path, stream_parts):
        model, cube, group_map, days = stream_parts
        stream = _fresh_stream(stream_parts)
        exporter = MetricsExporter(tmp_path, every=1)
        stream.attach_exporter(exporter)
        for d, day in enumerate(days):
            stream.observe_day(day, cube.values[:, :, :, d])
        assert exporter.ticks == len(days)
        last = json.loads(exporter.jsonl_path.read_text().splitlines()[-1])
        assert last["durable"]["stream.days_observed"] == float(len(days))

    def test_attachments_do_not_perturb_scores(self, tmp_path, stream_parts):
        """Bit-identity: a monitored run scores exactly like a bare one."""
        from repro.core.streaming import DailyResult
        from repro.obs.drift import DriftConfig, ScoreDriftMonitor

        model, cube, group_map, days = stream_parts
        bare = _fresh_stream(stream_parts)
        monitored = _fresh_stream(stream_parts)
        monitored.attach_exporter(MetricsExporter(tmp_path, every=1))
        monitored.attach_drift_monitor(
            ScoreDriftMonitor(DriftConfig(reference_days=3, current_days=1))
        )
        for d, day in enumerate(days):
            a = bare.observe_day(day, cube.values[:, :, :, d])
            b = monitored.observe_day(day, cube.values[:, :, :, d])
            assert isinstance(a, DailyResult) == isinstance(b, DailyResult)
            if isinstance(a, DailyResult):
                for aspect in a.scores:
                    np.testing.assert_array_equal(a.scores[aspect], b.scores[aspect])

    def test_kill_and_resume_durable_counters_match_uninterrupted(
        self, tmp_path, stream_parts
    ):
        """The acceptance contract: after a kill at any point, the resumed
        run's final durable export equals the uninterrupted run's."""
        model, cube, group_map, days = stream_parts

        full = _fresh_stream(stream_parts)
        full_exporter = MetricsExporter(tmp_path / "full", every=1)
        full.attach_exporter(full_exporter)
        for d, day in enumerate(days):
            full.observe_day(day, cube.values[:, :, :, d])
        full_final = json.loads(
            full_exporter.jsonl_path.read_text().splitlines()[-1]
        )

        kill_at = 13
        first = _fresh_stream(stream_parts)
        first.attach_exporter(MetricsExporter(tmp_path / "first", every=1))
        for d in range(kill_at):
            first.observe_day(days[d], cube.values[:, :, :, d])
        state = first.export_state()  # what the checkpoint persists

        resumed = _fresh_stream(stream_parts)  # fresh process: telemetry reset
        resumed.restore_state(state)
        resumed_exporter = MetricsExporter(tmp_path / "resumed", every=1)
        resumed.attach_exporter(resumed_exporter)
        for d in range(kill_at, len(days)):
            resumed.observe_day(days[d], cube.values[:, :, :, d])
        resumed_final = json.loads(
            resumed_exporter.jsonl_path.read_text().splitlines()[-1]
        )

        assert resumed_final["durable"] == full_final["durable"]
        assert resumed_final["durable"]["stream.days_observed"] == float(len(days))
