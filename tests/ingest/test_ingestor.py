"""Ingestor semantics: watermark, lateness policies, dedup, backpressure."""

import json
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from repro.ingest import (
    IngestBackpressureError,
    IngestConfig,
    Ingestor,
    LateEventError,
    SealedSlab,
    SlabBuilder,
    WatermarkClock,
)
from repro.logs.schema import DeviceEvent
from repro.obs import Telemetry, set_telemetry

USERS = ["u0", "u1"]
D = date(2010, 3, 1)


def connect(day_offset, user="u0", host="H1", hour=10):
    day = D + timedelta(days=day_offset)
    return DeviceEvent(datetime(day.year, day.month, day.day, hour), user, "connect", host)


def make_ingestor(**overrides):
    defaults = dict(allowed_lateness_days=1, start_day=D)
    defaults.update(overrides)
    return Ingestor(SlabBuilder(USERS), None, IngestConfig(**defaults))


class TestWatermarkClock:
    def test_empty_clock_has_no_watermark(self):
        clock = WatermarkClock(1)
        assert clock.watermark is None
        assert clock.seal_through is None

    def test_watermark_trails_max_event_day(self):
        clock = WatermarkClock(2)
        clock.advance(D + timedelta(days=5))
        clock.advance(D + timedelta(days=3))  # monotone: no regression
        assert clock.max_event_day == D + timedelta(days=5)
        assert clock.watermark == D + timedelta(days=3)
        assert clock.seal_through == D + timedelta(days=2)

    def test_negative_lateness_rejected(self):
        with pytest.raises(ValueError):
            WatermarkClock(-1)


class TestConfigValidation:
    def test_policy_must_be_known(self):
        with pytest.raises(ValueError, match="late_policy"):
            IngestConfig(late_policy="vanish")

    def test_quarantine_path_pairing(self):
        with pytest.raises(ValueError, match="quarantine_path"):
            IngestConfig(late_policy="quarantine-file")
        with pytest.raises(ValueError, match="quarantine_path"):
            IngestConfig(late_policy="drop", quarantine_path="q.jsonl")

    def test_window_must_hold_watermark(self):
        with pytest.raises(ValueError, match="max_open_days"):
            IngestConfig(allowed_lateness_days=4, max_open_days=4)


class TestSealing:
    def test_day_seals_when_watermark_passes(self):
        ingestor = make_ingestor(allowed_lateness_days=0)
        assert ingestor.push(connect(0)) == []
        results = ingestor.push(connect(1))  # day 1 arrives: day 0 is final
        assert [r.day for r in results] == [D]
        assert isinstance(results[0], SealedSlab)
        assert results[0].n_records == 1

    def test_lateness_one_keeps_previous_day_open(self):
        ingestor = make_ingestor()
        assert ingestor.push(connect(0)) == []
        assert ingestor.push(connect(1)) == []  # day 0 may still trickle in
        results = ingestor.push(connect(2))
        assert [r.day for r in results] == [D]

    def test_gap_days_seal_as_zero_slabs(self):
        ingestor = make_ingestor(allowed_lateness_days=0)
        ingestor.push(connect(0))
        results = ingestor.push(connect(3))
        assert [r.day for r in results] == [D, D + timedelta(days=1), D + timedelta(days=2)]
        assert np.all(results[1].slab == 0.0)

    def test_out_of_order_within_tolerance_is_not_late(self):
        ingestor = make_ingestor()
        ingestor.push(connect(1))
        assert ingestor.push(connect(0)) == []  # one day behind: in tolerance
        assert ingestor.events_late == 0

    def test_flush_seals_through_max_event_day(self):
        ingestor = make_ingestor()
        ingestor.push(connect(0))
        ingestor.push(connect(1))
        results = ingestor.flush()
        assert [r.day for r in results] == [D, D + timedelta(days=1)]
        assert ingestor.cursor == D + timedelta(days=1)

    def test_flush_until_backfills_trailing_empty_days(self):
        ingestor = make_ingestor()
        ingestor.push(connect(0))
        results = ingestor.flush(until=D + timedelta(days=2))
        assert [r.day for r in results] == [D, D + timedelta(days=1), D + timedelta(days=2)]
        assert np.all(results[2].slab == 0.0)

    def test_flush_with_nothing_to_do(self):
        assert make_ingestor().flush() == []
        assert Ingestor(SlabBuilder(USERS)).flush() == []

    def test_events_before_start_day_are_late(self):
        ingestor = make_ingestor()
        ingestor.push(connect(-1))
        assert ingestor.events_late == 1


class TestLatePolicies:
    def _sealed_then_late(self, **overrides):
        ingestor = make_ingestor(allowed_lateness_days=0, **overrides)
        ingestor.push(connect(0))
        ingestor.push(connect(1))  # seals day 0
        return ingestor

    def test_drop_counts_and_discards(self):
        ingestor = self._sealed_then_late()
        assert ingestor.push(connect(0, host="H9")) == []
        assert ingestor.events_late == 1
        assert ingestor.events_pushed == 3

    def test_quarantine_file_appends_json_lines(self, tmp_path):
        quarantine = tmp_path / "late" / "q.jsonl"
        ingestor = self._sealed_then_late(
            late_policy="quarantine-file", quarantine_path=quarantine
        )
        ingestor.push(connect(0, host="H9"))
        ingestor.push(connect(0, host="H8"))
        rows = [json.loads(line) for line in quarantine.read_text().splitlines()]
        assert [row["host"] for row in rows] == ["H9", "H8"]
        assert all(row["type"] == "device" for row in rows)

    def test_raise_policy_does_not_consume(self):
        ingestor = self._sealed_then_late(late_policy="raise")
        before = ingestor.events_pushed
        with pytest.raises(LateEventError, match="sealed day"):
            ingestor.push(connect(0, host="H9"))
        assert ingestor.events_pushed == before
        assert ingestor.events_late == 0


class TestDedup:
    def test_same_fingerprint_collapses(self):
        ingestor = make_ingestor()
        ingestor.push(connect(0), "r1")
        ingestor.push(connect(0), "r1")
        assert ingestor.events_duplicate == 1
        assert ingestor.events_pushed == 2
        [result] = ingestor.flush()
        f = ingestor.builder.feature_set.index_of("device-connect")
        assert result.slab[0, f, 0] == 1.0

    def test_content_fingerprint_fallback(self):
        # Without an explicit fingerprint, identical events collapse.
        ingestor = make_ingestor()
        ingestor.push(connect(0))
        ingestor.push(connect(0))
        assert ingestor.events_duplicate == 1

    def test_distinct_fingerprints_do_not_collapse(self):
        ingestor = make_ingestor()
        ingestor.push(connect(0), "r1")
        ingestor.push(connect(0), "r2")
        assert ingestor.events_duplicate == 0


class TestBackpressure:
    def test_open_day_window_bound(self):
        ingestor = make_ingestor(allowed_lateness_days=1, max_open_days=2)
        ingestor.push(connect(0))
        with pytest.raises(IngestBackpressureError, match="max_open_days"):
            ingestor.push(connect(5))

    def test_buffered_events_bound_and_recovery(self):
        ingestor = make_ingestor(max_buffered_events=2)
        ingestor.push(connect(0), "r1")
        ingestor.push(connect(0, host="H2"), "r2")
        before = (ingestor.events_pushed, ingestor.cursor)
        with pytest.raises(IngestBackpressureError, match="max_buffered_events"):
            ingestor.push(connect(1), "r3")
        # Not consumed: counters and cursor untouched; flush() drains and
        # the same delivery then succeeds.
        assert (ingestor.events_pushed, ingestor.cursor) == before
        ingestor.flush()
        assert ingestor.push(connect(1), "r3") == []
        assert ingestor.events_pushed == 3


class TestTelemetry:
    def test_counters_flow(self):
        telemetry = Telemetry(enabled=True)
        set_telemetry(telemetry)
        try:
            ingestor = make_ingestor(allowed_lateness_days=0)
            ingestor.push(connect(0), "r1")
            ingestor.push(connect(0), "r1")  # duplicate
            ingestor.push(connect(1), "r2")  # seals day 0
            ingestor.push(connect(0), "r3")  # late
            metrics = telemetry.metrics.snapshot()
            assert metrics["counters"]["ingest.events"] == 4
            assert metrics["counters"]["ingest.events_duplicate"] == 1
            assert metrics["counters"]["ingest.events_late"] == 1
            assert metrics["counters"]["ingest.days_sealed"] == 1
            assert metrics["histograms"]["ingest.seal_latency_seconds"]["count"] == 1
            assert metrics["gauges"]["ingest.open_days"] == 1
        finally:
            set_telemetry(Telemetry(enabled=False))

    def test_counters_reported_at_zero(self):
        # A clean feed still reports its late/duplicate counters (as 0),
        # so run-report consumers can read them unconditionally.
        telemetry = Telemetry(enabled=True)
        set_telemetry(telemetry)
        try:
            ingestor = make_ingestor()
            ingestor.push(connect(0), "r1")
            counters = telemetry.metrics.snapshot()["counters"]
            assert counters["ingest.events_late"] == 0
            assert counters["ingest.events_duplicate"] == 0
            assert counters["ingest.days_sealed"] == 0
            assert counters["ingest.events"] == 1
        finally:
            set_telemetry(Telemetry(enabled=False))


class TestDetectorMismatch:
    def test_user_axis_must_match(self):
        class FakeDetector:
            users = ["someone-else"]

        with pytest.raises(ValueError, match="user axis"):
            Ingestor(SlabBuilder(USERS), FakeDetector(), IngestConfig())
