"""Run-report / bench-report builders, validators and the span renderer."""

import json

import pytest

from repro.nn.network import TrainingHistory
from repro.obs import (
    BENCH_SCHEMA,
    RUN_REPORT_SCHEMA,
    SCHEMA_VERSION,
    Telemetry,
    build_bench_report,
    build_run_report,
    format_span_tree,
    validate_bench_report,
    validate_run_report,
    write_report,
)


def capture():
    t = Telemetry(enabled=True)
    with t.span("detector.fit", model="ACOBE"):
        with t.span("detector.representation") as span:
            span.annotate(users=6)
        t.counter("nn.epochs_total").inc(8)
        t.histogram("train.final_loss").observe(0.25)
        t.gauge("parallel.pool_workers").set(2)
    return t


def history():
    h = TrainingHistory()
    h.loss = [0.9, 0.5]
    h.val_loss = [1.0, 0.6]
    h.grad_norm = [2.0, 1.0]
    return h


class TestRunReport:
    def test_build_and_validate(self):
        doc = build_run_report(
            capture(),
            training_histories={"http": history()},
            name="detect-acobe",
            meta={"scale": "small"},
        )
        validate_run_report(doc)  # must not raise
        assert doc["schema"] == RUN_REPORT_SCHEMA
        assert doc["version"] == SCHEMA_VERSION
        assert doc["meta"]["scale"] == "small"
        assert doc["spans"][0]["name"] == "detector.fit"
        assert doc["spans"][0]["children"][0]["attributes"] == {"users": 6}
        assert doc["metrics"]["counters"] == {"nn.epochs_total": 8}
        hist = doc["metrics"]["histograms"]["train.final_loss"]
        assert hist["values"] == [0.25]
        assert hist["summary"]["count"] == 1
        training = doc["training"]["http"]
        assert training == {
            "epochs": 2,
            "loss": [0.9, 0.5],
            "val_loss": [1.0, 0.6],
            "grad_norm": [2.0, 1.0],
        }

    def test_document_is_json_serializable(self):
        doc = build_run_report(capture(), training_histories={"a": history()})
        validate_run_report(json.loads(json.dumps(doc)))

    def test_seconds_counters_may_be_fractional(self):
        doc = build_run_report(capture(), training_histories={"http": history()})
        doc["metrics"]["counters"]["nn.phase.forward_seconds"] = 0.75
        validate_run_report(doc)
        doc["metrics"]["counters"]["nn.phase.forward_seconds"] = True
        with pytest.raises(ValueError, match="forward_seconds"):
            validate_run_report(doc)

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda d: d.pop("spans"), "spans"),
            (lambda d: d.update(version="1"), "version"),
            (lambda d: d["spans"][0].pop("wall_seconds"), "wall_seconds"),
            (lambda d: d["metrics"].pop("counters"), "metrics.counters"),
            (lambda d: d["metrics"]["counters"].update(x=1.5), "counters"),
            (lambda d: d["training"]["http"].pop("loss"), "loss"),
            (lambda d: d["training"]["http"].update(epochs="2"), "epochs"),
        ],
    )
    def test_validator_pinpoints_broken_fields(self, mutate, path):
        doc = build_run_report(capture(), training_histories={"http": history()})
        mutate(doc)
        with pytest.raises(ValueError, match=path.split(".")[-1]):
            validate_run_report(doc)


class TestBenchReport:
    def test_build_and_validate(self):
        doc = build_bench_report(
            "parallel_speedup",
            metrics={"speedup": 2.0},
            params={"n_jobs": 4},
            meta={"cpu_cores": 8},
        )
        validate_bench_report(doc)
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["metrics"] == {"speedup": 2.0}
        assert doc["params"] == {"n_jobs": 4}

    def test_empty_metrics_rejected(self):
        doc = build_bench_report("x", metrics={})
        with pytest.raises(ValueError, match="metrics"):
            validate_bench_report(doc)


class TestWriteReport:
    def test_writes_validated_json(self, tmp_path):
        doc = build_bench_report("b", metrics={"seconds": 1.0})
        path = write_report(tmp_path / "sub" / "BENCH_b.json", doc)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == BENCH_SCHEMA
        assert loaded["metrics"]["seconds"] == 1.0

    def test_rejects_unknown_schema(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report schema"):
            write_report(tmp_path / "x.json", {"schema": "nope"})

    def test_rejects_invalid_document(self, tmp_path):
        doc = build_run_report(Telemetry(enabled=True))
        doc.pop("training")
        with pytest.raises(ValueError, match="training"):
            write_report(tmp_path / "x.json", doc)
        assert not (tmp_path / "x.json").exists()


class TestFormatSpanTree:
    def test_renders_nested_tree(self):
        text = format_span_tree(capture())
        lines = text.splitlines()
        assert lines[0].startswith("detector.fit")
        assert "wall=" in lines[0] and "cpu=" in lines[0]
        assert lines[1].startswith("  detector.representation")
        assert "users=6" in lines[1]

    def test_empty_forest(self):
        assert format_span_tree(Telemetry(enabled=True)) == "(no spans recorded)"

    def test_min_wall_filter_keeps_roots(self):
        text = format_span_tree(capture(), min_wall_seconds=10.0)
        assert text.startswith("detector.fit")
        assert "representation" not in text


class TestEnvelopeRejection:
    """S3: the validators must reject malformed documents with a pointer."""

    def run_doc(self):
        return build_run_report(capture(), training_histories={"http": history()})

    def test_wrong_schema_string(self):
        doc = self.run_doc()
        doc["schema"] = "acobe.run_reprot"
        with pytest.raises(ValueError, match="schema"):
            validate_run_report(doc)
        bench = build_bench_report("b", metrics={"seconds": 1.0})
        bench["schema"] = RUN_REPORT_SCHEMA
        with pytest.raises(ValueError, match="schema"):
            validate_bench_report(bench)

    @pytest.mark.parametrize("key", ["schema", "version", "name", "generated_at", "meta"])
    def test_missing_envelope_keys(self, key):
        doc = self.run_doc()
        doc.pop(key)
        with pytest.raises(ValueError, match=key):
            validate_run_report(doc)

    def test_version_zero_rejected(self):
        doc = self.run_doc()
        doc["version"] = 0
        with pytest.raises(ValueError, match="version"):
            validate_run_report(doc)

    def test_malformed_span_children_pinpointed(self):
        doc = self.run_doc()
        doc["spans"][0]["children"][0]["cpu_seconds"] = "fast"
        with pytest.raises(
            ValueError, match=r"spans\[0\].children\[0\].cpu_seconds"
        ):
            validate_run_report(doc)
        doc = self.run_doc()
        doc["spans"][0]["children"] = ["not-a-span"]
        with pytest.raises(ValueError, match=r"children\[0\]"):
            validate_run_report(doc)

    def test_histogram_entry_shape_enforced(self):
        doc = self.run_doc()
        doc["metrics"]["histograms"]["train.final_loss"] = [0.25]  # pre-reservoir shape
        with pytest.raises(ValueError, match="train.final_loss"):
            validate_run_report(doc)

    def test_bench_params_must_be_a_mapping(self):
        doc = build_bench_report("b", metrics={"seconds": 1.0})
        doc["params"] = [1, 2]
        with pytest.raises(ValueError, match="params"):
            validate_bench_report(doc)


class TestAlerts:
    def test_build_alert_validates_round_trip(self):
        from datetime import date

        from repro.obs import ALERT_SCHEMA, build_alert, validate_alert

        alert = build_alert(
            kind="score-drift",
            message="aspect drifted",
            day=date(2010, 3, 1),
            metric="psi",
            value=0.4,
            threshold=0.25,
            context={"aspect": "logon"},
        )
        validate_alert(alert)
        assert alert["schema"] == ALERT_SCHEMA
        assert alert["day"] == "2010-03-01"

    def test_build_alert_rejects_unknown_severity(self):
        from repro.obs import build_alert

        with pytest.raises(ValueError, match="severity"):
            build_alert(kind="x", message="m", severity="apocalyptic")

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda a: a.update(schema="acobe.alarm"), "schema"),
            (lambda a: a.update(kind=""), "kind"),
            (lambda a: a.update(severity="loud"), "severity"),
            (lambda a: a.update(value="0.4"), "value"),
            (lambda a: a.pop("context"), "context"),
        ],
    )
    def test_validate_alert_rejects(self, mutate, path):
        from repro.obs import build_alert, validate_alert

        alert = build_alert(kind="score-drift", message="m")
        mutate(alert)
        with pytest.raises(ValueError, match=path):
            validate_alert(alert)

    def test_run_report_carries_and_validates_alerts(self):
        from repro.obs import build_alert

        alert = build_alert(kind="ingest-quality", message="late feed")
        doc = build_run_report(
            capture(), training_histories={"http": history()}, alerts=[alert]
        )
        validate_run_report(doc)
        assert doc["alerts"] == [alert]
        # A malformed alert inside the report is pinpointed by index.
        doc["alerts"].append({"schema": "acobe.alert"})
        with pytest.raises(ValueError, match=r"alerts\[1\]"):
            validate_run_report(doc)

    def test_reports_without_alerts_stay_valid(self):
        doc = build_run_report(capture(), training_histories={"http": history()})
        assert "alerts" not in doc or doc["alerts"] == []
        validate_run_report(doc)


class TestHistogramSummaries:
    def test_run_report_summary_has_quantiles(self):
        t = Telemetry(enabled=True)
        for v in range(1, 101):
            t.histogram("streaming.day_seconds").observe(float(v))
        doc = build_run_report(t)
        summary = doc["metrics"]["histograms"]["streaming.day_seconds"]["summary"]
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["p99"] == pytest.approx(99.01)

    def test_span_tree_lists_histogram_quantiles(self):
        t = capture()
        for v in (0.1, 0.2, 0.3):
            t.histogram("streaming.day_seconds").observe(v)
        text = format_span_tree(t)
        assert "histograms:" in text
        line = next(
            l for l in text.splitlines() if l.strip().startswith("streaming.day_seconds")
        )
        assert "p50=0.2" in line and "p95=" in line and "p99=" in line
