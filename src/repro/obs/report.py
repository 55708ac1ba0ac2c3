"""Structured run reports: the JSON face of the telemetry layer.

Three schema-versioned document families share one envelope design:

* ``acobe.run_report`` -- one detection run: per-stage span timings,
  merged metrics (histograms summarized with p50/p95/p99, sampled
  values preserved), per-aspect training curves and any monitoring
  alerts raised during the run.  Produced by ``repro detect --trace
  --metrics-out PATH`` and by :func:`build_run_report` directly.
* ``acobe.bench`` -- one benchmark measurement, written as
  ``benchmarks/results/BENCH_<name>.json`` so the performance
  trajectory is machine-readable across PRs (and machine-*checked* by
  ``tools/check_bench_regression.py`` / ``repro report diff``).
* ``acobe.alert`` -- one monitoring alert (score drift, ingest data
  quality), embedded in run reports and
  :class:`~repro.core.streaming.DailyResult` records by
  :mod:`repro.obs.drift`.

All validators are deliberately dependency-free (no jsonschema): they
check the envelope and the field types the consumers rely on, raising
``ValueError`` with the offending path.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Union

from repro.obs.telemetry import (
    SpanRecord,
    Telemetry,
    summarize_histogram_snapshot,
)

__all__ = [
    "ALERT_SCHEMA",
    "ALERT_SEVERITIES",
    "BENCH_SCHEMA",
    "RUN_REPORT_SCHEMA",
    "SCHEMA_VERSION",
    "build_alert",
    "build_bench_report",
    "build_run_report",
    "format_span_tree",
    "validate_alert",
    "validate_bench_report",
    "validate_run_report",
    "write_report",
]

RUN_REPORT_SCHEMA = "acobe.run_report"
BENCH_SCHEMA = "acobe.bench"
ALERT_SCHEMA = "acobe.alert"
SCHEMA_VERSION = 1

#: Valid ``severity`` values of an ``acobe.alert``, least to most urgent.
ALERT_SEVERITIES = ("info", "warning", "critical")


def _envelope(schema: str, name: str, meta: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    return {
        "schema": schema,
        "version": SCHEMA_VERSION,
        "name": name,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z",
        "meta": dict(meta or {}),
    }


def _summarize_histograms(raw: Mapping[str, Any]) -> Dict[str, dict]:
    """name -> {summary (incl. p50/p95/p99), values} for every histogram.

    ``values`` carries the (reservoir-bounded) sample list; the summary's
    count/min/max/mean stay exact even when sampling kicked in.
    """
    out: Dict[str, dict] = {}
    for name, entry in raw.items():
        if isinstance(entry, Mapping):
            values = [float(v) for v in entry.get("values", [])]
        else:
            values = [float(v) for v in entry]
        out[name] = {"summary": summarize_histogram_snapshot(entry), "values": values}
    return out


def build_alert(
    kind: str,
    message: str,
    severity: str = "warning",
    day: Optional[Any] = None,
    metric: Optional[str] = None,
    value: Optional[float] = None,
    threshold: Optional[float] = None,
    context: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """One schema-versioned ``acobe.alert`` record.

    Args:
        kind: alert family (``score-drift``, ``ingest-quality``, ...).
        message: the operator-facing sentence.
        severity: one of :data:`ALERT_SEVERITIES`.
        day: the detection day the alert fired on (stringified).
        metric / value / threshold: the breached signal, its observed
            value and the configured bound.
        context: extra JSON-able diagnostics (aspect, window sizes, ...).
    """
    if severity not in ALERT_SEVERITIES:
        raise ValueError(
            f"severity must be one of {ALERT_SEVERITIES}, got {severity!r}"
        )
    return {
        "schema": ALERT_SCHEMA,
        "version": SCHEMA_VERSION,
        "kind": str(kind),
        "severity": severity,
        "message": str(message),
        "day": None if day is None else str(day),
        "metric": metric,
        "value": None if value is None else float(value),
        "threshold": None if threshold is None else float(threshold),
        "context": dict(context or {}),
    }


def build_run_report(
    telemetry: Telemetry,
    training_histories: Optional[Mapping[str, Any]] = None,
    name: str = "run",
    meta: Optional[Mapping[str, Any]] = None,
    alerts: Optional[Iterable[Mapping[str, Any]]] = None,
) -> Dict[str, Any]:
    """Render a telemetry capture (plus training curves) as one document.

    Args:
        telemetry: the capture to export (span forest + metrics).
        training_histories: aspect name -> ``TrainingHistory`` (e.g.
            ``CompoundBehaviorModel.training_histories``); serialized as
            per-aspect loss/val-loss/grad-norm curves.
        name / meta: envelope fields (model name, scale, seed, ...).
        alerts: ``acobe.alert`` records raised during the run (e.g. from
            :class:`repro.obs.drift.ScoreDriftMonitor`).
    """
    snapshot = telemetry.snapshot()
    document = _envelope(RUN_REPORT_SCHEMA, name, meta)
    document["run_id"] = telemetry.run_id
    document["spans"] = snapshot["spans"]
    document["metrics"] = {
        "counters": snapshot["metrics"]["counters"],
        "gauges": snapshot["metrics"]["gauges"],
        "histograms": _summarize_histograms(snapshot["metrics"]["histograms"]),
    }
    training: Dict[str, dict] = {}
    for aspect, history in (training_histories or {}).items():
        training[aspect] = {
            "epochs": history.epochs_trained,
            "loss": [float(v) for v in history.loss],
            "val_loss": [float(v) for v in history.val_loss],
            "grad_norm": [float(v) for v in getattr(history, "grad_norm", [])],
        }
    document["training"] = training
    document["alerts"] = [dict(alert) for alert in (alerts or [])]
    return document


def build_bench_report(
    name: str,
    metrics: Mapping[str, Any],
    params: Optional[Mapping[str, Any]] = None,
    meta: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """One benchmark measurement in the shared envelope.

    ``metrics`` holds the measured numbers (seconds, bytes, ratios);
    ``params`` the workload configuration that produced them.
    """
    document = _envelope(BENCH_SCHEMA, name, meta)
    document["params"] = dict(params or {})
    document["metrics"] = dict(metrics)
    return document


def write_report(path: Union[str, Path], document: Mapping[str, Any]) -> Path:
    """Validate and write a report document as indented JSON."""
    schema = document.get("schema")
    if schema == RUN_REPORT_SCHEMA:
        validate_run_report(document)
    elif schema == BENCH_SCHEMA:
        validate_bench_report(document)
    else:
        raise ValueError(f"unknown report schema {schema!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _check(condition: bool, where: str, expected: str) -> None:
    if not condition:
        raise ValueError(f"invalid report: {where}: expected {expected}")


def _validate_envelope(document: Mapping[str, Any], schema: str) -> None:
    _check(isinstance(document, Mapping), "$", "a mapping")
    _check(document.get("schema") == schema, "schema", repr(schema))
    _check(isinstance(document.get("version"), int), "version", "an int")
    _check(document.get("version") >= 1, "version", ">= 1")
    _check(isinstance(document.get("name"), str), "name", "a string")
    _check(isinstance(document.get("generated_at"), str), "generated_at", "a string")
    _check(isinstance(document.get("meta"), Mapping), "meta", "a mapping")


def _validate_span(doc: Mapping[str, Any], where: str) -> None:
    _check(isinstance(doc, Mapping), where, "a mapping")
    _check(isinstance(doc.get("name"), str), f"{where}.name", "a string")
    for key in ("wall_seconds", "cpu_seconds"):
        _check(isinstance(doc.get(key), (int, float)), f"{where}.{key}", "a number")
    for i, child in enumerate(doc.get("children", [])):
        _validate_span(child, f"{where}.children[{i}]")


def validate_run_report(document: Mapping[str, Any]) -> None:
    """Raise ValueError unless ``document`` is a valid run report."""
    _validate_envelope(document, RUN_REPORT_SCHEMA)
    _check(isinstance(document.get("spans"), list), "spans", "a list")
    for i, span in enumerate(document["spans"]):
        _validate_span(span, f"spans[{i}]")
    metrics = document.get("metrics")
    _check(isinstance(metrics, Mapping), "metrics", "a mapping")
    for key in ("counters", "gauges", "histograms"):
        _check(isinstance(metrics.get(key), Mapping), f"metrics.{key}", "a mapping")
    for name, value in metrics["counters"].items():
        # Event counters are ints; accumulated wall-time totals
        # (``nn.phase.*_seconds``) are the one float-valued family.
        if name.endswith("_seconds"):
            _check(isinstance(value, (int, float)) and not isinstance(value, bool),
                   f"metrics.counters[{name!r}]", "a number")
        else:
            _check(isinstance(value, int), f"metrics.counters[{name!r}]", "an int")
    for name, entry in metrics["histograms"].items():
        where = f"metrics.histograms[{name!r}]"
        _check(isinstance(entry, Mapping), where, "a mapping")
        _check(isinstance(entry.get("summary"), Mapping), f"{where}.summary", "a mapping")
        _check(isinstance(entry.get("values"), list), f"{where}.values", "a list")
    training = document.get("training")
    _check(isinstance(training, Mapping), "training", "a mapping")
    for aspect, curves in training.items():
        where = f"training[{aspect!r}]"
        _check(isinstance(curves, Mapping), where, "a mapping")
        _check(isinstance(curves.get("epochs"), int), f"{where}.epochs", "an int")
        for key in ("loss", "val_loss", "grad_norm"):
            _check(isinstance(curves.get(key), list), f"{where}.{key}", "a list")
    # ``alerts`` is optional for backward compatibility with version-1
    # reports written before the monitoring plane existed.
    if "alerts" in document:
        alerts = document["alerts"]
        _check(isinstance(alerts, list), "alerts", "a list")
        for i, alert in enumerate(alerts):
            try:
                validate_alert(alert)
            except ValueError as exc:
                raise ValueError(f"invalid report: alerts[{i}]: {exc}") from None


def validate_alert(document: Mapping[str, Any]) -> None:
    """Raise ValueError unless ``document`` is a valid ``acobe.alert``."""
    _check(isinstance(document, Mapping), "$", "a mapping")
    _check(document.get("schema") == ALERT_SCHEMA, "schema", repr(ALERT_SCHEMA))
    _check(isinstance(document.get("version"), int), "version", "an int")
    _check(document.get("version") >= 1, "version", ">= 1")
    _check(
        isinstance(document.get("kind"), str) and bool(document.get("kind")),
        "kind", "a non-empty string",
    )
    _check(
        document.get("severity") in ALERT_SEVERITIES,
        "severity", f"one of {ALERT_SEVERITIES}",
    )
    _check(isinstance(document.get("message"), str), "message", "a string")
    _check(isinstance(document.get("context"), Mapping), "context", "a mapping")
    for key in ("value", "threshold"):
        value = document.get(key)
        _check(
            value is None or isinstance(value, (int, float)),
            key, "a number or null",
        )


def validate_bench_report(document: Mapping[str, Any]) -> None:
    """Raise ValueError unless ``document`` is a valid benchmark report."""
    _validate_envelope(document, BENCH_SCHEMA)
    _check(isinstance(document.get("params"), Mapping), "params", "a mapping")
    metrics = document.get("metrics")
    _check(isinstance(metrics, Mapping), "metrics", "a mapping")
    _check(len(metrics) > 0, "metrics", "at least one entry")


# ---------------------------------------------------------------------------
# Human-readable span rendering (``detect --trace``)
# ---------------------------------------------------------------------------


def format_span_tree(telemetry: Telemetry, min_wall_seconds: float = 0.0) -> str:
    """An indented text rendering of the span forest with timings.

    When the capture recorded histograms, a trailing section lists each
    one with its count and p50/p95/p99 -- the terminal-friendly view of
    the same summaries the exporters and run reports carry.
    """
    lines: list = []

    def render(record: SpanRecord, depth: int) -> None:
        if record.wall_seconds < min_wall_seconds and depth > 0:
            return
        parts = [
            f"{'  ' * depth}{record.name}",
            f"wall={record.wall_seconds * 1000:.1f}ms",
            f"cpu={record.cpu_seconds * 1000:.1f}ms",
        ]
        if record.mem_peak_bytes is not None:
            parts.append(f"mem_peak={record.mem_peak_bytes / (1024 * 1024):.1f}MiB")
        if record.attributes:
            attrs = " ".join(f"{k}={v}" for k, v in sorted(record.attributes.items()))
            parts.append(attrs)
        lines.append("  ".join(parts))
        for child in record.children:
            render(child, depth + 1)

    for root in telemetry.spans:
        render(root, 0)
    histograms = telemetry.metrics.histograms
    if histograms:
        if lines:
            lines.append("")
        lines.append("histograms:")
        for name in sorted(histograms):
            summary = histograms[name].summary()
            if not summary.get("count"):
                lines.append(f"  {name}  count=0")
                continue
            lines.append(
                f"  {name}  count={summary['count']}"
                f"  p50={summary['p50']:.6g}  p95={summary['p95']:.6g}"
                f"  p99={summary['p99']:.6g}  max={summary['max']:.6g}"
            )
    if not lines:
        return "(no spans recorded)"
    return "\n".join(lines)
