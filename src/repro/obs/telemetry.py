"""Zero-dependency telemetry: spans, counters, gauges, histograms.

The observability layer answers the operational questions the detector
cannot answer about itself -- where did the time and memory go, did any
aspect's training diverge, how do score distributions drift day to day
-- without ever touching the numerics.  Three guarantees:

* **Disabled by default, bit-identical either way.**  Every hook in the
  pipeline goes through a :class:`Telemetry` object; when it is disabled
  (the default) ``span()`` hands back a shared no-op context manager and
  ``counter()``/``gauge()``/``histogram()`` hand back shared no-op
  instruments, so the hot path pays one attribute check and no
  allocation.  Nothing observed ever feeds back into model state, so
  scores and rankings are bit-identical with telemetry on or off (pinned
  by ``tests/core/test_telemetry_determinism.py``).
* **Injectable, with a process-global default.**  Library code calls
  :func:`get_telemetry`; embedders may :func:`set_telemetry` their own
  instance (tests do), and the default instance is configured once from
  the ``ACOBE_TELEMETRY`` environment variable (``1``/``on`` enables,
  ``mem`` additionally records ``tracemalloc`` peaks).
* **Mergeable across processes.**  :meth:`Telemetry.snapshot` renders
  the span forest and metrics as a plain JSON-able dict;
  :meth:`Telemetry.merge` folds such a snapshot back in (counters sum,
  histograms concatenate, span trees attach under the currently open
  span), which is how parallel ensemble-training workers stay as
  inspectable as serial training (:mod:`repro.nn.parallel`).

Naming convention: dotted lowercase paths, ``<layer>.<operation>``
(``detector.fit``, ``nn.epochs_total``, ``streaming.day_seconds``);
per-entity series append the entity last (``streaming.score_max.http``).
Operational health counters worth alerting on (see
``docs/OPERATIONS.md``): ``stream.days_quarantined`` /
``stream.days_imputed`` / ``stream.values_imputed`` from the
degradation policies, and ``checkpoint.retries`` / ``checkpoint.saves``
/ ``checkpoint.loads`` / ``checkpoint.resumes`` from the durable
streaming layer.
"""

from __future__ import annotations

import os
import random
import time
import tracemalloc
import uuid
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

__all__ = [
    "Counter",
    "DEFAULT_HISTOGRAM_CAP",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "Telemetry",
    "get_telemetry",
    "percentile",
    "set_telemetry",
    "summarize_histogram_snapshot",
    "telemetry_from_env",
]

TELEMETRY_ENV_VAR = "ACOBE_TELEMETRY"

#: Reservoir size bounding each histogram's raw-sample memory; summaries
#: stay exact below the cap, and count/min/max/mean stay exact above it.
DEFAULT_HISTOGRAM_CAP = 4096

#: Records a telemetry buffers before dropping further log events when no
#: sink is attached (worker processes buffer and ship via snapshot).
LOG_BUFFER_CAP = 100_000


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class SpanRecord:
    """One timed stage: wall/CPU duration, attributes and child spans.

    ``trace_id`` / ``span_id`` / ``parent_span_id`` are the correlation
    identities minted at span entry (see :meth:`Telemetry.span`): every
    root span starts a new trace, children inherit it, and snapshots
    merged from worker processes keep the ids they were recorded under
    -- which is what lets one grep over a structured log reconstruct a
    causal path across processes.
    """

    name: str
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    attributes: Dict[str, Any] = field(default_factory=dict)
    mem_peak_bytes: Optional[int] = None
    children: List["SpanRecord"] = field(default_factory=list)
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_span_id: Optional[str] = None

    def to_dict(self) -> dict:
        doc: Dict[str, Any] = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
        }
        if self.attributes:
            doc["attributes"] = dict(self.attributes)
        if self.mem_peak_bytes is not None:
            doc["mem_peak_bytes"] = self.mem_peak_bytes
        if self.children:
            doc["children"] = [child.to_dict() for child in self.children]
        for key in ("trace_id", "span_id", "parent_span_id"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "SpanRecord":
        return cls(
            name=doc["name"],
            wall_seconds=float(doc.get("wall_seconds", 0.0)),
            cpu_seconds=float(doc.get("cpu_seconds", 0.0)),
            attributes=dict(doc.get("attributes", {})),
            mem_peak_bytes=doc.get("mem_peak_bytes"),
            children=[cls.from_dict(c) for c in doc.get("children", [])],
            trace_id=doc.get("trace_id"),
            span_id=doc.get("span_id"),
            parent_span_id=doc.get("parent_span_id"),
        )

    def walk(self) -> Iterator["SpanRecord"]:
        """Depth-first traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


class _NoopSpan:
    """The shared do-nothing span handed out while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def annotate(self, **attributes) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _SpanHandle:
    """Context manager recording one :class:`SpanRecord` on a telemetry."""

    __slots__ = ("_telemetry", "_record", "_wall0", "_cpu0")

    def __init__(self, telemetry: "Telemetry", name: str, attributes: Dict[str, Any]):
        self._telemetry = telemetry
        self._record = SpanRecord(name=name, attributes=attributes)

    def __enter__(self) -> "_SpanHandle":
        telemetry = self._telemetry
        stack = telemetry._stack
        record = self._record
        record.span_id = telemetry._mint_span_id()
        if stack:
            record.trace_id = stack[-1].trace_id
            record.parent_span_id = stack[-1].span_id
        elif telemetry._parent_context is not None:
            # Spans opened in a worker continue the trace the parent
            # process was in when it fanned out.
            record.trace_id = telemetry._parent_context.get("trace_id") or record.span_id
            record.parent_span_id = telemetry._parent_context.get("span_id")
        else:
            record.trace_id = record.span_id  # a root span starts a trace
        parent = stack[-1].children if stack else telemetry.spans
        parent.append(record)
        stack.append(record)
        telemetry.log_event("span.start", span=record.name, **record.attributes)
        if telemetry.trace_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        record = self._record
        record.wall_seconds = time.perf_counter() - self._wall0
        record.cpu_seconds = time.process_time() - self._cpu0
        if self._telemetry.trace_memory and tracemalloc.is_tracing():
            # Process-wide traced peak observed by span exit; nested spans
            # therefore report monotonically non-decreasing peaks.
            record.mem_peak_bytes = tracemalloc.get_traced_memory()[1]
        stack = self._telemetry._stack
        if stack and stack[-1] is record:
            stack.pop()
        self._telemetry.log_event(
            "span.end", span=record.name, wall_seconds=record.wall_seconds,
            span_id=record.span_id, trace_id=record.trace_id,
        )

    def annotate(self, **attributes) -> None:
        """Attach attributes discovered mid-span (counts, shapes, ...)."""
        self._record.attributes.update(attributes)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class Counter:
    """A monotonically increasing total (events, epochs, batches, seconds)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value (pool size, array bytes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)


def percentile(ordered: List[float], q: float) -> float:
    """The ``q``-th percentile of an ascending-sorted list.

    Linear interpolation between closest ranks (numpy's default), so
    ``percentile(x, 50)`` equals the classic median for odd and even
    lengths alike.
    """
    if not ordered:
        raise ValueError("percentile of an empty list")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    n = len(ordered)
    if n == 1:
        return ordered[0]
    position = (q / 100.0) * (n - 1)
    lower = int(position)
    upper = min(lower + 1, n - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


class Histogram:
    """A series of observations with bounded memory and summaries on demand.

    Raw samples are kept exactly up to ``cap``; past it, deterministic
    reservoir sampling (Algorithm R with a fixed, name-derived seed)
    keeps a uniform sample of that size so week-long streams cannot grow
    telemetry without bound.  ``count``/``min``/``max``/``mean`` stay
    exact at any volume; median and percentiles are exact below the cap
    and reservoir estimates above it.
    """

    __slots__ = ("values", "count", "total", "min", "max", "cap", "_rng")

    def __init__(self, cap: int = DEFAULT_HISTOGRAM_CAP, seed: int = 0) -> None:
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.values: List[float] = []
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.cap = int(cap)
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.values) < self.cap:
            self.values.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.cap:
                self.values[slot] = value

    def summary(self) -> Dict[str, float]:
        """count/min/median/max/mean plus p50/p95/p99 observed so far."""
        if self.count == 0:
            return {"count": 0}
        ordered = sorted(self.values)
        return {
            "count": self.count,
            "min": self.min,
            "median": percentile(ordered, 50.0),
            "max": self.max,
            "mean": self.total / self.count,
            "p50": percentile(ordered, 50.0),
            "p95": percentile(ordered, 95.0),
            "p99": percentile(ordered, 99.0),
        }

    def snapshot(self) -> dict:
        """Plain-dict rendering: the (possibly sampled) values + exact stats."""
        return {
            "values": list(self.values),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another histogram's snapshot in, keeping exact count/min/max.

        Also accepts a bare list of values (the pre-snapshot format).
        Sample lists concatenate; past the cap they are decimated to
        evenly spaced ranks, which keeps the merge deterministic.
        """
        if not isinstance(snapshot, Mapping):
            snapshot = {"values": list(snapshot)}
        values = [float(v) for v in snapshot.get("values", [])]
        count = int(snapshot.get("count", len(values)))
        total = float(snapshot.get("sum", sum(values)))
        self.count += count
        self.total += total
        if count:
            other_min = snapshot.get("min", min(values) if values else None)
            other_max = snapshot.get("max", max(values) if values else None)
            if other_min is not None and (self.min is None or other_min < self.min):
                self.min = float(other_min)
            if other_max is not None and (self.max is None or other_max > self.max):
                self.max = float(other_max)
        combined = self.values + values
        if len(combined) > self.cap:
            step = (len(combined) - 1) / (self.cap - 1) if self.cap > 1 else 0.0
            combined = [combined[round(i * step)] for i in range(self.cap)]
        self.values = combined


class _NoopInstrument:
    """Absorbs every metric call while telemetry is off."""

    __slots__ = ()
    value = 0
    values: List[float] = []

    def inc(self, amount: int = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NOOP_INSTRUMENT = _NoopInstrument()


class MetricsRegistry:
    """Named counters, gauges and histograms with snapshot/merge support."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            return self.counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        try:
            return self.gauges[name]
        except KeyError:
            return self.gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        try:
            return self.histograms[name]
        except KeyError:
            # The reservoir seed derives from the metric name alone, so
            # the same observation sequence yields the same sample in
            # every process and run (PYTHONHASHSEED-independent).
            seed = zlib.crc32(name.encode("utf-8"))
            return self.histograms.setdefault(name, Histogram(seed=seed))

    def snapshot(self) -> dict:
        """A plain-dict rendering (for IPC and the run report)."""
        return {
            "counters": {name: c.value for name, c in self.counters.items()},
            "gauges": {name: g.value for name, g in self.gauges.items()},
            "histograms": {name: h.snapshot() for name, h in self.histograms.items()},
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a snapshot in: counters sum, gauges overwrite, histograms merge."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            if value is not None:
                self.gauge(name).set(value)
        for name, entry in snapshot.get("histograms", {}).items():
            self.histogram(name).merge(entry)


# ---------------------------------------------------------------------------
# The Telemetry facade
# ---------------------------------------------------------------------------


class Telemetry:
    """Span tracer + metrics registry behind one enable switch.

    Single-threaded by design (the pipeline parallelizes across
    *processes*; each process owns its instance and snapshots travel
    back explicitly).

    Args:
        run_id: the correlation id shared by every span and log record
            this process mints; worker telemetries are constructed with
            the parent's ``run_id`` so one grep over a structured log
            reconstructs a whole run across processes.  Minted fresh
            when omitted.
        parent_context: ``{"trace_id": ..., "span_id": ...}`` of the
            span that was open in the parent process when this instance
            was created -- root spans opened here then continue that
            trace instead of starting new ones.
    """

    def __init__(
        self,
        enabled: bool = False,
        trace_memory: bool = False,
        run_id: Optional[str] = None,
        parent_context: Optional[Mapping[str, Any]] = None,
    ):
        self.enabled = bool(enabled)
        self.trace_memory = bool(trace_memory)
        self.metrics = MetricsRegistry()
        self.spans: List[SpanRecord] = []  # completed + in-flight root spans
        self._stack: List[SpanRecord] = []
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self._parent_context = dict(parent_context) if parent_context else None
        self._span_seq = 0
        #: Structured-log destination (:mod:`repro.obs.log`); when None
        #: and ``capture_logs`` is set, records buffer in ``log_records``
        #: and travel home inside :meth:`snapshot` (worker processes).
        self.log_sink: Optional[Any] = None
        self.capture_logs = False
        self.log_records: List[dict] = []
        self.logs_dropped = 0

    # -- correlation ----------------------------------------------------
    def _mint_span_id(self) -> str:
        self._span_seq += 1
        return f"{os.getpid():x}-{self._span_seq:x}"

    def current_context(self) -> Dict[str, Optional[str]]:
        """run/trace/span ids of the innermost open span (for propagation)."""
        if self._stack:
            record = self._stack[-1]
            return {
                "run_id": self.run_id,
                "trace_id": record.trace_id,
                "span_id": record.span_id,
            }
        if self._parent_context is not None:
            return {
                "run_id": self.run_id,
                "trace_id": self._parent_context.get("trace_id"),
                "span_id": self._parent_context.get("span_id"),
            }
        return {"run_id": self.run_id, "trace_id": None, "span_id": None}

    # -- structured log -------------------------------------------------
    def log_event(self, event: str, level: str = "info", **fields) -> None:
        """Emit one structured log record stamped with the trace context.

        A no-op unless telemetry is enabled *and* a sink is attached (or
        ``capture_logs`` is set, the worker-buffer mode) -- so the hot
        path pays two attribute checks when logging is off.  Field
        values should be JSON-able; the sink stringifies anything else.
        """
        if not self.enabled or (self.log_sink is None and not self.capture_logs):
            return
        record: Dict[str, Any] = {"ts": round(time.time(), 6), "level": level, "event": event}
        record.update(self.current_context())
        record.update(fields)
        self._deliver_log(record)

    def _deliver_log(self, record: dict) -> None:
        if self.log_sink is not None:
            self.log_sink.write(record)
        elif len(self.log_records) < LOG_BUFFER_CAP:
            self.log_records.append(record)
        else:
            self.logs_dropped += 1

    # -- spans ----------------------------------------------------------
    def span(self, name: str, **attributes):
        """A context manager timing one named stage (no-op when disabled)."""
        if not self.enabled:
            return _NOOP_SPAN
        return _SpanHandle(self, name, attributes)

    def find_span(self, name: str) -> Optional[SpanRecord]:
        """The first span named ``name`` in depth-first order, if any."""
        for root in self.spans:
            for record in root.walk():
                if record.name == name:
                    return record
        return None

    def iter_spans(self) -> Iterator[SpanRecord]:
        """Every recorded span, depth-first across the forest."""
        for root in self.spans:
            yield from root.walk()

    # -- metrics --------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name) if self.enabled else _NOOP_INSTRUMENT

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name) if self.enabled else _NOOP_INSTRUMENT

    def histogram(self, name: str) -> Histogram:
        return self.metrics.histogram(name) if self.enabled else _NOOP_INSTRUMENT

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able rendering of the span forest, metrics and buffered logs."""
        doc = {
            "spans": [span.to_dict() for span in self.spans],
            "metrics": self.metrics.snapshot(),
        }
        if self.log_records:
            doc["logs"] = list(self.log_records)
        return doc

    def merge(self, snapshot: Optional[Mapping[str, Any]]) -> None:
        """Fold another process's snapshot into this telemetry.

        Span trees attach as children of the currently open span (or as
        new roots outside any span); counters sum, histograms
        concatenate, gauges take the snapshot's value; buffered log
        records flow to this instance's sink (or buffer).  Merging is
        how a parent reconstructs a faithful picture of work fanned out
        to worker processes.
        """
        if not snapshot or not self.enabled:
            return
        parent = self._stack[-1].children if self._stack else self.spans
        for doc in snapshot.get("spans", []):
            parent.append(SpanRecord.from_dict(doc))
        self.metrics.merge(snapshot.get("metrics", {}))
        if self.log_sink is not None or self.capture_logs:
            for record in snapshot.get("logs", []):
                self._deliver_log(dict(record))

    def reset(self) -> None:
        """Drop every recorded span, metric and buffered log (keeps the
        enable state, run id and sink)."""
        self.metrics = MetricsRegistry()
        self.spans = []
        self._stack = []
        self.log_records = []
        self.logs_dropped = 0


def summarize_histogram_snapshot(entry: Any) -> Dict[str, float]:
    """Summary statistics for one snapshot-format histogram entry.

    Accepts both the dict format produced by :meth:`Histogram.snapshot`
    and a bare list of values (the pre-snapshot format still found in
    older reports).  Shared by the run-report builder and the metric
    exporters so every JSON surface carries the same p50/p95/p99.
    """
    histogram = Histogram()
    histogram.merge(entry)
    return histogram.summary()


# ---------------------------------------------------------------------------
# Process-global instance
# ---------------------------------------------------------------------------

_GLOBAL: Optional[Telemetry] = None


def telemetry_from_env(environ: Optional[Mapping[str, str]] = None) -> Telemetry:
    """A fresh Telemetry configured from ``ACOBE_TELEMETRY``.

    Unset/``0``/``off``/``false`` -> disabled (the default); ``mem`` or
    ``memory`` -> enabled with ``tracemalloc`` peak tracking; any other
    value (``1``, ``on``, ``trace`` ...) -> enabled.
    """
    raw = (environ if environ is not None else os.environ).get(TELEMETRY_ENV_VAR, "")
    raw = raw.strip().lower()
    if raw in ("", "0", "off", "false", "no"):
        return Telemetry(enabled=False)
    return Telemetry(enabled=True, trace_memory=raw in ("mem", "memory"))


def get_telemetry() -> Telemetry:
    """The process-global telemetry (created from the env on first use)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = telemetry_from_env()
    return _GLOBAL


def set_telemetry(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install ``telemetry`` as the process-global instance.

    Passing None re-arms lazy env-based initialization.  Returns the
    previous instance so callers (tests, workers) can restore it.
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = telemetry
    return previous
