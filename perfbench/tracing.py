"""In-memory span recorder and the per-layer metrics derived from it.

Spans are recorded from the benchmark's own files: the benchmark opens
a span around each call it makes into a layer's public entry point, and
:func:`instrumented` wraps the entry points the program calls from inside
other layers (``Autoencoder.fit`` inside ``fit``,
``Autoencoder.reconstruction_error`` inside scoring,
``CompoundBehaviorModel.score`` inside ``investigate`` and
``StreamingDetector.observe_day`` inside ``Ingestor.push``).  No program
code changes, and the program's own telemetry stays off.

A span's self time is its duration minus the time its child spans
cover.  Spans are kept in memory and written out once, when the run
ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

#: The layer each span name belongs to, for self-time shares.
LAYER_OF_SPAN = {
    "features.extract": "features",
    "logs.read_store": "logs",
    "ingest.arrival_order": "ingest",
    "ingest.push": "ingest",
    "ingest.flush": "ingest",
    "checkpoint.save": "checkpoint",
    "checkpoint.resume": "checkpoint",
    "detector.fit": "representation",
    "nn.train": "nn.train",
    "nn.predict": "nn.predict",
    "detector.score": "score",
    "detector.investigate": "critic",
    "stream.observe_day": "stream",
}

_NULL = contextlib.nullcontext()


class Span:
    """One timed call; ``cpu`` is process CPU seconds over all threads."""

    __slots__ = ("tracer", "name", "parent", "start", "end", "cpu", "child_s", "attrs",
                 "_cpu0")

    def __init__(self, tracer: "Tracer", name: str, cpu: bool):
        self.tracer = tracer
        self.name = name
        self.parent = -1
        self.start = self.end = 0.0
        self.cpu = 0.0
        self.child_s = 0.0
        self.attrs: Dict[str, object] = {}
        self._cpu0 = 0.0 if cpu else None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def __enter__(self) -> "Span":
        stack = self.tracer.stack
        self.parent = stack[-1] if stack else -1
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self)
        if self._cpu0 is not None:
            self._cpu0 = time.process_time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        if self._cpu0 is not None:
            self.cpu = time.process_time() - self._cpu0
        self.tracer.stack.pop()
        if self.parent >= 0:
            self.tracer.spans[self.parent].child_s += self.end - self.start


class Tracer:
    """Nested spans on one thread; records only while :attr:`active`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.active = False

    def span(self, name: str, cpu: bool = False):
        """A context manager timing one call (a no-op while inactive)."""
        return Span(self, name, cpu) if self.active else _NULL

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span (name, parent, start, end, cpu, attrs), gzipped."""
        origin = self.spans[0].start if self.spans else 0.0
        doc = {
            "meta": meta,
            "columns": ["name", "parent", "start_s", "end_s", "cpu_s", "attrs"],
            "spans": [
                [s.name, s.parent, s.start - origin, s.end - origin, s.cpu, s.attrs]
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle)


class RowKeys:
    """Identities of predicted rows, to count rows predicted more than once.

    A row is (job, network, user, day): a batch
    :class:`~repro.core.representation.MatrixView` row is one user at one
    anchor day, and a streamed ``(n_users, dim)`` block is every user on
    the day being observed.  ``job`` separates the batch job from the
    live feed, which are different consumers.
    """

    def __init__(self) -> None:
        self.job = 0
        self.day = None
        self.rows = 0
        self._networks: Dict[int, int] = {}
        self._keys: List[np.ndarray] = []

    def record(self, autoencoder, x, n_rows: int) -> None:
        network = self._networks.setdefault(id(autoencoder), len(self._networks))
        if hasattr(x, "anchor_days"):
            users = np.repeat(np.arange(x.n_users, dtype=np.int64), x.n_anchors)
            days = np.tile(np.array([d.toordinal() for d in x.anchor_days]), x.n_users)
        else:
            users = np.arange(n_rows, dtype=np.int64)
            days = np.full(n_rows, self.day.toordinal())
        prefix = (self.job * 1024 + network) * 100_000
        self._keys.append((prefix + users) * 1_000_000 + days)
        self.rows += n_rows

    def distinct(self) -> int:
        return int(np.unique(np.concatenate(self._keys)).size) if self._keys else 0


@contextlib.contextmanager
def instrumented(tracer: Tracer, row_keys: RowKeys):
    """Wrap the nested layer entry points for the duration of the block."""
    from repro.core.detector import CompoundBehaviorModel
    from repro.core.streaming import StreamingDetector
    from repro.nn.autoencoder import Autoencoder

    def train(original):
        def fit(self, x, *args, **kwargs):
            with tracer.span("nn.train", cpu=True) as span:
                history = original(self, x, *args, **kwargs)
            span.attrs["rows"] = len(x) * history.epochs_trained
            return history
        return fit

    def predict(original):
        def reconstruction_error(self, x, *args, **kwargs):
            with tracer.span("nn.predict", cpu=True) as span:
                errors = original(self, x, *args, **kwargs)
            span.attrs["rows"] = len(errors)
            row_keys.record(self, x, len(errors))
            return errors
        return reconstruction_error

    def plain(name):
        def factory(original):
            def method(self, *args, **kwargs):
                with tracer.span(name):
                    return original(self, *args, **kwargs)
            return method
        return factory

    def observe(original):
        def observe_day(self, day, slab):
            row_keys.day = day
            with tracer.span("stream.observe_day") as span:
                result = original(self, day, slab)
            span.attrs["scored"] = hasattr(result, "investigation")
            return result
        return observe_day

    targets = [
        (Autoencoder, "fit", train),
        (Autoencoder, "reconstruction_error", predict),
        (CompoundBehaviorModel, "fit", plain("detector.fit")),
        (CompoundBehaviorModel, "score", plain("detector.score")),
        (CompoundBehaviorModel, "investigate", plain("detector.investigate")),
        (StreamingDetector, "observe_day", observe),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    for (owner, attr, factory), (_, _, original) in zip(targets, originals):
        setattr(owner, attr, factory(original))
    tracer.active = True
    try:
        yield
    finally:
        tracer.active = False
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(
    spans: List[Span], iterations: int, wall_s: float, counts: Dict[str, float],
    row_keys: RowKeys,
) -> Dict[str, float]:
    """Per-layer metrics of the traced iterations.

    Times and counts are per iteration (totals divided by
    ``iterations``); percentiles pool every call.  ``wall_s`` is the
    traced iterations' total wall time and ``counts`` the workload's
    own totals over them.
    """
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name: str, attr: str = "duration") -> float:
        return sum(getattr(s, attr) for s in by_name.get(name, ())) / iterations

    def rows(name: str) -> float:
        return sum(s.attrs["rows"] for s in by_name.get(name, ())) / iterations

    def count(name: str) -> float:
        return counts.get(name, 0) / iterations

    pushes = by_name.get("ingest.push", [])
    plain_push_us = [s.duration * 1e6 for s in pushes if s.child_s == 0.0]
    seal_ms = [s.self_s * 1e3 for s in pushes if s.child_s > 0.0]
    scored = [s for s in by_name.get("stream.observe_day", []) if s.attrs["scored"]]
    save_ms = [s.duration * 1e3 for s in by_name.get("checkpoint.save", [])]
    train_s, predict_s = total("nn.train"), total("nn.predict")
    wall = wall_s / iterations
    covered = sum(s.duration for s in spans if s.parent < 0) / iterations
    return {
        "features.extract_s": total("features.extract"),
        "logs.read_store_s": total("logs.read_store"),
        "logs.events_read": count("events_read"),
        "ingest.push_us_p50": _percentile(plain_push_us, 50),
        "ingest.push_us_p99": _percentile(plain_push_us, 99),
        "ingest.seal_ms_p50": _percentile(seal_ms, 50),
        "ingest.deliveries": count("delivered"),
        "ingest.accepted_ratio": (
            counts["accepted"] / counts["delivered"] if counts.get("delivered") else 0.0
        ),
        "ingest.events_duplicate": count("duplicate"),
        "ingest.events_late": count("late"),
        "checkpoint.save_ms_p50": _percentile(save_ms, 50),
        "checkpoint.save_ms_p90": _percentile(save_ms, 90),
        "checkpoint.bytes_per_save": (
            counts["save_bytes"] / len(save_ms) if save_ms else 0.0
        ),
        "checkpoint.save_share": total("checkpoint.save") / wall,
        "checkpoint.resume_ms": total("checkpoint.resume") * 1e3,
        "detector.fit_s": total("detector.fit"),
        "representation.self_s": total("detector.fit", "self_s"),
        "nn.train_s": train_s,
        "nn.train_cpu_s": total("nn.train", "cpu"),
        "nn.train_rows_per_s": rows("nn.train") / train_s if train_s else 0.0,
        "nn.predict_s": predict_s,
        "nn.predict_cpu_s": total("nn.predict", "cpu"),
        "nn.predict_calls": len(by_name.get("nn.predict", ())) / iterations,
        "nn.predict_rows_per_s": rows("nn.predict") / predict_s if predict_s else 0.0,
        "nn.predict_useful_ratio": (
            row_keys.distinct() / row_keys.rows if row_keys.rows else 0.0
        ),
        "score.self_s": total("detector.score", "self_s"),
        "critic.self_s": total("detector.investigate", "self_s"),
        "stream.observe_day_ms_p50": _percentile([s.duration * 1e3 for s in scored], 50),
        "stream.observe_day_ms_p90": _percentile([s.duration * 1e3 for s in scored], 90),
        "stream.self_ms_p50": _percentile([s.self_s * 1e3 for s in scored], 50),
        "trace.unaccounted_fraction": max(0.0, 1.0 - covered / wall),
    }


def layer_shares(spans: List[Span], wall_s: float) -> Dict[str, float]:
    """Each layer's self time as a share of the traced wall time."""
    shares: Dict[str, float] = {}
    for span in spans:
        layer = LAYER_OF_SPAN[span.name]
        shares[layer] = shares.get(layer, 0.0) + span.self_s / wall_s
    return {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}
