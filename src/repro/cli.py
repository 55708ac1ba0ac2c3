"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` -- simulate a CERT-style organization (optionally with the
  two insider scenarios injected) and write the logs as CERT-style CSVs.
* ``detect`` -- run an ACOBE-family model over a log directory produced
  by ``simulate`` and print the ordered investigation list.
* ``stream`` -- run the detector day-by-day like the operational daily
  service, with durable checkpoints (``--checkpoint-dir``), crash
  recovery (``--resume``) and degradation policies for malformed days
  (``--on-bad-day``); see docs/OPERATIONS.md.
* ``ingest`` -- consume raw events in arrival order (out-of-order and
  duplicated deliveries included) through the event-time ingestion
  subsystem and score days as the watermark seals them; supports the
  same checkpoint/resume story plus lateness policies and backpressure
  bounds; see docs/INGEST.md.
* ``report diff`` -- compare two JSON report envelopes (or directories
  of ``BENCH_*.json``) with tolerance bands; exits non-zero on
  regression (the CI gate behind ``tools/check_bench_regression.py``).
* ``case-study`` -- run the Zeus or WannaCry enterprise case study and
  print the victim's daily investigation rank.
* ``presets`` -- show the benchmark scale presets.

The observability layer (:mod:`repro.obs`) rides along everywhere:
``--trace`` prints the per-stage span tree after the run,
``--metrics-out PATH`` writes the schema-versioned JSON run report
(span timings, merged metrics, per-aspect training curves, alerts),
``--log PATH`` appends structured JSON-lines events with run/trace/span
ids (worker processes included).  ``stream`` and ``ingest`` add
``--metrics-export DIR --export-every N`` (Prometheus + JSONL metric
exports with checkpoint-durable counters) and ``--drift-monitor``
(rolling PSI/KS score-drift and ingest data-quality alerts).  Setting
``ACOBE_TELEMETRY=1`` (or ``mem``) in the environment enables telemetry
for every command without flags.  None of it perturbs numerics:
telemetry-off and telemetry-on runs emit bit-identical scores.

The CLI is a thin shell over the public API; every command maps onto
calls documented in README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional

from repro.core import (
    CheckpointMismatchError,
    CheckpointNotFoundError,
    DailyResult,
    StreamingDetector,
    attach_representation,
    load_model,
    make_acobe,
    make_all_in_one,
    make_base_ff,
    make_baseline,
    make_no_group,
    make_one_day,
    resume_streaming,
    save_checkpoint,
    save_model,
)
from repro.datagen.calendar import SimulationCalendar
from repro.datagen.org import build_organization
from repro.eval.experiments import (
    build_case_study,
    build_cert_benchmark,
    case_study_config,
    cert_config,
    evaluate_run,
    run_case_study,
    run_model,
)
from repro.eval.reporting import format_table, sparkline
from repro.features.cert import extract_cert_measurements
from repro.ingest import (
    IngestBackpressureError,
    IngestConfig,
    Ingestor,
    LateEventError,
    SlabBuilder,
    arrival_order,
    resume_ingest,
    save_ingest_checkpoint,
    shuffled_arrival,
)
from repro.logs.csvio import read_store, write_store
from repro.obs import (
    IngestQualityMonitor,
    MetricsExporter,
    ScoreDriftMonitor,
    Telemetry,
    build_run_report,
    format_span_tree,
    get_telemetry,
    open_structured_log,
    set_telemetry,
    write_report,
)

_MODEL_FACTORIES = {
    "acobe": make_acobe,
    "no-group": make_no_group,
    "one-day": make_one_day,
    "all-in-one": make_all_in_one,
    "baseline": make_baseline,
    "base-ff": make_base_ff,
}
#: The deviation-representation models: windowed, and the only ones
#: that can stream.
_STREAMING_MODELS = ("acobe", "no-group", "all-in-one")
_SCALES = ("small", "default", "paper")


class _CommandError(Exception):
    """A user-facing failure: :func:`main` prints ``error: <message>``."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _add_run_arguments(
    parser: argparse.ArgumentParser, scale_help: str, models, model_help: str
) -> None:
    """The flags shared by ``detect``, ``stream`` and ``ingest``."""
    parser.add_argument("--scale", default="small", choices=_SCALES, help=scale_help)
    parser.add_argument("--model", default="acobe", choices=models, help=model_help)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--dtype", default=None, choices=("float32", "float64"),
        help="compute dtype for autoencoder training/scoring (default: the "
        "preset's); float32 roughly halves memory traffic but is NOT "
        "bit-comparable with float64 runs -- see docs/PERFORMANCE.md",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for ensemble training (1 = serial, 0 = all cores); "
        "results are identical at any value",
    )
    parser.add_argument("--top", type=int, default=10, help="list length to print")
    parser.add_argument(
        "--trace", action="store_true",
        help="enable telemetry and print the per-stage span tree after the run "
        "(zero numerical impact; also honours ACOBE_TELEMETRY)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the JSON run report (span timings, metrics and counters, "
        "per-aspect training curves, alerts) to PATH; implies telemetry",
    )
    parser.add_argument(
        "--log", metavar="PATH", default=None,
        help="append structured JSON-lines events (with run/trace/span ids, "
        "worker processes included) to PATH; implies telemetry",
    )


def _add_stream_arguments(
    parser: argparse.ArgumentParser, saves_per: str, exports_per: str
) -> None:
    """The checkpoint, output and monitoring flags of ``stream`` and ``ingest``."""
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="directory for the saved model and the checkpoints; required for --resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue from the checkpoint in --checkpoint-dir (bit-identical to "
        "an uninterrupted run; the saved model keeps its own --dtype)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help=f"save a checkpoint every N {saves_per} (default: 1); "
        "a final save always happens on exit",
    )
    parser.add_argument(
        "--on-bad-day", default=None,
        choices=("strict", "skip", "impute-group-mean"),
        help="degradation policy for non-finite or malformed day slabs "
        "(default: strict, or the checkpointed policy when resuming)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write per-day scores and investigation lists as JSON to PATH "
        "(stream and ingest write the same day documents)",
    )
    parser.add_argument(
        "--metrics-export", metavar="DIR", default=None,
        help="export metrics.prom (Prometheus text format, atomically "
        "replaced) and metrics.jsonl (one snapshot per flush) into DIR; "
        "implies telemetry",
    )
    parser.add_argument(
        "--export-every", type=int, default=1, metavar="N",
        help=f"flush the metrics export every N {exports_per} (default: 1); "
        "a final flush always happens on exit",
    )
    parser.add_argument(
        "--drift-monitor", action="store_true",
        help="watch the per-day score distribution (rolling PSI/KS) and "
        "ingest data quality; alerts surface in the summary and the "
        "--metrics-out run report without touching any score",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ACOBE reproduction: anomaly detection of anomalous users.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate CERT-style logs and write CSVs")
    p_sim.add_argument("output", help="directory to write <type>.csv files into")
    p_sim.add_argument("--scale", default="small", choices=_SCALES)
    p_sim.add_argument("--seed", type=int, default=None, help="override the preset seed")
    p_sim.add_argument(
        "--no-injection", action="store_true", help="skip the insider-scenario injection"
    )

    p_det = sub.add_parser("detect", help="run a model over simulated logs")
    _add_run_arguments(
        p_det, "benchmark preset to simulate and score", sorted(_MODEL_FACTORIES),
        "a model of the paper's zoo",
    )
    p_det.add_argument(
        "--score-batch", type=int, default=1024,
        help="matrix vectors materialized per scoring batch (memory knob; "
        "scores are identical at any value)",
    )

    streaming_only = "deviation-representation models only (streaming requirement)"
    p_str = sub.add_parser(
        "stream",
        help="run day-by-day streaming detection with checkpoint/resume",
    )
    _add_run_arguments(
        p_str, "benchmark preset to simulate and stream", _STREAMING_MODELS, streaming_only
    )
    _add_stream_arguments(p_str, saves_per="observed days", exports_per="observed days")
    p_str.add_argument(
        "--stop-after-days", type=int, default=None, metavar="K",
        help="consume at most K days this run, then exit (simulates a "
        "scheduled shutdown or a crash point for resume testing)",
    )

    p_ing = sub.add_parser(
        "ingest",
        help="event-time ingestion: consume raw events in arrival order and "
        "score days as they seal (watermark semantics, see docs/INGEST.md)",
    )
    _add_run_arguments(
        p_ing, "benchmark preset that defines the organization, calendar and model",
        _STREAMING_MODELS, streaming_only,
    )
    _add_stream_arguments(p_ing, saves_per="sealed days", exports_per="consumed deliveries")
    p_ing.add_argument(
        "--logs", metavar="DIR", default=None,
        help="read events from CERT-style CSVs in DIR (written by `repro "
        "simulate`); default: simulate the preset in-process",
    )
    p_ing.add_argument(
        "--shuffle-seed", type=int, default=None, metavar="SEED",
        help="deliver events in a deterministic out-of-order permutation whose "
        "lateness stays within --allowed-lateness (default: canonical "
        "timestamp order); results are bit-identical either way",
    )
    p_ing.add_argument(
        "--allowed-lateness", type=int, default=1, metavar="DAYS",
        help="event-time watermark: how many days a delivery may trail the "
        "newest event day before it counts as late (default: 1)",
    )
    p_ing.add_argument(
        "--late-policy", default="drop", choices=("drop", "quarantine-file", "raise"),
        help="what to do with deliveries past the watermark (default: drop)",
    )
    p_ing.add_argument(
        "--quarantine-file", metavar="PATH", default=None,
        help="JSON-lines destination for late events (required with "
        "--late-policy quarantine-file)",
    )
    p_ing.add_argument(
        "--max-open-days", type=int, default=8, metavar="N",
        help="backpressure bound on the open-day window (default: 8)",
    )
    p_ing.add_argument(
        "--max-buffered-events", type=int, default=None, metavar="N",
        help="backpressure bound on buffered unique records (default: unbounded)",
    )
    p_ing.add_argument(
        "--stop-after-events", type=int, default=None, metavar="K",
        help="consume at most K deliveries this run, then exit mid-stream "
        "(a deterministic crash point for resume testing)",
    )

    p_rep = sub.add_parser(
        "report",
        help="work with JSON report envelopes (acobe.run_report / acobe.bench)",
    )
    rep_sub = p_rep.add_subparsers(dest="report_command", required=True)
    p_diff = rep_sub.add_parser(
        "diff",
        help="compare two report envelopes (or BENCH_*.json directories) "
        "with tolerance bands; exits 1 on regression",
    )
    p_diff.add_argument("baseline", help="baseline report file or directory")
    p_diff.add_argument("current", help="current report file or directory")
    p_diff.add_argument(
        "--tolerance", type=float, default=0.5, metavar="FRAC",
        help="fractional no-movement band around the baseline (default: 0.5, "
        "i.e. a lower-is-better metric regresses past 1.5x baseline)",
    )
    p_diff.add_argument(
        "--pattern", default="BENCH_*.json", metavar="GLOB",
        help="filename glob matched in directory mode (default: BENCH_*.json)",
    )
    p_diff.add_argument(
        "--verbose", action="store_true",
        help="print every compared metric, not just movements",
    )

    p_case = sub.add_parser("case-study", help="run an enterprise attack case study")
    p_case.add_argument("attack", choices=("zeus", "wannacry"))
    p_case.add_argument("--scale", default="small", choices=_SCALES)
    p_case.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for ensemble training (1 = serial, 0 = all cores)",
    )

    sub.add_parser("presets", help="show the benchmark scale presets")
    return parser


# ---------------------------------------------------------------------------
# Shared plumbing of detect / stream / ingest
# ---------------------------------------------------------------------------


class _Monitoring:
    """One command's telemetry plane, released on every exit path.

    Entering enables telemetry when a flag asks for it and opens the
    ``--log`` sink -- before any training, because forked ensemble
    workers only buffer their events when the parent has a sink.
    :meth:`watch` attaches ``--metrics-export`` / ``--drift-monitor``;
    :meth:`finish` does the final export flush and closes the log,
    reporting both.  Leaving the ``with`` block -- normally or through an
    error exit -- does whatever :meth:`finish` has not, then restores the
    previous process-global telemetry.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.exporter = None
        self.drift = None
        self.log_sink = None
        self._ingestor = None
        self._stack = ExitStack()

    def __enter__(self) -> "_Monitoring":
        args = self.args
        self._previous = telemetry = get_telemetry()
        wanted = args.trace or args.metrics_out or args.log or vars(args).get("metrics_export")
        if wanted and not telemetry.enabled:
            telemetry = Telemetry(enabled=True, trace_memory=telemetry.trace_memory)
        if args.log:  # opened before the swap: a bad path leaves the global as it was
            self.log_sink = self._stack.enter_context(open_structured_log(telemetry, args.log))
        self.telemetry = telemetry
        set_telemetry(telemetry)
        return self

    def watch(self, stream, ingestor=None) -> None:
        """Attach the exporter and drift monitors.

        The exporter ticks on the ingestor when one is given (per
        consumed delivery), else on the stream (per observed day).
        """
        self._ingestor = ingestor
        source = ingestor or stream
        if self.args.metrics_export:
            self.exporter = MetricsExporter(self.args.metrics_export, every=self.args.export_every)
            source.attach_exporter(self.exporter)
            self._stack.callback(
                lambda: self.exporter.flush(self.telemetry, source.durable_counters())
            )
        if self.args.drift_monitor:
            self.drift = ScoreDriftMonitor()
            stream.attach_drift_monitor(self.drift)
            if ingestor is not None:
                ingestor.attach_quality_monitor(IngestQualityMonitor())

    def finish(self) -> List[dict]:
        """Final export flush and log close; returns every accumulated alert."""
        self._stack.close()
        if self.exporter is not None:
            print(f"exported metrics to {self.exporter.prom_path} and "
                  f"{self.exporter.jsonl_path}")
        if self.log_sink is not None:
            print(f"wrote {self.log_sink.records_written} structured log record(s) "
                  f"to {self.log_sink.path}")
        alerts = list(self.drift.alerts) if self.drift is not None else []
        if self._ingestor is not None:
            alerts.extend(self._ingestor.alerts)
        return alerts

    def __exit__(self, *exc_info) -> None:
        try:
            self._stack.close()
        finally:
            set_telemetry(self._previous)


def _preset(args: argparse.Namespace):
    config = cert_config(args.scale)
    return config if args.seed is None else replace(config, seed=args.seed)


def _organization_and_calendar(config):
    """The preset's organization and calendar, without any simulated events."""
    organization = build_organization(list(config.department_sizes), seed=config.seed)
    return organization, SimulationCalendar.with_default_holidays(config.start, config.end)


def _make_model(args: argparse.Namespace, config):
    kwargs = dict(
        ae_config=config.autoencoder,
        train_stride=config.train_stride,
        n_jobs=args.jobs,
        dtype=args.dtype,
    )
    if args.model in _STREAMING_MODELS:
        kwargs.update(window=config.window, matrix_days=config.matrix_days)
    return _MODEL_FACTORIES[args.model](**kwargs)


def _print_investigation(investigation, top: int, abnormal) -> None:
    rows = []
    for position, entry in enumerate(investigation.entries[:top], start=1):
        marker = "insider" if entry.user in abnormal else ""
        rows.append((position, entry.user, entry.priority, marker))
    print(format_table(["#", "user", "priority", ""], rows))


def _report(args: argparse.Namespace, telemetry, config, model, meta: dict, **kwargs) -> None:
    """The ``--trace`` span tree and the ``--metrics-out`` run report."""
    if args.trace:
        print("\n-- span tree ".ljust(40, "-"))
        print(format_span_tree(telemetry))
    if args.metrics_out:
        meta = {"model": model.config.name, "scale": config.name, "seed": config.seed, **meta}
        report = build_run_report(
            telemetry, name=f"{args.command}-{args.model}", meta=meta, **kwargs
        )
        path = write_report(args.metrics_out, report)
        print(f"wrote run report to {path}")


def _check_stream_args(args: argparse.Namespace) -> None:
    if args.resume and not args.checkpoint_dir:
        raise _CommandError("--resume requires --checkpoint-dir")
    for flag in ("--checkpoint-every", "--export-every"):
        if getattr(args, flag[2:].replace("-", "_")) < 1:
            raise _CommandError(f"{flag} must be >= 1")


def _stream_data(config, logs: Optional[str] = None) -> SimpleNamespace:
    """The events, measurements and split a stream or ingest run consumes.

    The preset is simulated in-process, or -- with ``logs`` -- its
    organization and calendar are rebuilt and the events read from the
    CERT-style CSVs in that directory (no ground truth then).
    """
    if logs:
        store = read_store(logs)
        organization, calendar = _organization_and_calendar(config)
        cube = extract_cert_measurements(store, organization.user_ids(), calendar.days())
        group_map, abnormal = organization.group_map(), set()
    else:
        benchmark = build_cert_benchmark(config)
        store, cube, group_map = benchmark.dataset.store, benchmark.cube, benchmark.group_map
        abnormal = set(benchmark.abnormal_users)
    return SimpleNamespace(
        store=store,
        cube=cube,
        days=list(cube.days),
        group_map=group_map,
        abnormal=abnormal,
        train_days=[d for d in cube.days if d <= config.train_end],
    )


def _open_stream(args: argparse.Namespace, config, data, kind: str, resume, start=None):
    """Resume the checkpointed ``kind`` state, or fit a model and start fresh.

    ``resume(model, directory)`` reloads the state from
    ``--checkpoint-dir/<kind>``; ``start(stream)``, if given, wraps the
    fresh :class:`StreamingDetector`.  Returns the state and that
    directory (None without ``--checkpoint-dir``).
    """
    root = Path(args.checkpoint_dir) if args.checkpoint_dir else None
    model_dir = root / "model" if root else None
    state_dir = root / kind if root else None
    if args.resume:
        try:
            model = load_model(model_dir)
        except FileNotFoundError:
            raise _CommandError(
                f"no saved model at {model_dir}; run once without --resume first"
            ) from None
        attach_representation(model, data.cube, data.group_map, data.train_days)
        try:
            return resume(model, state_dir), state_dir
        except CheckpointNotFoundError:
            raise _CommandError(
                f"no checkpoint at {state_dir}; run once without --resume first"
            ) from None
        except CheckpointMismatchError as exc:
            raise _CommandError(str(exc)) from None
    model = _make_model(args, config)
    print(f"fitting {model.config.name} on {len(data.cube.users)} users ...")
    model.fit(data.cube, data.group_map, data.train_days)
    if model_dir is not None:
        save_model(model, model_dir)
        print(f"saved model to {model_dir}")
    stream = StreamingDetector(
        model, data.cube.users, data.group_map, on_bad_day=args.on_bad_day or "strict"
    )
    return (start(stream) if start else stream), state_dir


def _dataset_binding(config) -> dict:
    """Checkpoint manifest entry: a ``--resume`` against another preset or
    seed fails typed instead of feeding different data into the same
    rolling state."""
    return {"dataset": {"preset": config.name, "seed": config.seed}}


def _print_day(result) -> None:
    if isinstance(result, DailyResult):
        top = [e.user for e in result.investigation.entries[:3]]
        print(f"  {result.day}  top: {', '.join(top)}")
    else:
        print(f"  {result.day}  QUARANTINED ({result.reason}: "
              f"{result.n_bad_values} bad value(s))")


def _print_outcome(args: argparse.Namespace, alerts, scored, abnormal) -> None:
    """The alerts and the last scored day's investigation list."""
    for alert in alerts:
        print(f"  ALERT [{alert['severity']}] {alert['message']}")
    if scored:
        last = scored[-1]
        print(f"investigation list for {last.day}:")
        _print_investigation(last.investigation, args.top, abnormal)


def _write_days(args: argparse.Namespace, schema: str, config, model, emitted, **extra) -> None:
    """The ``--out`` document: every emitted day, exact float round-trip."""
    document = {
        "schema": schema,
        "version": 1,
        "scale": config.name,
        "model": model.config.name,
        **extra,
        "days": [_stream_day_doc(r) for r in emitted],
    }
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote per-day results to {out_path}")


def _stream_day_doc(result) -> dict:
    """One emitted day as a JSON-able dict (exact float round-trip)."""
    if not isinstance(result, DailyResult):
        return {
            "day": result.day.isoformat(),
            "degraded": True,
            "reason": result.reason,
            "policy": result.policy,
            "n_bad_values": result.n_bad_values,
        }
    return {
        "day": result.day.isoformat(),
        "users": [e.user for e in result.investigation.entries],
        "priorities": {e.user: e.priority for e in result.investigation.entries},
        "scores": {aspect: [float(v) for v in arr] for aspect, arr in result.scores.items()},
        "imputed_values": result.imputed_values,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _preset(args)
    if args.no_injection:
        from repro.datagen.simulator import simulate_cert_dataset

        organization, calendar = _organization_and_calendar(config)
        store = simulate_cert_dataset(organization, calendar, seed=config.seed).store
        abnormal: List[str] = []
    else:
        benchmark = build_cert_benchmark(config)
        store = benchmark.dataset.store
        abnormal = benchmark.abnormal_users
    paths = write_store(store, args.output)
    print(f"wrote {store.count():,} events across {len(paths)} files to {args.output}")
    if abnormal:
        print(f"injected insiders: {', '.join(abnormal)}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    with _Monitoring(args) as monitor:
        config = _preset(args)
        benchmark = build_cert_benchmark(config)
        model = _make_model(args, config)
        cube = benchmark.coarse_cube() if args.model == "baseline" else benchmark.cube
        print(f"fitting {model.config.name} on {len(benchmark.cube.users)} users ...")
        run = run_model(model, benchmark, cube=cube, score_batch_size=args.score_batch)

        _print_investigation(run.investigation, args.top, benchmark.abnormal_users)
        metrics = evaluate_run(run, benchmark.labels)
        print(f"AUC={metrics.auc:.4f}  AP={metrics.average_precision:.4f}  "
              f"FPs-before-TPs={metrics.fps_before_tps}")

        _report(
            args,
            monitor.telemetry,
            config,
            model,
            training_histories=model.training_histories,
            meta={
                "n_jobs": args.jobs,
                "users": len(benchmark.cube.users),
                "auc": metrics.auc,
                "average_precision": metrics.average_precision,
            },
        )
        monitor.finish()
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Day-by-day streaming detection with durable checkpoints."""
    _check_stream_args(args)
    with _Monitoring(args) as monitor:
        config = _preset(args)
        data = _stream_data(config)
        days = data.days
        binding = _dataset_binding(config)
        stream, stream_dir = _open_stream(
            args, config, data, "stream",
            resume=lambda model, directory: resume_streaming(
                model, directory, on_bad_day=args.on_bad_day, expected_manifest=binding
            ),
        )
        start_index = 0
        if args.resume:
            if stream.last_day is not None:
                start_index = sum(d <= stream.last_day for d in days)
                if start_index == len(days):
                    print(f"checkpoint already covers the final day ({stream.last_day}); "
                          "nothing to do")
            print(f"resumed from {stream_dir} at day cursor {stream.last_day} "
                  f"({stream.days_observed} days observed so far)")
        monitor.watch(stream)

        emitted = []
        consumed = 0
        for d in range(start_index, len(days)):
            if args.stop_after_days is not None and consumed >= args.stop_after_days:
                print(f"stopping after {consumed} day(s) as requested "
                      f"(day cursor at {stream.last_day})")
                break
            result = stream.observe_day(days[d], data.cube.values[:, :, :, d])
            consumed += 1
            if result is not None:
                _print_day(result)
                emitted.append(result)
            if stream_dir is not None and consumed % args.checkpoint_every == 0:
                save_checkpoint(stream, stream_dir, extra_manifest=binding)
        if stream_dir is not None and consumed % args.checkpoint_every != 0:
            save_checkpoint(stream, stream_dir, extra_manifest=binding)

        alerts = monitor.finish()
        scored = [r for r in emitted if isinstance(r, DailyResult)]
        print(f"observed {consumed} day(s): {len(scored)} scored, "
              f"{stream.days_quarantined} quarantined, {stream.days_imputed} imputed")
        _print_outcome(args, alerts, scored, data.abnormal)
        if args.out:
            _write_days(args, "acobe.stream_results", config, stream.model, emitted)
        _report(
            args,
            monitor.telemetry,
            config,
            stream.model,
            meta={
                "resumed": args.resume,
                "days_consumed": consumed,
                "days_scored": len(scored),
                "days_quarantined": stream.days_quarantined,
                "days_imputed": stream.days_imputed,
            },
            alerts=alerts,
        )
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Event-time ingestion in front of the streaming detector."""
    _check_stream_args(args)
    with _Monitoring(args) as monitor:
        config = _preset(args)
        try:
            ingest_config = IngestConfig(
                allowed_lateness_days=args.allowed_lateness,
                late_policy=args.late_policy,
                quarantine_path=args.quarantine_file,
                max_open_days=args.max_open_days,
                max_buffered_events=args.max_buffered_events,
                start_day=config.start,
            )
        except ValueError as exc:
            raise _CommandError(str(exc)) from None
        data = _stream_data(config, args.logs)
        binding = _dataset_binding(config)
        ingestor, ingest_dir = _open_stream(
            args, config, data, "ingest",
            resume=lambda model, directory: resume_ingest(
                model, directory, on_bad_day=args.on_bad_day, config=ingest_config,
                expected_manifest=binding,
            ),
            start=lambda stream: Ingestor(SlabBuilder(stream.users), stream, ingest_config),
        )
        stream = ingestor.detector
        skip = ingestor.events_pushed
        if args.resume:
            print(f"resumed from {ingest_dir} at seal cursor {ingestor.cursor} "
                  f"({ingestor.days_sealed} days sealed, {skip:,} deliveries consumed so far)")
        monitor.watch(stream, ingestor)

        records = arrival_order(data.store)
        if args.shuffle_seed is not None:
            records = shuffled_arrival(
                records, seed=args.shuffle_seed, max_lateness_days=args.allowed_lateness
            )

        emitted = []
        consumed = 0
        last_saved_sealed = ingestor.days_sealed

        def handle(results) -> None:
            for result in results:
                _print_day(result)
                emitted.append(result)

        def save() -> None:
            if ingest_dir is not None:
                save_ingest_checkpoint(ingestor, ingest_dir, extra_manifest=binding)

        try:
            for record in records[skip:]:
                if args.stop_after_events is not None and consumed >= args.stop_after_events:
                    print(f"stopping after {consumed:,} deliveries as requested "
                          f"(seal cursor at {ingestor.cursor}, "
                          f"{len(ingestor.builder.open_days())} open day(s))")
                    break
                handle(ingestor.push(record.event, record.fingerprint))
                consumed += 1
                if ingestor.days_sealed - last_saved_sealed >= args.checkpoint_every:
                    save()
                    last_saved_sealed = ingestor.days_sealed
            else:
                handle(ingestor.flush(until=data.days[-1]))
        except (LateEventError, IngestBackpressureError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            if ingest_dir is not None:
                save()
                print(f"saved checkpoint to {ingest_dir}", file=sys.stderr)
            return 1
        save()

        alerts = monitor.finish()
        scored = [r for r in emitted if isinstance(r, DailyResult)]
        print(f"consumed {consumed:,} deliveries: {ingestor.days_sealed} day(s) sealed, "
              f"{len(scored)} scored, {ingestor.events_late} late, "
              f"{ingestor.events_duplicate} duplicate(s), "
              f"{stream.days_quarantined} quarantined")
        _print_outcome(args, alerts, scored, data.abnormal)
        if args.out:
            _write_days(
                args, "acobe.ingest_results", config, stream.model, emitted,
                allowed_lateness_days=ingest_config.allowed_lateness_days,
            )
        _report(
            args,
            monitor.telemetry,
            config,
            stream.model,
            meta={
                "resumed": args.resume,
                "allowed_lateness_days": ingest_config.allowed_lateness_days,
                "late_policy": ingest_config.late_policy,
                "events_pushed": ingestor.events_pushed,
                "events_late": ingestor.events_late,
                "events_duplicate": ingestor.events_duplicate,
                "days_sealed": ingestor.days_sealed,
                "days_scored": len(scored),
            },
            alerts=alerts,
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Report-envelope utilities; currently ``repro report diff``."""
    from pathlib import Path

    from repro.obs import diff_directories, diff_reports, format_diff
    from repro.obs.diff import load_report

    baseline = Path(args.baseline)
    current = Path(args.current)
    problems: List[str] = []
    if baseline.is_dir():
        diffs, problems = diff_directories(
            baseline, current, tolerance=args.tolerance, pattern=args.pattern
        )
    else:
        diffs = [
            diff_reports(
                load_report(baseline), load_report(current),
                tolerance=args.tolerance, name=current.name,
            )
        ]
    print(format_diff(diffs, verbose=args.verbose))
    for problem in problems:
        print(f"! {problem}", file=sys.stderr)
    regressions = sum(len(d.regressions) for d in diffs)
    if regressions or problems:
        print(f"FAIL: {regressions} regression(s), "
              f"{len(problems)} structural problem(s)", file=sys.stderr)
        return 1
    print("PASS: no regressions")
    return 0


def cmd_case_study(args: argparse.Namespace) -> int:
    config = case_study_config(args.attack, args.scale)
    if args.jobs != config.n_jobs:
        config = replace(config, n_jobs=args.jobs)
    print(f"simulating {config.n_employees} employees, attack on {config.attack_day} ...")
    benchmark = build_case_study(config)
    result = run_case_study(benchmark)
    for aspect in result.run.scores:
        trend = result.run.score_trend(aspect, benchmark.victim)
        print(f"  {aspect:10s} {sparkline(trend)}")
    rows = [(str(d), r) for d, r in sorted(result.daily_rank.items())]
    print(format_table(["day", "victim rank"], rows))
    rank_one = result.days_at_rank_one()
    if rank_one:
        print(f"victim tops the list first on {rank_one[0]}")
    return 0


def cmd_presets(_args: argparse.Namespace) -> int:
    rows = []
    for scale in _SCALES:
        cfg = cert_config(scale)
        rows.append(
            (
                scale,
                sum(cfg.department_sizes),
                cfg.n_days,
                cfg.window,
                "x".join(str(u) for u in cfg.autoencoder.encoder_units),
                cfg.autoencoder.epochs,
            )
        )
    print(format_table(["scale", "users", "days", "window", "encoder", "epochs"], rows))
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "detect": cmd_detect,
    "stream": cmd_stream,
    "ingest": cmd_ingest,
    "report": cmd_report,
    "case-study": cmd_case_study,
    "presets": cmd_presets,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
