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
import sys
from datetime import date, timedelta
from typing import List, Optional

from repro.core import (
    make_acobe,
    make_all_in_one,
    make_base_ff,
    make_baseline,
    make_no_group,
    make_one_day,
)
from repro.eval.experiments import (
    CERT_START,
    build_case_study,
    build_cert_benchmark,
    case_study_config,
    cert_config,
    evaluate_run,
    run_model,
)
from repro.eval.reporting import format_table, sparkline
from repro.logs.csvio import read_store, write_store

_MODEL_FACTORIES = {
    "acobe": make_acobe,
    "no-group": make_no_group,
    "one-day": make_one_day,
    "all-in-one": make_all_in_one,
    "baseline": make_baseline,
    "base-ff": make_base_ff,
}


def _add_monitoring_arguments(parser: argparse.ArgumentParser, unit: str) -> None:
    """The monitoring-plane flags shared by ``stream`` and ``ingest``."""
    parser.add_argument(
        "--metrics-export", metavar="DIR", default=None,
        help="export metrics.prom (Prometheus text format, atomically "
        "replaced) and metrics.jsonl (one snapshot per flush) into DIR; "
        "implies telemetry",
    )
    parser.add_argument(
        "--export-every", type=int, default=1, metavar="N",
        help=f"flush the metrics export every N {unit} (default: 1); "
        "a final flush always happens on exit",
    )
    parser.add_argument(
        "--log", metavar="PATH", default=None,
        help="append structured JSON-lines events (with run/trace/span ids) "
        "to PATH; implies telemetry",
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
    p_sim.add_argument("--scale", default="small", choices=("small", "default", "paper"))
    p_sim.add_argument("--seed", type=int, default=None, help="override the preset seed")
    p_sim.add_argument(
        "--no-injection", action="store_true", help="skip the insider-scenario injection"
    )

    p_det = sub.add_parser("detect", help="run a model over simulated logs")
    p_det.add_argument(
        "--scale", default="small", choices=("small", "default", "paper"),
        help="benchmark preset to simulate and score",
    )
    p_det.add_argument("--model", default="acobe", choices=sorted(_MODEL_FACTORIES))
    p_det.add_argument("--top", type=int, default=10, help="list length to print")
    p_det.add_argument("--seed", type=int, default=None)
    p_det.add_argument(
        "--dtype", default=None, choices=("float32", "float64"),
        help="compute dtype for autoencoder training/scoring (default: the "
        "preset's); float32 roughly halves memory traffic but is NOT "
        "bit-comparable with float64 runs -- see docs/PERFORMANCE.md",
    )
    p_det.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for ensemble training (1 = serial, 0 = all cores); "
        "results are identical at any value",
    )
    p_det.add_argument(
        "--score-batch", type=int, default=1024,
        help="matrix vectors materialized per scoring batch (memory knob; "
        "scores are identical at any value)",
    )
    p_det.add_argument(
        "--trace", action="store_true",
        help="enable telemetry and print the per-stage span tree after the run "
        "(zero numerical impact; also honours ACOBE_TELEMETRY)",
    )
    p_det.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the JSON run report (span timings, metrics, per-aspect "
        "training curves) to PATH; implies telemetry",
    )
    p_det.add_argument(
        "--log", metavar="PATH", default=None,
        help="append structured JSON-lines events (with run/trace/span ids, "
        "worker processes included) to PATH; implies telemetry",
    )

    p_str = sub.add_parser(
        "stream",
        help="run day-by-day streaming detection with checkpoint/resume",
    )
    p_str.add_argument(
        "--scale", default="small", choices=("small", "default", "paper"),
        help="benchmark preset to simulate and stream",
    )
    p_str.add_argument(
        "--model", default="acobe", choices=("acobe", "no-group", "all-in-one"),
        help="deviation-representation models only (streaming requirement)",
    )
    p_str.add_argument("--seed", type=int, default=None)
    p_str.add_argument(
        "--dtype", default=None, choices=("float32", "float64"),
        help="compute dtype for autoencoder training/scoring (default: the "
        "preset's); ignored on --resume, which keeps the saved model's dtype",
    )
    p_str.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the initial ensemble training",
    )
    p_str.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="directory for the saved model and streaming checkpoints; "
        "required for --resume",
    )
    p_str.add_argument(
        "--resume", action="store_true",
        help="continue from the checkpoint in --checkpoint-dir instead of "
        "starting a fresh stream (scores are bit-identical to an "
        "uninterrupted run)",
    )
    p_str.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="save a checkpoint every N observed days (default: 1)",
    )
    p_str.add_argument(
        "--stop-after-days", type=int, default=None, metavar="K",
        help="consume at most K days this run, then exit (simulates a "
        "scheduled shutdown or a crash point for resume testing)",
    )
    p_str.add_argument(
        "--on-bad-day", default=None,
        choices=("strict", "skip", "impute-group-mean"),
        help="degradation policy for non-finite or malformed day slabs "
        "(default: strict, or the checkpointed policy when resuming)",
    )
    p_str.add_argument("--top", type=int, default=10, help="list length to print")
    p_str.add_argument(
        "--out", metavar="PATH", default=None,
        help="write per-day scores and investigation lists as JSON to PATH",
    )
    p_str.add_argument(
        "--trace", action="store_true",
        help="enable telemetry and print the span tree after the run",
    )
    p_str.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the JSON run report (incl. stream.days_quarantined and "
        "checkpoint.retries counters) to PATH; implies telemetry",
    )
    _add_monitoring_arguments(p_str, unit="observed days")

    p_ing = sub.add_parser(
        "ingest",
        help="event-time ingestion: consume raw events in arrival order and "
        "score days as they seal (watermark semantics, see docs/INGEST.md)",
    )
    p_ing.add_argument(
        "--scale", default="small", choices=("small", "default", "paper"),
        help="benchmark preset that defines the organization, calendar and model",
    )
    p_ing.add_argument(
        "--logs", metavar="DIR", default=None,
        help="read events from CERT-style CSVs in DIR (written by `repro "
        "simulate`); default: simulate the preset in-process",
    )
    p_ing.add_argument(
        "--model", default="acobe", choices=("acobe", "no-group", "all-in-one"),
        help="deviation-representation models only (streaming requirement)",
    )
    p_ing.add_argument("--seed", type=int, default=None)
    p_ing.add_argument(
        "--dtype", default=None, choices=("float32", "float64"),
        help="compute dtype for autoencoder training/scoring (default: the "
        "preset's); ignored on --resume, which keeps the saved model's dtype",
    )
    p_ing.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the initial ensemble training",
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
        "--checkpoint-dir", metavar="DIR", default=None,
        help="directory for the saved model and the combined stream+ingest "
        "checkpoint; required for --resume",
    )
    p_ing.add_argument(
        "--resume", action="store_true",
        help="continue from the ingest checkpoint in --checkpoint-dir "
        "(bit-identical to an uninterrupted run)",
    )
    p_ing.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="save the combined checkpoint every N sealed days (default: 1); "
        "a final save always happens on exit",
    )
    p_ing.add_argument(
        "--stop-after-events", type=int, default=None, metavar="K",
        help="consume at most K deliveries this run, then exit mid-stream "
        "(a deterministic crash point for resume testing)",
    )
    p_ing.add_argument(
        "--on-bad-day", default=None,
        choices=("strict", "skip", "impute-group-mean"),
        help="degradation policy for malformed day slabs",
    )
    p_ing.add_argument("--top", type=int, default=10, help="list length to print")
    p_ing.add_argument(
        "--out", metavar="PATH", default=None,
        help="write per-day results as JSON to PATH (same day documents as "
        "`repro stream --out`, so the two are directly comparable)",
    )
    p_ing.add_argument(
        "--trace", action="store_true",
        help="enable telemetry and print the span tree after the run",
    )
    p_ing.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the JSON run report (incl. ingest.events, "
        "ingest.events_late, ingest.days_sealed counters) to PATH",
    )
    _add_monitoring_arguments(p_ing, unit="consumed deliveries")

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
    p_case.add_argument("--scale", default="small", choices=("small", "default", "paper"))
    p_case.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for ensemble training (1 = serial, 0 = all cores)",
    )

    sub.add_parser("presets", help="show the benchmark scale presets")
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    config = cert_config(args.scale)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.no_injection:
        from repro.datagen.calendar import SimulationCalendar
        from repro.datagen.org import build_organization
        from repro.datagen.simulator import simulate_cert_dataset

        organization = build_organization(list(config.department_sizes), seed=config.seed)
        calendar = SimulationCalendar.with_default_holidays(config.start, config.end)
        dataset = simulate_cert_dataset(organization, calendar, seed=config.seed)
        store = dataset.store
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
    from dataclasses import replace

    from repro.obs import (
        Telemetry,
        build_run_report,
        format_span_tree,
        get_telemetry,
        set_telemetry,
        write_report,
    )

    telemetry = get_telemetry()
    if (args.trace or args.metrics_out or args.log) and not telemetry.enabled:
        telemetry = Telemetry(enabled=True, trace_memory=telemetry.trace_memory)
        set_telemetry(telemetry)
    log_sink = _attach_log(args, telemetry)

    config = cert_config(args.scale)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    benchmark = build_cert_benchmark(config)
    factory = _MODEL_FACTORIES[args.model]
    kwargs = dict(
        ae_config=config.autoencoder,
        train_stride=config.train_stride,
        n_jobs=args.jobs,
        dtype=args.dtype,
    )
    if args.model in ("acobe", "no-group", "all-in-one"):
        kwargs.update(window=config.window, matrix_days=config.matrix_days)
    model = factory(**kwargs)
    cube = benchmark.coarse_cube() if args.model == "baseline" else benchmark.cube
    print(f"fitting {model.config.name} on {len(benchmark.cube.users)} users ...")
    run = run_model(model, benchmark, cube=cube, score_batch_size=args.score_batch)

    rows = []
    for position, entry in enumerate(run.investigation.entries[: args.top], start=1):
        marker = "insider" if entry.user in benchmark.abnormal_users else ""
        rows.append((position, entry.user, entry.priority, marker))
    print(format_table(["#", "user", "priority", ""], rows))
    metrics = evaluate_run(run, benchmark.labels)
    print(f"AUC={metrics.auc:.4f}  AP={metrics.average_precision:.4f}  "
          f"FPs-before-TPs={metrics.fps_before_tps}")

    if args.trace:
        print("\n-- span tree ".ljust(40, "-"))
        print(format_span_tree(telemetry))
    if args.metrics_out:
        report = build_run_report(
            telemetry,
            training_histories=model.training_histories,
            name=f"detect-{args.model}",
            meta={
                "model": model.config.name,
                "scale": config.name,
                "seed": config.seed,
                "n_jobs": args.jobs,
                "users": len(benchmark.cube.users),
                "auc": metrics.auc,
                "average_precision": metrics.average_precision,
            },
        )
        path = write_report(args.metrics_out, report)
        print(f"wrote run report to {path}")
    _finish_monitoring(telemetry, None, None, log_sink, {})
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Day-by-day streaming detection with durable checkpoints."""
    import json
    from dataclasses import replace
    from pathlib import Path

    from repro.core.checkpoint import (
        CheckpointMismatchError,
        CheckpointNotFoundError,
        resume_streaming,
        save_checkpoint,
    )
    from repro.core.persistence import attach_representation, load_model, save_model
    from repro.core.streaming import DailyResult, StreamingDetector
    from repro.obs import (
        Telemetry,
        build_run_report,
        format_span_tree,
        get_telemetry,
        set_telemetry,
        write_report,
    )

    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.checkpoint_every < 1:
        print("error: --checkpoint-every must be >= 1", file=sys.stderr)
        return 2
    if args.export_every < 1:
        print("error: --export-every must be >= 1", file=sys.stderr)
        return 2

    telemetry = get_telemetry()
    needs_telemetry = args.trace or args.metrics_out or args.metrics_export or args.log
    if needs_telemetry and not telemetry.enabled:
        telemetry = Telemetry(enabled=True, trace_memory=telemetry.trace_memory)
        set_telemetry(telemetry)
    log_sink = _attach_log(args, telemetry)

    config = cert_config(args.scale)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    benchmark = build_cert_benchmark(config)
    cube = benchmark.cube
    days = list(cube.days)

    checkpoint_dir = Path(args.checkpoint_dir) if args.checkpoint_dir else None
    model_dir = checkpoint_dir / "model" if checkpoint_dir else None
    stream_dir = checkpoint_dir / "stream" if checkpoint_dir else None
    # Bound to the checkpoint so --resume against a different preset or
    # seed fails typed instead of re-feeding different simulated data
    # into the same rolling state.
    dataset_binding = {"dataset": {"preset": config.name, "seed": config.seed}}

    if args.resume:
        try:
            model = load_model(model_dir)
        except FileNotFoundError:
            print(f"error: no saved model at {model_dir}; run once without --resume first",
                  file=sys.stderr)
            return 2
        attach_representation(model, cube, benchmark.group_map, benchmark.train_days)
        try:
            stream = resume_streaming(
                model, stream_dir, on_bad_day=args.on_bad_day,
                expected_manifest=dataset_binding,
            )
        except CheckpointNotFoundError:
            print(f"error: no checkpoint at {stream_dir}; run once without --resume first",
                  file=sys.stderr)
            return 2
        except CheckpointMismatchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if stream.last_day is None:
            start_index = 0
        elif stream.last_day >= days[-1]:
            print(f"checkpoint already covers the final day ({stream.last_day}); nothing to do")
            start_index = len(days)
        else:
            start_index = next(i for i, d in enumerate(days) if d > stream.last_day)
        print(f"resumed from {stream_dir} at day cursor {stream.last_day} "
              f"({stream.days_observed} days observed so far)")
    else:
        factory = _MODEL_FACTORIES[args.model]
        model = factory(
            ae_config=config.autoencoder,
            window=config.window,
            matrix_days=config.matrix_days,
            train_stride=config.train_stride,
            n_jobs=args.jobs,
            dtype=args.dtype,
        )
        print(f"fitting {model.config.name} on {len(cube.users)} users ...")
        model.fit(cube, benchmark.group_map, benchmark.train_days)
        if model_dir is not None:
            save_model(model, model_dir)
            print(f"saved model to {model_dir}")
        stream = StreamingDetector(
            model, cube.users, benchmark.group_map,
            on_bad_day=args.on_bad_day or "strict",
        )
        start_index = 0

    exporter, drift = _attach_monitoring(args, stream)

    emitted = []
    consumed = 0
    for d in range(start_index, len(days)):
        if args.stop_after_days is not None and consumed >= args.stop_after_days:
            print(f"stopping after {consumed} day(s) as requested "
                  f"(day cursor at {stream.last_day})")
            break
        result = stream.observe_day(days[d], cube.values[:, :, :, d])
        consumed += 1
        if isinstance(result, DailyResult):
            top = [e.user for e in result.investigation.entries[:3]]
            print(f"  {result.day}  top: {', '.join(top)}")
            emitted.append(result)
        elif result is not None:  # DegradedDayResult
            print(f"  {result.day}  QUARANTINED ({result.reason}: "
                  f"{result.n_bad_values} bad value(s))")
            emitted.append(result)
        if stream_dir is not None and consumed % args.checkpoint_every == 0:
            save_checkpoint(stream, stream_dir, extra_manifest=dataset_binding)
    if stream_dir is not None and consumed % args.checkpoint_every != 0:
        save_checkpoint(stream, stream_dir, extra_manifest=dataset_binding)

    alerts = _finish_monitoring(
        telemetry, exporter, drift, log_sink, stream.durable_counters()
    )

    scored = [r for r in emitted if isinstance(r, DailyResult)]
    print(f"observed {consumed} day(s): {len(scored)} scored, "
          f"{stream.days_quarantined} quarantined, {stream.days_imputed} imputed")
    for alert in alerts:
        print(f"  ALERT [{alert['severity']}] {alert['message']}")
    if scored:
        last = scored[-1]
        rows = []
        for position, entry in enumerate(last.investigation.entries[: args.top], start=1):
            marker = "insider" if entry.user in benchmark.abnormal_users else ""
            rows.append((position, entry.user, entry.priority, marker))
        print(f"investigation list for {last.day}:")
        print(format_table(["#", "user", "priority", ""], rows))

    if args.out:
        document = {
            "schema": "acobe.stream_results",
            "version": 1,
            "scale": config.name,
            "model": model.config.name,
            "days": [_stream_day_doc(r) for r in emitted],
        }
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote per-day results to {out_path}")

    if args.trace:
        print("\n-- span tree ".ljust(40, "-"))
        print(format_span_tree(telemetry))
    if args.metrics_out:
        report = build_run_report(
            telemetry,
            name=f"stream-{args.model}",
            meta={
                "model": model.config.name,
                "scale": config.name,
                "seed": config.seed,
                "resumed": args.resume,
                "days_consumed": consumed,
                "days_scored": len(scored),
                "days_quarantined": stream.days_quarantined,
                "days_imputed": stream.days_imputed,
            },
            alerts=alerts,
        )
        path = write_report(args.metrics_out, report)
        print(f"wrote run report to {path}")
    return 0


def _attach_log(args: argparse.Namespace, telemetry):
    """Install the --log JSONL sink (before training, so worker spans land).

    Worker processes inherit the parent telemetry through ``fork`` and
    buffer their events only when the parent has a sink, so this must
    run before any ensemble fan-out.
    """
    if not args.log:
        return None
    from repro.obs import attach_log_sink

    return attach_log_sink(telemetry, args.log)


def _attach_monitoring(args: argparse.Namespace, stream, ingestor=None):
    """Wire up --metrics-export / --drift-monitor attachments.

    Returns ``(exporter, drift_monitor)`` (each None when not
    requested).  The exporter ticks on the ingestor when one is given
    (per consumed delivery), else on the stream (per observed day).
    """
    exporter = None
    if args.metrics_export:
        from repro.obs import MetricsExporter

        exporter = MetricsExporter(args.metrics_export, every=args.export_every)
        if ingestor is not None:
            ingestor.attach_exporter(exporter)
        else:
            stream.attach_exporter(exporter)
    drift = None
    if args.drift_monitor:
        from repro.obs import IngestQualityMonitor, ScoreDriftMonitor

        drift = ScoreDriftMonitor()
        stream.attach_drift_monitor(drift)
        if ingestor is not None:
            ingestor.attach_quality_monitor(IngestQualityMonitor())
    return exporter, drift


def _finish_monitoring(telemetry, exporter, drift, log_sink, durable, ingestor=None):
    """Final export flush, log-sink close; returns all accumulated alerts."""
    if exporter is not None:
        exporter.flush(telemetry, durable)
        print(f"exported metrics to {exporter.prom_path} and {exporter.jsonl_path}")
    alerts = list(drift.alerts) if drift is not None else []
    if ingestor is not None:
        alerts.extend(ingestor.alerts)
    if log_sink is not None:
        from repro.obs import detach_log_sink

        detach_log_sink(telemetry)
        log_sink.close()
        print(f"wrote {log_sink.records_written} structured log record(s) "
              f"to {log_sink.path}")
    return alerts


def _stream_day_doc(result) -> dict:
    """One emitted day as a JSON-able dict (exact float round-trip)."""
    from repro.core.streaming import DailyResult

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


def cmd_ingest(args: argparse.Namespace) -> int:
    """Event-time ingestion in front of the streaming detector."""
    import json
    from dataclasses import replace
    from pathlib import Path

    from repro.core.checkpoint import CheckpointMismatchError, CheckpointNotFoundError
    from repro.core.persistence import attach_representation, load_model, save_model
    from repro.core.streaming import DailyResult, StreamingDetector
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
    from repro.obs import (
        Telemetry,
        build_run_report,
        format_span_tree,
        get_telemetry,
        set_telemetry,
        write_report,
    )

    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.checkpoint_every < 1:
        print("error: --checkpoint-every must be >= 1", file=sys.stderr)
        return 2
    if args.export_every < 1:
        print("error: --export-every must be >= 1", file=sys.stderr)
        return 2

    telemetry = get_telemetry()
    needs_telemetry = args.trace or args.metrics_out or args.metrics_export or args.log
    if needs_telemetry and not telemetry.enabled:
        telemetry = Telemetry(enabled=True, trace_memory=telemetry.trace_memory)
        set_telemetry(telemetry)
    log_sink = _attach_log(args, telemetry)

    config = cert_config(args.scale)
    if args.seed is not None:
        config = replace(config, seed=args.seed)

    if args.logs:
        from repro.datagen.calendar import SimulationCalendar
        from repro.datagen.org import build_organization

        store = read_store(args.logs)
        organization = build_organization(list(config.department_sizes), seed=config.seed)
        calendar = SimulationCalendar.with_default_holidays(config.start, config.end)
        users = organization.user_ids()
        group_map = organization.group_map()
        days = calendar.days()
        cube = extract_cert_measurements(store, users, days)
        abnormal: set = set()
    else:
        benchmark = build_cert_benchmark(config)
        store = benchmark.dataset.store
        cube = benchmark.cube
        users = list(cube.users)
        group_map = benchmark.group_map
        days = list(cube.days)
        abnormal = set(benchmark.abnormal_users)
    train_days = [d for d in days if d <= config.train_end]

    try:
        ingest_config = IngestConfig(
            allowed_lateness_days=args.allowed_lateness,
            late_policy=args.late_policy,
            quarantine_path=args.quarantine_file,
            max_open_days=args.max_open_days,
            max_buffered_events=args.max_buffered_events,
            start_day=days[0],
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checkpoint_dir = Path(args.checkpoint_dir) if args.checkpoint_dir else None
    model_dir = checkpoint_dir / "model" if checkpoint_dir else None
    ingest_dir = checkpoint_dir / "ingest" if checkpoint_dir else None
    dataset_binding = {"dataset": {"preset": config.name, "seed": config.seed}}

    if args.resume:
        try:
            model = load_model(model_dir)
        except FileNotFoundError:
            print(f"error: no saved model at {model_dir}; run once without --resume first",
                  file=sys.stderr)
            return 2
        attach_representation(model, cube, group_map, train_days)
        try:
            ingestor = resume_ingest(
                model, ingest_dir,
                on_bad_day=args.on_bad_day,
                config=ingest_config,
                expected_manifest=dataset_binding,
            )
        except CheckpointNotFoundError:
            print(f"error: no checkpoint at {ingest_dir}; run once without --resume first",
                  file=sys.stderr)
            return 2
        except CheckpointMismatchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        stream = ingestor.detector
        skip = ingestor.events_pushed
        print(f"resumed from {ingest_dir} at seal cursor {ingestor.cursor} "
              f"({ingestor.days_sealed} days sealed, {skip:,} deliveries consumed so far)")
    else:
        factory = _MODEL_FACTORIES[args.model]
        model = factory(
            ae_config=config.autoencoder,
            window=config.window,
            matrix_days=config.matrix_days,
            train_stride=config.train_stride,
            n_jobs=args.jobs,
            dtype=args.dtype,
        )
        print(f"fitting {model.config.name} on {len(users)} users ...")
        model.fit(cube, group_map, train_days)
        if model_dir is not None:
            save_model(model, model_dir)
            print(f"saved model to {model_dir}")
        stream = StreamingDetector(
            model, users, group_map, on_bad_day=args.on_bad_day or "strict",
        )
        ingestor = Ingestor(SlabBuilder(users), stream, ingest_config)
        skip = 0

    exporter, drift = _attach_monitoring(args, stream, ingestor)

    records = arrival_order(store)
    if args.shuffle_seed is not None:
        records = shuffled_arrival(
            records, seed=args.shuffle_seed, max_lateness_days=args.allowed_lateness
        )

    emitted = []
    consumed = 0
    interrupted = False
    last_saved_sealed = ingestor.days_sealed

    def handle(result) -> None:
        emitted.append(result)
        if isinstance(result, DailyResult):
            top = [e.user for e in result.investigation.entries[:3]]
            print(f"  {result.day}  top: {', '.join(top)}")
        else:
            print(f"  {result.day}  QUARANTINED ({result.reason}: "
                  f"{result.n_bad_values} bad value(s))")

    try:
        for index, record in enumerate(records):
            if index < skip:
                continue
            if args.stop_after_events is not None and consumed >= args.stop_after_events:
                interrupted = True
                print(f"stopping after {consumed:,} deliveries as requested "
                      f"(seal cursor at {ingestor.cursor}, "
                      f"{len(ingestor.builder.open_days())} open day(s))")
                break
            for result in ingestor.push(record.event, record.fingerprint):
                handle(result)
            consumed += 1
            if (
                ingest_dir is not None
                and ingestor.days_sealed - last_saved_sealed >= args.checkpoint_every
            ):
                save_ingest_checkpoint(ingestor, ingest_dir, extra_manifest=dataset_binding)
                last_saved_sealed = ingestor.days_sealed
        if not interrupted:
            for result in ingestor.flush(until=days[-1]):
                handle(result)
    except (LateEventError, IngestBackpressureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if ingest_dir is not None:
            save_ingest_checkpoint(ingestor, ingest_dir, extra_manifest=dataset_binding)
            print(f"saved checkpoint to {ingest_dir}", file=sys.stderr)
        return 1
    if ingest_dir is not None:
        save_ingest_checkpoint(ingestor, ingest_dir, extra_manifest=dataset_binding)

    alerts = _finish_monitoring(
        telemetry, exporter, drift, log_sink, ingestor.durable_counters(),
        ingestor=ingestor,
    )

    scored = [r for r in emitted if isinstance(r, DailyResult)]
    print(f"consumed {consumed:,} deliveries: {ingestor.days_sealed} day(s) sealed, "
          f"{len(scored)} scored, {ingestor.events_late} late, "
          f"{ingestor.events_duplicate} duplicate(s), "
          f"{stream.days_quarantined} quarantined")
    for alert in alerts:
        print(f"  ALERT [{alert['severity']}] {alert['message']}")
    if scored:
        last = scored[-1]
        rows = []
        for position, entry in enumerate(last.investigation.entries[: args.top], start=1):
            marker = "insider" if entry.user in abnormal else ""
            rows.append((position, entry.user, entry.priority, marker))
        print(f"investigation list for {last.day}:")
        print(format_table(["#", "user", "priority", ""], rows))

    if args.out:
        document = {
            "schema": "acobe.ingest_results",
            "version": 1,
            "scale": config.name,
            "model": model.config.name,
            "allowed_lateness_days": ingest_config.allowed_lateness_days,
            "days": [_stream_day_doc(r) for r in emitted],
        }
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote per-day results to {out_path}")

    if args.trace:
        print("\n-- span tree ".ljust(40, "-"))
        print(format_span_tree(telemetry))
    if args.metrics_out:
        report = build_run_report(
            telemetry,
            name=f"ingest-{args.model}",
            meta={
                "model": model.config.name,
                "scale": config.name,
                "seed": config.seed,
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
        path = write_report(args.metrics_out, report)
        print(f"wrote run report to {path}")
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
    from dataclasses import replace

    from repro.eval.experiments import run_case_study

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
    for scale in ("small", "default", "paper"):
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
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
