"""The three benchmark workloads: inputs, one timed job, correctness checks.

Each workload is a closed loop with one client: :meth:`run_once` runs
one job to completion and the loop in ``run.py`` starts the next one
only after it returns.  Every job is driven from one process with
``n_jobs=1`` and ``n_shards=1``; configs are built with
:func:`dataclasses.replace` so no environment variable can change what
is measured.

* ``detect-small`` -- the batch analyst job of ``repro detect --scale
  small``: extract -> fit -> score -> investigate (as ``run_model``
  does), then the live feed over the same days through
  ``StreamingDetector.observe_day``, replayed nine times.  Autoencoder
  training dominates.
* ``ingest-replay`` -- a durable live feed replayed as a catch-up after
  an outage: CSV read -> arrival order -> ``Ingestor.push`` per delivery
  -> ``flush``, a checkpoint after every sealed day and one resume
  mid-feed.  No training in the timed part.
* ``score-wide`` -- the paper's width (929 users in 4 groups, 30-day
  window and matrix) on a synthetic count cube: fit (one epoch) ->
  score -> investigate, then the live feed.  Large-batch predict,
  per-day streaming and the representation dominate.

:meth:`check` returns a list of problems (empty when the job's outputs
are correct); ``selfcheck.py`` feeds it corrupted outputs to prove every
check fires.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core import make_acobe
from repro.core.streaming import DailyResult, StreamingDetector
from repro.eval.experiments import (
    CERT_DEFAULT,
    CERT_PAPER,
    CERT_SMALL,
    CertBenchmarkConfig,
    build_cert_benchmark,
    evaluate_run,
    run_model,
)
from repro.features.cert import CERT_ASPECTS, extract_cert_measurements
from repro.features.measurements import MeasurementCube
from repro.features.spec import FeatureSet
from repro.ingest import (
    IngestConfig,
    Ingestor,
    SlabBuilder,
    arrival_order,
    inject_duplicates,
    resume_ingest,
    save_ingest_checkpoint,
    shuffled_arrival,
)
from repro.logs.csvio import read_store, write_store
from repro.utils.timeutil import TWO_TIMEFRAMES

from tracing import RowKeys, Tracer

#: Relative tolerance of streamed vs batch scores, by compute dtype.  The
#: two paths run the same arithmetic on different batch shapes, so only
#: the BLAS summation order differs.
RTOL = {"float64": 1e-10, "float32": 1e-5}

#: CERT preset for the self-check: same shape of job, seconds not minutes.
CERT_TINY = replace(
    CERT_SMALL,
    name="tiny",
    department_sizes=(6, 6),
    n_days=48,
    window=5,
    matrix_days=5,
    train_end_offset=30,
    s1_start_offset=38,
    s1_duration=5,
    s2_start_offset=33,
    s2_surf_days=8,
    s2_exfil_days=4,
    autoencoder=replace(CERT_SMALL.autoencoder, encoder_units=(16, 8), epochs=2),
)


@dataclass
class Job:
    """One timed job's outputs and the workload's own measurements."""

    batch_s: float
    wall_s: float
    #: per pass of the live feed, the wall time of each call that returned
    #: a scored day (one pass per job, except in ``detect-small``)
    day_latency_s: List[List[float]]
    outputs: dict
    counts: Dict[str, float] = field(default_factory=dict)


def _cert_config(size: str, seed: int, epochs: Optional[int] = None) -> CertBenchmarkConfig:
    config = replace(CERT_TINY if size == "tiny" else CERT_SMALL, seed=seed, n_jobs=1, n_shards=1)
    if epochs is not None:
        config = replace(config, autoencoder=replace(config.autoencoder, epochs=epochs))
    return config


def _acobe(config):
    return make_acobe(
        ae_config=config.autoencoder,
        window=config.window,
        matrix_days=config.matrix_days,
        train_stride=config.train_stride,
        n_jobs=1,
        n_shards=1,
    )


def _stream_days(model, cube, group_map):
    """Feed every day of ``cube`` through a fresh live feed, timing each call."""
    stream = StreamingDetector(model, cube.users, group_map)
    results: Dict[date, DailyResult] = {}
    latency: List[float] = []
    for d, day in enumerate(cube.days):
        start = time.perf_counter()
        result = stream.observe_day(day, cube.values[:, :, :, d])
        elapsed = time.perf_counter() - start
        if isinstance(result, DailyResult):
            results[day] = result
            latency.append(elapsed)
    return results, latency


# ---------------------------------------------------------------------------
# Correctness checks (each returns a list of problems)
# ---------------------------------------------------------------------------


def check_ranked_once(investigation, users) -> List[str]:
    ranked = investigation.users()
    if len(ranked) != len(users) or set(ranked) != set(users):
        return [f"investigation list ranks {len(ranked)} entries "
                f"({len(set(ranked))} distinct) for {len(users)} users"]
    return []


def check_stream_matches_batch(results, scores, days, rtol) -> List[str]:
    """Each streamed day's scores equal the batch scores of that day."""
    problems = []
    for j, day in enumerate(days):
        if day not in results:
            problems.append(f"day {day} was not streamed")
            continue
        for aspect, array in scores.items():
            if not np.allclose(results[day].scores[aspect], array[:, j], rtol=rtol, atol=0.0):
                problems.append(f"streamed {aspect} scores on {day} differ from batch")
    return problems


def check_results_equal(results, reference) -> List[str]:
    """The resumed replay's results equal an uninterrupted replay's, bit for bit."""
    problems = []
    if sorted(results) != sorted(reference):
        problems.append(f"replay scored {len(results)} days, uninterrupted {len(reference)}")
    for day in sorted(set(results) & set(reference)):
        got, want = results[day], reference[day]
        if any(not np.array_equal(got.scores[a], want.scores[a]) for a in want.scores):
            problems.append(f"scores on {day} differ from the uninterrupted replay")
        if [(e.user, e.priority) for e in got.investigation.entries] != [
            (e.user, e.priority) for e in want.investigation.entries
        ]:
            problems.append(f"investigation list on {day} differs from the uninterrupted replay")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class DetectSmall:
    """``repro detect --scale small`` and the live feed that follows it."""

    name = "detect-small"

    #: A 20-user day scores in about 2.5 ms, so one pass of the live feed
    #: lasts only 0.3 s and a single burst of host load can skew all of it.
    #: The feed is replayed this many times, each with a fresh detector.
    STREAM_PASSES = 9

    def __init__(self, size: str, work: Path):
        self.size = size

    def setup(self, seed: int) -> None:
        self.config = _cert_config(self.size, seed)
        self.benchmark = build_cert_benchmark(self.config)

    def run_once(self, tracer: Tracer, row_keys: RowKeys) -> Job:
        benchmark = self.benchmark
        store = benchmark.dataset.store
        model = _acobe(self.config)
        row_keys.job = 0
        start = time.perf_counter()
        with tracer.span("features.extract"):
            cube = extract_cert_measurements(store, benchmark.cube.users, benchmark.cube.days)
        run = run_model(model, benchmark, cube=cube)
        batch_end = time.perf_counter()
        latency = []
        for feed in range(self.STREAM_PASSES):
            row_keys.job = 1 + feed
            results, pass_latency = _stream_days(model, cube, benchmark.group_map)
            latency.append(pass_latency)
        end = time.perf_counter()
        return Job(batch_end - start, end - start, latency,
                   {"run": run, "results": results, "users": list(cube.users)})

    def check(self, job: Job) -> List[str]:
        run = job.outputs["run"]
        problems = check_ranked_once(run.investigation, job.outputs["users"])
        if not problems:
            # Detection quality is reported, not checked: it varies by seed
            # (see README.md), so any floor would fail on some seeds.
            metrics = evaluate_run(run, self.benchmark.labels)
            job.outputs["quality"] = (metrics.auc, metrics.average_precision)
        problems += check_stream_matches_batch(
            job.outputs["results"], run.scores, run.test_days,
            RTOL[self.config.autoencoder.dtype],
        )
        return problems


class IngestReplay:
    """A durable CSV feed replayed through the ingestor after an outage."""

    name = "ingest-replay"

    #: Allowed lateness (days) the feed is shuffled within and the
    #: ingestor is configured with, so no delivery is ever late.
    LATENESS = 1
    DUPLICATE_FRACTION = 0.05

    def __init__(self, size: str, work: Path):
        self.size = size
        self.logs_dir = work / "logs"
        self.checkpoint_dir = work / "checkpoint"

    def setup(self, seed: int) -> None:
        # One epoch is enough: scoring cost depends only on the architecture.
        config = _cert_config(self.size, seed, epochs=1)
        benchmark = build_cert_benchmark(config)
        shutil.rmtree(self.logs_dir, ignore_errors=True)
        write_store(benchmark.dataset.store, self.logs_dir)
        cube = benchmark.cube
        self.users, self.days = list(cube.users), list(cube.days)
        self.group_map = benchmark.group_map
        self.model = _acobe(config)
        self.model.fit(cube, self.group_map, benchmark.train_days)
        self.rtol = RTOL[config.autoencoder.dtype]

        # The generator's work: a seeded bounded shuffle plus at-least-once
        # redeliveries, kept as positions into the canonical arrival order
        # so the timed part only indexes.
        canonical = arrival_order(benchmark.dataset.store)
        deliveries = inject_duplicates(
            shuffled_arrival(canonical, seed=seed, max_lateness_days=self.LATENESS),
            seed=seed + 1,
            fraction=self.DUPLICATE_FRACTION,
        )
        self.plan = [int(record.fingerprint[1:]) for record in deliveries]
        self.n_duplicates = len(deliveries) - len(canonical)

        # References for the checks: batch scores of every scorable day and
        # an uninterrupted live feed over the extracted cube.
        self.anchors = self.model.valid_anchor_days(self.days)
        self.batch_scores = self.model.score(self.anchors)
        self.reference, _ = _stream_days(self.model, cube, self.group_map)

    def run_once(self, tracer: Tracer, row_keys: RowKeys) -> Job:
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
        config = IngestConfig(allowed_lateness_days=self.LATENESS, start_day=self.days[0])
        results: Dict[date, DailyResult] = {}
        latency: List[float] = []
        save_bytes = 0
        row_keys.job = 1

        def collect(out, elapsed):
            for result in out:
                results[result.day] = result
                latency.append(elapsed)

        def save(ingestor):
            nonlocal save_bytes
            with tracer.span("checkpoint.save"):
                save_ingest_checkpoint(ingestor, self.checkpoint_dir)
            if tracer.active:
                save_bytes += sum(p.stat().st_size for p in self.checkpoint_dir.iterdir())

        start = time.perf_counter()
        with tracer.span("logs.read_store"):
            store = read_store(self.logs_dir)
        with tracer.span("ingest.arrival_order"):
            records = arrival_order(store)
        deliveries = [records[i] for i in self.plan]
        ingestor = Ingestor(
            SlabBuilder(self.users), StreamingDetector(self.model, self.users, self.group_map),
            config,
        )
        crash_at = len(deliveries) // 2
        resumed = False
        saved_sealed = 0
        i = 0
        while i < len(deliveries):
            if i == crash_at and not resumed:
                # The process dies here; everything since the last
                # checkpoint is lost and the feed resumes from it.
                with tracer.span("checkpoint.resume"):
                    ingestor = resume_ingest(self.model, self.checkpoint_dir)
                i = ingestor.events_pushed
                saved_sealed = ingestor.days_sealed
                resumed = True
            record = deliveries[i]
            t0 = time.perf_counter()
            with tracer.span("ingest.push"):
                out = ingestor.push(record.event, record.fingerprint)
            collect(out, time.perf_counter() - t0)
            i += 1
            if ingestor.days_sealed > saved_sealed:
                save(ingestor)
                saved_sealed = ingestor.days_sealed
        t0 = time.perf_counter()
        with tracer.span("ingest.flush"):
            out = ingestor.flush(until=self.days[-1])
        collect(out, time.perf_counter() - t0)
        save(ingestor)
        end = time.perf_counter()

        delivered = ingestor.events_pushed
        counts = {
            "events_read": store.count(),
            "delivered": delivered,
            "accepted": delivered - ingestor.events_duplicate - ingestor.events_late,
            "duplicate": ingestor.events_duplicate,
            "late": ingestor.events_late,
            "save_bytes": save_bytes,
        }
        return Job(end - start, end - start, [latency],
                   {"ingestor": ingestor, "results": results}, counts)

    def check(self, job: Job) -> List[str]:
        ingestor = job.outputs["ingestor"]
        problems = []
        if ingestor.days_sealed != len(self.days):
            problems.append(f"{ingestor.days_sealed} of {len(self.days)} days sealed")
        if ingestor.events_late:
            problems.append(f"{ingestor.events_late} deliveries were late")
        if ingestor.events_duplicate != self.n_duplicates:
            problems.append(f"{ingestor.events_duplicate} duplicates dropped, "
                            f"{self.n_duplicates} injected")
        results = job.outputs["results"]
        problems += check_stream_matches_batch(
            results, self.batch_scores, self.anchors, self.rtol
        )
        problems += check_results_equal(results, self.reference)
        return problems


class ScoreWide:
    """The paper's width on a synthetic count cube: batch job + live feed."""

    name = "score-wide"

    #: size -> (group sizes, days, training days, window); the full size
    #: has the paper's four CERT groups and 30-day window.
    SIZES = {
        "full": ((114, 272, 270, 273), 120, 64, CERT_PAPER.window),
        "tiny": ((5, 7, 6, 6), 40, 25, 5),
    }

    def __init__(self, size: str, work: Path):
        self.size = size

    def setup(self, seed: int) -> None:
        groups, n_days, n_train, window = self.SIZES[self.size]
        # One epoch keeps training a minor share of the job.
        ae = (CERT_TINY if self.size == "tiny" else CERT_DEFAULT).autoencoder
        self.config = replace(
            CERT_PAPER, window=window, matrix_days=window, autoencoder=replace(ae, epochs=1)
        )

        rng = np.random.default_rng(seed)
        users = [f"U{i:04d}" for i in range(sum(groups))]
        group_of = np.repeat(np.arange(len(groups)), groups)
        features = FeatureSet(list(CERT_ASPECTS))
        shape = (len(users), len(features), len(TWO_TIMEFRAMES))
        # Each group shares a rate profile; users scatter around it.
        group_rates = rng.gamma(2.0, 2.0, size=(len(groups),) + shape[1:])
        rates = group_rates[group_of] * rng.gamma(4.0, 0.25, size=shape)
        values = rng.poisson(rates[..., None], size=shape + (n_days,)).astype(np.float64)
        days = [date(2010, 1, 4) + timedelta(days=d) for d in range(n_days)]
        self.cube = MeasurementCube(values, users, features, TWO_TIMEFRAMES, days)
        self.group_map = {u: f"G{g}" for u, g in zip(users, group_of)}
        self.train_days, self.test_days = days[:n_train], days[n_train:]

    def run_once(self, tracer: Tracer, row_keys: RowKeys) -> Job:
        model = _acobe(self.config)
        row_keys.job = 0
        start = time.perf_counter()
        model.fit(self.cube, self.group_map, self.train_days)
        anchors = model.valid_anchor_days(self.test_days)
        scores = model.score(anchors)
        investigation = model.investigate(anchors)
        batch_end = time.perf_counter()
        row_keys.job = 1
        results, latency = _stream_days(model, self.cube, self.group_map)
        end = time.perf_counter()
        return Job(batch_end - start, end - start, [latency],
                   {"scores": scores, "anchors": anchors, "investigation": investigation,
                    "results": results})

    def check(self, job: Job) -> List[str]:
        out = job.outputs
        problems = check_ranked_once(out["investigation"], self.cube.users)
        problems += check_stream_matches_batch(
            out["results"], out["scores"], out["anchors"],
            RTOL[self.config.autoencoder.dtype],
        )
        return problems


WORKLOADS = {w.name: w for w in (DetectSmall, IngestReplay, ScoreWide)}
