"""Parallel training of per-aspect autoencoder ensembles.

ACOBE's detector trains one autoencoder per behavioural aspect.  The
aspects are independent -- each training run owns its data, its config
and its RNG -- so the ensemble fans out over a
:class:`concurrent.futures.ProcessPoolExecutor` with no shared state.

Determinism is an explicit contract:

* Every :class:`AspectTask` carries a *final* :class:`AutoencoderConfig`
  whose ``seed`` fully determines weight initialization and mini-batch
  shuffling (see :func:`derive_seed` for how the detector derives one
  seed per aspect from the model-level seed).
* Workers never touch a shared RNG, so the result of
  :func:`train_ensemble` is bit-identical for any ``n_jobs`` -- serial
  (``n_jobs=1``), parallel, and the fallback path all produce the same
  weights, the same :class:`TrainingHistory` and therefore the same
  anomaly scores.
* Trained weights travel back from workers through the
  :mod:`repro.nn.serialization` ``.npz`` round-trip
  (:func:`~repro.nn.serialization.network_to_bytes`), which preserves
  every float bit, including BatchNormalization running statistics.

Telemetry (:mod:`repro.obs`) crosses the process boundary the same way:
when the parent's telemetry is enabled, each worker records its own
span tree and metrics into a fresh per-task :class:`~repro.obs.Telemetry`,
serializes the snapshot alongside the weights, and the parent merges
every snapshot back in -- so parallel training is exactly as
inspectable as serial, and merged counters equal the serial run's
(``nn.epochs_total`` etc. are sums of per-task contributions).
Workers inherit the parent's ``run_id`` and continue its trace
(the fork-inherited innermost span becomes their roots' parent), so
one ``trace_id`` grep in a structured log (:mod:`repro.obs.log`)
reconstructs a fan-out across processes.

The pool never has more workers than tasks or than usable cores
(:func:`resolve_n_jobs`), so a one-core host trains serially whatever
``n_jobs`` asks for.  Platforms without the ``fork`` start method (and
sandboxes where process pools cannot be created at all) likewise fall
back to the same-process serial path, which is result-identical by
construction.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.nn.autoencoder import Autoencoder, AutoencoderConfig
from repro.nn.data import input_dim_of, is_row_source, n_samples_of
from repro.nn.network import TrainingHistory
from repro.nn.serialization import network_from_bytes, network_to_bytes
from repro.obs import Telemetry, get_telemetry, set_telemetry

__all__ = [
    "AspectTask",
    "TrainedAspect",
    "derive_seed",
    "resolve_n_jobs",
    "train_ensemble",
]

def derive_seed(base_seed: Optional[int], index: int) -> Optional[int]:
    """Deterministic per-aspect seed from the ensemble-level seed.

    Uses :class:`numpy.random.SeedSequence` with ``index`` as the spawn
    key, so every aspect trains from a statistically independent stream
    while the whole ensemble stays reproducible from one integer.  A
    ``None`` base (explicitly non-deterministic training) stays ``None``.

    The derivation depends only on ``(base_seed, index)`` -- not on
    process identity, scheduling order, or platform -- which is what
    makes parallel training bit-identical to serial.
    """
    if base_seed is None:
        return None
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    sequence = np.random.SeedSequence(base_seed, spawn_key=(index,))
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


@dataclass(frozen=True)
class AspectTask:
    """One self-contained training job: an aspect's data and final config.

    ``config.seed`` must already be the *derived* per-aspect seed; the
    engine does not re-derive so that the task alone fully determines
    the trained weights.

    ``data`` is either a dense ``(n_samples, input_dim)`` matrix or a
    row source (:mod:`repro.nn.data`, e.g. a compound-matrix view) that
    gathers mini-batches lazily; row sources pickle at their compact
    size, so fan-out never ships a materialized training tensor.
    """

    name: str
    data: object  # (n_samples, input_dim) matrix, or a row source
    config: AutoencoderConfig

    def __post_init__(self) -> None:
        if is_row_source(self.data):
            if len(self.data) == 0:
                raise ValueError(f"task {self.name!r} has an empty row source")
            return
        data = np.asarray(self.data)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(
                f"task {self.name!r} needs a non-empty 2-D training matrix, "
                f"got shape {data.shape}"
            )


@dataclass
class TrainedAspect:
    """A trained ensemble member with its loss curves."""

    name: str
    autoencoder: Autoencoder
    history: TrainingHistory


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_n_jobs(n_jobs: Optional[int], n_tasks: int) -> int:
    """Effective worker count: ``n_jobs < 1`` means "all usable cores".

    The result is clamped to ``[1, min(n_tasks, usable_cores())]`` --
    more workers than aspects or than cores only costs fork overhead,
    so on a one-core host the ensemble always trains serially.
    """
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    cores = usable_cores()
    if n_jobs is None:
        n_jobs = 1
    if n_jobs < 1:
        n_jobs = cores
    return max(1, min(n_jobs, n_tasks, cores))


def _train_serial(task: AspectTask, verbose: bool = False) -> TrainedAspect:
    """Train one task in the current process."""
    telemetry = get_telemetry()
    ae = Autoencoder(input_dim=input_dim_of(task.data), config=task.config)
    with telemetry.span(
        "train.aspect",
        aspect=task.name,
        samples=n_samples_of(task.data),
        input_dim=ae.input_dim,
    ) as span:
        history = ae.fit(task.data, verbose=verbose)
        span.annotate(epochs_trained=history.epochs_trained)
    telemetry.counter("train.aspects_total").inc()
    if history.loss:
        telemetry.histogram("train.final_loss").observe(history.loss[-1])
    return TrainedAspect(name=task.name, autoencoder=ae, history=history)


def _train_in_worker(
    task: AspectTask,
) -> Tuple[str, TrainingHistory, bytes, Optional[dict]]:
    """Worker entry point: train and ship weights + telemetry back.

    Module-level so it pickles under every start method.  The weight
    payload is the serialization archive rather than the Autoencoder
    object itself, keeping the IPC surface down to a documented,
    versionable format.  When the parent's telemetry is enabled (the
    state is inherited through ``fork``), the task trains under a fresh
    worker-local :class:`~repro.obs.Telemetry` whose snapshot travels
    back as the fourth element for the parent to merge.
    """
    parent = get_telemetry()
    if not parent.enabled:
        trained = _train_serial(task)
        return task.name, trained.history, network_to_bytes(trained.autoencoder.network), None
    # The worker continues the parent's trace: same run_id, the parent's
    # innermost open span (fork-inherited) becomes the worker roots'
    # parent, and any log events buffer in the snapshot for the parent's
    # sink to drain on merge.
    context = parent.current_context()
    local = Telemetry(
        enabled=True,
        trace_memory=parent.trace_memory,
        run_id=parent.run_id,
        parent_context={k: v for k, v in context.items() if k != "run_id"},
    )
    local.capture_logs = parent.log_sink is not None or parent.capture_logs
    previous = set_telemetry(local)
    try:
        trained = _train_serial(task)
    finally:
        set_telemetry(previous)
    payload = network_to_bytes(trained.autoencoder.network)
    return task.name, trained.history, payload, local.snapshot()


def _rebuild(task: AspectTask, history: TrainingHistory, payload: bytes) -> TrainedAspect:
    """Reconstitute a worker's result in the parent process."""
    ae = Autoencoder(input_dim=input_dim_of(task.data), config=task.config)
    network_from_bytes(ae.network, payload)
    ae._fitted = True  # weights are trained; loading replaces fit()
    return TrainedAspect(name=task.name, autoencoder=ae, history=history)


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or None where unsupported."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def train_ensemble(
    tasks: Sequence[AspectTask],
    n_jobs: Optional[int] = 1,
    verbose: bool = False,
) -> Dict[str, TrainedAspect]:
    """Train every task, optionally across a process pool.

    Args:
        tasks: independent per-aspect training jobs; names must be unique.
        n_jobs: worker processes; 1 trains in-process, values < 1 use
            all usable cores (see :func:`resolve_n_jobs`).  Results are
            bit-identical for every value.
        verbose: per-epoch progress lines (serial path only).

    Returns:
        task name -> :class:`TrainedAspect`, in task order.
    """
    tasks = list(tasks)
    if not tasks:
        return {}
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate task names: {names}")

    telemetry = get_telemetry()
    workers = resolve_n_jobs(n_jobs, len(tasks))
    context = _fork_context()

    def train_all_serial() -> Dict[str, TrainedAspect]:
        return {t.name: _train_serial(t, verbose=verbose) for t in tasks}

    with telemetry.span(
        "parallel.train_ensemble", tasks=len(tasks), n_jobs=workers
    ) as span:
        telemetry.counter("parallel.tasks_total").inc(len(tasks))
        if workers == 1 or context is None:
            # In-process fast path: keeps ``verbose`` and records straight
            # into the parent telemetry (no snapshot round-trip).
            span.annotate(mode="serial")
            return train_all_serial()

        try:
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                futures = [pool.submit(_train_in_worker, task) for task in tasks]
                results = [f.result() for f in futures]
        except (OSError, PermissionError):
            # Sandboxes without working semaphores / process spawning: the
            # serial path is result-identical, so degrade silently.
            span.annotate(mode="serial-fallback")
            return train_all_serial()
        span.annotate(mode="parallel")

        telemetry.gauge("parallel.pool_workers").set(workers)
        trained = {}
        merged = 0
        for task, (name, history, payload, snapshot) in zip(tasks, results):
            trained[name] = _rebuild(task, history, payload)
            if snapshot is not None:
                telemetry.merge(snapshot)
                merged += 1
        telemetry.counter("parallel.snapshots_merged").inc(merged)
        return trained
