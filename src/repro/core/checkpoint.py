"""Durable checkpoints for :class:`~repro.core.streaming.StreamingDetector`.

ACOBE's streaming mode is a long-lived daily service; its rolling
per-user/per-group buffers are the only state that cannot be recomputed
from the (immutable) trained model.  This module persists that state so
a crash, OOM, or host migration costs nothing: **kill after day k,
resume, and days k+1..n produce scores bit-identical to an
uninterrupted run** (pinned by ``tests/core/test_checkpoint_property.py``
and the golden-file integration test).

Layout of a checkpoint directory (version 2)::

    <directory>/
      state_shard_000.npz  # per-user rolling arrays (history, deviations)
      state_groups.npz     # per-group rolling arrays
      manifest.json        # schema + version, day cursor, users/groups,
                           # slab table, config digest, degradation
                           # counters, per-file checksums

:func:`save_checkpoint` always writes this layout with one user slab.
:func:`load_checkpoint` also reads what older builds wrote: version-2
directories whose manifest lists several user slabs (each a contiguous
user range; they are concatenated back in index order, which restores
the arrays bit-for-bit) and version-1 directories holding a single
``state.npz``.

Durability design, in order of defence:

* **Atomic writes** -- every file goes through
  :func:`repro.core.persistence.atomic_write_bytes` (write temp, fsync,
  ``os.replace``), so a crash mid-save leaves the previous checkpoint
  intact.
* **Manifest-last commit** -- the state files are written before
  ``manifest.json``; a directory is a checkpoint only once its manifest
  exists, so a partially written directory is detected, not half-read.
* **Content checksums** -- the manifest records the SHA-256 of every
  state file; bit rot and truncation surface as
  :class:`CheckpointCorruptionError`, never as a NumPy stack trace.  So
  does a manifest that parses as JSON but has a malformed field.
* **Config digest** -- the manifest pins a digest of the model's
  :class:`~repro.core.detector.ModelConfig`; resuming against a model
  with different windows/weights raises :class:`CheckpointMismatchError`
  instead of silently mixing incompatible math.
* **Retry with backoff** -- transient I/O errors (network filesystems,
  busy volumes) are retried with exponential backoff; each retry is
  counted on the ``checkpoint.retries`` telemetry counter.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
import zipfile
from dataclasses import asdict
from datetime import date
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, TypeVar, Union

import numpy as np

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.persistence import atomic_write_bytes, atomic_write_json, file_sha256
from repro.core.streaming import StreamingDetector, StreamState
from repro.obs import get_telemetry

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointNotFoundError",
    "GROUP_STATE_FILE",
    "LoadedCheckpoint",
    "STATE_FILE",
    "USER_STATE_FILE",
    "config_digest",
    "load_checkpoint",
    "resume_streaming",
    "save_checkpoint",
]

CHECKPOINT_SCHEMA = "acobe.stream_checkpoint"
CHECKPOINT_VERSION = 2

MANIFEST_FILE = "manifest.json"
#: Legacy version-1 single-slab state file (still readable).
STATE_FILE = "state.npz"
#: Version-2 per-user rolling arrays (the one slab this build writes).
USER_STATE_FILE = "state_shard_000.npz"
#: Version-2 per-group rolling arrays.
GROUP_STATE_FILE = "state_groups.npz"

#: Patchable sleep for the retry loop (tests stub it out).
_SLEEP: Callable[[float], None] = time.sleep

_T = TypeVar("_T")


class CheckpointError(RuntimeError):
    """Base class for every checkpoint failure."""


class CheckpointNotFoundError(CheckpointError, FileNotFoundError):
    """No committed checkpoint exists at the given directory."""


class CheckpointCorruptionError(CheckpointError):
    """A checkpoint exists but fails checksum/structure validation."""


class CheckpointMismatchError(CheckpointError):
    """A valid checkpoint does not belong to the resuming model."""


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def config_digest(config: ModelConfig) -> str:
    """A stable hex digest of a model configuration.

    Two models share a digest iff their *numerically relevant*
    configurations are equal; the digest is what ties a checkpoint to
    the model that produced it (weights are covered transitively --
    training is deterministic in the config, see
    :mod:`repro.nn.parallel`).

    ``n_jobs`` stays in the digest for compatibility with already
    written checkpoints (changing it would orphan them).  The
    autoencoder ``dtype`` stays in too: float32 and float64 runs are
    *not* numerically interchangeable.
    """
    doc = asdict(config)
    canonical = json.dumps(doc, sort_keys=True, default=list)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _with_retries(
    operation: Callable[[], _T],
    what: str,
    retries: int,
    backoff: float,
) -> _T:
    """Run ``operation``, retrying transient ``OSError`` with backoff.

    ``retries`` counts *additional* attempts after the first; each one
    increments the ``checkpoint.retries`` telemetry counter.  The final
    failure is re-raised as :class:`CheckpointError` chained to the
    underlying ``OSError``.
    """
    telemetry = get_telemetry()
    delay = backoff
    last: Optional[OSError] = None
    for attempt in range(retries + 1):
        if attempt:
            telemetry.counter("checkpoint.retries").inc()
            _SLEEP(delay)
            delay *= 2.0
        try:
            return operation()
        except OSError as exc:
            last = exc
    raise CheckpointError(
        f"{what} still failing after {retries + 1} attempt(s): {last}"
    ) from last


def _npz_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _user_state_bytes(state: StreamState) -> bytes:
    """Serialize the per-user rolling arrays."""
    arrays: Dict[str, np.ndarray] = {}
    for i, slab in enumerate(state.history):
        arrays[f"history_{i}"] = slab
    for i, (sigma, weight) in enumerate(state.sigma_buffer):
        arrays[f"sigma_{i}"] = sigma
        arrays[f"sigweight_{i}"] = weight
    return _npz_bytes(arrays)


def _group_state_bytes(state: StreamState) -> bytes:
    """Serialize the per-group rolling arrays."""
    arrays: Dict[str, np.ndarray] = {}
    for i, (sigma, weight) in enumerate(state.group_sigma_buffer):
        arrays[f"gsigma_{i}"] = sigma
        arrays[f"gweight_{i}"] = weight
    return _npz_bytes(arrays)


def _read_state_file(path: Path, keys: Sequence[str]) -> Dict[str, np.ndarray]:
    """The named float64 arrays of one state archive, with typed errors."""
    try:
        with np.load(path) as archive:
            return {key: np.asarray(archive[key], dtype=np.float64) for key in keys}
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError, OSError) as exc:
        raise CheckpointCorruptionError(
            f"unreadable checkpoint state {path}: {exc}"
        ) from exc


def _manifest_field(manifest_path: Path, name: str, parse: Callable[[], _T]) -> _T:
    """Parse one manifest field; a malformed value is checkpoint corruption."""
    try:
        return parse()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorruptionError(
            f"malformed checkpoint manifest {manifest_path}: field {name!r} "
            f"is invalid ({type(exc).__name__}: {exc})"
        ) from exc


# ---------------------------------------------------------------------------
# Save / load / resume
# ---------------------------------------------------------------------------


def save_checkpoint(
    stream: StreamingDetector,
    directory: Union[str, Path],
    retries: int = 2,
    backoff: float = 0.05,
    extra_files: Optional[Mapping[str, bytes]] = None,
    extra_manifest: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Atomically persist a stream's full rolling state.

    Safe to call after every observed day: each save replaces the
    previous checkpoint only at its final ``os.replace``, so the
    directory always holds one complete, committed checkpoint.

    Args:
        stream: the detector whose state to persist.
        directory: checkpoint directory (created if missing).
        retries: extra attempts per file on transient ``OSError``.
        backoff: initial retry delay in seconds (doubles per retry).
        extra_files: sidecar payloads a caller wants committed with the
            same durability guarantees (e.g. the ingest cursor).  Each
            filename must be a plain ``state*``-prefixed name; payloads
            are written atomically *before* the manifest, checksummed in
            it, and verified by :func:`load_checkpoint`.
        extra_manifest: additional top-level manifest entries (e.g. a
            dataset binding); keys must not collide with the core
            checkpoint fields.

    Returns:
        The checkpoint directory.
    """
    directory = Path(directory)
    extra_files = dict(extra_files or {})
    for filename in extra_files:
        if "/" in filename or "\\" in filename or not filename.startswith("state"):
            raise ValueError(
                f"extra checkpoint file {filename!r} must be a plain filename "
                "starting with 'state' (stale-file cleanup tracks that prefix)"
            )
        if filename in (STATE_FILE, GROUP_STATE_FILE, MANIFEST_FILE) or filename.startswith(
            "state_shard_"
        ):
            raise ValueError(f"extra checkpoint file {filename!r} collides with a core file")
    _CORE_MANIFEST_KEYS = {
        "schema", "version", "config_digest", "last_day", "users", "groups",
        "group_map", "on_bad_day", "shards", "group_file", "counts",
        "counters", "checksums",
    }
    for key in extra_manifest or {}:
        if key in _CORE_MANIFEST_KEYS:
            raise ValueError(f"extra_manifest key {key!r} collides with a core manifest field")
    telemetry = get_telemetry()
    with telemetry.span("checkpoint.save", directory=str(directory)) as span:
        state = stream.export_state()
        payloads = {
            USER_STATE_FILE: _user_state_bytes(state),
            GROUP_STATE_FILE: _group_state_bytes(state),
        }
        payloads.update((name, extra_files[name]) for name in sorted(extra_files))

        checksums: Dict[str, str] = {}
        total_bytes = 0
        for filename, payload in payloads.items():
            path = directory / filename
            _with_retries(
                lambda path=path, payload=payload: atomic_write_bytes(path, payload),
                f"writing {path}",
                retries,
                backoff,
            )
            checksums[filename] = hashlib.sha256(payload).hexdigest()
            total_bytes += len(payload)

        manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "version": CHECKPOINT_VERSION,
            "config_digest": config_digest(stream.model.config),
            "last_day": state.last_day.isoformat() if state.last_day else None,
            "users": list(stream.users),
            "groups": list(stream.groups),
            "group_map": dict(stream.group_map),
            "on_bad_day": stream.on_bad_day,
            "shards": [
                {"index": 0, "start": 0, "stop": len(stream.users), "file": USER_STATE_FILE}
            ],
            "group_file": GROUP_STATE_FILE,
            "counts": {
                "history": len(state.history),
                "sigma": len(state.sigma_buffer),
                "group_sigma": len(state.group_sigma_buffer),
            },
            "counters": {
                "days_observed": state.days_observed,
                "days_quarantined": state.days_quarantined,
                "days_imputed": state.days_imputed,
                "values_imputed": state.values_imputed,
            },
            "checksums": checksums,
        }
        for key, value in (extra_manifest or {}).items():
            manifest[key] = value
        _with_retries(
            lambda: atomic_write_json(directory / MANIFEST_FILE, manifest),
            f"writing {directory / MANIFEST_FILE}",
            retries,
            backoff,
        )
        # Post-commit cleanup: drop state files the new manifest does not
        # reference (a legacy v1 state.npz, the extra user slabs of an
        # older multi-slab layout, or extra sidecars from a previous
        # caller).  The load path ignores them, but leaving them would
        # let the fault drills corrupt a file nobody reads.
        expected = set(checksums)
        for stale in directory.glob("state*"):
            if stale.name not in expected:
                stale.unlink(missing_ok=True)
        telemetry.counter("checkpoint.saves").inc()
        span.annotate(
            bytes=total_bytes,
            history_days=len(state.history),
            last_day=manifest["last_day"],
        )
    return directory


class LoadedCheckpoint:
    """A validated checkpoint: manifest fields + the restored state."""

    def __init__(self, manifest: Dict[str, Any], state: StreamState):
        self.manifest = manifest
        self.state = state

    @property
    def last_day(self) -> Optional[date]:
        return self.state.last_day

    @property
    def users(self) -> list:
        return list(self.manifest["users"])

    @property
    def group_map(self) -> Dict[str, str]:
        return dict(self.manifest["group_map"])

    @property
    def config_digest(self) -> str:
        return self.manifest["config_digest"]


def load_checkpoint(
    directory: Union[str, Path],
    retries: int = 2,
    backoff: float = 0.05,
) -> LoadedCheckpoint:
    """Load and validate a checkpoint written by :func:`save_checkpoint`.

    Reads every layout this module has written: version 2 with one or
    more user slabs plus a group slab, and the legacy version-1 single
    ``state.npz``.

    Raises:
        CheckpointNotFoundError: no committed manifest at ``directory``
            (including the partially-written case where only state
            files made it to disk).
        CheckpointCorruptionError: manifest unreadable or with a
            malformed field, state file missing, checksum mismatch, or
            archive truncated/corrupt.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.exists():
        detail = ""
        if any(directory.glob("state*.npz")):
            detail = (
                " (state files exist without a manifest: the checkpoint "
                "was never committed -- treat it as absent)"
            )
        raise CheckpointNotFoundError(f"no checkpoint manifest at {directory}{detail}")

    def read_manifest() -> str:
        return manifest_path.read_text()

    raw = _with_retries(read_manifest, f"reading {manifest_path}", retries, backoff)
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptionError(
            f"corrupt checkpoint manifest {manifest_path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise CheckpointCorruptionError(
            f"corrupt checkpoint manifest {manifest_path}: not a JSON object"
        )
    if manifest.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointCorruptionError(
            f"{manifest_path} is not a stream checkpoint "
            f"(schema={manifest.get('schema')!r})"
        )

    def field(name: str, parse: Callable[[], _T]) -> _T:
        return _manifest_field(manifest_path, name, parse)

    version = field("version", lambda: int(manifest.get("version", 0)))
    if version > CHECKPOINT_VERSION:
        raise CheckpointMismatchError(
            f"checkpoint version {version} is newer than "
            f"this build supports ({CHECKPOINT_VERSION}); upgrade before resuming"
        )
    counts_doc = field("counts", lambda: dict(manifest.get("counts", {})))
    counts = {
        name: field(f"counts.{name}", lambda name=name: int(counts_doc.get(name, 0)))
        for name in ("history", "sigma", "group_sigma")
    }
    counters_doc = field("counters", lambda: dict(manifest.get("counters", {})))
    counters = {
        name: field(f"counters.{name}", lambda name=name: int(counters_doc.get(name, 0)))
        for name in ("days_observed", "days_quarantined", "days_imputed", "values_imputed")
    }
    last_day = field(
        "last_day",
        lambda: date.fromisoformat(manifest["last_day"]) if manifest.get("last_day") else None,
    )
    checksums = field("checksums", lambda: dict(manifest.get("checksums", {})))
    if version <= 1:
        state_files = [STATE_FILE]
    else:
        user_files = field(
            "shards",
            lambda: [
                str(entry["file"])
                for entry in sorted(manifest.get("shards", []), key=lambda e: int(e["index"]))
            ],
        )
        if not user_files:
            raise CheckpointCorruptionError(
                f"version-2 checkpoint at {directory} lists no user slabs in its manifest"
            )
        group_file = field("group_file", lambda: str(manifest.get("group_file", GROUP_STATE_FILE)))
        state_files = user_files + [group_file]

    # Verify every checksummed file, core and sidecar alike: the manifest
    # is the commit record, so anything it checksums must be present and
    # intact for the checkpoint to count as valid.
    extra_files = [name for name in sorted(checksums) if name not in state_files]
    for filename in state_files + extra_files:
        file_path = directory / filename
        if not file_path.exists():
            raise CheckpointCorruptionError(
                f"partially written checkpoint at {directory}: manifest present "
                f"but {filename} is missing"
            )
        expected = checksums.get(filename)
        actual = _with_retries(
            lambda file_path=file_path: file_sha256(file_path),
            f"hashing {file_path}",
            retries,
            backoff,
        )
        if expected != actual:
            raise CheckpointCorruptionError(
                f"checksum mismatch for {file_path}: manifest says {expected}, "
                f"file hashes to {actual} -- the checkpoint is corrupt "
                "(truncated write or bit rot)"
            )

    user_keys = [f"history_{i}" for i in range(counts["history"])] + [
        key for i in range(counts["sigma"]) for key in (f"sigma_{i}", f"sigweight_{i}")
    ]
    group_keys = [
        key for i in range(counts["group_sigma"]) for key in (f"gsigma_{i}", f"gweight_{i}")
    ]
    if version <= 1:
        arrays = _read_state_file(directory / STATE_FILE, user_keys + group_keys)
    else:
        # User slabs partition the user axis in index order, so joining
        # them restores the saved arrays bit-for-bit.
        slabs = [_read_state_file(directory / name, user_keys) for name in user_files]
        arrays = {
            key: np.concatenate([slab[key] for slab in slabs], axis=0) for key in user_keys
        }
        arrays.update(_read_state_file(directory / group_file, group_keys))

    state = StreamState(
        history=[arrays[f"history_{i}"] for i in range(counts["history"])],
        sigma_buffer=[
            (arrays[f"sigma_{i}"], arrays[f"sigweight_{i}"]) for i in range(counts["sigma"])
        ],
        group_sigma_buffer=[
            (arrays[f"gsigma_{i}"], arrays[f"gweight_{i}"])
            for i in range(counts["group_sigma"])
        ],
        last_day=last_day,
        **counters,
    )
    get_telemetry().counter("checkpoint.loads").inc()
    return LoadedCheckpoint(manifest, state)


def resume_streaming(
    model: CompoundBehaviorModel,
    directory: Union[str, Path],
    on_bad_day: Optional[str] = None,
    retries: int = 2,
    backoff: float = 0.05,
    checkpoint: Optional[LoadedCheckpoint] = None,
    expected_manifest: Optional[Mapping[str, Any]] = None,
) -> StreamingDetector:
    """Rebuild a :class:`StreamingDetector` from a checkpoint.

    The detector continues exactly where the checkpointed stream
    stopped: same users, groups, rolling buffers and day cursor, so the
    next :meth:`~StreamingDetector.observe_day` call scores the day
    after ``checkpoint.last_day`` bit-identically to a stream that
    never died.

    Args:
        model: the fitted model the original stream wrapped (reload it
            with :func:`repro.core.persistence.load_model` +
            :func:`~repro.core.persistence.attach_representation`).
        directory: the checkpoint directory.
        on_bad_day: override the degradation policy; defaults to the
            policy recorded in the checkpoint.
        checkpoint: an already-loaded checkpoint for ``directory`` (so a
            caller that needs the manifest, e.g. the ingest resume path,
            does not load and verify twice).
        expected_manifest: top-level manifest entries that must match the
            checkpoint if it recorded them -- e.g. the dataset binding
            the CLI stores alongside the config digest.  A key absent
            from the checkpoint (legacy save) is tolerated; a present
            key with a different value raises.

    Raises:
        CheckpointMismatchError: the checkpoint belongs to a model with
            a different configuration, or an ``expected_manifest`` entry
            conflicts with what the checkpoint recorded.
    """
    if checkpoint is None:
        checkpoint = load_checkpoint(directory, retries=retries, backoff=backoff)
    digest = config_digest(model.config)
    if digest != checkpoint.config_digest:
        raise CheckpointMismatchError(
            f"checkpoint at {directory} was written by a model with config "
            f"digest {checkpoint.config_digest[:12]}..., but the resuming "
            f"model digests to {digest[:12]}... -- resuming would mix "
            "incompatible deviation math"
        )
    for key, wanted in (expected_manifest or {}).items():
        recorded = checkpoint.manifest.get(key)
        if recorded is not None and recorded != wanted:
            raise CheckpointMismatchError(
                f"checkpoint at {directory} was written with {key}={recorded!r}, "
                f"but this run expects {key}={wanted!r} -- resuming would feed "
                "different data into the same rolling state"
            )
    policy = on_bad_day or checkpoint.manifest.get("on_bad_day", "strict")
    stream = StreamingDetector(
        model,
        checkpoint.users,
        checkpoint.group_map,
        on_bad_day=policy,
    )
    stream.restore_state(checkpoint.state)
    get_telemetry().counter("checkpoint.resumes").inc()
    return stream
