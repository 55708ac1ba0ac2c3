"""ACOBE: Anomaly detection based on COmpound BEhavior (the paper's core).

* :mod:`repro.core.deviation` -- behavioural deviation math of
  Section IV-A: sliding-history z-scores clamped to +/-Delta, and the
  TF-IDF-inspired feature weights of Eq. (1).
* :mod:`repro.core.representation` -- the unified representation
  pipeline: the combined weighted/normalized value array computed once,
  exposed as zero-copy :class:`~repro.core.representation.MatrixView`
  row sources shared by batch training, scoring and streaming.
* :mod:`repro.core.matrix` -- compound behavioral deviation matrices:
  individual + group blocks across time-frames and a multi-day window,
  flattened and mapped to [0, 1] (now a thin eager wrapper over the
  representation pipeline).
* :mod:`repro.core.critic` -- the anomaly detection critic
  (Algorithm 1): N-th-best-rank voting and the ordered investigation
  list.
* :mod:`repro.core.detector` -- the configurable compound-behaviour
  model and the named model zoo (ACOBE, No-Group, 1-Day, All-in-1,
  Baseline, Base-FF).
* :mod:`repro.core.checkpoint` -- durable streaming: atomic,
  checksummed checkpoint/resume of :class:`StreamingDetector` state
  with bit-identical continuation.
* :mod:`repro.core.pipeline` -- the staged detection pipeline
  (representation -> scoring -> critic), one execution path over all
  users.
"""

from repro.core.checkpoint import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointNotFoundError,
    config_digest,
    load_checkpoint,
    resume_streaming,
    save_checkpoint,
)
from repro.core.critic import InvestigationList, investigation_list, rank_users, rank_votes
from repro.core.critic_advanced import AdvancedCritic, classify_waveform, spike_score
from repro.core.persistence import (
    PersistenceError,
    attach_representation,
    load_model,
    save_model,
)
from repro.core.streaming import (
    DailyResult,
    DegradedDayResult,
    ScoreSummary,
    StreamState,
    StreamingDetector,
)
from repro.core.detector import (
    CompoundBehaviorModel,
    ModelConfig,
    make_acobe,
    make_all_in_one,
    make_base_ff,
    make_baseline,
    make_no_group,
    make_one_day,
)
from repro.core.deviation import (
    DeviationConfig,
    DeviationCube,
    compute_deviations,
    deviate_against_history,
    feature_weights,
    group_means,
)
from repro.core.matrix import CompoundMatrices, build_compound_matrices
from repro.core.pipeline import CriticStage, DetectionPipeline, RepresentationStage
from repro.core.representation import (
    MatrixView,
    RepresentationPipeline,
    aspect_rows,
    compound_values,
)

__all__ = [
    "AdvancedCritic",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointNotFoundError",
    "CompoundBehaviorModel",
    "DailyResult",
    "DegradedDayResult",
    "PersistenceError",
    "ScoreSummary",
    "StreamState",
    "StreamingDetector",
    "attach_representation",
    "classify_waveform",
    "config_digest",
    "load_checkpoint",
    "load_model",
    "resume_streaming",
    "save_checkpoint",
    "save_model",
    "spike_score",
    "CompoundMatrices",
    "CriticStage",
    "DetectionPipeline",
    "DeviationConfig",
    "DeviationCube",
    "InvestigationList",
    "MatrixView",
    "ModelConfig",
    "RepresentationPipeline",
    "RepresentationStage",
    "aspect_rows",
    "build_compound_matrices",
    "compound_values",
    "compute_deviations",
    "deviate_against_history",
    "feature_weights",
    "group_means",
    "investigation_list",
    "make_acobe",
    "make_all_in_one",
    "make_base_ff",
    "make_baseline",
    "make_no_group",
    "make_one_day",
    "rank_users",
    "rank_votes",
]
