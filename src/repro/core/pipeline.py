"""Staged detection pipeline: representation, then critic.

ACOBE's data plane has three steps (Section IV): build the behavioural
representation, score every user with the per-aspect autoencoders, and
rank the scores with the critic (Algorithm 1).  Scoring is a plain
:meth:`repro.nn.autoencoder.Autoencoder.reconstruction_error` call, so
the drivers make it directly; the two steps with real logic live here::

    RepresentationStage --> Autoencoder.reconstruction_error --> CriticStage

* :class:`RepresentationStage` computes the deviation (the
  :func:`repro.core.deviation.compute_deviations` math) or normalized
  representation of every user and group.
* :class:`CriticStage` turns per-aspect score arrays into Algorithm 1's
  investigation list.

Every stage runs once over all users, in the calling process.  The
per-aspect ensemble *training* fans out over processes in
:mod:`repro.nn.parallel`; nothing here does.

Layering: this module sits below :mod:`repro.core.detector` /
:mod:`repro.core.streaming` (both import it) and must never import
them, nor :mod:`repro.eval` / :mod:`repro.cli` (enforced by
``tools/check_layering.py``).

Telemetry: each stage records one span (``pipeline.representation``,
``pipeline.critic``) through :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from repro.core.critic import InvestigationList, investigation_list
from repro.core.deviation import (
    DeviationConfig,
    DeviationCube,
    compute_deviations,
    group_means,
)
from repro.obs import get_telemetry

__all__ = [
    "CriticStage",
    "DetectionPipeline",
    "RepresentationStage",
]


def _normalize(values: np.ndarray, train_idx: Tuple[int, ...], delta: float) -> np.ndarray:
    """Train-max normalization of each series, mapped onto ``[-delta, delta]``."""
    maxima = values[..., list(train_idx)].max(axis=-1, keepdims=True)
    maxima = np.maximum(maxima, 1.0)
    normalized = np.clip(values / maxima, 0.0, 1.0)
    return (normalized * 2.0 - 1.0) * delta


class RepresentationStage:
    """Builds the behavioural representation of every user and group."""

    def deviation_cube(
        self,
        cube,
        group_map: Mapping[str, str],
        config: DeviationConfig,
    ) -> DeviationCube:
        """:func:`~repro.core.deviation.compute_deviations`, traced as one stage."""
        with get_telemetry().span(
            "pipeline.representation", users=len(cube.users)
        ) as span:
            deviations = compute_deviations(cube, dict(group_map), config)
            span.annotate(days=len(deviations.days), groups=len(deviations.groups))
        return deviations

    def normalized_cube(
        self,
        cube,
        group_map: Mapping[str, str],
        train_days: Sequence,
        delta: float,
    ) -> DeviationCube:
        """Min-max normalized representation (1-Day / Baseline models).

        Each (user, feature, time-frame) series normalizes against its
        own training-day maximum; the group block normalizes the same
        way from the group-mean series.
        """
        train_set = set(train_days)
        train_idx = tuple(i for i, d in enumerate(cube.days) if d in train_set)
        if not train_idx:
            raise ValueError("train_days do not overlap the measurement cube")

        with get_telemetry().span(
            "pipeline.representation",
            users=len(cube.users),
            representation="normalized",
        ):
            sigma = _normalize(cube.values, train_idx, delta)

            groups = sorted({group_map[u] for u in cube.users})
            group_index = {g: i for i, g in enumerate(groups)}
            group_of_user = [group_index[group_map[u]] for u in cube.users]
            group_values = group_means(cube.values, group_of_user, len(groups))
            group_sigma = _normalize(group_values, train_idx, delta)

        # window=2 is a placeholder: no history is consumed in this
        # representation, so every cube day stays addressable.
        config = DeviationConfig(window=2, delta=delta)
        return DeviationCube(
            sigma=sigma,
            weights=np.ones_like(sigma),
            users=list(cube.users),
            feature_set=cube.feature_set,
            timeframes=cube.timeframes,
            days=list(cube.days),
            config=config,
            groups=groups,
            group_of_user=group_of_user,
            group_sigma=group_sigma,
            group_weights=np.ones_like(group_sigma),
        )


class CriticStage:
    """Ranks per-aspect scores into Algorithm 1's investigation list."""

    def investigate(
        self,
        aspect_arrays: Mapping[str, np.ndarray],
        users: Sequence[str],
        n_votes: int,
    ) -> InvestigationList:
        """Rank the scores: aspect -> ``(n_users,)`` array.

        The critic is inherently global -- ranks compare every user --
        and this stage is the one entry point (and telemetry surface)
        batch and streaming drivers share into Algorithm 1.
        """
        with get_telemetry().span(
            "pipeline.critic", aspects=len(aspect_arrays), users=len(users)
        ):
            aspect_scores = {
                aspect: {user: float(array[i]) for i, user in enumerate(users)}
                for aspect, array in aspect_arrays.items()
            }
            return investigation_list(aspect_scores, n_votes)


class DetectionPipeline:
    """The staged engine behind every driver.

    Batch (:class:`~repro.core.detector.CompoundBehaviorModel`),
    streaming (:class:`~repro.core.streaming.StreamingDetector`) and
    evaluation (:func:`repro.eval.experiments.run_model`) are thin
    drivers over these stages.
    """

    def __init__(self) -> None:
        self.representation = RepresentationStage()
        self.critic = CriticStage()
