"""Compound behavioral deviation matrices (Section IV-A, Figure 2).

A compound matrix for user *u* anchored at day *d* stacks four blocks --
individual-behaviour and group-behaviour deviations, each across every
time-frame -- over the ``matrix_days`` window ending at *d*.  The paper
notes the stacking order is irrelevant because matrices are flattened
before entering the autoencoders; we stack ``[individual; group]`` along
the feature axis and flatten in C order.

Values are optionally weighted by Eq. (1) (weights are in (0, 1], so
weighted deviations stay inside [-Delta, Delta]) and finally mapped to
[0, 1] as the paper does before feeding the autoencoders.

**Compatibility wrapper.**  Matrix *values* are owned by the unified
representation layer in :mod:`repro.core.representation`;
:func:`build_compound_matrices` is now a thin shim that builds a
zero-copy :class:`~repro.core.representation.MatrixView` and
materializes it into the eager :class:`CompoundMatrices` container.
Materialization amplifies memory by ~``matrix_days``x, so hot paths
(training, scoring, streaming) use the view directly; keep this wrapper
for small-scale inspection, display, and API stability.  The vectors
are bit-identical to the pre-refactor implementation (pinned by
``tests/core/test_representation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.deviation import DeviationCube
from repro.core.representation import RepresentationPipeline


@dataclass
class CompoundMatrices:
    """Flattened compound matrices for a set of users and anchor days.

    ``vectors[u, j]`` is the flattened matrix of ``users[u]`` anchored at
    ``anchor_days[j]``; its length is
    ``n_blocks * n_features * n_timeframes * matrix_days`` where
    ``n_blocks`` is 2 with group behaviour and 1 without.
    """

    vectors: np.ndarray  # (n_users, n_anchor_days, dim)
    users: List[str]
    anchor_days: List[date]
    feature_names: List[str]
    matrix_days: int
    includes_group: bool

    def __post_init__(self) -> None:
        if self.vectors.ndim != 3:
            raise ValueError(f"vectors must be 3-D, got shape {self.vectors.shape}")
        if self.vectors.shape[0] != len(self.users):
            raise ValueError("vectors/users mismatch")
        if self.vectors.shape[1] != len(self.anchor_days):
            raise ValueError("vectors/anchor_days mismatch")
        self._day_index = {d: i for i, d in enumerate(self.anchor_days)}
        self._user_index = {u: i for i, u in enumerate(self.users)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[2]

    def day_index(self, day: date) -> int:
        try:
            return self._day_index[day]
        except KeyError:
            raise KeyError(f"no matrix anchored at {day}") from None

    def user_index(self, user: str) -> int:
        try:
            return self._user_index[user]
        except KeyError:
            raise KeyError(f"unknown user {user!r}") from None

    def training_set(self) -> np.ndarray:
        """All vectors pooled into a 2-D training matrix."""
        return self.vectors.reshape(-1, self.dim)

    def matrix_of(self, user: str, day: date, n_timeframes: int) -> np.ndarray:
        """Un-flatten one compound matrix back to (blocks*F, T, D) for display."""
        vec = self.vectors[self.user_index(user), self.day_index(day)]
        n_rows = len(self.feature_names) * (2 if self.includes_group else 1)
        return vec.reshape(n_rows, n_timeframes, self.matrix_days)


def build_compound_matrices(
    deviations: DeviationCube,
    anchor_days: Sequence[date],
    matrix_days: int = 30,
    include_group: bool = True,
    apply_weights: bool = True,
    feature_indices: Optional[Sequence[int]] = None,
) -> CompoundMatrices:
    """Assemble flattened compound matrices from a deviation cube.

    This is the eager compatibility path: it materializes every vector
    (~``matrix_days``x the base memory).  Hot paths should build a
    :class:`~repro.core.representation.RepresentationPipeline` once and
    iterate :class:`~repro.core.representation.MatrixView` batches
    instead.

    Args:
        deviations: per-user and per-group deviations.
        anchor_days: the days each matrix ends at; every anchor must have
            ``matrix_days - 1`` deviation days before it.
        matrix_days: the in-matrix window ``D`` (paper: the time window,
            e.g. several days; defaults to 30 like omega).
        include_group: embed the group-behaviour block (ACOBE: yes;
            the No-Group ablation: no).
        apply_weights: multiply deviations by Eq. (1) weights.
        feature_indices: restrict to these feature indices (used to build
            per-aspect matrices); defaults to every feature.

    Returns:
        The flattened matrices, mapped to [0, 1].
    """
    pipeline = RepresentationPipeline.from_deviations(
        deviations, include_group=include_group, apply_weights=apply_weights
    )
    view = pipeline.view(anchor_days, matrix_days, feature_indices=feature_indices)
    return CompoundMatrices(
        vectors=view.materialize(),
        users=view.users,
        anchor_days=view.anchor_days,
        feature_names=view.feature_names,
        matrix_days=matrix_days,
        includes_group=include_group,
    )
