"""The anomaly detection critic (Section IV-C, Algorithm 1).

Given per-aspect anomaly scores, each aspect ranks every user (rank 1 =
most anomalous).  A user's *investigation priority* is its N-th best
(numerically N-th smallest) rank across aspects -- "in how many aspects
is the user top-anomalous": N is the number of votes required.  The
investigation list sorts users by priority ascending; analysts
investigate from the top and may stop at any budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np


def rank_users(scores: Mapping[str, float]) -> Dict[str, int]:
    """1-based competition ranks by descending anomaly score.

    Users with *exactly* equal scores share the same rank (the smallest
    position of the tie group, "1-2-2-4" style).  Preserving ties matters
    for the paper's worst-case evaluation rule -- "if a FP and a TP has
    the same top N-th rank, the FP is listed before the TP" -- which
    :mod:`repro.eval.metrics` applies to tied investigation priorities.
    """
    if not scores:
        raise ValueError("cannot rank an empty score map")
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    ranks: Dict[str, int] = {}
    current_rank = 1
    previous_score = None
    for position, (user, score) in enumerate(ordered, start=1):
        if previous_score is None or score != previous_score:
            current_rank = position
            previous_score = score
        ranks[user] = current_rank
    return ranks


def nth_best_rank(ranks: Sequence[int], n_votes: int) -> int:
    """Algorithm 1's priority: the N-th smallest of a user's ranks."""
    if not ranks:
        raise ValueError("user has no ranks")
    if not 1 <= n_votes <= len(ranks):
        raise ValueError(f"n_votes must be in [1, {len(ranks)}], got {n_votes}")
    return sorted(ranks)[n_votes - 1]


def rank_votes(
    aspect_scores: Mapping[str, Mapping[str, float]],
    n_votes: int,
) -> Dict[str, Tuple[int, Tuple[int, ...]]]:
    """Algorithm 1's shared voting core: rank every aspect, take N-th best.

    The single implementation behind both :func:`investigation_list` and
    :class:`repro.core.critic_advanced.AdvancedCritic` -- each aspect
    ranks its users (:func:`rank_users`), a user's per-aspect ranks are
    gathered in aspect order, and the priority is the N-th smallest
    (:func:`nth_best_rank`).

    Args:
        aspect_scores: aspect name -> (user -> anomaly score).  Every
            aspect must score the same user population.
        n_votes: the critic's N.

    Returns:
        user -> ``(priority, per_aspect_ranks)`` with ranks in aspect
        order.
    """
    if not aspect_scores:
        raise ValueError("need at least one aspect")
    aspect_names = tuple(aspect_scores.keys())
    user_sets = [set(scores) for scores in aspect_scores.values()]
    users = user_sets[0]
    if any(s != users for s in user_sets[1:]):
        raise ValueError("all aspects must score the same users")
    ranks_by_aspect = {name: rank_users(scores) for name, scores in aspect_scores.items()}
    votes: Dict[str, Tuple[int, Tuple[int, ...]]] = {}
    for user in sorted(users):
        ranks = tuple(ranks_by_aspect[name][user] for name in aspect_names)
        votes[user] = (nth_best_rank(ranks, n_votes), ranks)
    return votes


@dataclass(frozen=True)
class InvestigationEntry:
    """One row of the investigation list."""

    user: str
    priority: int
    ranks: Tuple[int, ...]  # per-aspect ranks, in aspect order


@dataclass
class InvestigationList:
    """An ordered list of users to investigate (top = most anomalous)."""

    entries: List[InvestigationEntry]
    n_votes: int
    aspect_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        priorities = [e.priority for e in self.entries]
        if priorities != sorted(priorities):
            raise ValueError("entries must be sorted by priority")

    def users(self) -> List[str]:
        """User ids in investigation order."""
        return [e.user for e in self.entries]

    def priority_of(self, user: str) -> int:
        for entry in self.entries:
            if entry.user == user:
                return entry.priority
        raise KeyError(f"user {user!r} not in investigation list")

    def position_of(self, user: str) -> int:
        """1-based position of a user in the list."""
        for i, entry in enumerate(self.entries):
            if entry.user == user:
                return i + 1
        raise KeyError(f"user {user!r} not in investigation list")

    def top(self, k: int) -> List[str]:
        """The first ``k`` users to investigate."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return self.users()[:k]

    def __len__(self) -> int:
        return len(self.entries)


def investigation_list(
    aspect_scores: Mapping[str, Mapping[str, float]],
    n_votes: int,
) -> InvestigationList:
    """Produce the ordered investigation list from per-aspect scores.

    Args:
        aspect_scores: aspect name -> (user -> anomaly score).  Every
            aspect must score the same user population.
        n_votes: the critic's N (paper: 3, i.e. unanimous across the
            three CERT aspects).

    Returns:
        Users sorted by investigation priority (ties broken by user id).
    """
    votes = rank_votes(aspect_scores, n_votes)
    entries = [
        InvestigationEntry(user=user, priority=priority, ranks=ranks)
        for user, (priority, ranks) in votes.items()
    ]
    entries.sort(key=lambda e: (e.priority, e.user))
    return InvestigationList(
        entries=entries, n_votes=n_votes, aspect_names=tuple(aspect_scores.keys())
    )


def investigation_from_arrays(
    aspect_arrays: Mapping[str, np.ndarray],
    users: Sequence[str],
    n_votes: int,
) -> InvestigationList:
    """:func:`investigation_list` over score arrays aligned with ``users``.

    Args:
        aspect_arrays: aspect name -> ``(n_users,)`` anomaly scores, one
            entry per user in ``users`` order (e.g. one day's column of
            :meth:`~repro.core.detector.CompoundBehaviorModel.score`).
        users: the user ids the arrays are indexed by.
        n_votes: the critic's N.
    """
    aspect_scores = {
        aspect: {user: float(array[i]) for i, user in enumerate(users)}
        for aspect, array in aspect_arrays.items()
    }
    return investigation_list(aspect_scores, n_votes)
