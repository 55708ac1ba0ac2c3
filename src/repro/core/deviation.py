"""Behavioural deviation math (Section IV-A).

For feature ``f`` in time-frame ``t`` on day ``d``::

    h[f,t,d]     = [ m[f,t,i] | d-w+1 <= i < d ]          # w-1 history days
    std(h)       = max(standard-deviation(h), eps)
    delta[f,t,d] = (m[f,t,d] - mean(h)) / std(h)
    sigma[f,t,d] = clamp(delta[f,t,d], -Delta, +Delta)

and the TF-IDF-inspired feature weight of Eq. (1)::

    w[f,t,d] = 1 / log2(max(std(h), 2))

so chaotic features (large std) are scaled down while consistent
features keep weight 1.  The sliding history means a user who slowly
shifts behaviour does not accumulate deviation ("white tails" in
Figure 4), and the weight is bounded to 1 so static features cannot
explode.

All functions operate on arrays whose *last axis is days* and are fully
vectorized with sliding windows.  The 1-Day / Baseline models use
:func:`normalized_deviations` -- a train-max normalization -- in place of
:func:`compute_deviations`; both return a :class:`DeviationCube`.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.features.measurements import MeasurementCube
from repro.features.spec import FeatureSet
from repro.utils.timeutil import TimeFrame


@dataclass(frozen=True)
class DeviationConfig:
    """Parameters of the deviation computation.

    Attributes:
        window: the paper's ``omega`` -- deviations on day d use the
            w-1 preceding days as history (paper: 30 for CERT, 14 for
            the enterprise case study).
        delta: the clamp bound ``Delta`` (paper: 3; variances beyond
            3 sigma are "equivalently very abnormal").
        epsilon: the std floor avoiding divide-by-zero.
        ddof: delta-degrees-of-freedom for the history std (0 matches
            numpy/TF defaults).
    """

    window: int = 30
    delta: float = 3.0
    epsilon: float = 1e-6
    ddof: int = 0

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window must be >= 2 (needs history), got {self.window}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.ddof not in (0, 1):
            raise ValueError(f"ddof must be 0 or 1, got {self.ddof}")

    @property
    def history_days(self) -> int:
        """Number of history days (w - 1)."""
        return self.window - 1


def sliding_history_stats(
    measurements: np.ndarray, config: DeviationConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and floored std of each day's history window.

    Args:
        measurements: array ``(..., n_days)``.

    Returns:
        ``(mean, std)`` of shape ``(..., n_days - history)`` where entry
        ``j`` holds the statistics of the history of input day
        ``j + history``.  ``std`` is floored at ``config.epsilon``.
    """
    measurements = np.asarray(measurements, dtype=np.float64)
    history = config.history_days
    if measurements.shape[-1] <= history:
        raise ValueError(
            f"need more than {history} days of measurements, got {measurements.shape[-1]}"
        )
    windows = sliding_window_view(measurements, history, axis=-1)
    # Window j covers input days [j, j+history-1] == history of day j+history;
    # drop the final window (it would be the history of day n_days, which
    # does not exist).
    windows = windows[..., :-1, :]
    mean = windows.mean(axis=-1)
    std = windows.std(axis=-1, ddof=config.ddof)
    std = np.maximum(std, config.epsilon)
    return mean, std


def deviation_series(
    measurements: np.ndarray, config: DeviationConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Clamped deviations and weights for every day with full history.

    Args:
        measurements: array ``(..., n_days)``.

    Returns:
        ``(sigma, weights)``, each ``(..., n_days - history)``; output
        day ``j`` corresponds to input day ``j + history``.
    """
    measurements = np.asarray(measurements, dtype=np.float64)
    history = config.history_days
    mean, std = sliding_history_stats(measurements, config)
    current = measurements[..., history:]
    delta = (current - mean) / std
    sigma = np.clip(delta, -config.delta, config.delta)
    weights = feature_weights(std)
    return sigma, weights


def feature_weights(history_std: np.ndarray) -> np.ndarray:
    """Eq. (1): ``w = 1 / log2(max(std, 2))`` -- in (0, 1]."""
    history_std = np.asarray(history_std, dtype=np.float64)
    return 1.0 / np.log2(np.maximum(history_std, 2.0))


def deviate_against_history(
    current: np.ndarray, history: np.ndarray, config: DeviationConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """One day's clamped deviation and Eq. (1) weight from an explicit history.

    This is the single-day counterpart of :func:`deviation_series`: the
    caller supplies the ``window - 1`` history days as the *last axis* of
    ``history`` (e.g. a streaming detector's rolling buffer) instead of a
    full series.  The math is identical -- mean/floored-std over the
    history, z-score, clamp to ±Delta.

    Args:
        current: the day's measurements ``(...,)``.
        history: history stack ``(..., n_history)``.

    Returns:
        ``(sigma, weights)`` with the shape of ``current``.
    """
    history = np.asarray(history, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    mean = history.mean(axis=-1)
    std = np.maximum(history.std(axis=-1, ddof=config.ddof), config.epsilon)
    sigma = np.clip((current - mean) / std, -config.delta, config.delta)
    return sigma, feature_weights(std)


def group_means(values: np.ndarray, group_of_user: Sequence[int], n_groups: int) -> np.ndarray:
    """Per-group mean behaviour: average ``values`` over each group's members.

    The single shared implementation of the "group average" used by the
    batch deviation path (:func:`compute_deviations`), the normalized
    representation and the streaming detector.  Only the group axis is
    looped (groups are few -- departments); each member-mean is one
    vectorized reduction, and member selection is in ascending user
    order so results are bit-identical to ``values[members].mean(axis=0)``.

    Args:
        values: array ``(n_users, ...)``.
        group_of_user: group index of each user, aligned with axis 0.
        n_groups: number of groups; every group must have >= 1 member.

    Returns:
        Array ``(n_groups, ...)`` of member means.
    """
    values = np.asarray(values)
    group_of_user = np.asarray(group_of_user)
    if group_of_user.ndim != 1 or group_of_user.shape[0] != values.shape[0]:
        raise ValueError(
            f"group_of_user must align with the user axis: "
            f"{group_of_user.shape} vs {values.shape[0]} users"
        )
    if n_groups < 1:
        raise ValueError(f"n_groups must be >= 1, got {n_groups}")
    out = np.empty((n_groups,) + values.shape[1:], dtype=np.float64)
    for g in range(n_groups):
        members = np.flatnonzero(group_of_user == g)
        if members.size == 0:
            raise ValueError(f"group {g} has no members")
        out[g] = values[members].mean(axis=0)
    return out


def normalize_to_unit(sigma: np.ndarray, delta: float) -> np.ndarray:
    """Map deviations from [-Delta, Delta] to [0, 1] (Section V)."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return (np.asarray(sigma, dtype=np.float64) + delta) / (2.0 * delta)


@dataclass
class DeviationCube:
    """Deviations + weights aligned to a (shortened) day axis.

    ``sigma``/``weights`` have shape
    ``(n_users, n_features, n_timeframes, n_days)`` where ``days`` are
    the input days with full history (the first ``window - 1`` input
    days are consumed as history).  ``group_sigma``/``group_weights``
    hold the deviations of each *group's average behaviour* with shape
    ``(n_groups, F, T, D)``.
    """

    sigma: np.ndarray
    weights: np.ndarray
    users: List[str]
    feature_set: FeatureSet
    timeframes: Sequence[TimeFrame]
    days: List[date]
    config: DeviationConfig
    groups: List[str]
    group_of_user: List[int]  # index into groups, aligned with users
    group_sigma: np.ndarray
    group_weights: np.ndarray

    def __post_init__(self) -> None:
        expected = (len(self.users), len(self.feature_set), len(self.timeframes), len(self.days))
        if self.sigma.shape != expected:
            raise ValueError(f"sigma shape {self.sigma.shape} != {expected}")
        if self.weights.shape != expected:
            raise ValueError(f"weights shape {self.weights.shape} != {expected}")
        g_expected = (len(self.groups),) + expected[1:]
        if self.group_sigma.shape != g_expected:
            raise ValueError(f"group_sigma shape {self.group_sigma.shape} != {g_expected}")
        if len(self.group_of_user) != len(self.users):
            raise ValueError("group_of_user must align with users")
        self._day_index = {d: i for i, d in enumerate(self.days)}
        self._user_index = {u: i for i, u in enumerate(self.users)}

    def has_day(self, day: date) -> bool:
        """Whether ``day`` has a deviation value (i.e. full history)."""
        return day in self._day_index

    def day_index(self, day: date) -> int:
        try:
            return self._day_index[day]
        except KeyError:
            raise KeyError(f"day {day} has no deviation (insufficient history?)") from None

    def user_index(self, user: str) -> int:
        try:
            return self._user_index[user]
        except KeyError:
            raise KeyError(f"unknown user {user!r}") from None


def _assign_groups(users: Sequence[str], group_map: dict) -> Tuple[List[str], List[int]]:
    """The sorted group names and each user's index into them."""
    groups = sorted({group_map[u] for u in users})
    group_index = {g: i for i, g in enumerate(groups)}
    return groups, [group_index[group_map[u]] for u in users]


def compute_deviations(
    cube: MeasurementCube,
    group_map: Optional[dict] = None,
    config: Optional[DeviationConfig] = None,
) -> DeviationCube:
    """Compute individual and group deviations from a measurement cube.

    Group behaviour is the *average of the corresponding features of all
    users in the group* (Section IV-A); its deviations are derived from
    that averaged series with the same sliding-history math.

    Args:
        cube: raw measurements.
        group_map: user id -> group name; defaults to one global group.
        config: deviation parameters.
    """
    config = config or DeviationConfig()
    group_map = group_map or {u: "all" for u in cube.users}
    missing = [u for u in cube.users if u not in group_map]
    if missing:
        raise ValueError(f"group_map missing users: {missing[:5]}")

    sigma, weights = deviation_series(cube.values, config)
    days = list(cube.days[config.history_days :])

    groups, group_of_user = _assign_groups(cube.users, group_map)
    group_values = group_means(cube.values, group_of_user, len(groups))
    group_sigma, group_weights = deviation_series(group_values, config)

    return DeviationCube(
        sigma=sigma,
        weights=weights,
        users=list(cube.users),
        feature_set=cube.feature_set,
        timeframes=cube.timeframes,
        days=days,
        config=config,
        groups=groups,
        group_of_user=group_of_user,
        group_sigma=group_sigma,
        group_weights=group_weights,
    )


def _train_max_normalize(
    values: np.ndarray, train_idx: Tuple[int, ...], delta: float
) -> np.ndarray:
    """Train-max normalization of each series, mapped onto ``[-delta, delta]``."""
    maxima = values[..., list(train_idx)].max(axis=-1, keepdims=True)
    maxima = np.maximum(maxima, 1.0)
    normalized = np.clip(values / maxima, 0.0, 1.0)
    return (normalized * 2.0 - 1.0) * delta


def normalized_deviations(
    cube: MeasurementCube,
    group_map: dict,
    train_days: Sequence[date],
    delta: float,
) -> DeviationCube:
    """Min-max normalized representation (1-Day / Baseline models).

    Each (user, feature, time-frame) series normalizes against its own
    training-day maximum; the group block normalizes the same way from
    the group-mean series.  No history is consumed, so every cube day
    stays addressable.
    """
    train_set = set(train_days)
    train_idx = tuple(i for i, d in enumerate(cube.days) if d in train_set)
    if not train_idx:
        raise ValueError("train_days do not overlap the measurement cube")

    sigma = _train_max_normalize(cube.values, train_idx, delta)

    groups, group_of_user = _assign_groups(cube.users, group_map)
    group_values = group_means(cube.values, group_of_user, len(groups))
    group_sigma = _train_max_normalize(group_values, train_idx, delta)

    # window=2 is a placeholder: no history is consumed in this
    # representation.
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
