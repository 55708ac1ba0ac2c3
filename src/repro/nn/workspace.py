"""Buffer arena for the nn kernels: a recorded plan, replayed per step.

Every full mini-batch step acquires the same scratch buffers
(activations, gradients, loss residuals, BatchNorm statistics) in the
same order.  :class:`Workspace` records that sequence once per *plan
key* and replays it:

* :meth:`Workspace.reset` starts a step under a key -- the training loop
  passes ``(rows, True)`` per mini-batch and ``(rows, False)`` per
  predict chunk, so the final short batch and validation predict each
  get their own plan.
* :meth:`Workspace.acquire` hands out a buffer of the requested shape
  and dtype: recorded by the key's first step, returned by position on
  every later one after a shape/dtype check.  A mismatch allocates a
  replacement for that slot and counts a miss.

Within a step every acquire returns a **distinct** buffer, so call sites
never alias each other.  Contents are *not* cleared: every kernel fully
overwrites them through ``out=``.  A workspace that is never reset never
recycles anything, which is how the layers, losses and optimizers run
when the caller passes none.  :meth:`Workspace.stats` reports misses
(allocations), live and peak bytes.  This module sits *below* every
other nn module (see ``tools/check_layering.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List

import numpy as np

__all__ = ["Workspace", "WorkspaceStats"]


@dataclass(frozen=True)
class WorkspaceStats:
    """A point-in-time snapshot of one :class:`Workspace`'s behaviour."""

    misses: int
    live_bytes: int
    peak_bytes: int
    buffers: int
    plans: int
    generations: int


class Workspace:
    """Scratch buffers recorded per plan key and replayed by index.

    Example:
        >>> ws = Workspace()
        >>> ws.reset((2, True))
        >>> a = ws.acquire((2, 3))
        >>> b = ws.acquire((2, 3))      # distinct buffer, same step
        >>> a is b
        False
        >>> ws.reset((2, True))          # next step with the same key
        >>> ws.acquire((2, 3)) is a      # replayed in acquisition order
        True
    """

    __slots__ = ("_plans", "_plan", "_cursor", "_generation", "_misses",
                 "_live_bytes", "_peak_bytes")

    def __init__(self) -> None:
        self._plans: Dict[Hashable, List[np.ndarray]] = {}
        self._plan: List[np.ndarray] = self._plans.setdefault(None, [])
        self._cursor = 0
        self._generation = 0
        self._misses = 0
        self._live_bytes = 0
        self._peak_bytes = 0

    # ------------------------------------------------------------------
    def reset(self, key: Hashable = None) -> None:
        """Start a new step that replays (or records) the plan for ``key``."""
        self._generation += 1
        self._plan = self._plans.setdefault(key, [])
        self._cursor = 0

    def acquire(self, shape, dtype=np.float64) -> np.ndarray:
        """A scratch buffer of ``shape``/``dtype``, unique this step.

        Contents are undefined: the caller must fully overwrite them.
        """
        if shape.__class__ is not tuple:
            shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
        index = self._cursor
        self._cursor = index + 1
        plan = self._plan
        if index < len(plan):
            buffer = plan[index]
            if buffer.shape == shape and (buffer.dtype is dtype or buffer.dtype == dtype):
                return buffer
            self._live_bytes -= buffer.nbytes  # mismatch: replace the slot
            buffer = plan[index] = np.empty(shape, dtype=dtype)
        else:
            buffer = np.empty(shape, dtype=dtype)
            plan.append(buffer)
        self._misses += 1
        self._live_bytes += buffer.nbytes
        self._peak_bytes = max(self._peak_bytes, self._live_bytes)
        return buffer

    def clear(self) -> None:
        """Drop every recorded plan (frees the memory, keeps counters)."""
        self._plans.clear()
        self._plan = self._plans.setdefault(None, [])
        self._cursor = 0
        self._live_bytes = 0

    # ------------------------------------------------------------------
    def stats(self) -> WorkspaceStats:
        """Allocation and byte counters accumulated since construction."""
        return WorkspaceStats(
            misses=self._misses,
            live_bytes=self._live_bytes,
            peak_bytes=self._peak_bytes,
            buffers=sum(len(plan) for plan in self._plans.values()),
            plans=sum(1 for plan in self._plans.values() if plan),
            generations=self._generation,
        )
