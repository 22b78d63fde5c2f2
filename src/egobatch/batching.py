"""Batch plans: how a day of L frames is cut into fixed-size batches.

Every tiling is one `BatchPlan` over a padded copy of the day:
  * `sliding_plan(L, T)`: stride-1 windows of T frames (training batches for
    the windowed recurrent head, and one step per frame for the baseline),
  * `batch_plan(L, n)`: consecutive non-overlapping batches (inference, and
    overlap-free pretraining),
  * `batch_plan(L, n, m)`: batches with stride n - m whose first m positions
    re-take the previous batch's last m frames; the callers that run such
    batches in order replace those positions' recurrent inputs with the
    previous batch's last m recurrent outputs.

Padding never contributes to losses or metrics: a sliding window longer than
the day is left-padded with repeats of the first frame, a batch tiling is
right-padded with repeats of the final frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True, eq=False)
class BatchPlan:
    """Batches of `size` positions at `starts` in a padded copy of one day.

    `source[p]` is the day frame at padded position p and `valid[p]` is False
    where that frame is a padding repeat.
    """

    size: int
    starts: np.ndarray
    source: np.ndarray
    valid: np.ndarray

    def rows(self, array: np.ndarray) -> np.ndarray:
        """The padded copy of a per-frame array."""
        return array[self.source]


def sliding_plan(length: int, timestep: int) -> BatchPlan:
    """Stride-1 windows of `timestep` frames, one per start in [0, L - T].

    A day shorter than the window yields one window left-padded to T.
    """
    if length < 1 or timestep < 1:
        raise ConfigError("length and timestep must be positive")
    pad = max(timestep - length, 0)
    positions = np.arange(length + pad)
    return BatchPlan(size=timestep, starts=np.arange(length + pad - timestep + 1),
                     source=np.maximum(positions - pad, 0), valid=positions >= pad)


def batch_plan(length: int, batch_size: int, overlap: int = 0) -> BatchPlan:
    """Batches of n frames with stride n - m, right-padded to a whole batch.

    The count is 1 when the day fits in one batch, otherwise
    ceil((L - n) / (n - m)) + 1; with m = 0 that is ceil(L / n).
    """
    n, m = batch_size, overlap
    if length < 1 or not 0 <= m < n:
        raise ConfigError(f"need L >= 1 and 0 <= m < n, got L={length} n={n} m={m}")
    stride = n - m
    count = 1 if length <= n else -(-(length - n) // stride) + 1
    positions = np.arange(n + (count - 1) * stride)
    return BatchPlan(size=n, starts=np.arange(count) * stride,
                     source=np.minimum(positions, length - 1), valid=positions < length)
