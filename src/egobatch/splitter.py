"""Dataset splitting: FFD bin packing of day sequences, exhaustive subset
enumeration, and Bhattacharyya-distance split selection.

Whole days are assigned to bins of similar frame counts; the test bins are
the subset whose category distribution (together with the remaining pool's)
is closest to the whole-dataset distribution, and the validation bins are
chosen from the remainder by the same criterion. Bin counts are small by
construction, so plain exhaustive enumeration is exact and fast.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations as _combinations
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .datamodel import Dataset, category_distribution
from .errors import ConfigError, DataError, PackingError


@dataclass
class Bin:
    """Sequences grouped to a similar total frame count."""

    sequence_ids: list
    total_frames: int


@dataclass
class SplitResult:
    """Disjoint bin assignment covering the whole dataset."""

    test_bin_ids: tuple[int, ...]
    val_bin_ids: tuple[int, ...]
    train_bin_ids: tuple[int, ...]
    objective_test: float
    objective_val: float
    bins: list[Bin]

    def sequence_ids(self, which: str) -> list:
        bin_ids = {
            "test": self.test_bin_ids,
            "val": self.val_bin_ids,
            "train": self.train_bin_ids,
        }[which]
        out = []
        for b in bin_ids:
            out.extend(self.bins[b].sequence_ids)
        return out

    def to_json_obj(self) -> dict:
        return {
            "test": self.sequence_ids("test"),
            "val": self.sequence_ids("val"),
            "train": self.sequence_ids("train"),
            "objective_test": self.objective_test,
            "objective_val": self.objective_val,
            "bins": [b.sequence_ids for b in self.bins],
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_obj(), indent=2) + "\n",
                              encoding="utf-8")


def ffd_pack(sizes: Sequence[int], capacity: int,
             ids: Sequence | None = None) -> list[Bin]:
    """First-fit decreasing packing of items into bins of `capacity` frames.

    Items are taken in decreasing size (original order on ties) and placed in
    the first bin with room, else a new bin. `ids` default to item indices.
    """
    if not sizes:
        raise ConfigError("nothing to pack")
    if ids is None:
        ids = list(range(len(sizes)))
    if len(ids) != len(sizes):
        raise ConfigError("ids and sizes must have equal length")
    for size in sizes:
        if size > capacity:
            raise PackingError(f"item of size {size} exceeds capacity {capacity}")
        if size < 1:
            raise ConfigError("item sizes must be positive")
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    bins: list[Bin] = []
    for i in order:
        for b in bins:
            if b.total_frames + sizes[i] <= capacity:
                b.sequence_ids.append(ids[i])
                b.total_frames += sizes[i]
                break
        else:
            bins.append(Bin(sequence_ids=[ids[i]], total_frames=sizes[i]))
    return bins


def combinations(count: int, choose: int) -> Iterator[tuple[int, ...]]:
    """All `choose`-subsets of range(count) in lexicographic order."""
    if not 0 < choose <= count:
        raise ConfigError(f"cannot choose {choose} from {count}")
    return _combinations(range(count), choose)


def bhattacharyya(p: Sequence[float], q: Sequence[float]) -> float:
    """Bhattacharyya distance -ln(sum_k sqrt(p_k q_k)); inf on disjoint support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise DataError("distributions must be 1-D vectors of equal length")
    for vec in (p, q):
        if (vec < 0).any():
            raise DataError("distribution entries must be non-negative")
        if abs(vec.sum() - 1.0) > 1e-9:
            raise DataError(f"distribution sums to {vec.sum()}, not 1")
    coefficient = float(np.sqrt(p * q).sum())
    if coefficient <= 0.0:
        return math.inf
    # rounding can push the coefficient a hair above 1 when p == q
    return max(0.0, -math.log(min(coefficient, 1.0)))


def _distribution(counts: np.ndarray) -> np.ndarray | None:
    total = counts.sum()
    return None if total == 0 else counts / float(total)


def _pair_objective(subset_counts: np.ndarray, rest_counts: np.ndarray,
                    reference: np.ndarray) -> float:
    """Sum of distances of (subset, rest) distributions to the reference."""
    total = 0.0
    for counts in (subset_counts, rest_counts):
        dist = _distribution(counts)
        if dist is None:
            return math.inf
        total += bhattacharyya(dist, reference)
    return total


def _best_subset(bin_counts: list[np.ndarray], candidates: Sequence[int],
                 choose: int, reference: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Arg-min over `choose`-subsets of `candidates`; lexicographic tie-break.

    Iteration is already lexicographic over sorted candidate ids, so keeping
    the first strict minimum implements the tie rule.
    """
    pool = np.sum([bin_counts[b] for b in candidates], axis=0)
    best_ids: tuple[int, ...] | None = None
    best_value = math.inf
    for picks in combinations(len(candidates), choose):
        ids = tuple(candidates[i] for i in picks)
        subset = np.sum([bin_counts[b] for b in ids], axis=0)
        value = _pair_objective(subset, pool - subset, reference)
        if best_ids is None or value < best_value:
            best_ids = ids
            best_value = value
    return best_ids, best_value


def select_split(dataset: Dataset, num_bins: int, test_bins: int, val_bins: int,
                 capacity: int | None = None,
                 stage2_reference: str = "whole") -> SplitResult:
    """Two-stage exhaustive split of whole days into test/validation/train.

    Sequences are FFD-packed into bins (default capacity
    ceil(1.1 * total_frames / num_bins); the request sets the capacity, the
    packing determines the actual bin count). Stage 1 picks the `test_bins`
    subset minimizing d(test, whole) + d(rest, whole); stage 2 picks
    `val_bins` from the remainder the same way. `stage2_reference` switches
    the stage-2 reference distribution between the whole dataset ("whole",
    the default) and the remaining pool ("rest"). Ties always go to the
    lexicographically smallest bin-id set. Only each day's id, length and
    labels are read, so the days may be `DayLabels`.
    """
    if stage2_reference not in ("whole", "rest"):
        raise ConfigError("stage2_reference must be 'whole' or 'rest'")
    if num_bins < 1 or test_bins < 1 or val_bins < 1:
        raise ConfigError("bin counts must be positive")
    if test_bins + val_bins >= num_bins:
        raise ConfigError(
            f"need test_bins + val_bins < num_bins, got {test_bins}+{val_bins} vs {num_bins}"
        )
    num_classes = dataset.label_set.size
    whole = category_distribution(dataset.sequences, num_classes)
    if (whole == 0).any():
        raise DataError("every class must appear somewhere in the dataset")

    sizes = [len(seq) for seq in dataset.sequences]
    if capacity is None:
        capacity = math.ceil(1.1 * sum(sizes) / num_bins)
    bins = ffd_pack(sizes, capacity, ids=[s.sequence_id for s in dataset.sequences])
    if test_bins + val_bins >= len(bins):
        raise ConfigError(
            f"packing produced {len(bins)} bins; need test_bins + val_bins < bins"
        )

    by_id = {seq.sequence_id: seq for seq in dataset.sequences}
    bin_counts = []
    for b in bins:
        counts = np.zeros(num_classes, dtype=np.int64)
        for sid in b.sequence_ids:
            counts += np.bincount(by_id[sid].labels, minlength=num_classes)
        bin_counts.append(counts)

    all_ids = list(range(len(bins)))
    test_ids, objective_test = _best_subset(bin_counts, all_ids, test_bins, whole)
    remaining = [b for b in all_ids if b not in test_ids]
    if stage2_reference == "rest":
        rest_counts = np.sum([bin_counts[b] for b in remaining], axis=0)
        reference = _distribution(rest_counts)
        if reference is None:
            raise DataError("remaining bins hold no frames")
    else:
        reference = whole
    val_ids, objective_val = _best_subset(bin_counts, remaining, val_bins, reference)
    train_ids = tuple(b for b in remaining if b not in val_ids)
    return SplitResult(
        test_bin_ids=test_ids,
        val_bin_ids=val_ids,
        train_bin_ids=train_ids,
        objective_test=objective_test,
        objective_val=objective_val,
        bins=bins,
    )
