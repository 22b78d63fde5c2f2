"""Dataset splitting: FFD bin packing of day sequences, exhaustive subset
enumeration, and Bhattacharyya-distance split selection.

Whole days are assigned to bins of similar frame counts; the test bins are
the subset whose category distribution (together with the remaining pool's)
is closest to the whole-dataset distribution, and the validation bins are
chosen from the remainder by the same criterion. Bin counts are small by
construction, so plain exhaustive enumeration is exact and fast; a packing
whose search would score more than `MAX_SUBSETS` subsets is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from itertools import combinations as _combinations
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .datamodel import Dataset, read_json, write_json
from .errors import ConfigError, DataError, FormatError, PackingError

# Most subsets the two stages of a split search may score together: about
# 13 s at the 1.25 us per subset measured on a 2-core Xeon VM (C(20, 10)
# subsets of 21 classes; 1.0 us at 6 classes).
MAX_SUBSETS = 10**7
# Subsets scored together in one pass of array operations.
SUBSET_CHUNK = 4096


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
        write_json(path, self.to_json_obj())


def read_split_ids(path: str | Path) -> dict:
    """Read a split manifest as `SplitResult.write_json` writes it, checking
    that "test", "val" and "train" list string ids and no id twice."""
    obj = read_json(path)
    seen: set[str] = set()
    for key in ("test", "val", "train"):
        ids = obj.get(key) if isinstance(obj, dict) else None
        if not isinstance(ids, list) or not all(isinstance(sid, str) for sid in ids):
            raise FormatError(f"{path}: split manifest needs {key!r} as a list of ids")
        for sid in ids:  # a repeated day would be trained, predicted or scored twice
            if sid in seen:
                raise FormatError(f"{path}: split manifest lists {sid!r} more than once")
            seen.add(sid)
    return obj


def ffd_pack(sizes: Sequence[int], capacity: int) -> list[Bin]:
    """First-fit decreasing packing of items into bins of `capacity` frames.

    Items are taken in decreasing size (original order on ties) and placed in
    the first bin with room, else a new bin. Bins list item indices.
    """
    if not sizes:
        raise ConfigError("nothing to pack")
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
                b.sequence_ids.append(i)
                b.total_frames += sizes[i]
                break
        else:
            bins.append(Bin(sequence_ids=[i], total_frames=sizes[i]))
    return bins


def combinations(count: int, choose: int) -> Iterator[tuple[int, ...]]:
    """All `choose`-subsets of range(count) in lexicographic order."""
    if not 0 < choose <= count:
        raise ConfigError(f"cannot choose {choose} from {count}")
    return _combinations(range(count), choose)


def _row_distances(counts: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Bhattacharyya distance -ln(sum_k sqrt(p_k q_k)) of each row's
    distribution p, count / row total, from `reference` q; inf where the
    supports are disjoint, and `math.log` per row."""
    coefficients = np.sqrt(counts / counts.sum(axis=1, keepdims=True) * reference).sum(axis=1)
    distances = np.full(len(coefficients), math.inf)
    positive = coefficients > 0.0
    logs = np.fromiter(map(math.log, np.minimum(coefficients[positive], 1.0).tolist()),
                       dtype=np.float64, count=int(positive.sum()))
    np.negative(logs, out=logs)
    # max(0.0, v) is 0.0 unless v > 0.0, so -log(1.0) = -0.0 gives 0.0
    distances[positive] = np.where(logs > 0.0, logs, 0.0)
    return distances


def _best_subset(counts: np.ndarray, candidates: list[int], choose: int,
                 reference: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Arg-min of d(subset, reference) + d(rest, reference) over the
    `choose`-subsets of the `candidates` rows of the bins x K class `counts`;
    lexicographic tie-break.

    The subsets are scored `SUBSET_CHUNK` at a time from their count sums.
    Enumeration is lexicographic over sorted candidate ids, and each chunk
    keeps its first minimum, so keeping the first strict minimum over the
    chunks implements the tie rule.
    """
    rows = counts[candidates]
    pool = rows.sum(axis=0)
    subsets = combinations(len(candidates), choose)
    best_ids: tuple[int, ...] | None = None
    best_value = math.inf
    while True:
        picks = np.fromiter(chain.from_iterable(islice(subsets, SUBSET_CHUNK)),
                            dtype=np.intp).reshape(-1, choose)
        if not len(picks):
            return best_ids, best_value
        subset = rows[picks[:, 0]]
        for column in picks.T[1:]:
            subset += rows[column]
        values = _row_distances(subset, reference) + _row_distances(pool - subset, reference)
        first = int(np.argmin(values))
        if best_ids is None or values[first] < best_value:
            best_ids = tuple(candidates[i] for i in picks[first].tolist())
            best_value = float(values[first])


def select_split(dataset: Dataset, num_bins: int, test_bins: int, val_bins: int,
                 capacity: int | None = None,
                 stage2_reference: str = "whole") -> SplitResult:
    """Two-stage exhaustive split of whole days into test/validation/train.

    Sequences are FFD-packed into bins (default capacity
    ceil(1.1 * total_frames / num_bins); `num_bins` sets only the capacity, so
    an explicit `capacity` makes it irrelevant, and the packing determines the
    actual bin count). Stage 1 picks the `test_bins` subset minimizing
    d(test, whole) + d(rest, whole); stage 2 picks `val_bins` from the
    remainder the same way. `stage2_reference` switches the stage-2 reference
    distribution between the whole dataset ("whole", the default) and the
    remaining pool ("rest"). Ties always go to the lexicographically smallest
    bin-id set. A search of more than `MAX_SUBSETS` subsets in the two stages
    together is refused before it starts, with a `ConfigError`. Only each
    day's id, length and labels are read, so the days may be `DayLabels`.
    """
    if stage2_reference not in ("whole", "rest"):
        raise ConfigError("stage2_reference must be 'whole' or 'rest'")
    if num_bins < 1 or test_bins < 1 or val_bins < 1:
        raise ConfigError("bin counts must be positive")
    if capacity is None and test_bins + val_bins >= num_bins:
        raise ConfigError(
            f"need test_bins + val_bins < num_bins, got {test_bins}+{val_bins} vs {num_bins}"
        )
    if capacity is not None and capacity < 1:
        raise ConfigError(f"capacity must be at least 1 frame, got {capacity}")
    days = dataset.sequences
    if not days:
        raise DataError("cannot split a dataset of no days")
    # the dataset has checked every label id against the label set
    day_counts = np.array([np.bincount(seq.labels, minlength=dataset.label_set.size)
                           for seq in days], dtype=np.int64)
    sizes = [len(seq) for seq in days]
    whole = day_counts.sum(axis=0) / float(sum(sizes))
    if (whole == 0).any():
        raise DataError("every class must appear somewhere in the dataset")

    if capacity is None:
        capacity = math.ceil(1.1 * sum(sizes) / num_bins)
    packed = ffd_pack(sizes, capacity)
    if test_bins + val_bins >= len(packed):
        raise ConfigError(
            f"packing produced {len(packed)} bins; need test_bins + val_bins < bins"
        )
    subsets = (math.comb(len(packed), test_bins)
               + math.comb(len(packed) - test_bins, val_bins))
    if subsets > MAX_SUBSETS:
        raise ConfigError(
            f"packing produced {len(packed)} bins, and choosing {test_bins} test and "
            f"{val_bins} val bins among them means scoring {subsets} subsets, more "
            f"than {MAX_SUBSETS}; choose fewer bins or pack into fewer (a larger "
            "capacity)"
        )
    # every bin holds a day of at least one frame, and each stage leaves at
    # least one bin on both sides, so no distribution below is of zero frames
    counts = np.array([day_counts[b.sequence_ids].sum(axis=0) for b in packed])
    bins = [Bin([days[i].sequence_id for i in b.sequence_ids], b.total_frames)
            for b in packed]

    all_ids = list(range(len(bins)))
    test_ids, objective_test = _best_subset(counts, all_ids, test_bins, whole)
    remaining = [b for b in all_ids if b not in test_ids]
    if stage2_reference == "rest":
        rest = counts[remaining].sum(axis=0)
        reference = rest / float(rest.sum())
    else:
        reference = whole
    val_ids, objective_val = _best_subset(counts, remaining, val_bins, reference)
    train_ids = tuple(b for b in remaining if b not in val_ids)
    return SplitResult(
        test_bin_ids=test_ids,
        val_bin_ids=val_ids,
        train_bin_ids=train_ids,
        objective_test=objective_test,
        objective_val=objective_val,
        bins=bins,
    )
