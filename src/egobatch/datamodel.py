"""Day-sequence data model: label sets, feature matrices, the binary
sequence file format, and a synthetic context-dependent dataset generator.

Features are stored on disk as little-endian float32, and a day read from
disk holds them as that float32; other features are held as float64. All
numerics run in double precision: the code that gathers a day's rows for a
product widens those rows (exactly, as every float32 is a float64).
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError, FormatError

SEQUENCE_MAGIC = b"EGOSEQ01"
_HEADER = struct.Struct("<II")  # frame count L, feature dim D
_FLAG_TIMESTAMPS = 0x01
_MAX_LABEL_ID = 0xFFFF  # label ids are stored as u16
_MAX_TIMESTAMP = 0xFFFFFFFF  # timestamps are stored as u32


@dataclass(frozen=True)
class LabelSet:
    """Ordered activity category names; a label id is the zero-based position."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) < 2:
            raise DataError("a label set needs at least two categories")
        if len(self.names) > _MAX_LABEL_ID + 1:
            raise DataError("at most 65536 categories (u16 label ids)")
        for name in self.names:  # each name is one line of labels.txt
            if not name.strip():
                raise DataError(f"category name {name!r} is blank")
            if "\n" in name or "\r" in name:
                raise DataError(f"category name {name!r} holds a line break")
        if len(set(self.names)) != len(self.names):
            raise DataError("category names must be unique")

    @property
    def size(self) -> int:
        return len(self.names)


@dataclass
class DaySequence:
    """One day's ordered frames: an L x D feature matrix plus per-frame labels.

    Float32 features, as `read_sequence_file` returns them, are kept as
    they are, in half the bytes of float64; any other features are converted
    to float64. Timestamps (minutes since midnight) are optional metadata
    carried through the file format; no model consumes them.
    """

    sequence_id: str
    user_id: str
    features: np.ndarray
    labels: np.ndarray
    timestamps: np.ndarray | None = None

    def __post_init__(self):
        if not (isinstance(self.features, np.ndarray)
                and self.features.dtype == np.float32):
            self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.timestamps is not None:
            self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.validate()

    def validate(self) -> None:
        """Re-check invariants; cheap, called again before serialization:
        a non-empty finite L x D matrix, L label ids in [0, 65535] and, when
        present, L non-decreasing timestamps in [0, 2**32 - 1]."""
        features, labels, timestamps = self.features, self.labels, self.timestamps
        if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
            raise DataError(
                f"features must be a non-empty 2-D matrix, got shape {features.shape}"
            )
        if not np.isfinite(features).all():
            raise DataError(f"sequence {self.sequence_id!r} has non-finite features")
        if labels.shape != (features.shape[0],):
            raise DataError(
                f"labels length {labels.shape} must equal frame count {features.shape[0]}"
            )
        if (labels < 0).any() or (labels > _MAX_LABEL_ID).any():
            raise DataError("label ids must be in [0, 65535]")
        if timestamps is not None:
            if timestamps.shape != (features.shape[0],):
                raise DataError("timestamps length must equal frame count")
            if (timestamps < 0).any() or (timestamps > _MAX_TIMESTAMP).any():
                raise DataError("timestamps must be minutes in [0, 2**32 - 1]")
            # compared, not differenced: a difference of unsigned values wraps
            if (timestamps[1:] < timestamps[:-1]).any():
                raise DataError("timestamps must be non-decreasing")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class DayLabels:
    """One day's id, frame labels and feature width, without its features:
    all that splitting a dataset needs."""

    sequence_id: str
    labels: np.ndarray
    feature_dim: int

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class Dataset:
    """A label set plus the day sequences annotated with it.

    The days are `DaySequence`s, or `DayLabels` when only their labels are
    kept.
    """

    label_set: LabelSet
    sequences: list[DaySequence | DayLabels]

    def __post_init__(self):
        if len({seq.sequence_id for seq in self.sequences}) != len(self.sequences):
            raise DataError("sequence ids must be unique within a dataset")
        dims = {seq.feature_dim for seq in self.sequences}
        if len(dims) > 1:
            raise DataError(f"sequences disagree on feature dim: {sorted(dims)}")
        for seq in self.sequences:
            if (seq.labels >= self.label_set.size).any():
                raise DataError(
                    f"sequence {seq.sequence_id!r} uses label ids >= K={self.label_set.size}"
                )

    @property
    def feature_dim(self) -> int:
        if not self.sequences:
            raise DataError("empty dataset has no feature dim")
        return self.sequences[0].feature_dim

    def __iter__(self) -> Iterator[DaySequence | DayLabels]:
        return iter(self.sequences)

    def by_id(self, sequence_id: str) -> DaySequence | DayLabels:
        for seq in self.sequences:
            if seq.sequence_id == sequence_id:
                return seq
        raise DataError(f"no sequence with id {sequence_id!r}")


# ---------------------------------------------------------------------------
# Binary sequence files (.egoseq)
# ---------------------------------------------------------------------------

def write_sequence_file(seq: DaySequence, path: str | Path) -> None:
    """Serialize one day sequence; layout is fixed and deterministic.

    magic "EGOSEQ01" | u32 L | u32 D | u8 flags | L*D float32 row-major
    | L u16 labels | (flag bit 0) L u32 timestamps. Little-endian throughout.
    """
    seq.validate()
    with np.errstate(over="ignore"):  # an overflow becomes inf, refused below
        feats32 = np.ascontiguousarray(seq.features, dtype="<f4")
    if not np.isfinite(feats32).all():
        raise DataError("feature value overflows float32 storage")
    length, dim = seq.features.shape
    flags = _FLAG_TIMESTAMPS if seq.timestamps is not None else 0
    arrays = [feats32, np.ascontiguousarray(seq.labels, dtype="<u2")]
    if seq.timestamps is not None:
        arrays.append(np.ascontiguousarray(seq.timestamps, dtype="<u4"))
    # written from the arrays' own memory: no in-memory copy of the day
    with open(path, "wb") as out:
        out.write(SEQUENCE_MAGIC + _HEADER.pack(length, dim) + bytes([flags]))
        out.writelines(memoryview(arr).cast("B") for arr in arrays)


class CheckedFile:
    """A binary file read part by part under one rule, each breach a
    `FormatError` naming the file: `take` refuses a part that the rest of
    the file cannot hold before allocating it, then reads the part straight
    into its own array, so the file is never held as a whole; leaving the
    `with` block without an error refuses trailing bytes."""

    def __init__(self, path: Path):
        self.path = path
        self.file = open(path, "rb")
        self.size = os.fstat(self.file.fileno()).st_size

    def __enter__(self) -> CheckedFile:
        return self

    def __exit__(self, exc_type, *_) -> None:
        with self.file:
            trailing = self.size - self.file.tell()
            if exc_type is None and trailing:
                raise FormatError(f"{self.path}: {trailing} trailing bytes")

    def take(self, count: int, dtype: str, what: str) -> np.ndarray:
        """The next `count` items of `dtype`, or "truncated `what`"."""
        nbytes = count * np.dtype(dtype).itemsize
        # checked before allocating: a header may promise gigabytes
        if nbytes > self.size - self.file.tell():
            raise FormatError(f"{self.path}: truncated {what}")
        out = np.empty(count, dtype=dtype)
        if self.file.readinto(out) != nbytes:
            raise FormatError(f"{self.path}: truncated {what}")
        return out


def read_sequence_file(
    path: str | Path,
    label_set: LabelSet,
    sequence_id: str | None = None,
    user_id: str = "",
) -> DaySequence:
    """Parse a .egoseq file and validate it against the label set.

    The file carries no identifiers; `sequence_id` defaults to the file stem
    (dataset manifests override both ids). The day holds its features as
    the float32 the file stores.
    """
    path = Path(path)
    with CheckedFile(path) as src:
        magic = src.take(len(SEQUENCE_MAGIC), "u1", "before magic").tobytes()
        if magic != SEQUENCE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        head = src.take(_HEADER.size + 1, "u1", "header").tobytes()
        length, dim = _HEADER.unpack_from(head)
        flags = head[-1]
        if length < 1 or dim < 1:
            raise FormatError(f"{path}: header declares empty matrix L={length} D={dim}")
        if flags & ~_FLAG_TIMESTAMPS:
            raise FormatError(f"{path}: unknown flag bits 0x{flags:02x}")
        feats = src.take(length * dim, "<f4", "feature rows").reshape(length, dim)
        labels = src.take(length, "<u2", "labels")
        timestamps = None
        if flags & _FLAG_TIMESTAMPS:
            timestamps = src.take(length, "<u4", "timestamps")

    if (labels >= label_set.size).any():
        raise DataError(
            f"{path}: label id {int(labels.max())} >= K={label_set.size}"
        )
    return DaySequence(
        sequence_id=path.stem if sequence_id is None else sequence_id,
        user_id=user_id,
        features=feats,
        labels=labels.astype(np.int64),
        timestamps=None if timestamps is None else timestamps.astype(np.int64),
    )


# ---------------------------------------------------------------------------
# JSON files, label files and dataset manifests
# ---------------------------------------------------------------------------

def read_json(path: str | Path):
    """Parse a UTF-8 JSON file; malformed or over-nested JSON is a `FormatError` naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def write_json(path: str | Path, obj) -> None:
    """Write `obj` as UTF-8 JSON indented by two spaces, with a final newline:
    the layout of every JSON file the package writes."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def read_labels_file(path: str | Path) -> LabelSet:
    """labels.txt: one UTF-8 category name per line, line index = label id.

    A blank line would shift every later id, so it is a format error; a
    final newline is not a blank line. Lines end only at "\n" ("\r\n" and
    "\r" are read as "\n"), so a name may hold any other character that
    `str.splitlines` would break at, such as U+2028 or a form feed.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            raise FormatError(f"{path}: blank line {number} in the label file")
    return LabelSet(tuple(lines))


def write_labels_file(label_set: LabelSet, path: str | Path) -> None:
    Path(path).write_text("\n".join(label_set.names) + "\n", encoding="utf-8")


def write_manifest(days: Iterable[DaySequence], manifest_path: str | Path,
                   seq_dir: str | Path) -> None:
    """Write every day (of a `Dataset` or any other iterable, read once) as
    .egoseq plus a JSON manifest referencing them.

    Paths in the manifest are relative to the manifest's directory.
    """
    manifest_path = Path(manifest_path)
    seq_dir = Path(seq_dir)
    seq_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for seq in days:
        rel = seq_dir / f"{seq.sequence_id}.egoseq"
        write_sequence_file(seq, rel)
        entries.append(
            {
                "sequence_id": seq.sequence_id,
                "user_id": seq.user_id,
                "path": str(rel.relative_to(manifest_path.parent)),
            }
        )
    write_json(manifest_path, entries)


class Manifest:
    """A checked dataset manifest, its label set and a lazy list of its days:
    `len` counts them, and each `manifest[k]` reads and checks the k-th day
    through `read_sequence_file` and keeps nothing.

    `entries` maps each sequence id, in manifest order, to its .egoseq path
    and user id.
    """

    def __init__(self, label_set: LabelSet, entries: dict[str, tuple[Path, str]]):
        self.label_set, self.entries = label_set, entries
        self._ids = list(entries)

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index: int) -> DaySequence:
        sequence_id = self._ids[index]  # past the end: IndexError ends iteration
        path, user_id = self.entries[sequence_id]
        return read_sequence_file(path, self.label_set, sequence_id=sequence_id,
                                  user_id=user_id)

    def subset(self, ids: Iterable[str]) -> Manifest:
        """The named days, each once and in the order first named; an id that
        the manifest lacks is a `DataError`, raised before any day is read."""
        try:
            return Manifest(self.label_set, {sid: self.entries[sid] for sid in ids})
        except KeyError as exc:
            raise DataError(f"no sequence with id {exc.args[0]!r}") from None


def read_manifest(manifest_path: str | Path, labels_path: str | Path) -> Manifest:
    """Read labels.txt and a manifest JSON and check the whole manifest:
    entry shape, string ids and paths, unique sequence ids. Paths in the
    manifest are relative to its directory and hold no NUL byte."""
    manifest_path = Path(manifest_path)
    label_set = read_labels_file(labels_path)
    entries = read_json(manifest_path)
    if not isinstance(entries, list):
        raise FormatError(f"{manifest_path}: manifest must be a JSON array")
    days = {}  # sequence id -> (.egoseq path, user id)
    for entry in entries:
        try:
            sequence_id, user_id = entry["sequence_id"], entry.get("user_id", "")
            path = entry["path"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{manifest_path}: bad manifest entry {entry!r}") from exc
        if not isinstance(path, str) or "\0" in path:
            raise FormatError(f"{manifest_path}: bad manifest entry {entry!r}: "
                              "the path must be a string without NUL bytes")
        if not (isinstance(sequence_id, str) and isinstance(user_id, str)):
            raise FormatError(f"{manifest_path}: bad manifest entry {entry!r}: "
                              "sequence and user ids must be strings")
        if sequence_id in days:
            raise DataError(f"{manifest_path}: duplicate sequence id {sequence_id!r}")
        days[sequence_id] = (manifest_path.parent / path, user_id)
    return Manifest(label_set, days)


def load_dataset(manifest_path: str | Path, labels_path: str | Path) -> Dataset:
    """Every day of a manifest and its labels.txt, read and checked, as one `Dataset`."""
    manifest = read_manifest(manifest_path, labels_path)
    return Dataset(manifest.label_set, list(manifest))


# ---------------------------------------------------------------------------
# Synthetic datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Generator settings for a context-dependent synthetic dataset.

    Two classes (`ambiguous_pair`) share one emission mean, so they are
    indistinguishable frame by frame; each is entered only from its own
    `context_map` predecessor, which makes them separable for any model that
    can remember the preceding class.
    """

    num_classes: int = 6
    feature_dim: int = 16
    ambiguous_pair: tuple[int, int] = (4, 5)
    context_map: dict[int, int] | None = None
    self_transition_prob: float = 0.80
    noise_sigma: float = 0.1
    mean_scale: float = 1.0
    num_sequences: int = 40
    frames_per_sequence: int = 300
    seed: int = 1

    def __post_init__(self):
        if self.context_map is None:
            object.__setattr__(
                self,
                "context_map",
                {self.ambiguous_pair[0]: 0, self.ambiguous_pair[1]: 1},
            )
        k = self.num_classes
        a, b = self.ambiguous_pair
        if k < 2:
            raise ConfigError("need at least two classes")
        if a == b or not (0 <= a < k and 0 <= b < k):
            raise ConfigError("ambiguous_pair must be two distinct class ids < K")
        if set(self.context_map) != {a, b}:
            raise ConfigError("context_map must give a predecessor for each pair member")
        preds = tuple(self.context_map.values())
        if any(not (0 <= p < k) for p in preds):
            raise ConfigError("context predecessors must be class ids < K")
        if preds[0] == preds[1] or set(preds) & {a, b}:
            raise ConfigError(
                "context predecessors must be distinct non-ambiguous classes"
            )
        if not 0.0 < self.self_transition_prob < 1.0:
            raise ConfigError("self_transition_prob must lie in (0, 1)")
        if not 0 <= self.noise_sigma < np.inf:  # NaN fails every comparison
            raise ConfigError("noise_sigma must be non-negative and finite")
        if not 0 < self.mean_scale < np.inf:
            raise ConfigError("mean_scale must be positive and finite")
        if self.num_sequences < 1 or self.frames_per_sequence < 1:
            raise ConfigError("need at least one sequence and one frame")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.feature_dim < k - 1:
            raise ConfigError(
                f"feature_dim must be >= K-1={k - 1} to place distinct class means"
            )

    @property
    def label_set(self) -> LabelSet:
        """The generated days' categories, "activity00" to "activityK-1"."""
        return LabelSet(tuple(f"activity{k:02d}" for k in range(self.num_classes)))


def _basis_indices(cfg: SynthConfig) -> np.ndarray:
    """Coordinate of each class's emission mean; the ambiguous pair shares one."""
    lo, hi = sorted(cfg.ambiguous_pair)
    idx = np.empty(cfg.num_classes, dtype=np.int64)
    nxt = 0
    for k in range(cfg.num_classes):
        if k == hi:
            idx[k] = idx[lo]
        else:
            idx[k] = nxt
            nxt += 1
    return idx


def _successors(cfg: SynthConfig) -> list[np.ndarray]:
    """Allowed switch targets per class; ambiguous classes require their predecessor."""
    pair = set(cfg.ambiguous_pair)
    out = []
    for k in range(cfg.num_classes):
        allowed = [
            j
            for j in range(cfg.num_classes)
            if j != k and (j not in pair or cfg.context_map[j] == k)
        ]
        out.append(np.asarray(allowed, dtype=np.int64))
    return out


def class_means(cfg: SynthConfig) -> np.ndarray:
    """K x D matrix of emission means (mean_scale times a basis coordinate)."""
    means = np.zeros((cfg.num_classes, cfg.feature_dim))
    means[np.arange(cfg.num_classes), _basis_indices(cfg)] = cfg.mean_scale
    return means


def synthetic_days(cfg: SynthConfig) -> Iterator[DaySequence]:
    """Sample a synthetic dataset one day at a time, each drawn as it is
    asked for; fully deterministic for a given seed.

    The hidden class sequence is a Markov chain: with probability
    `self_transition_prob` the class repeats, otherwise it switches uniformly
    among its allowed successors. Frames emit their class mean plus isotropic
    Gaussian noise. Chains start uniformly over the non-ambiguous classes
    (an ambiguous class may only follow its predecessor).
    """
    rng = np.random.default_rng(cfg.seed)
    succ = _successors(cfg)
    means = class_means(cfg)
    pair = set(cfg.ambiguous_pair)
    start_states = np.asarray(
        [k for k in range(cfg.num_classes) if k not in pair], dtype=np.int64
    )

    for s in range(cfg.num_sequences):
        states = np.empty(cfg.frames_per_sequence, dtype=np.int64)
        state = int(start_states[rng.integers(len(start_states))])
        states[0] = state
        for t in range(1, cfg.frames_per_sequence):
            if rng.random() >= cfg.self_transition_prob:
                options = succ[state]
                state = int(options[rng.integers(len(options))])
            states[t] = state
        feats = means[states]
        if cfg.noise_sigma > 0:
            feats = feats + rng.normal(
                0.0, cfg.noise_sigma, size=(cfg.frames_per_sequence, cfg.feature_dim)
            )
        yield DaySequence(sequence_id=f"synth{s:03d}", user_id=f"u{s % 3 + 1}",
                          features=feats, labels=states)


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """All of `synthetic_days(cfg)` at once, under `cfg.label_set`."""
    return Dataset(cfg.label_set, list(synthetic_days(cfg)))
