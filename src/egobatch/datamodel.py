"""Day-sequence data model: label sets, feature matrices, the binary
sequence file format, and a synthetic context-dependent dataset generator.

Features are stored on disk as little-endian float32 and widened to float64
in memory; all downstream numerics run in double precision.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError

SEQUENCE_MAGIC = b"EGOSEQ01"
_HEADER = struct.Struct("<II")  # frame count L, feature dim D
_FLAG_TIMESTAMPS = 0x01
_MAX_LABEL_ID = 0xFFFF  # label ids are stored as u16


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
        if any(not name for name in self.names):
            raise DataError("category names must be non-empty")
        if len(set(self.names)) != len(self.names):
            raise DataError("category names must be unique")

    @property
    def size(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        return self.names.index(name)


@dataclass
class DaySequence:
    """One day's ordered frames: an L x D feature matrix plus per-frame labels.

    Timestamps (minutes since midnight) are optional metadata carried through
    the file format; no model consumes them.
    """

    sequence_id: str
    user_id: str
    features: np.ndarray
    labels: np.ndarray
    timestamps: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.timestamps is not None:
            self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.validate()

    def validate(self) -> None:
        """Re-check invariants; cheap, called again before serialization."""
        feats = self.features
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataError(
                f"features must be a non-empty 2-D matrix, got shape {feats.shape}"
            )
        if not np.isfinite(feats).all():
            raise DataError(f"sequence {self.sequence_id!r} has non-finite features")
        if self.labels.shape != (feats.shape[0],):
            raise DataError(
                f"labels length {self.labels.shape} must equal frame count {len(self)}"
            )
        if (self.labels < 0).any() or (self.labels > _MAX_LABEL_ID).any():
            raise DataError("label ids must be in [0, 65535]")
        if self.timestamps is not None:
            if self.timestamps.shape != (feats.shape[0],):
                raise DataError("timestamps length must equal frame count")
            if (self.timestamps < 0).any():
                raise DataError("timestamps must be non-negative minutes")
            if (np.diff(self.timestamps) < 0).any():
                raise DataError("timestamps must be non-decreasing")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Dataset:
    """A label set plus the day sequences annotated with it.

    Sequence ids are indexed at construction; `by_id` does not see sequences
    added or renamed afterwards.
    """

    label_set: LabelSet
    sequences: list[DaySequence]
    _by_id: dict[str, DaySequence] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_id = {seq.sequence_id: seq for seq in self.sequences}
        if len(self._by_id) != len(self.sequences):
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

    def by_id(self, sequence_id: str) -> DaySequence:
        try:
            return self._by_id[sequence_id]
        except KeyError:
            raise DataError(f"no sequence with id {sequence_id!r}") from None


def category_distribution(sequences: list[DaySequence], num_classes: int) -> np.ndarray:
    """Per-class frame frequency over the given sequences; sums to 1."""
    total = sum(len(seq) for seq in sequences)
    if total == 0:
        raise DataError("cannot compute a category distribution over zero frames")
    counts = np.zeros(num_classes, dtype=np.int64)
    for seq in sequences:
        if (seq.labels >= num_classes).any():
            raise DataError("label id out of range for the requested class count")
        counts += np.bincount(seq.labels, minlength=num_classes)
    return counts / float(total)


# ---------------------------------------------------------------------------
# Binary sequence files (.egoseq)
# ---------------------------------------------------------------------------

def write_sequence_file(seq: DaySequence, path: str | Path) -> None:
    """Serialize one day sequence; layout is fixed and deterministic.

    magic "EGOSEQ01" | u32 L | u32 D | u8 flags | L*D float32 row-major
    | L u16 labels | (flag bit 0) L u32 timestamps. Little-endian throughout.
    """
    seq.validate()
    feats32 = np.ascontiguousarray(seq.features, dtype="<f4")
    if not np.isfinite(feats32).all():
        raise DataError("feature value overflows float32 storage")
    length, dim = seq.features.shape
    flags = _FLAG_TIMESTAMPS if seq.timestamps is not None else 0
    blob = bytearray()
    blob += SEQUENCE_MAGIC
    blob += _HEADER.pack(length, dim)
    blob.append(flags)
    blob += feats32.tobytes()
    blob += np.ascontiguousarray(seq.labels, dtype="<u2").tobytes()
    if seq.timestamps is not None:
        blob += np.ascontiguousarray(seq.timestamps, dtype="<u4").tobytes()
    Path(path).write_bytes(bytes(blob))


def read_sequence_file(
    path: str | Path,
    label_set: LabelSet,
    sequence_id: str | None = None,
    user_id: str = "",
) -> DaySequence:
    """Parse a .egoseq file and validate it against the label set.

    The file carries no identifiers; `sequence_id` defaults to the file stem
    (dataset manifests override both ids).
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < len(SEQUENCE_MAGIC):
        raise FormatError(f"{path}: truncated before magic")
    if raw[: len(SEQUENCE_MAGIC)] != SEQUENCE_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:8]!r}")
    offset = len(SEQUENCE_MAGIC)
    if len(raw) < offset + _HEADER.size + 1:
        raise FormatError(f"{path}: truncated header")
    length, dim = _HEADER.unpack_from(raw, offset)
    offset += _HEADER.size
    flags = raw[offset]
    offset += 1
    if length < 1 or dim < 1:
        raise FormatError(f"{path}: header declares empty matrix L={length} D={dim}")
    if flags & ~_FLAG_TIMESTAMPS:
        raise FormatError(f"{path}: unknown flag bits 0x{flags:02x}")

    def take(count: int, dtype: str, what: str) -> np.ndarray:
        nonlocal offset
        nbytes = count * np.dtype(dtype).itemsize
        if len(raw) < offset + nbytes:
            raise FormatError(f"{path}: truncated {what}")
        out = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
        offset += nbytes
        return out

    feats = take(length * dim, "<f4", "feature rows").reshape(length, dim)
    labels = take(length, "<u2", "labels")
    timestamps = None
    if flags & _FLAG_TIMESTAMPS:
        timestamps = take(length, "<u4", "timestamps")
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes")

    if not np.isfinite(feats).all():
        raise DataError(f"{path}: non-finite feature value")
    if (labels >= label_set.size).any():
        raise DataError(
            f"{path}: label id {int(labels.max())} >= K={label_set.size}"
        )
    return DaySequence(
        sequence_id=sequence_id if sequence_id is not None else path.stem,
        user_id=user_id,
        features=feats.astype(np.float64),
        labels=labels.astype(np.int64),
        timestamps=None if timestamps is None else timestamps.astype(np.int64),
    )


# ---------------------------------------------------------------------------
# Label files and dataset manifests
# ---------------------------------------------------------------------------

def read_labels_file(path: str | Path) -> LabelSet:
    """labels.txt: one UTF-8 category name per line, line index = label id.

    A blank line would shift every later id, so it is a format error; a
    final newline is not a blank line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            raise FormatError(f"{path}: blank line {number} in the label file")
    return LabelSet(tuple(lines))


def write_labels_file(label_set: LabelSet, path: str | Path) -> None:
    Path(path).write_text("\n".join(label_set.names) + "\n", encoding="utf-8")


def write_manifest(dataset: Dataset, manifest_path: str | Path, seq_dir: str | Path) -> None:
    """Write every sequence as .egoseq plus a JSON manifest referencing them.

    Paths in the manifest are relative to the manifest's directory.
    """
    manifest_path = Path(manifest_path)
    seq_dir = Path(seq_dir)
    seq_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for seq in dataset.sequences:
        rel = seq_dir / f"{seq.sequence_id}.egoseq"
        write_sequence_file(seq, rel)
        entries.append(
            {
                "sequence_id": seq.sequence_id,
                "user_id": seq.user_id,
                "path": str(rel.relative_to(manifest_path.parent)),
            }
        )
    manifest_path.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")


def load_dataset(manifest_path: str | Path, labels_path: str | Path) -> Dataset:
    """Load a dataset from a manifest JSON plus labels.txt."""
    manifest_path = Path(manifest_path)
    label_set = read_labels_file(labels_path)
    try:
        entries = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if not isinstance(entries, list):
        raise FormatError(f"{manifest_path}: manifest must be a JSON array")
    sequences = []
    for entry in entries:
        try:
            seq_path = manifest_path.parent / entry["path"]
            sequences.append(
                read_sequence_file(
                    seq_path,
                    label_set,
                    sequence_id=entry["sequence_id"],
                    user_id=entry.get("user_id", ""),
                )
            )
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{manifest_path}: bad manifest entry {entry!r}") from exc
    return Dataset(label_set=label_set, sequences=sequences)


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
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        if self.mean_scale <= 0:
            raise ConfigError("mean_scale must be positive")
        if self.num_sequences < 1 or self.frames_per_sequence < 1:
            raise ConfigError("need at least one sequence and one frame")
        if self.feature_dim < k - 1:
            raise ConfigError(
                f"feature_dim must be >= K-1={k - 1} to place distinct class means"
            )


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


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Sample a synthetic dataset; fully deterministic for a given seed.

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
    label_set = LabelSet(tuple(f"activity{k:02d}" for k in range(cfg.num_classes)))

    sequences = []
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
        sequences.append(
            DaySequence(
                sequence_id=f"synth{s:03d}",
                user_id=f"u{s % 3 + 1}",
                features=feats,
                labels=states,
            )
        )
    return Dataset(label_set=label_set, sequences=sequences)
