"""The three sequence-head architectures and whole-sequence prediction.

All heads consume precomputed per-frame feature vectors. The frame baseline
classifies frames independently; the sliding-window head runs a recurrent
layer over fixed-size windows; the piggyback head additionally re-injects the
previous batch's recurrent outputs at overlapped positions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .batching import (
    CarryStore,
    apply_carry,
    batch_rows,
    carry_mask,
    piggyback_plan,
    tile_starts,
)
from .datamodel import DaySequence
from .errors import ConfigError, DataError, FormatError, ShapeError
from .nnet import GATES, DenseLayer, LstmLayer, run_window, softmax, stack_params

DEFAULT_HIDDEN = 256
RETENTIONS = ("earlier", "later")


@dataclass
class FrameBaselineModel:
    """Linear softmax classifier over single frames; the ablation anchor."""

    head: DenseLayer
    embed = None
    lstm = None
    architecture = "baseline"

    def params(self) -> dict[str, np.ndarray]:
        return stack_params(self)


@dataclass
class SlidingWindowModel:
    """Recurrent layer over feature windows followed by a class head."""

    lstm: LstmLayer
    head: DenseLayer
    embed = None
    architecture = "sliding"

    def __post_init__(self):
        if self.head.in_dim != self.lstm.hidden:
            raise ShapeError("head input width must equal the recurrent hidden size")

    def params(self) -> dict[str, np.ndarray]:
        return stack_params(self)


@dataclass
class PiggybackModel:
    """Affine embedding into the recurrent width, so outputs can feed inputs."""

    embed: DenseLayer
    lstm: LstmLayer
    head: DenseLayer
    architecture = "piggyback"

    def __post_init__(self):
        if not (self.embed.out_dim == self.lstm.in_dim == self.lstm.hidden):
            raise ShapeError(
                "embedding width, recurrent input width and hidden size must all match"
            )
        if self.head.in_dim != self.lstm.hidden:
            raise ShapeError("head input width must equal the recurrent hidden size")

    def params(self) -> dict[str, np.ndarray]:
        return stack_params(self)

    def carry_stage(self) -> "_RecurrentStage":
        """The sub-stack trained when the embedding is frozen."""
        return _RecurrentStage(self.lstm, self.head)


@dataclass
class _RecurrentStage:
    lstm: LstmLayer
    head: DenseLayer
    embed = None


def build_baseline(feature_dim: int, num_classes: int, seed: int = 0) -> FrameBaselineModel:
    rng = np.random.default_rng(seed)
    return FrameBaselineModel(head=DenseLayer.create(feature_dim, num_classes, rng))


def build_sliding(feature_dim: int, num_classes: int, hidden: int = DEFAULT_HIDDEN,
                  seed: int = 0) -> SlidingWindowModel:
    rng = np.random.default_rng(seed)
    lstm = LstmLayer.create(feature_dim, hidden, rng)
    head = DenseLayer.create(hidden, num_classes, rng)
    return SlidingWindowModel(lstm=lstm, head=head)


def build_piggyback(feature_dim: int, num_classes: int, hidden: int = DEFAULT_HIDDEN,
                    seed: int = 0) -> PiggybackModel:
    rng = np.random.default_rng(seed)
    embed = DenseLayer.create(feature_dim, hidden, rng)
    lstm = LstmLayer.create(hidden, hidden, rng)
    head = DenseLayer.create(hidden, num_classes, rng)
    return PiggybackModel(embed=embed, lstm=lstm, head=head)


def model_from_params(params: dict[str, np.ndarray]):
    """Rebuild a model from checkpoint tensors, inferring the architecture."""
    names = set(params)
    if "head.W" not in names or "head.b" not in names:
        raise ShapeError("checkpoint lacks the head tensors")
    head = DenseLayer(params["head.W"], params["head.b"])
    if "embed.W" in names:
        model = PiggybackModel(
            embed=DenseLayer(params["embed.W"], params["embed.b"]),
            lstm=_lstm_from_params(params),
            head=head,
        )
    elif "lstm.W_i" in names:
        model = SlidingWindowModel(lstm=_lstm_from_params(params), head=head)
    else:
        model = FrameBaselineModel(head=head)
    expected = set(stack_params(model))
    if names != expected:
        raise ShapeError(
            f"checkpoint tensors mismatch: missing={sorted(expected - names)} "
            f"extra={sorted(names - expected)}"
        )
    return model


def model_input_dim(model) -> int:
    """Feature width the model consumes."""
    embed = getattr(model, "embed", None)
    lstm = getattr(model, "lstm", None)
    if embed is not None:
        return embed.in_dim
    if lstm is not None:
        return lstm.in_dim
    return model.head.in_dim


def _lstm_from_params(params: dict[str, np.ndarray]) -> LstmLayer:
    try:
        return LstmLayer(
            w={g: params[f"lstm.W_{g}"] for g in GATES},
            u={g: params[f"lstm.U_{g}"] for g in GATES},
            b={g: params[f"lstm.b_{g}"] for g in GATES},
        )
    except KeyError as exc:
        raise ShapeError(f"checkpoint lacks recurrent tensor {exc}") from exc


# ---------------------------------------------------------------------------
# Prediction timelines
# ---------------------------------------------------------------------------

@dataclass
class PredictionTimeline:
    """Per-frame predictions for one whole day sequence, padding removed."""

    sequence_id: str
    true_labels: np.ndarray
    pred_labels: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.true_labels = np.asarray(self.true_labels, dtype=np.int64)
        self.pred_labels = np.asarray(self.pred_labels, dtype=np.int64)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        frames = len(self.true_labels)
        if frames == 0:
            raise DataError("a timeline must cover at least one frame")
        if self.pred_labels.shape != (frames,) or self.probs.shape[:1] != (frames,):
            raise DataError("timeline fields must cover the same frame count")
        if self.probs.ndim != 2:
            raise DataError("probabilities must be an L x K matrix")
        if not np.isfinite(self.probs).all():
            raise DataError("probabilities must be finite")
        if np.abs(self.probs.sum(axis=1) - 1.0).max() > 1e-9:
            raise DataError("probability rows must sum to 1 within 1e-9")

    def __len__(self) -> int:
        return len(self.true_labels)


def _timeline_from_logits(seq: DaySequence, logits: np.ndarray) -> PredictionTimeline:
    probs = softmax(logits)
    # argmax takes the first maximum, which is the lowest label id on ties
    return PredictionTimeline(
        sequence_id=seq.sequence_id,
        true_labels=seq.labels.copy(),
        pred_labels=np.argmax(probs, axis=1),
        probs=probs,
    )


def predict_baseline(model: FrameBaselineModel, seq: DaySequence) -> PredictionTimeline:
    """Classify every frame independently."""
    logits = run_window(model, seq.features).logits
    return _timeline_from_logits(seq, logits)


def predict_sliding_sequence(model, seq: DaySequence, timestep: int) -> PredictionTimeline:
    """Tile the sequence with non-overlapping windows of `timestep` frames.

    The recurrent state starts at zero in every window; the last window is
    right-padded with repeats of the final frame and the padded positions are
    discarded, so every frame receives exactly one prediction. Accepts any
    stack with a recurrent layer (the overlap model runs here carry-free).
    The windows are independent, so all of them run in one batched pass.
    """
    starts, pad_count = tile_starts(len(seq), timestep)
    rows, _, _ = batch_rows(seq.features, seq.labels, 0, len(seq) + pad_count)
    if model.embed is not None:
        rows = model.embed.forward_rows(rows)
    h_rows = model.lstm.forward_batch(rows.reshape(len(starts), timestep, -1))
    logits = model.head.forward_rows(h_rows.reshape(len(rows), -1))
    return _timeline_from_logits(seq, logits[:len(seq)])


def piggyback_logits(model: PiggybackModel, seq: DaySequence, batch_size: int,
                     overlap: int, retention: str = "earlier") -> np.ndarray:
    """Per-frame logits of the batched carry-over forward pass.

    Batches run in plan order; after each one the store is overwritten with
    its last m recurrent outputs. Frames inside an overlap receive two head
    outputs and `retention` selects the kept one ("earlier": the batch where
    the frame was new, the later batch's carried positions serving only as
    context priming). The whole padded day is embedded once, up front.
    """
    if retention not in RETENTIONS:
        raise ConfigError(f"retention must be one of {RETENTIONS}, got {retention!r}")
    n, m = batch_size, overlap
    plan = piggyback_plan(len(seq), n, m, seq.sequence_id)
    rows, _, valid_rows = batch_rows(seq.features, seq.labels, 0,
                                     len(seq) + plan.pad_count)
    embedded = model.embed.forward_rows(rows)
    store = CarryStore(m)
    logits = np.full((len(seq), model.head.out_dim), np.nan)
    for k, start in enumerate(plan.starts):
        mask = carry_mask(n, m, first_batch=(k == 0))
        lstm_in = apply_carry(embedded[start:start + n], store, mask)
        h_rows = model.lstm.forward_batch(lstm_in[np.newaxis])[0]
        out = model.head.forward_rows(h_rows)
        store.update(h_rows[-m:])
        valid = valid_rows[start:start + n]
        keep = valid if (k == 0 or retention == "later") else (valid & ~mask)
        positions = np.flatnonzero(keep)
        logits[start + positions] = out[positions]
    return logits


def predict_piggyback_sequence(model: PiggybackModel, seq: DaySequence,
                               batch_size: int, overlap: int,
                               retention: str = "earlier") -> PredictionTimeline:
    """Timeline from the batched carry-over pass; see `piggyback_logits`."""
    return _timeline_from_logits(
        seq, piggyback_logits(model, seq, batch_size, overlap, retention))


# ---------------------------------------------------------------------------
# Timeline JSON export / import
# ---------------------------------------------------------------------------

def timeline_to_obj(timeline: PredictionTimeline, include_probs: bool = False) -> dict:
    frames = []
    for idx in range(len(timeline)):
        frame = {
            "index": idx,
            "true": int(timeline.true_labels[idx]),
            "pred": int(timeline.pred_labels[idx]),
        }
        if include_probs:
            frame["probs"] = [float(p) for p in timeline.probs[idx]]
        frames.append(frame)
    return {"sequence_id": timeline.sequence_id, "frames": frames}


def write_timelines_json(timelines: list[PredictionTimeline], path: str | Path,
                         include_probs: bool = False) -> None:
    objs = [timeline_to_obj(t, include_probs) for t in timelines]
    Path(path).write_text(json.dumps(objs, indent=2) + "\n", encoding="utf-8")


def read_timelines_json(path: str | Path, num_classes: int) -> list[PredictionTimeline]:
    """Load exported timelines; missing probabilities become one-hot rows."""
    path = Path(path)
    try:
        objs = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(objs, list):
        raise FormatError(f"{path}: expected a JSON array of timelines")
    timelines = []
    for obj in objs:
        try:
            frames = obj["frames"]
            true_labels = np.asarray([f["true"] for f in frames], dtype=np.int64)
            pred_labels = np.asarray([f["pred"] for f in frames], dtype=np.int64)
            if frames and "probs" in frames[0]:
                probs = np.asarray([f["probs"] for f in frames], dtype=np.float64)
            else:
                probs = np.zeros((len(frames), num_classes))
                probs[np.arange(len(frames)), pred_labels] = 1.0
            timelines.append(
                PredictionTimeline(obj["sequence_id"], true_labels, pred_labels, probs)
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise FormatError(f"{path}: malformed timeline entry") from exc
    return timelines
