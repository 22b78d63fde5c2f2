"""One layer stack for the three architectures, and whole-sequence prediction.

All heads consume precomputed per-frame feature vectors. The frame baseline
classifies frames independently; the sliding-window head runs a recurrent
layer over fixed-size windows; the piggyback head additionally re-injects the
previous batch's recurrent outputs at overlapped positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .batching import BatchPlan, batch_plan
from .datamodel import DaySequence, read_json
from .errors import ConfigError, DataError, FormatError, NumericError, ShapeError
from .nnet import GATES, DenseLayer, LstmLayer, run_window, softmax

ARCHITECTURES = ("baseline", "sliding", "piggyback")
DEFAULT_HIDDEN = 256
RETENTIONS = ("earlier", "later")


@dataclass
class LayerStack:
    """An optional embedding, an optional recurrent layer and a class head.

    The layers present decide the architecture: the head alone is the frame
    baseline, a recurrent layer before it the sliding-window stack, and an
    affine embedding into the recurrent width before that the piggyback
    stack, whose recurrent outputs can stand in for its recurrent inputs.
    """

    head: DenseLayer
    lstm: LstmLayer | None = None
    embed: DenseLayer | None = None

    def __post_init__(self):
        if self.lstm is None:
            if self.embed is not None:
                raise ShapeError("an embedding needs a recurrent layer after it")
        else:
            if self.embed is not None and not (
                    self.embed.out_dim == self.lstm.in_dim == self.lstm.hidden):
                raise ShapeError(
                    "embedding width, recurrent input width and hidden size must all match"
                )
            if self.head.in_dim != self.lstm.hidden:
                raise ShapeError("head input width must equal the recurrent hidden size")

    @property
    def architecture(self) -> str:
        if self.embed is not None:
            return "piggyback"
        return "baseline" if self.lstm is None else "sliding"

    @property
    def layers(self) -> list:
        """The layers present, in order: embed, lstm, head."""
        return [layer for layer in (self.embed, self.lstm, self.head) if layer is not None]

    @property
    def input_dim(self) -> int:
        """Feature width the stack consumes."""
        return (self.embed or self.lstm or self.head).in_dim

    def params(self) -> dict[str, np.ndarray]:
        """Live parameter tensors, canonically named, in `layers` order."""
        out: dict[str, np.ndarray] = {}
        if self.embed is not None:
            out["embed.W"] = self.embed.weight
            out["embed.b"] = self.embed.bias
        lstm = self.lstm
        if lstm is not None:  # each gate is a row block of the stacks, a view
            for kind, stack in zip("WUb", (lstm.w_stack, lstm.u_stack, lstm.b_stack)):
                for k, g in enumerate(GATES):
                    out[f"lstm.{kind}_{g}"] = stack[k * lstm.hidden:(k + 1) * lstm.hidden]
        out["head.W"] = self.head.weight
        out["head.b"] = self.head.bias
        return out

    def unflatten(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a vector laid out like `flatten_layers(self.layers)`,
        named like `params()`."""
        views, offset = {}, 0
        for name, w in self.params().items():
            views[name] = vector[offset:offset + w.size].reshape(w.shape)
            offset += w.size
        return views

    def carry_stage(self) -> "LayerStack":
        """The sub-stack trained when the embedding is frozen; it shares this
        stack's recurrent layer and head."""
        return LayerStack(self.head, self.lstm)


def build_stack(architecture: str, feature_dim: int, num_classes: int,
                hidden: int = DEFAULT_HIDDEN, seed: int = 0) -> LayerStack:
    """A new stack of the named architecture. Its embed, lstm and head draw
    from one generator in that order; the baseline ignores `hidden`."""
    if architecture not in ARCHITECTURES:
        raise ConfigError(f"architecture must be one of {ARCHITECTURES}")
    rng = np.random.default_rng(seed)
    embed = lstm = None
    if architecture == "piggyback":
        embed = DenseLayer.create(feature_dim, hidden, rng)
    if architecture != "baseline":
        lstm = LstmLayer.create(feature_dim if embed is None else hidden, hidden, rng)
    head = DenseLayer.create(feature_dim if lstm is None else hidden, num_classes, rng)
    return LayerStack(head, lstm, embed)


def build_baseline(feature_dim: int, num_classes: int, seed: int = 0) -> LayerStack:
    return build_stack("baseline", feature_dim, num_classes, seed=seed)


def build_sliding(feature_dim: int, num_classes: int, hidden: int = DEFAULT_HIDDEN,
                  seed: int = 0) -> LayerStack:
    return build_stack("sliding", feature_dim, num_classes, hidden, seed)


def build_piggyback(feature_dim: int, num_classes: int, hidden: int = DEFAULT_HIDDEN,
                    seed: int = 0) -> LayerStack:
    return build_stack("piggyback", feature_dim, num_classes, hidden, seed)


def model_from_params(params: dict[str, np.ndarray]) -> LayerStack:
    """Rebuild a stack from checkpoint tensors; the name prefixes present
    (`lstm.`, `embed.`) decide which layers it has. The stack shares no
    memory with `params`."""
    layers = {name.split(".", 1)[0] for name in params}
    expected = ["embed.W", "embed.b"] if "embed" in layers else []
    if "lstm" in layers:
        expected += [f"lstm.{k}_{g}" for k in "WUb" for g in GATES]
    expected += ["head.W", "head.b"]
    names = set(params)
    if names != set(expected):
        raise ShapeError(
            f"checkpoint tensors mismatch: missing={sorted(set(expected) - names)} "
            f"extra={sorted(names - set(expected))}"
        )

    def dense(prefix: str) -> DenseLayer:
        # DenseLayer keeps float64 arrays it is given, so copy them here
        return DenseLayer(np.array(params[f"{prefix}.W"], dtype=np.float64),
                          np.array(params[f"{prefix}.b"], dtype=np.float64))

    lstm = embed = None
    if "lstm" in layers:
        gates = [[params[f"lstm.{kind}_{g}"] for g in GATES] for kind in "WUb"]
        if any(t.ndim == 0 or t.shape != same[0].shape for same in gates for t in same):
            raise ShapeError("the four gates of lstm.W_*, lstm.U_* and lstm.b_* must "
                             "each be arrays of one shape")
        lstm = LstmLayer(*map(np.concatenate, gates))  # concatenating copies
    if "embed" in layers:
        embed = dense("embed")
    return LayerStack(dense("head"), lstm, embed)


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
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits")
    probs = softmax(logits)
    # argmax takes the first maximum, which is the lowest label id on ties
    return PredictionTimeline(
        sequence_id=seq.sequence_id,
        true_labels=seq.labels.copy(),
        pred_labels=np.argmax(probs, axis=1),
        probs=probs,
    )


def predict_baseline(model: LayerStack, seq: DaySequence) -> PredictionTimeline:
    """Classify every frame independently."""
    logits = run_window(model, seq.features).logits
    return _timeline_from_logits(seq, logits)


def _plan_logits(model, seq: DaySequence, plan: BatchPlan, overlap: int = 0,
                 retention: str = "earlier") -> np.ndarray:
    """Per-frame logits of a recurrent stack run over the batches of `plan`.

    The padded day's rows are gathered and widened to float64 once, before
    the embedding and before any carry writes into them, and embedded once
    (when the stack has an embedding).
    Without overlap the batches are independent and run in one batched
    recurrent pass and one head product. With overlap m they run in plan
    order, and the first m recurrent inputs of every batch after the first
    are the previous batch's last m recurrent outputs. A frame inside an
    overlap then has two outputs; `retention` keeps the one of the batch
    where the frame was new ("earlier") or of the batch that carried it
    ("later").
    """
    n, m = plan.size, overlap
    count = len(plan.starts)
    rows = np.asarray(plan.rows(seq.features), dtype=np.float64)
    if model.embed is not None:
        rows = model.embed.forward_rows(rows)
    if not m:
        h_rows = model.lstm.forward_batch(rows.reshape(count, n, -1))
        logits = model.head.forward_rows(h_rows.reshape(count * n, -1))
    else:
        # the head runs per batch: one product over all batches can round
        # the rows of a batch's tail differently
        logits = np.empty((count * n, model.head.out_dim))
        for k, start in enumerate(plan.starts):
            inputs = rows[start:start + n]
            if k:
                # overwrites positions the previous batch has already read
                inputs[:m] = h_rows[-m:]
            h_rows = model.lstm.forward_batch(inputs[np.newaxis])[0]
            logits[k * n:(k + 1) * n] = model.head.forward_rows(h_rows)
    kept = np.ones((count, n), dtype=bool)
    if retention == "earlier":
        kept[1:, :m] = False
    else:
        kept[:-1, n - m:] = False
    kept &= plan.valid[plan.starts[:, np.newaxis] + np.arange(n)]
    # batches and positions ascend, so the kept rows are in frame order
    return logits.reshape(count, n, -1)[kept]


def predict_sliding_sequence(model, seq: DaySequence, timestep: int) -> PredictionTimeline:
    """Tile the sequence with non-overlapping windows of `timestep` frames.

    The recurrent state starts at zero in every window; the last window is
    right-padded with repeats of the final frame and the padded positions are
    discarded, so every frame receives exactly one prediction. Accepts any
    stack with a recurrent layer (the overlap model runs here carry-free).
    The windows are independent, so all of them run in one batched pass.
    """
    plan = batch_plan(len(seq), timestep)
    return _timeline_from_logits(seq, _plan_logits(model, seq, plan))


def piggyback_logits(model: LayerStack, seq: DaySequence, batch_size: int,
                     overlap: int, retention: str = "earlier") -> np.ndarray:
    """Per-frame logits of the batched carry-over forward pass.

    Batches of n frames with stride n - m run in plan order, each carrying
    the previous batch's last m recurrent outputs; see `_plan_logits` for
    `retention`. A day of at most n frames is one right-padded batch with no
    carry.
    """
    if retention not in RETENTIONS:
        raise ConfigError(f"retention must be one of {RETENTIONS}, got {retention!r}")
    if overlap < 1:
        raise ConfigError(f"overlap must satisfy 0 < m < n, got n={batch_size} m={overlap}")
    plan = batch_plan(len(seq), batch_size, overlap)
    return _plan_logits(model, seq, plan, overlap, retention)


def predict_piggyback_sequence(model: LayerStack, seq: DaySequence,
                               batch_size: int, overlap: int,
                               retention: str = "earlier") -> PredictionTimeline:
    """Timeline from the batched carry-over pass; see `piggyback_logits`."""
    return _timeline_from_logits(
        seq, piggyback_logits(model, seq, batch_size, overlap, retention))


def predict_sequence(model: LayerStack, seq: DaySequence, timestep: int, overlap: int,
                     retention: str = "earlier") -> PredictionTimeline:
    """Predict a day as the stack's layers and `overlap` call for: the
    baseline frame by frame, a sliding stack over windows of `timestep`
    frames (both ignore `overlap`), and a piggyback stack over batches of
    n = `timestep`, carried with overlap m = `overlap`, or at m = 0
    carry-free as phase 1 trains it."""
    if model.lstm is None:
        return predict_baseline(model, seq)
    if model.embed is None or overlap == 0:
        return predict_sliding_sequence(model, seq, timestep)
    return predict_piggyback_sequence(model, seq, timestep, overlap, retention=retention)


# ---------------------------------------------------------------------------
# Timeline JSON export / import
# ---------------------------------------------------------------------------

# One frame as `write_json` lays it out inside a timeline.
_FRAME = ('      {\n        "index": %d,\n        "true": %d,\n'
          '        "pred": %d\n      }')
_FRAME_PROBS = ('      {\n        "index": %d,\n        "true": %d,\n        "pred": %d,\n'
                '        "probs": [\n          %s\n        ]\n      }')


def write_timelines_json(timelines: list[PredictionTimeline], path: str | Path,
                         include_probs: bool = False) -> None:
    """Write the timelines as a JSON array of `{"sequence_id", "frames"}`,
    each frame `{"index", "true", "pred"}` plus `"probs"` on request.

    The bytes are those of `datamodel.write_json(path, objs)`, but each
    frame is formatted directly: `indent` turns off json's C encoder, and
    its pure-Python one dominated the write. Ids are escaped as json escapes
    them and probabilities written with `float.__repr__`, as json does."""
    days = []
    for timeline in timelines:
        columns = [range(len(timeline)), timeline.true_labels.tolist(),
                   timeline.pred_labels.tolist()]
        if include_probs:
            columns.append([",\n          ".join(map(float.__repr__, row))
                            for row in timeline.probs.tolist()])
        frame = _FRAME_PROBS if include_probs else _FRAME
        days.append('  {\n    "sequence_id": %s,\n    "frames": [\n%s\n    ]\n  }' % (
            encode_basestring_ascii(timeline.sequence_id),
            ",\n".join([frame % values for values in zip(*columns)])))
    text = "[\n" + ",\n".join(days) + "\n]\n" if days else "[]\n"
    Path(path).write_text(text, encoding="utf-8")


def read_timelines_json(path: str | Path, num_classes: int) -> list[PredictionTimeline]:
    """Load exported timelines, each `sequence_id` a string listed once;
    missing probabilities become one-hot rows."""
    path = Path(path)
    objs = read_json(path)
    if not isinstance(objs, list):
        raise FormatError(f"{path}: expected a JSON array of timelines")
    timelines = []
    seen: set[str] = set()
    for obj in objs:
        try:
            sid = obj["sequence_id"]
            if not isinstance(sid, str):
                raise FormatError(f"{path}: sequence_id must be a JSON string")
            if sid in seen:  # a repeated day would be scored twice
                raise FormatError(f"{path}: timelines list {sid!r} more than once")
            seen.add(sid)
            frames = obj["frames"]
            if not all(type(f[key]) is int for f in frames for key in ("true", "pred")):
                raise FormatError(f"{path}: frame labels must be JSON integers")
            true_labels = np.asarray([f["true"] for f in frames], dtype=np.int64)
            pred_labels = np.asarray([f["pred"] for f in frames], dtype=np.int64)
            if frames and "probs" in frames[0]:
                rows = [f["probs"] for f in frames]
                if not all(type(p) in (int, float) for row in rows for p in row):
                    raise FormatError(f"{path}: probabilities must be JSON numbers")
                probs = np.asarray(rows, dtype=np.float64)
            else:
                probs = np.zeros((len(frames), num_classes))
                probs[np.arange(len(frames)), pred_labels] = 1.0
            timelines.append(
                PredictionTimeline(sid, true_labels, pred_labels, probs)
            )
        except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: malformed timeline entry") from exc
    return timelines
