"""One epoch loop for the three architectures, early stopping, reproducibility.

The loop takes one SGD step per batch of a plan (the gradient is the mean
over the window's supervised frames), shuffle the day sequences each epoch
with a seeded permutation, and select the best epoch by validation loss.
The overlap architecture trains in two phases: phase 1 on non-overlapping
consecutive batches with the full stack, phase 2 on the overlap plan with
carry-over and a frozen embedding.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .batching import batch_plan, sliding_plan
from .datamodel import DaySequence
from .errors import ConfigError, NumericError
from .models import (
    FrameBaselineModel,
    PiggybackModel,
    PredictionTimeline,
    SlidingWindowModel,
    predict_baseline,
    predict_piggyback_sequence,
    predict_sliding_sequence,
)
from .nnet import OptimizerState, backprop_window, sgd_update, stack_params

ARCHITECTURES = ("baseline", "sliding", "piggyback")
_IMPROVEMENT = 1e-12  # a validation loss must beat the best by more than this


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    `timestep` is the window length for the sliding architecture and the
    batch size n for the overlap architecture, whose `overlap` m must satisfy
    0 < m < n. `phase` only matters for the overlap architecture.
    """

    architecture: str
    timestep: int = 5
    overlap: int = 0
    learning_rate: float = 2.5e-5
    momentum: float = 0.9
    weight_decay: float = 5e-6
    epochs: int = 5
    patience: int = 3
    dropout: float = 0.5
    seed: int = 0
    phase: int = 1

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"architecture must be one of {ARCHITECTURES}")
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be non-negative")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout rate must lie in [0, 1)")
        if self.timestep < 1:
            raise ConfigError("timestep must be >= 1")
        if self.architecture == "piggyback":
            if not 0 < self.overlap < self.timestep:
                raise ConfigError(
                    f"overlap must satisfy 0 < m < n, got n={self.timestep} m={self.overlap}"
                )
            if self.phase not in (1, 2):
                raise ConfigError("phase must be 1 or 2")


@dataclass
class EpochStats:
    train_loss: float
    val_loss: float
    val_accuracy: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    stop_reason: str = "max_epochs"

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2) + "\n",
                              encoding="utf-8")


@dataclass
class TrainResult:
    """Report plus the best checkpoint; the model itself holds the last state."""

    report: TrainReport
    best_params: dict[str, np.ndarray] | None


def early_stop_update(history: list[float], patience: int) -> bool:
    """True once the best validation loss stayed unbeaten for `patience` epochs.

    An epoch improves only when it undercuts the running best by more than
    1e-12; the earliest epoch holding the best value is the reference.
    """
    if not history:
        raise ConfigError("early stopping needs at least one validation loss")
    if patience < 1:
        raise ConfigError("patience must be >= 1")
    best_idx = 0
    for idx, loss in enumerate(history):
        if loss < history[best_idx] - _IMPROVEMENT:
            best_idx = idx
    return len(history) - 1 - best_idx >= patience


def validate_model(model, val_seqs: list[DaySequence], predict) -> tuple[float, float]:
    """Mean per-frame cross-entropy and accuracy over validation sequences.

    Summation order is fixed (sequence order, ascending frames) so the result
    is bit-reproducible.
    """
    total_loss = 0.0
    total_correct = 0
    total_frames = 0
    for seq in val_seqs:
        timeline: PredictionTimeline = predict(model, seq)
        p_true = timeline.probs[np.arange(len(timeline)), timeline.true_labels]
        total_loss += float(-np.log(np.maximum(p_true, 1e-300)).sum())
        total_correct += int((timeline.pred_labels == timeline.true_labels).sum())
        total_frames += len(timeline)
    if total_frames == 0:
        raise ConfigError("validation needs at least one frame")
    return total_loss / total_frames, total_correct / total_frames


def _clone_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: w.copy() for name, w in params.items()}


class _EpochDriver:
    """The epoch/validation/early-stop loop over the batches of a plan.

    `plan(length)` tiles each training day; `stage` is the stack that trains
    (the model unless the embedding is frozen), and only its parameters get
    optimizer state. With `overlap` m > 0 the batches run in order, the
    model's embedding turns each batch into recurrent inputs, and the first m
    of them are replaced by the previous batch's last m recurrent outputs.
    """

    def __init__(self, model, cfg: TrainConfig, predict, plan, stage=None,
                 overlap: int = 0):
        self.model = model
        self.cfg = cfg
        self.predict = predict
        self.plan = plan
        self.stage = model if stage is None else stage
        self.overlap = overlap
        seq_seed = np.random.SeedSequence(cfg.seed)
        shuffle_seed, dropout_seed = seq_seed.spawn(2)
        self.shuffle_rng = np.random.default_rng(shuffle_seed)
        self.dropout_rng = np.random.default_rng(dropout_seed)
        self.opt = OptimizerState.create(
            stack_params(self.stage), cfg.learning_rate, cfg.momentum, cfg.weight_decay
        )

    def train_steps(self, seq: DaySequence):
        plan = self.plan(len(seq))
        rows, labels = plan.rows(seq.features), plan.rows(seq.labels)
        m = self.overlap
        h_prev = None
        for start in plan.starts:
            batch = slice(start, start + plan.size)
            inputs = rows[batch]
            if m:
                inputs = self.model.embed.forward_rows(inputs)
                if h_prev is not None:
                    inputs[:m] = h_prev[-m:]
            loss, grads, fwd = backprop_window(
                self.stage, inputs, labels[batch], plan.valid[batch],
                dropout_rate=self.cfg.dropout, rng=self.dropout_rng, mode="train",
            )
            h_prev = fwd.lstm_outputs
            yield loss, grads

    def run(self, train_seqs: list[DaySequence],
            val_seqs: list[DaySequence]) -> TrainResult:
        if not train_seqs or not val_seqs:
            raise ConfigError("training needs at least one train and one val sequence")
        cfg = self.cfg
        report = TrainReport()
        params = self.model.params()
        best_params = None
        best_loss = np.inf
        history: list[float] = []
        for _ in range(cfg.epochs):
            order = self.shuffle_rng.permutation(len(train_seqs))
            step_losses = []
            try:
                for idx in order:
                    for loss, grads in self.train_steps(train_seqs[idx]):
                        if not np.isfinite(loss):
                            raise NumericError("non-finite training loss")
                        sgd_update(params, grads, self.opt)
                        step_losses.append(loss)
            except NumericError:
                report.stop_reason = "numeric_failure"
                break
            val_loss, val_acc = validate_model(self.model, val_seqs, self.predict)
            report.epochs.append(
                EpochStats(float(np.mean(step_losses)), val_loss, val_acc)
            )
            if val_loss < best_loss - _IMPROVEMENT:
                best_loss = val_loss
                best_params = _clone_params(params)
                report.best_epoch = len(report.epochs) - 1
            history.append(val_loss)
            if early_stop_update(history, cfg.patience):
                report.stop_reason = "early_stop"
                break
        else:
            report.stop_reason = "max_epochs"
        return TrainResult(report=report, best_params=best_params)


def train_baseline(model: FrameBaselineModel, train_seqs: list[DaySequence],
                   val_seqs: list[DaySequence], cfg: TrainConfig) -> TrainResult:
    """One SGD step per frame, sequences shuffled each epoch."""
    if cfg.architecture != "baseline":
        raise ConfigError("config architecture must be 'baseline'")
    driver = _EpochDriver(model, cfg, predict_baseline,
                          plan=lambda length: sliding_plan(length, 1))
    return driver.run(train_seqs, val_seqs)


def train_sliding(model: SlidingWindowModel, train_seqs: list[DaySequence],
                  val_seqs: list[DaySequence], cfg: TrainConfig) -> TrainResult:
    """Visit every stride-1 window of every training sequence once per epoch.

    Windows run in ascending start order within a sequence; validation uses
    the non-overlapping inference tiling.
    """
    if cfg.architecture != "sliding":
        raise ConfigError("config architecture must be 'sliding'")

    def predict(mdl, seq):
        return predict_sliding_sequence(mdl, seq, cfg.timestep)

    driver = _EpochDriver(model, cfg, predict,
                          plan=lambda length: sliding_plan(length, cfg.timestep))
    return driver.run(train_seqs, val_seqs)


def train_piggyback(model: PiggybackModel, train_seqs: list[DaySequence],
                    val_seqs: list[DaySequence], cfg: TrainConfig) -> TrainResult:
    """Run the phase selected by the config.

    Phase 1 trains the whole stack on consecutive non-overlapping batches and
    validates with the same carry-free tiling. Phase 2 freezes the embedding
    (bit-identical before and after), trains the recurrent stage on the
    overlap plan with carry-over, and validates with carried inference.
    """
    if cfg.architecture != "piggyback":
        raise ConfigError("config architecture must be 'piggyback'")
    if cfg.phase == 1:
        def predict(mdl, seq):
            return predict_sliding_sequence(mdl, seq, cfg.timestep)

        driver = _EpochDriver(model, cfg, predict,
                              plan=lambda length: batch_plan(length, cfg.timestep))
        return driver.run(train_seqs, val_seqs)

    def predict(mdl, seq):
        return predict_piggyback_sequence(mdl, seq, cfg.timestep, cfg.overlap)

    driver = _EpochDriver(
        model, cfg, predict,
        plan=lambda length: batch_plan(length, cfg.timestep, cfg.overlap),
        stage=model.carry_stage(), overlap=cfg.overlap)
    return driver.run(train_seqs, val_seqs)
