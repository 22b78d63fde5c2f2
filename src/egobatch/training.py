"""One epoch loop for the three architectures, early stopping, reproducibility.

The loop takes one SGD step per batch of a plan (the gradient is the mean
over the window's supervised frames), shuffle the day sequences each epoch
with a seeded permutation, and select the best epoch by validation loss.
Each run lays the trained layers' tensors out in one vector, so a step is
one update over that vector and its gradient.
The overlap architecture trains in two phases: phase 1 on non-overlapping
consecutive batches with the full stack, phase 2 on the overlap plan with
carry-over and a frozen embedding. Validation predicts the val days as
`predict` does, through `predict_days` at the run's size and overlap (0 in
phase 1).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .batching import batch_plan, sliding_plan
from .datamodel import DaySequence, write_json
from .errors import ConfigError, NumericError
from .models import ARCHITECTURES, LayerStack, predict_days
from .nnet import (OptimizerState, StepWorkspace, backprop_window, flatten_layers,
                   sgd_update)

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
        if not 0 < self.learning_rate < np.inf:  # NaN fails every comparison
            raise ConfigError("learning rate must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError("weight decay must be non-negative and finite")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout rate must lie in [0, 1)")
        if self.timestep < 1:
            raise ConfigError("timestep must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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
    """The record a run decides from: per-epoch stats, the best epoch (-1
    before the first) and why the run stopped."""

    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    stop_reason: str = "max_epochs"

    def write_json(self, path: str | Path) -> None:
        write_json(path, asdict(self))


@dataclass
class TrainResult:
    """Report plus the best checkpoint; the model itself holds the last state."""

    report: TrainReport
    best_params: dict[str, np.ndarray] | None


def validate_model(model, val_seqs: Sequence[DaySequence], timestep: int,
                   overlap: int) -> tuple[float, float]:
    """Mean per-frame cross-entropy and accuracy over validation sequences,
    predicted by `predict_days` at `timestep` and `overlap`, as `predict`
    predicts them.

    Summation order is fixed (sequence order, ascending frames) so the result
    is bit-reproducible. A carried piggyback stack (overlap > 0) runs the
    days in lock step and keeps each day's embedded rows, not its features,
    until all are predicted; any other stack drops each day before the next
    is read.
    """
    total_loss = 0.0
    total_correct = 0
    total_frames = 0
    for timeline in predict_days(model, val_seqs, timestep, overlap):
        p_true = timeline.probs[np.arange(len(timeline)), timeline.true_labels]
        total_loss += float(-np.log(np.maximum(p_true, 1e-300)).sum())
        total_correct += int((timeline.pred_labels == timeline.true_labels).sum())
        total_frames += len(timeline)
    if total_frames == 0:
        raise ConfigError("validation needs at least one frame")
    return total_loss / total_frames, total_correct / total_frames


def _train(model: LayerStack, train_seqs: Sequence[DaySequence],
           val_seqs: Sequence[DaySequence], cfg: TrainConfig,
           architecture: str) -> TrainResult:
    """The epoch/validation/early-stop loop over the batches of a plan.

    The config decides the plan that tiles each training day: stride-1
    windows of one frame (baseline) or of T frames (sliding), or consecutive
    batches of n frames (piggyback), with overlap m and carry-over in phase 2
    only. Validation predicts with the same n and m, so phase 1 validates
    carry-free, as it trains. The stage that trains is the
    model, or in phase 2 its carry stage, whose embedding is frozen. The
    stage's layers are rebound to views of one new vector, the optimizer
    state is one velocity vector as long, and each step is one `sgd_update`
    over the vector and the window's gradient. Every step's
    `backprop_window` writes into one `StepWorkspace`, built for the stage
    and window length once per run, and returns it: the gradient, the logits
    and the recurrent outputs are its fields, so they hold only until the
    next step, and the update and the carry read them before that step
    starts. The workspace holds none of a day's rows between steps. In
    phase 2 the frozen embedding turns the padded day into recurrent inputs
    once, the batches run in order, and the first m inputs of each are
    replaced by the previous batch's last m recurrent outputs. Each day is
    dropped, with its rows, before the next is read (from a `Manifest`).
    Validation does the same, except in phase 2, where it runs the val days
    in lock step and holds their embedded rows until all are predicted.

    The report holds every decision: an epoch whose validation loss
    undercuts the best epoch's by more than 1e-12 becomes the best epoch (the
    first always does), whose parameters are kept; the run stops `patience`
    epochs after the best one, or at a non-finite value in a step or in
    validation.
    """
    if cfg.architecture != architecture:
        raise ConfigError(f"config architecture must be {architecture!r}")
    if model.architecture != cfg.architecture:
        raise ConfigError(f"config architecture {cfg.architecture!r} does not "
                          f"match the {model.architecture!r} model")
    if not train_seqs or not val_seqs:
        raise ConfigError("training needs at least one train and one val sequence")
    piggyback = architecture == "piggyback"
    size = 1 if architecture == "baseline" else cfg.timestep
    overlap = cfg.overlap if piggyback and cfg.phase == 2 else 0

    def plan(length):
        return batch_plan(length, size, overlap) if piggyback else sliding_plan(length, size)

    stage = model.carry_stage() if overlap else model
    shuffle_seed, dropout_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    dropout_rng = np.random.default_rng(dropout_seed)
    flat = flatten_layers(stage.layers)
    opt = OptimizerState.create(flat.size, cfg.learning_rate, cfg.momentum,
                                cfg.weight_decay)
    workspace = StepWorkspace(stage, size)
    report = TrainReport()
    best_params = None
    for epoch in range(cfg.epochs):
        step_losses = []
        try:
            for idx in shuffle_rng.permutation(len(train_seqs)):
                seq = train_seqs[idx]
                day = plan(len(seq))
                # the day's rows, widened once for all of its steps
                rows = np.asarray(day.rows(seq.features), dtype=np.float64)
                labels = day.rows(seq.labels)
                del seq  # a `Manifest` reads a day when indexed: hold one at a time
                if overlap:
                    rows = model.embed.forward_rows(rows)
                for start in day.starts:
                    batch = slice(start, start + day.size)
                    inputs = rows[batch]
                    if overlap and start:
                        # overwrites positions the previous batch has already read
                        inputs[:overlap] = step.lstm_outputs[-overlap:]
                    loss, grads, step = backprop_window(
                        stage, inputs, labels[batch], day.valid[batch],
                        dropout_rate=cfg.dropout, rng=dropout_rng, workspace=workspace,
                    )
                    sgd_update(flat, grads, opt)
                    step_losses.append(loss)
                del rows, inputs  # dropped before the next day is read
            # a last step that overflowed the weights fails here
            val_loss, val_acc = validate_model(model, val_seqs, size, overlap)
        except NumericError:
            report.stop_reason = "numeric_failure"
            break
        report.epochs.append(EpochStats(float(np.mean(step_losses)), val_loss, val_acc))
        if not epoch or val_loss < report.epochs[report.best_epoch].val_loss - _IMPROVEMENT:
            best_params = {name: w.copy() for name, w in model.params().items()}
            report.best_epoch = epoch
        if epoch - report.best_epoch >= cfg.patience:
            report.stop_reason = "early_stop"
            break
    return TrainResult(report=report, best_params=best_params)


def train_baseline(model: LayerStack, train_seqs: Sequence[DaySequence],
                   val_seqs: Sequence[DaySequence], cfg: TrainConfig) -> TrainResult:
    """One SGD step per frame, sequences shuffled each epoch."""
    return _train(model, train_seqs, val_seqs, cfg, "baseline")


def train_sliding(model: LayerStack, train_seqs: Sequence[DaySequence],
                  val_seqs: Sequence[DaySequence], cfg: TrainConfig) -> TrainResult:
    """Visit every stride-1 window of every training sequence once per epoch.

    Windows run in ascending start order within a sequence; validation uses
    the non-overlapping inference tiling.
    """
    return _train(model, train_seqs, val_seqs, cfg, "sliding")


def train_piggyback(model: LayerStack, train_seqs: Sequence[DaySequence],
                    val_seqs: Sequence[DaySequence], cfg: TrainConfig) -> TrainResult:
    """Run the phase selected by the config.

    Phase 1 trains the whole stack on consecutive non-overlapping batches and
    validates with the same carry-free tiling. Phase 2 freezes the embedding
    (bit-identical before and after), trains the recurrent stage on the
    overlap plan with carry-over, and validates with carried inference.
    """
    return _train(model, train_seqs, val_seqs, cfg, "piggyback")
