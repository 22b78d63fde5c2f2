"""Days read from disk hold float32 features; the same values held in memory
as float64 must give the same predictions and the same training run, bit
for bit, because every product widens its rows exactly."""

import dataclasses

import numpy as np
import pytest

from egobatch import (
    DaySequence,
    LayerStack,
    SynthConfig,
    TrainConfig,
    build_stack,
    generate_synthetic,
    read_sequence_file,
    train_baseline,
    train_piggyback,
    train_sliding,
    write_sequence_file,
)
from egobatch.models import model_from_params, piggyback_logits, predict_days

# day lengths 1-2 (at most m), 7 (one batch) and longer, with several batches
DAYS = SynthConfig(num_sequences=5, frames_per_sequence=23, seed=8)
LENGTHS = (23, 2, 7, 1, 19)


@pytest.fixture(scope="module")
def days(tmp_path_factory):
    """The synthetic days as read from disk (float32), and the same values
    held in memory as float64."""
    folder = tmp_path_factory.mktemp("days")
    dataset = generate_synthetic(DAYS)
    disk = []
    for seq, length in zip(dataset.sequences, LENGTHS):
        path = folder / f"{seq.sequence_id}.egoseq"
        write_sequence_file(DaySequence(seq.sequence_id, seq.user_id,
                                        seq.features[:length], seq.labels[:length]),
                            path)
        disk.append(read_sequence_file(path, dataset.label_set))
    memory = [dataclasses.replace(day, features=day.features.astype(np.float64))
              for day in disk]
    assert all(day.features.dtype == np.float32 for day in disk)
    assert all(day.features.dtype == np.float64 for day in memory)
    return disk, memory


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("architecture, timestep, overlap", [
    ("baseline", 1, 0),
    ("sliding", 5, 0),
    ("piggyback", 5, 2),  # carried
    ("piggyback", 5, 0),  # carry-free, as phase 1 validates
])
def test_predict_sequence_same_bits(days, architecture, timestep, overlap):
    model = build_stack(architecture, DAYS.feature_dim, DAYS.num_classes, hidden=6,
                        seed=4)
    for disk, memory in zip(*days):
        want = predict_days(model, [memory], timestep, overlap)[0]
        got = predict_days(model, [disk], timestep, overlap)[0]
        assert_same_bits(got.probs, want.probs)
        assert_same_bits(got.pred_labels, want.pred_labels)


@pytest.mark.parametrize("retention", ["earlier", "later"])
def test_carry_into_gathered_rows_same_bits(days, retention):
    # without an embedding (D = H) the carry writes recurrent outputs into
    # the gathered feature rows themselves, which must not round them
    sliding = build_stack("sliding", DAYS.feature_dim, DAYS.num_classes,
                          hidden=DAYS.feature_dim, seed=5)
    model = LayerStack(sliding.head, sliding.lstm)
    for disk, memory in zip(*days):
        before = disk.features.copy()
        want = piggyback_logits(model, memory, 5, 2, retention)
        assert_same_bits(piggyback_logits(model, disk, 5, 2, retention), want)
        assert_same_bits(disk.features, before)


def train_both(days, architecture, trainer, start=None, **config):
    """Train one model on the disk days and one on the memory days, each from
    the same start, and check that the two runs agree bit for bit."""
    cfg = TrainConfig(architecture, learning_rate=0.05, epochs=3, patience=1,
                      dropout=0.3, seed=2, **config)
    results = []
    for train in days:
        model = (model_from_params(start) if start else
                 build_stack(architecture, DAYS.feature_dim, DAYS.num_classes,
                             hidden=6, seed=1))
        result = trainer(model, train[:3], train[3:], cfg)
        results.append((result, model.params()))
    (got, got_last), (want, want_last) = results
    assert got.report == want.report
    for name in want_last:
        assert_same_bits(got_last[name], want_last[name])
        assert_same_bits(got.best_params[name], want.best_params[name])
    return got_last


@pytest.mark.parametrize("architecture, trainer, timestep", [
    ("baseline", train_baseline, 1),
    ("sliding", train_sliding, 4),
])
def test_train_same_bits(days, architecture, trainer, timestep):
    train_both(days, architecture, trainer, timestep=timestep)


def test_train_piggyback_both_phases_same_bits(days):
    phase1 = train_both(days, "piggyback", train_piggyback, timestep=5, overlap=2)
    train_both(days, "piggyback", train_piggyback, start=phase1, timestep=5,
               overlap=2, phase=2)
