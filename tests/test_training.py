import numpy as np
import pytest

import egobatch.training as training_module
from egobatch import (
    ConfigError,
    DaySequence,
    SynthConfig,
    TrainConfig,
    build_baseline,
    build_piggyback,
    build_sliding,
    early_stop_update,
    generate_synthetic,
    predict_piggyback_sequence,
    predict_sliding_sequence,
    train_baseline,
    train_piggyback,
    train_sliding,
)

DESK = SynthConfig(num_sequences=6, frames_per_sequence=60, seed=3)


def desk_data():
    ds = generate_synthetic(DESK)
    return ds, ds.sequences[:4], ds.sequences[4:]


def ambiguous_accuracy(model, seqs, predict):
    correct = total = 0
    for seq in seqs:
        timeline = predict(model, seq)
        sel = np.isin(timeline.true_labels, DESK.ambiguous_pair)
        correct += int((timeline.pred_labels[sel] == timeline.true_labels[sel]).sum())
        total += int(sel.sum())
    return correct / max(total, 1), total


class TestEarlyStop:
    def test_stops_after_patience_exhausted(self):
        assert early_stop_update([1.0, 0.9, 0.95, 0.96], patience=2) is True

    def test_strictly_decreasing_continues(self):
        history = [1.0, 0.9, 0.8, 0.7, 0.6]
        for end in range(1, len(history) + 1):
            assert early_stop_update(history[:end], patience=1) is False

    def test_flat_history_boundary(self):
        # two non-improving epochs since the epoch-1 best: below patience 3
        assert early_stop_update([1.0, 1.0, 1.0], patience=3) is False
        assert early_stop_update([1.0, 1.0, 1.0, 1.0], patience=3) is True

    def test_empty_history_rejected(self):
        with pytest.raises(ConfigError):
            early_stop_update([], patience=1)


class TestTrainConfig:
    def test_piggyback_overlap_validated(self):
        with pytest.raises(ConfigError):
            TrainConfig("piggyback", timestep=5, overlap=5)
        with pytest.raises(ConfigError):
            TrainConfig("piggyback", timestep=5, overlap=0)

    def test_architecture_validated(self):
        with pytest.raises(ConfigError):
            TrainConfig("cnn")

    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            TrainConfig("sliding", learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig("sliding", momentum=1.0)
        with pytest.raises(ConfigError):
            TrainConfig("sliding", dropout=1.0)


class TestEmptySplit:
    @pytest.mark.parametrize("empty", ["train", "val"])
    def test_empty_list_rejected_before_any_step(self, empty):
        _, train, val = desk_data()
        lists = {"train": train, "val": val, empty: []}
        model = build_baseline(DESK.feature_dim, DESK.num_classes, seed=0)
        before = {name: w.copy() for name, w in model.params().items()}
        with pytest.raises(ConfigError):
            train_baseline(model, lists["train"], lists["val"],
                           TrainConfig("baseline", epochs=1))
        for name, w in model.params().items():
            assert np.array_equal(w, before[name]), name


class TestSliding:
    def test_loss_decreases_on_synthetic_data(self):
        _, train, val = desk_data()
        model = build_sliding(DESK.feature_dim, DESK.num_classes, hidden=8, seed=0)
        cfg = TrainConfig("sliding", timestep=5, learning_rate=0.05, epochs=3,
                          dropout=0.0, seed=0, patience=5)
        result = train_sliding(model, train, val, cfg)
        losses = [e.train_loss for e in result.report.epochs]
        assert len(losses) == 3
        assert losses[-1] < losses[0]

    def test_deterministic_trajectories(self):
        _, train, val = desk_data()
        runs = []
        for _ in range(2):
            model = build_sliding(DESK.feature_dim, DESK.num_classes, hidden=6, seed=4)
            cfg = TrainConfig("sliding", timestep=5, learning_rate=0.02, epochs=2,
                              dropout=0.5, seed=7, patience=5)
            result = train_sliding(model, train, val, cfg)
            runs.append((
                [e.train_loss for e in result.report.epochs],
                [e.val_loss for e in result.report.epochs],
                {k: v.copy() for k, v in model.params().items()},
            ))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        for key in runs[0][2]:
            assert np.array_equal(runs[0][2][key], runs[1][2][key])

    def test_one_step_per_window(self, monkeypatch):
        counter = {"steps": 0}
        real = training_module.sgd_update

        def counting(params, grads, opt):
            counter["steps"] += 1
            return real(params, grads, opt)

        monkeypatch.setattr(training_module, "sgd_update", counting)
        ds, train, val = desk_data()
        model = build_sliding(DESK.feature_dim, DESK.num_classes, hidden=4, seed=1)
        cfg = TrainConfig("sliding", timestep=5, learning_rate=0.01, epochs=1,
                          dropout=0.0, seed=0, patience=5)
        train_sliding(model, train, val, cfg)
        expected = sum(len(s) - 5 + 1 for s in train)
        assert counter["steps"] == expected

    def test_single_window_sequence(self, monkeypatch):
        counter = {"steps": 0}
        real = training_module.sgd_update

        def counting(params, grads, opt):
            counter["steps"] += 1
            return real(params, grads, opt)

        monkeypatch.setattr(training_module, "sgd_update", counting)
        ds, _, val = desk_data()
        one = [ds.sequences[0]]
        model = build_sliding(DESK.feature_dim, DESK.num_classes, hidden=4, seed=1)
        cfg = TrainConfig("sliding", timestep=len(one[0]), learning_rate=0.01,
                          epochs=1, dropout=0.0, seed=0, patience=5)
        train_sliding(model, one, val, cfg)
        assert counter["steps"] == 1

    def test_wrong_architecture_rejected(self):
        _, train, val = desk_data()
        model = build_sliding(DESK.feature_dim, DESK.num_classes, hidden=4, seed=0)
        with pytest.raises(ConfigError):
            train_sliding(model, train, val, TrainConfig("baseline"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_reported(self):
        _, train, val = desk_data()
        model = build_sliding(DESK.feature_dim, DESK.num_classes, hidden=4, seed=0)
        cfg = TrainConfig("sliding", timestep=5, learning_rate=1e12, epochs=3,
                          dropout=0.0, seed=0, patience=5)
        result = train_sliding(model, train, val, cfg)
        assert result.report.stop_reason == "numeric_failure"


class TestEarlyStopIntegration:
    def test_early_stop_reason_and_best_epoch(self):
        _, train, val = desk_data()
        model = build_baseline(DESK.feature_dim, DESK.num_classes, seed=0)
        # an absurd learning rate makes validation bounce, triggering patience
        cfg = TrainConfig("baseline", learning_rate=5.0, epochs=30, patience=2,
                          dropout=0.0, seed=0)
        result = train_baseline(model, train, val, cfg)
        report = result.report
        if report.stop_reason == "early_stop":
            assert len(report.epochs) < 30
        assert report.stop_reason in ("early_stop", "max_epochs", "numeric_failure")
        if report.epochs and report.stop_reason != "numeric_failure":
            val_losses = [e.val_loss for e in report.epochs]
            assert report.best_epoch == int(np.argmin(val_losses))


class TestBaseline:
    def test_trains_and_steps_per_frame(self, monkeypatch):
        counter = {"steps": 0}
        real = training_module.sgd_update

        def counting(params, grads, opt):
            counter["steps"] += 1
            return real(params, grads, opt)

        monkeypatch.setattr(training_module, "sgd_update", counting)
        _, train, val = desk_data()
        model = build_baseline(DESK.feature_dim, DESK.num_classes, seed=0)
        cfg = TrainConfig("baseline", learning_rate=0.05, epochs=2, dropout=0.0,
                          seed=0, patience=5)
        result = train_baseline(model, train, val, cfg)
        assert counter["steps"] == 2 * sum(len(s) for s in train)
        assert result.report.epochs[-1].val_accuracy > 0.5


class TestPiggyback:
    def test_phase1_step_count_is_tile_count(self, monkeypatch):
        counter = {"steps": 0}
        real = training_module.sgd_update

        def counting(params, grads, opt):
            counter["steps"] += 1
            return real(params, grads, opt)

        monkeypatch.setattr(training_module, "sgd_update", counting)
        ds, _, val = desk_data()
        one = [ds.sequences[0]]  # 60 frames
        model = build_piggyback(DESK.feature_dim, DESK.num_classes, hidden=4, seed=0)
        cfg = TrainConfig("piggyback", timestep=7, overlap=2, learning_rate=0.01,
                          epochs=1, dropout=0.0, seed=0, patience=5, phase=1)
        train_piggyback(model, one, val, cfg)
        assert counter["steps"] == -(-60 // 7)  # ceil(L / n) tiles, no carry

    def test_phase2_step_count_is_batch_count(self, monkeypatch):
        counter = {"steps": 0}
        real = training_module.sgd_update

        def counting(params, grads, opt):
            counter["steps"] += 1
            return real(params, grads, opt)

        monkeypatch.setattr(training_module, "sgd_update", counting)
        ds, _, val = desk_data()
        one = [ds.sequences[0]]  # 60 frames
        model = build_piggyback(DESK.feature_dim, DESK.num_classes, hidden=4, seed=0)
        cfg = TrainConfig("piggyback", timestep=7, overlap=2, learning_rate=0.01,
                          epochs=1, dropout=0.0, seed=0, patience=5, phase=2)
        train_piggyback(model, one, val, cfg)
        assert counter["steps"] == -(-(60 - 7) // 5) + 1

    def test_phase2_carries_previous_batch_outputs_bit_for_bit(self, monkeypatch):
        calls = []
        real = training_module.backprop_window

        def recording(stage, inputs, *args, **kwargs):
            loss, grads, fwd = real(stage, inputs, *args, **kwargs)
            calls.append((inputs.copy(), fwd.lstm_outputs.copy()))
            return loss, grads, fwd

        monkeypatch.setattr(training_module, "backprop_window", recording)
        ds, _, val = desk_data()
        day = ds.sequences[0]  # 60 frames: batches start at 0, 5, ..., 55
        model = build_piggyback(DESK.feature_dim, DESK.num_classes, hidden=4, seed=0)
        embed = model.embed.forward_rows(day.features)
        cfg = TrainConfig("piggyback", timestep=7, overlap=2, learning_rate=0.01,
                          epochs=1, dropout=0.0, seed=0, patience=5, phase=2)
        train_piggyback(model, [day], val, cfg)
        assert len(calls) == 12
        assert np.allclose(calls[0][0], embed[:7], rtol=0, atol=1e-12)
        for k in range(1, len(calls)):
            inputs, prev_out = calls[k][0], calls[k - 1][1]
            assert np.array_equal(inputs[:2], prev_out[-2:])
            rest = embed[5 * k + 2:5 * k + 7]
            assert np.allclose(inputs[2:2 + len(rest)], rest, rtol=0, atol=1e-12)

    def test_phase2_trains_on_days_of_at_most_m_frames(self):
        ds, _, val = desk_data()
        short = [DaySequence(f"short{length}", "u1", ds.sequences[0].features[:length],
                             ds.sequences[0].labels[:length]) for length in (1, 2, 3)]
        model = build_piggyback(DESK.feature_dim, DESK.num_classes, hidden=4, seed=0)
        cfg = TrainConfig("piggyback", timestep=5, overlap=3, learning_rate=0.01,
                          epochs=1, dropout=0.0, seed=0, patience=5, phase=2)
        result = train_piggyback(model, short, val + short, cfg)
        assert result.report.stop_reason == "max_epochs"
        assert np.isfinite(result.report.epochs[0].train_loss)

    def test_phase2_freezes_embedding_bit_for_bit(self):
        _, train, val = desk_data()
        model = build_piggyback(DESK.feature_dim, DESK.num_classes, hidden=6, seed=2)
        cfg1 = TrainConfig("piggyback", timestep=5, overlap=2, learning_rate=0.05,
                           epochs=2, dropout=0.0, seed=0, patience=5, phase=1)
        train_piggyback(model, train, val, cfg1)
        embed_w = model.embed.weight.tobytes()
        embed_b = model.embed.bias.tobytes()
        lstm_before = model.lstm.w["i"].copy()
        cfg2 = TrainConfig("piggyback", timestep=5, overlap=2, learning_rate=0.05,
                           epochs=2, dropout=0.25, seed=0, patience=5, phase=2)
        train_piggyback(model, train, val, cfg2)
        assert model.embed.weight.tobytes() == embed_w
        assert model.embed.bias.tobytes() == embed_b
        assert not np.array_equal(model.lstm.w["i"], lstm_before)

    def test_phase2_context_helps_ambiguous_frames(self):
        # the carry mechanism must not hurt ambiguous-frame accuracy
        ds = generate_synthetic(SynthConfig(num_sequences=10,
                                            frames_per_sequence=120, seed=6))
        train, val = ds.sequences[:8], ds.sequences[8:]
        model = build_piggyback(ds.feature_dim, ds.label_set.size, hidden=16, seed=3)
        cfg1 = TrainConfig("piggyback", timestep=10, overlap=3, learning_rate=0.05,
                           epochs=3, dropout=0.0, seed=1, patience=5, phase=1)
        train_piggyback(model, train, val, cfg1)
        phase1_acc, counted = ambiguous_accuracy(
            model, val, lambda m, s: predict_sliding_sequence(m, s, 10))
        cfg2 = TrainConfig("piggyback", timestep=10, overlap=3, learning_rate=0.05,
                           epochs=4, dropout=0.0, seed=1, patience=5, phase=2)
        train_piggyback(model, train, val, cfg2)
        phase2_acc, _ = ambiguous_accuracy(
            model, val, lambda m, s: predict_piggyback_sequence(m, s, 10, 3))
        assert counted > 20
        assert phase2_acc >= phase1_acc


class TestReportSerialization:
    def test_report_json_round_trip(self, tmp_path):
        import json

        _, train, val = desk_data()
        model = build_baseline(DESK.feature_dim, DESK.num_classes, seed=0)
        cfg = TrainConfig("baseline", learning_rate=0.05, epochs=2, dropout=0.0,
                          seed=0, patience=5)
        result = train_baseline(model, train, val, cfg)
        path = tmp_path / "report.json"
        result.report.write_json(path)
        obj = json.loads(path.read_text())
        assert obj["stop_reason"] == result.report.stop_reason
        assert obj["best_epoch"] == result.report.best_epoch
        assert len(obj["epochs"]) == len(result.report.epochs)
        assert obj["epochs"][0]["train_loss"] == result.report.epochs[0].train_loss
