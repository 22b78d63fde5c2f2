import math
import re

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
    build_stack,
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


def scripted_run(monkeypatch, losses, patience):
    """Train a baseline for up to len(losses) epochs while validation reports
    `losses` in turn. Returns the report, once its losses are checked and the
    best parameters are found to be those validated at the best epoch."""
    scripted = iter(losses)
    seen = []

    def validate(model, *args):
        seen.append({name: w.copy() for name, w in model.params().items()})
        return next(scripted), 0.5

    monkeypatch.setattr(training_module, "validate_model", validate)
    _, train, val = desk_data()
    model = build_baseline(DESK.feature_dim, DESK.num_classes, seed=0)
    cfg = TrainConfig("baseline", learning_rate=0.05, epochs=len(losses),
                      patience=patience, dropout=0.0, seed=0)
    result = train_baseline(model, train[:1], val, cfg)
    assert [e.val_loss for e in result.report.epochs] == losses[:len(seen)]
    best = seen[result.report.best_epoch]
    assert result.best_params.keys() == best.keys()
    for name, w in best.items():
        assert np.array_equal(result.best_params[name], w), name
    return result.report


class TestEarlyStop:
    """The stop rule, run through the training loop on scripted losses."""

    def test_stops_after_patience_exhausted(self, monkeypatch):
        report = scripted_run(monkeypatch, [1.0, 0.9, 0.95, 0.96, 0.1], patience=2)
        assert report.stop_reason == "early_stop"
        assert (len(report.epochs), report.best_epoch) == (4, 1)

    def test_strictly_decreasing_continues(self, monkeypatch):
        report = scripted_run(monkeypatch, [1.0, 0.9, 0.8, 0.7, 0.6], patience=1)
        assert report.stop_reason == "max_epochs"
        assert (len(report.epochs), report.best_epoch) == (5, 4)

    def test_flat_history_boundary(self, monkeypatch):
        # two non-improving epochs since the epoch-0 best are below patience
        # 3; the third stops the run
        report = scripted_run(monkeypatch, [1.0] * 5, patience=3)
        assert report.stop_reason == "early_stop"
        assert (len(report.epochs), report.best_epoch) == (4, 0)

    @pytest.mark.parametrize("second, improves", [
        (1.0 - 1e-12, False), (np.nextafter(1.0 - 1e-12, 0.0), True)],
        ids=["exactly", "beyond"])
    def test_improvement_must_exceed_1e_12(self, monkeypatch, second, improves):
        # a loss exactly 1e-12 under the best is no improvement
        report = scripted_run(monkeypatch, [1.0, second, 2.0], patience=1)
        assert report.stop_reason == "early_stop"
        assert (len(report.epochs), report.best_epoch) == ((3, 1) if improves else (2, 0))


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
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                TrainConfig("sliding", learning_rate=bad)
        with pytest.raises(ConfigError):
            TrainConfig("sliding", momentum=1.0)
        with pytest.raises(ConfigError):
            TrainConfig("sliding", dropout=1.0)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                TrainConfig("sliding", weight_decay=bad)

    # (architecture, timestep, learning rate, epochs): every entry of the
    # schedule, the fallback of an unlisted timestep and the baseline's,
    # which holds at any timestep
    SCHEDULE = [("sliding", 5, 2.5e-5, 5), ("sliding", 10, 1e-4, 4),
                ("sliding", 15, 1e-4, 2), ("piggyback", 5, 2.5e-5, 10),
                ("piggyback", 10, 1e-4, 10), ("piggyback", 15, 1e-4, 10),
                ("sliding", 7, 2.5e-5, 10), ("piggyback", 7, 2.5e-5, 10),
                ("baseline", 1, 1e-5, 10), ("baseline", 5, 1e-5, 10),
                ("baseline", 10, 1e-5, 10), ("baseline", 15, 1e-5, 10)]

    @pytest.mark.parametrize("arch, timestep, lr, epochs", SCHEDULE)
    def test_unnamed_rate_and_epochs_follow_the_schedule(self, arch, timestep, lr,
                                                          epochs):
        cfg = TrainConfig(arch, timestep=timestep, overlap=2 if arch == "piggyback" else 0)
        assert (cfg.learning_rate, cfg.epochs) == (lr, epochs)

    def test_every_schedule_entry_is_checked(self):
        listed = {(arch, timestep) for arch, timestep, *_ in self.SCHEDULE}
        assert set(training_module._SCHEDULES) <= listed

    @pytest.mark.parametrize("given, want", [
        ({"learning_rate": 0.5, "epochs": 2}, (0.5, 2)),
        ({"learning_rate": 0.5}, (0.5, 10)),
        ({"epochs": 2}, (1e-4, 2)),
    ])
    def test_a_named_rate_or_epoch_count_is_kept(self, given, want):
        cfg = TrainConfig("piggyback", timestep=10, overlap=3, **given)
        assert (cfg.learning_rate, cfg.epochs) == want


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

    @pytest.mark.parametrize("arch", ["baseline", "piggyback"])
    def test_stack_must_match_config_architecture(self, arch):
        _, train, val = desk_data()
        if arch == "baseline":
            model = build_baseline(DESK.feature_dim, DESK.num_classes, seed=0)
        else:
            model = build_piggyback(DESK.feature_dim, DESK.num_classes, hidden=4, seed=0)
        before = {name: w.copy() for name, w in model.params().items()}
        with pytest.raises(ConfigError):
            train_sliding(model, train, val, TrainConfig("sliding", epochs=1))
        for name, w in model.params().items():
            assert np.array_equal(w, before[name]), name

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


def diverging_run(arch, learning_rate, epochs=3):
    """One step per epoch on a 3-frame train day (the baseline on its first
    frame), validated on another day. A huge step overflows the weights,
    which validation meets first, or the next step's loss."""
    if arch == "baseline":
        ds = generate_synthetic(SynthConfig(seed=1, num_sequences=2,
                                            frames_per_sequence=3, mean_scale=100))
        day = ds.sequences[0]
        train = [DaySequence(day.sequence_id, day.user_id, day.features[:1],
                             day.labels[:1])]
    else:
        ds = generate_synthetic(SynthConfig(seed=1, num_sequences=2,
                                            frames_per_sequence=3))
        train = ds.sequences[:1]
    model = build_stack(arch, ds.feature_dim, ds.label_set.size, hidden=8, seed=0)
    cfg = TrainConfig(arch, timestep=4, overlap=1 if arch == "piggyback" else 0,
                      learning_rate=learning_rate, momentum=0.0, dropout=0.0,
                      epochs=epochs)
    trainer = {"baseline": train_baseline, "sliding": train_sliding,
               "piggyback": train_piggyback}[arch]
    return trainer(model, train, ds.sequences[1:], cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergence:
    @pytest.mark.parametrize("arch, learning_rate, kept", [
        ("baseline", 1e307, 0), ("baseline", 1e306, 1),
        ("sliding", 1e308, 1), ("piggyback", 1e308, 1)])
    def test_ends_as_numeric_failure_keeping_finished_epochs(self, arch,
                                                             learning_rate, kept):
        result = diverging_run(arch, learning_rate)
        report = result.report
        assert report.stop_reason == "numeric_failure"
        assert len(report.epochs) == kept
        if not kept:
            assert (report.best_epoch, result.best_params) == (-1, None)
            return
        # the epochs before the failure are those of a run that stops there
        finished = diverging_run(arch, learning_rate, epochs=kept)
        assert finished.report.stop_reason == "max_epochs"
        assert report.epochs == finished.report.epochs
        assert report.best_epoch == finished.report.best_epoch
        for name, w in finished.best_params.items():
            assert np.array_equal(result.best_params[name], w), name


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
        lstm_before = model.params()["lstm.W_i"].copy()
        cfg2 = TrainConfig("piggyback", timestep=5, overlap=2, learning_rate=0.05,
                           epochs=2, dropout=0.25, seed=0, patience=5, phase=2)
        train_piggyback(model, train, val, cfg2)
        assert model.embed.weight.tobytes() == embed_w
        assert model.embed.bias.tobytes() == embed_b
        assert not np.array_equal(model.params()["lstm.W_i"], lstm_before)

    def test_phase2_steps_leave_every_embed_byte_unchanged(self, monkeypatch):
        _, train, val = desk_data()
        model = build_piggyback(DESK.feature_dim, DESK.num_classes, hidden=6, seed=2)
        weight, bias = model.embed.weight, model.embed.bias
        frozen = weight.tobytes() + bias.tobytes()
        stage = model.carry_stage()
        tail = [w.copy() for w in stage.params().values()]
        real = training_module.sgd_update
        steps = []

        def checking(params, grads, opt):
            real(params, grads, opt)
            assert model.embed.weight is weight and model.embed.bias is bias
            assert weight.tobytes() + bias.tobytes() == frozen
            steps.append(1)

        monkeypatch.setattr(training_module, "sgd_update", checking)
        cfg = TrainConfig("piggyback", timestep=5, overlap=2, learning_rate=0.05,
                          epochs=1, dropout=0.25, seed=0, patience=5, phase=2)
        train_piggyback(model, train, val, cfg)
        assert steps
        moved = np.concatenate([w.ravel() for w in stage.params().values()])
        assert not np.array_equal(moved, np.concatenate([w.ravel() for w in tail]))

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


class TestStepWorkspace:
    """A run's one workspace against a new one per step, bit for bit."""

    @staticmethod
    def record(monkeypatch, new_each_step):
        """Each step's inputs, loss, gradient object and copies of the gradient
        and recurrent outputs, taken as the step returns; with
        `new_each_step`, no step is handed the run's workspace."""
        real = training_module.backprop_window
        steps = []

        def recording(stage, inputs, *args, workspace, **kwargs):
            loss, grads, fwd = real(stage, inputs, *args,
                                    workspace=None if new_each_step else workspace, **kwargs)
            outputs = None if fwd.lstm_outputs is None else fwd.lstm_outputs.copy()
            steps.append((inputs.copy(), loss, grads, grads.copy(), outputs))
            return loss, grads, fwd

        monkeypatch.setattr(training_module, "backprop_window", recording)
        return steps

    @pytest.mark.parametrize("arch, phase, timestep, overlap", [
        ("baseline", 1, 5, 0), ("sliding", 1, 4, 0),
        ("piggyback", 1, 7, 2), ("piggyback", 2, 7, 2)])
    def test_one_workspace_per_run_gives_the_same_steps(self, monkeypatch, arch, phase,
                                                        timestep, overlap):
        _, train, val = desk_data()
        # 60-frame days pad the last batch at n = 7; a 3-frame day pads its window
        first = train[0]
        days = [*train[:2], DaySequence("short", first.user_id, first.features[:3],
                                        first.labels[:3])]
        cfg = TrainConfig(arch, timestep=timestep, overlap=overlap, learning_rate=0.05,
                          epochs=2, dropout=0.3, seed=4, phase=phase)
        runs = []
        for new_each_step in (False, True):
            steps = self.record(monkeypatch, new_each_step)
            model = build_stack(arch, DESK.feature_dim, DESK.num_classes, hidden=6, seed=1)
            result = {"baseline": train_baseline, "sliding": train_sliding,
                      "piggyback": train_piggyback}[arch](model, days, val[:1], cfg)
            runs.append((steps, model.params(), result.report))
            monkeypatch.undo()
        (reused, params, report), (new, new_params, new_report) = runs
        assert len(reused) == len(new) > 12
        assert report == new_report
        for k, (a, b) in enumerate(zip(reused, new)):
            assert a[0].tobytes() == b[0].tobytes(), k
            assert a[1].hex() == b[1].hex(), k
            assert a[3].tobytes() == b[3].tobytes(), k
            assert (a[4] is None and b[4] is None) or a[4].tobytes() == b[4].tobytes(), k
        # the run's steps share one gradient vector; new workspaces do not
        assert all(step[2] is reused[0][2] for step in reused)
        assert len({id(step[2]) for step in new[:2]}) == 2
        assert all(params[name].tobytes() == w.tobytes() for name, w in new_params.items())

    def test_phase2_carry_reads_outputs_before_the_next_step(self, monkeypatch):
        steps = self.record(monkeypatch, new_each_step=False)
        _, train, val = desk_data()
        model = build_piggyback(DESK.feature_dim, DESK.num_classes, hidden=4, seed=0)
        cfg = TrainConfig("piggyback", timestep=7, overlap=2, learning_rate=0.01,
                          epochs=1, dropout=0.3, seed=0, phase=2)
        train_piggyback(model, train[:2], val, cfg)
        per_day = -(-(60 - 7) // 5) + 1
        assert len(steps) == 2 * per_day
        for k in range(1, len(steps)):
            if k % per_day:  # each day's first batch carries nothing
                assert steps[k][0][:2].tobytes() == steps[k - 1][4][-2:].tobytes(), k


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


class TestGuards:
    """Each guard raises its error with its message."""

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: TrainConfig("piggyback", overlap=2, phase=3), ConfigError,
                     "phase must be 1 or 2", id="piggyback-phase-3"),
        pytest.param(lambda: training_module.validate_model(build_baseline(3, 2), [], 5, 0),
                     ConfigError, "validation needs at least one frame",
                     id="validate-no-days"),
    ])
    def test_refuses(self, call, error, message):
        with pytest.raises(error, match=re.escape(message)):
            call()
