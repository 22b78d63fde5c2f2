import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from egobatch import (
    ConfigError,
    DataError,
    DaySequence,
    DenseLayer,
    FormatError,
    LayerStack,
    PredictionTimeline,
    ShapeError,
    build_baseline,
    build_piggyback,
    build_sliding,
    model_from_params,
    predict_baseline,
    predict_piggyback_sequence,
    predict_sliding_sequence,
    read_checkpoint,
    read_timelines_json,
    write_checkpoint,
    write_timelines_json,
)
from egobatch.batching import batch_plan
from egobatch.models import (
    ARCHITECTURES,
    build_stack,
    piggyback_days_logits,
    piggyback_logits,
    predict_days,
)
from egobatch.nnet import LstmLayer, flatten_layers, softmax
from oracles import per_batch_carried_logits, timeline_to_obj, unbatched_reference_logits


def random_seq(rng, length, dim, num_classes, sid="s0"):
    return DaySequence(sid, "u1", rng.normal(size=(length, dim)),
                       rng.integers(num_classes, size=length))


class TestBaseline:
    def test_constant_argmax(self):
        # class-0 logit always wins by a large bias margin
        model = LayerStack(head=DenseLayer(np.zeros((2, 3)),
                                           np.array([5.0, 0.0])))
        seq = random_seq(np.random.default_rng(0), 9, 3, 2)
        timeline = predict_baseline(model, seq)
        assert (timeline.pred_labels == 0).all()

    def test_zero_weights_tie_to_lowest_id(self):
        model = LayerStack(head=DenseLayer(np.zeros((4, 3)), np.zeros(4)))
        seq = random_seq(np.random.default_rng(1), 7, 3, 4)
        timeline = predict_baseline(model, seq)
        assert (timeline.pred_labels == 0).all()
        assert np.allclose(timeline.probs, 0.25, atol=1e-15)

    def test_timeline_length_and_truth(self):
        rng = np.random.default_rng(2)
        model = build_baseline(4, 3, seed=0)
        seq = random_seq(rng, 13, 4, 3)
        timeline = predict_baseline(model, seq)
        assert len(timeline) == 13
        assert np.array_equal(timeline.true_labels, seq.labels)

    def test_width_mismatch(self):
        model = build_baseline(4, 3, seed=0)
        seq = random_seq(np.random.default_rng(3), 5, 6, 3)
        with pytest.raises(ShapeError):
            predict_baseline(model, seq)


class TestLayerStack:
    def test_embedding_needs_a_recurrent_layer(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            LayerStack(head=DenseLayer.create(5, 3, rng),
                       embed=DenseLayer.create(4, 5, rng))

    @pytest.mark.parametrize("hidden", [0, -1])
    def test_non_positive_hidden_size_is_a_config_error(self, hidden):
        for build in (build_sliding, build_piggyback):
            with pytest.raises(ConfigError):
                build(4, 3, hidden=hidden, seed=0)


class TestSlidingPredict:
    def test_exact_tiling_lengths(self):
        rng = np.random.default_rng(4)
        model = build_sliding(3, 2, hidden=4, seed=1)
        assert len(predict_sliding_sequence(model, random_seq(rng, 10, 3, 2), 5)) == 10
        assert len(predict_sliding_sequence(model, random_seq(rng, 12, 3, 2), 5)) == 12

    def test_matches_manual_two_windows(self):
        rng = np.random.default_rng(5)
        model = build_sliding(3, 2, hidden=4, seed=2)
        seq = random_seq(rng, 10, 3, 2)
        timeline = predict_sliding_sequence(model, seq, 5)
        for half, sl in ((0, slice(0, 5)), (1, slice(5, 10))):
            h_rows, _ = model.lstm.run(seq.features[sl])
            probs = softmax(model.head.forward_rows(h_rows))
            assert np.allclose(timeline.probs[sl], probs, atol=1e-12)

    def test_batched_tiles_match_per_tile_run(self):
        # one batched pass over all tiles == lstm.run per right-padded tile
        rng = np.random.default_rng(16)
        for model in (build_sliding(3, 4, hidden=5, seed=10),
                      build_piggyback(3, 4, hidden=5, seed=11)):
            for _ in range(15):
                timestep = int(rng.integers(1, 12))
                length = int(rng.choice([int(rng.integers(1, timestep + 1)),
                                         timestep * int(rng.integers(1, 6)),
                                         int(rng.integers(1, 60))]))
                seq = random_seq(rng, length, 3, 4)
                timeline = predict_sliding_sequence(model, seq, timestep)
                plan = batch_plan(length, timestep)
                for start in range(0, length, timestep):
                    rows = plan.rows(seq.features)[start:start + timestep]
                    valid = plan.valid[start:start + timestep]
                    if model.embed is not None:
                        rows = model.embed.forward_rows(rows)
                    h_rows, _ = model.lstm.run(rows)
                    probs = softmax(model.head.forward_rows(h_rows))[valid]
                    got = timeline.probs[start:start + len(probs)]
                    assert np.abs(got - probs).max() <= 1e-12

    def test_state_resets_between_tiles(self):
        # a tile's outputs must not depend on frames of earlier tiles
        rng = np.random.default_rng(6)
        model = build_sliding(3, 2, hidden=4, seed=3)
        seq_a = random_seq(rng, 10, 3, 2, sid="a")
        feats = seq_a.features.copy()
        feats[:5] = rng.normal(size=(5, 3))
        seq_b = DaySequence("b", "u1", feats, seq_a.labels.copy())
        t_a = predict_sliding_sequence(model, seq_a, 5)
        t_b = predict_sliding_sequence(model, seq_b, 5)
        assert np.allclose(t_a.probs[5:], t_b.probs[5:], atol=1e-12)

    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        model = build_sliding(3, 5, hidden=4, seed=4)
        timeline = predict_sliding_sequence(model, random_seq(rng, 23, 3, 5), 7)
        assert np.abs(timeline.probs.sum(axis=1) - 1.0).max() < 1e-9


class TestPiggybackPredict:
    def test_overlap_frames_keep_earlier_batch(self):
        rng = np.random.default_rng(8)
        model = build_piggyback(3, 2, hidden=4, seed=5)
        seq = random_seq(rng, 11, 3, 2)
        timeline = predict_piggyback_sequence(model, seq, 5, 2)
        assert len(timeline) == 11
        # batch 0 covers frames 0-4; overlapped frames 3,4 must keep its rows
        h_rows, _ = model.lstm.run(model.embed.forward_rows(seq.features[:5]))
        first_batch = softmax(model.head.forward_rows(h_rows))
        assert np.allclose(timeline.probs[:5], first_batch, atol=1e-12)

    def test_retention_later_differs_on_overlap_only(self):
        rng = np.random.default_rng(9)
        model = build_piggyback(3, 2, hidden=4, seed=6)
        seq = random_seq(rng, 11, 3, 2)
        earlier = predict_piggyback_sequence(model, seq, 5, 2, retention="earlier")
        later = predict_piggyback_sequence(model, seq, 5, 2, retention="later")
        overlap_frames = [3, 4, 6, 7]
        fresh = [f for f in range(11) if f not in overlap_frames]
        assert np.allclose(earlier.probs[fresh], later.probs[fresh], atol=1e-12)
        assert not np.allclose(earlier.probs[overlap_frames],
                               later.probs[overlap_frames], atol=1e-12)

    def test_matches_unbatched_reference(self):
        rng = np.random.default_rng(10)
        for seed in range(10):
            for n, m in [(5, 2), (10, 3), (15, 4)]:
                model = build_piggyback(6, 4, hidden=5, seed=seed)
                seq = random_seq(rng, int(rng.integers(n + 1, 90)), 6, 4)
                mine = piggyback_logits(model, seq, n, m)
                ref = unbatched_reference_logits(model, seq, n, m)
                assert np.abs(mine - ref).max() < 1e-9

    def test_later_retention_matches_reference_too(self):
        rng = np.random.default_rng(11)
        model = build_piggyback(4, 3, hidden=4, seed=31)
        seq = random_seq(rng, 33, 4, 3)
        mine = piggyback_logits(model, seq, 10, 3, retention="later")
        ref = unbatched_reference_logits(model, seq, 10, 3, retention="later")
        assert np.abs(mine - ref).max() < 1e-9

    def test_store_holds_previous_batch_outputs_bit_for_bit(self, monkeypatch):
        # batch k's first m recurrent inputs must be exactly batch k-1's last
        # m recurrent outputs, for every batch of a day and both retentions
        rng = np.random.default_rng(30)
        model = build_piggyback(3, 2, hidden=4, seed=20)
        seq = random_seq(rng, 23, 3, 2)
        forward_batch = model.lstm.forward_batch
        calls = []

        def recording(inputs, *args):
            out = forward_batch(inputs, *args)
            calls.append((inputs[0].copy(), out[0].copy()))
            return out

        monkeypatch.setattr(model.lstm, "forward_batch", recording)
        for retention in ("earlier", "later"):
            calls.clear()
            piggyback_logits(model, seq, 5, 2, retention=retention)
            assert len(calls) == len(batch_plan(23, 5, 2).starts) == 7
            for (_, prev_out), (inputs, _) in zip(calls, calls[1:]):
                assert np.array_equal(inputs[:2], prev_out[-2:])

    def test_short_days_match_unbatched_reference(self):
        # a day of at most m frames is one right-padded batch with no carry
        rng = np.random.default_rng(32)
        for n, m in [(5, 2), (10, 3), (6, 5)]:
            model = build_piggyback(4, 3, hidden=5, seed=n + m)
            for length in range(1, m + 1):
                seq = random_seq(rng, length, 4, 3)
                for retention in ("earlier", "later"):
                    mine = piggyback_logits(model, seq, n, m, retention=retention)
                    ref = unbatched_reference_logits(model, seq, n, m,
                                                     retention=retention)
                    assert mine.shape == (length, 3)
                    assert np.abs(mine - ref).max() <= 1e-12

    def test_invalid_overlap(self):
        model = build_piggyback(3, 2, hidden=4, seed=7)
        seq = random_seq(np.random.default_rng(12), 11, 3, 2)
        with pytest.raises(ConfigError):
            predict_piggyback_sequence(model, seq, 5, 5)

    def test_invalid_retention(self):
        model = build_piggyback(3, 2, hidden=4, seed=7)
        seq = random_seq(np.random.default_rng(13), 11, 3, 2)
        with pytest.raises(ConfigError):
            predict_piggyback_sequence(model, seq, 5, 2, retention="latest")


def batch_count(length, n, m):
    return len(batch_plan(length, n, m).starts)


def mixed_days(rng, n, m, dim, classes):
    """Days in no length order: long, one frame, at most m, n + 1 and
    2n - m (two lengths of one batch count), n, and longer again."""
    lengths = [5 * n, 1, m, n + 1, 2 * n - m, n, 3 * n + 2]
    assert batch_count(n + 1, n, m) == batch_count(2 * n - m, n, m) == 2
    return [random_seq(rng, length, dim, classes, sid=f"d{k}")
            for k, length in enumerate(lengths)]


# (n, m) with m = 1 and m = n - 1 among them
LOCKSTEP_SIZES = [(2, 1), (5, 1), (5, 4), (6, 2), (10, 3)]


class TestLockStep:
    """`piggyback_days_logits` runs batch k of every day in one recurrent pass."""

    @pytest.mark.parametrize("hidden", [5, 32])
    def test_one_day_matches_the_per_batch_pass_bit_for_bit(self, hidden):
        rng = np.random.default_rng(50)
        for n, m in LOCKSTEP_SIZES:
            model = build_piggyback(6, 4, hidden=hidden, seed=n + m)
            for seq in mixed_days(rng, n, m, 6, 4):
                for retention in ("earlier", "later"):
                    want = per_batch_carried_logits(model, seq, n, m, retention)
                    got = piggyback_logits(model, seq, n, m, retention)
                    assert got.tobytes() == want.tobytes(), (n, m, len(seq), retention)
                    [(_, alone)] = piggyback_days_logits(model, [seq], n, m, retention)
                    assert alone.tobytes() == want.tobytes()

    @pytest.mark.parametrize("retention", ["earlier", "later"])
    def test_mixed_days_match_the_unbatched_reference(self, retention):
        rng = np.random.default_rng(51)
        for n, m in LOCKSTEP_SIZES:
            model = build_piggyback(6, 4, hidden=7, seed=3 * n + m)
            days = mixed_days(rng, n, m, 6, 4)
            got = piggyback_days_logits(model, days, n, m, retention)
            assert len(got) == len(days)
            for seq, (labels, logits) in zip(days, got):
                want = unbatched_reference_logits(model, seq, n, m, retention=retention)
                assert labels.sequence_id == seq.sequence_id
                assert np.array_equal(labels.labels, seq.labels)
                assert logits.shape == want.shape
                assert np.abs(logits - want).max() <= 1e-12, (n, m, len(seq))

    def test_batch_k_of_every_live_day_runs_in_one_pass(self, monkeypatch):
        rng = np.random.default_rng(52)
        n, m = 5, 2
        model = build_piggyback(3, 2, hidden=4, seed=1)
        days = mixed_days(rng, n, m, 3, 2)
        counts = [batch_count(len(seq), n, m) for seq in days]
        forward_batch = model.lstm.forward_batch
        widths = []

        def recording(inputs, *args):
            widths.append(len(inputs))
            return forward_batch(inputs, *args)

        monkeypatch.setattr(model.lstm, "forward_batch", recording)
        piggyback_days_logits(model, days, n, m)
        assert widths == [sum(c > k for c in counts) for k in range(max(counts))]

    @pytest.mark.parametrize("hidden", [4, 32])
    def test_one_set_of_rows_per_live_day_count(self, monkeypatch, hidden):
        rng = np.random.default_rng(56)
        n, m = 5, 2
        model = build_piggyback(3, 2, hidden=hidden, seed=4)
        days = [random_seq(rng, length, 3, 2, sid=f"d{k}")
                for k, length in enumerate((17, 15, 11, 4))]
        assert [batch_count(len(seq), n, m) for seq in days] == [5, 5, 3, 1]
        forward_batch = model.lstm.forward_batch
        handed = []

        def recording(inputs, *args):
            handed.append((len(inputs), *args))
            return forward_batch(inputs, *args)

        def fresh_rows(inputs, *args):  # every pass in new rows
            return forward_batch(inputs)

        monkeypatch.setattr(model.lstm, "forward_batch", recording)
        got = piggyback_days_logits(model, days, n, m)
        assert [live for live, _ in handed] == [4, 3, 3, 2, 2]
        distinct = []
        for live, rows in handed:
            if all(rows is not seen for seen in distinct):
                distinct.append(rows)
            assert rows.h_rows.shape == (live, n, hidden)
        assert [len(rows.h_rows) for rows in distinct] == [4, 3, 2]
        monkeypatch.setattr(model.lstm, "forward_batch", fresh_rows)
        fresh = piggyback_days_logits(model, days, n, m)
        for seq, (_, logits), (_, want) in zip(days, got, fresh):
            assert logits.tobytes() == want.tobytes(), len(seq)
            # every day here shares a batch, which may round apart from
            # running the day's batches one at a time
            alone = per_batch_carried_logits(model, seq, n, m)
            assert np.abs(logits - alone).max() <= 1e-12, len(seq)

    def test_keeps_input_order(self):
        rng = np.random.default_rng(53)
        model = build_piggyback(3, 2, hidden=4, seed=2)
        days = mixed_days(rng, 5, 2, 3, 2)
        for order in (days, days[::-1]):
            ids = [seq.sequence_id for seq in order]
            got = piggyback_days_logits(model, order, 5, 2)
            assert [labels.sequence_id for labels, _ in got] == ids
            assert [len(logits) for _, logits in got] == [len(seq) for seq in order]
            assert [t.sequence_id for t in predict_days(model, order, 5, 2)] == ids

    def test_no_days_give_no_timelines(self):
        model = build_piggyback(3, 2, hidden=4, seed=2)
        assert piggyback_days_logits(model, [], 5, 2) == []
        for overlap in (0, 2):
            assert predict_days(model, [], 5, overlap) == []

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    @pytest.mark.parametrize("overlap", [0, 2])
    def test_predict_days_in_lock_step_predicts_as_each_day_alone(self, architecture, overlap):
        rng = np.random.default_rng(54)
        model = build_stack(architecture, 3, 2, hidden=4, seed=3)
        days = mixed_days(rng, 5, 2, 3, 2)
        got = predict_days(model, days, 5, overlap, retention="later")
        for seq, timeline in zip(days, got):
            want = predict_days(model, [seq], 5, overlap, retention="later")[0]
            assert timeline.sequence_id == want.sequence_id
            assert np.array_equal(timeline.pred_labels, want.pred_labels)
            if architecture == "piggyback" and overlap:
                # a batch shared by several days may round apart
                assert np.abs(timeline.probs - want.probs).max() <= 1e-12
            else:
                assert timeline.probs.tobytes() == want.probs.tobytes()

    @pytest.mark.parametrize("overlap", [0, 2])
    def test_predict_days_names_a_day_of_another_width(self, overlap):
        rng = np.random.default_rng(55)
        model = build_piggyback(3, 2, hidden=4, seed=3)
        days = [random_seq(rng, 9, 3, 2, sid="fits"), random_seq(rng, 9, 4, 2, sid="wide")]
        with pytest.raises(ShapeError, match="input width does not match sequence 'wide'"):
            predict_days(model, days, 5, overlap)


class TestEveryFramePredictedOnce:
    def test_fuzzed_lengths_all_models(self):
        rng = np.random.default_rng(14)
        baseline = build_baseline(3, 2, seed=8)
        sliding = build_sliding(3, 2, hidden=4, seed=8)
        piggy = build_piggyback(3, 2, hidden=4, seed=8)
        for _ in range(25):
            timestep = int(rng.integers(2, 16))
            overlap = int(rng.integers(1, timestep))
            length = int(rng.integers(overlap + 1, 200))
            seq = random_seq(rng, length, 3, 2)
            assert len(predict_baseline(baseline, seq)) == length
            assert len(predict_sliding_sequence(sliding, seq, timestep)) == length
            tl = predict_piggyback_sequence(piggy, seq, timestep, overlap)
            assert len(tl) == length
            assert np.abs(tl.probs.sum(axis=1) - 1.0).max() < 1e-9


class TestDeterminism:
    def test_checkpoint_round_trip_predicts_identically(self, tmp_path):
        rng = np.random.default_rng(15)
        model = build_piggyback(4, 3, hidden=5, seed=9)
        seq = random_seq(rng, 37, 4, 3)
        path = tmp_path / "m.egomdl"
        write_checkpoint(model.params(), path)
        clone = model_from_params(read_checkpoint(path))
        a = predict_piggyback_sequence(model, seq, 5, 2)
        b = predict_piggyback_sequence(clone, seq, 5, 2)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.pred_labels, b.pred_labels)

    def test_architecture_inference_from_checkpoint(self, tmp_path):
        for builder, architecture in [(build_baseline, "baseline"),
                                      (build_sliding, "sliding"),
                                      (build_piggyback, "piggyback")]:
            model = builder(4, 3, seed=1) if builder is build_baseline \
                else builder(4, 3, hidden=5, seed=1)
            path = tmp_path / "arch.egomdl"
            write_checkpoint(model.params(), path)
            clone = model_from_params(read_checkpoint(path))
            assert clone.architecture == architecture
            assert clone.input_dim == 4

    def test_checkpoint_with_missing_tensor_rejected(self, tmp_path):
        model = build_sliding(4, 3, hidden=5, seed=2)
        params = model.params()
        del params["lstm.b_f"]
        path = tmp_path / "broken.egomdl"
        write_checkpoint(params, path)
        with pytest.raises(ShapeError):
            model_from_params(read_checkpoint(path))

    def test_scalar_gate_tensors_rejected(self):
        # a checkpoint may hold rank-0 tensors, which cannot be stacked
        params = build_sliding(4, 3, hidden=5, seed=2).params()
        for g in "ifoc":
            params[f"lstm.b_{g}"] = np.array(0.0)
        with pytest.raises(ShapeError):
            model_from_params(params)


class TestBuildStack:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_matches_the_named_builder(self, architecture):
        named = {"baseline": build_baseline(5, 3, seed=4),
                 "sliding": build_sliding(5, 3, hidden=6, seed=4),
                 "piggyback": build_piggyback(5, 3, hidden=6, seed=4)}[architecture]
        stack = build_stack(architecture, 5, 3, hidden=6, seed=4)
        assert stack.architecture == architecture
        assert list(stack.params()) == list(named.params())
        for name, w in named.params().items():
            assert stack.params()[name].tobytes() == w.tobytes()

    def test_draws_embed_lstm_head_from_one_generator(self):
        rng = np.random.default_rng(4)
        embed = DenseLayer.create(5, 6, rng)
        lstm = LstmLayer.create(6, 6, rng)
        head = DenseLayer.create(6, 3, rng)
        expected = LayerStack(head, lstm, embed).params()
        stack = build_stack("piggyback", 5, 3, hidden=6, seed=4)
        for name, w in stack.params().items():
            assert w.tobytes() == expected[name].tobytes()

    def test_unknown_architecture(self):
        with pytest.raises(ConfigError, match="architecture"):
            build_stack("windowed", 5, 3)


class TestPredictSequence:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_matches_the_architecture_predictor(self, architecture):
        rng = np.random.default_rng(23)
        model = build_stack(architecture, 4, 3, hidden=5, seed=2)
        seq = random_seq(rng, 29, 4, 3)
        if architecture == "baseline":
            direct = predict_baseline(model, seq)
        elif architecture == "sliding":
            direct = predict_sliding_sequence(model, seq, 6)
        else:
            direct = predict_piggyback_sequence(model, seq, 6, 2, retention="later")
        got = predict_days(model, [seq], 6, 2, retention="later")[0]
        assert got.sequence_id == direct.sequence_id
        assert np.array_equal(got.true_labels, direct.true_labels)
        assert np.array_equal(got.pred_labels, direct.pred_labels)
        assert got.probs.tobytes() == direct.probs.tobytes()

    def test_piggyback_without_overlap(self):
        # m = 0 runs the stack carry-free over consecutive batches, as phase 1
        # trains and validates it
        model = build_stack("piggyback", 4, 3, hidden=5, seed=2)
        seq = random_seq(np.random.default_rng(23), 29, 4, 3)
        got = predict_days(model, [seq], 6, 0, retention="later")[0]
        direct = predict_sliding_sequence(model, seq, 6)
        assert np.array_equal(got.pred_labels, direct.pred_labels)
        assert got.probs.tobytes() == direct.probs.tobytes()
        with pytest.raises(ConfigError, match="overlap"):
            predict_days(model, [seq], 6, -1)[0]


def address(array):
    return array.__array_interface__["data"][0]


def assert_flat_layout(model, flat):
    """Every params() tensor occupies the next stretch of `flat`."""
    layers = [name.split(".")[0] for name in model.params()]
    assert layers == sorted(layers, key=("embed", "lstm", "head").index)
    offset = 0
    for name, w in model.params().items():
        assert w.flags.c_contiguous, name
        assert address(w) == address(flat) + 8 * offset, name
        assert np.shares_memory(w, flat), name
        offset += w.size
    assert offset == flat.size


def all_stacks():
    return [build_baseline(4, 3, seed=1), build_sliding(4, 3, hidden=5, seed=1),
            build_piggyback(4, 3, hidden=5, seed=1)]


class TestFlatLayout:
    def test_params_are_views_of_flat_in_layer_order(self):
        for model in all_stacks():
            before = {name: w.copy() for name, w in model.params().items()}
            flat = flatten_layers(model.layers)
            assert_flat_layout(model, flat)
            assert flat.dtype == np.float64 and flat.base is None
            for name, w in model.params().items():
                assert np.array_equal(w, before[name]), name
            flat += 1.0
            for name, w in model.unflatten(flat).items():
                assert np.array_equal(w, model.params()[name]), name
                assert np.array_equal(w, before[name] + 1.0), name

    def test_flattening_the_carry_stage_leaves_the_embedding_alone(self):
        model = build_piggyback(4, 3, hidden=5, seed=2)
        weight, bias = model.embed.weight, model.embed.bias
        frozen = weight.tobytes() + bias.tobytes()
        stage = model.carry_stage()
        flat = flatten_layers(stage.layers)
        assert stage.lstm is model.lstm and stage.head is model.head
        assert_flat_layout(stage, flat)
        assert model.embed.weight is weight and model.embed.bias is bias
        assert not np.shares_memory(weight, flat) and not np.shares_memory(bias, flat)
        flat -= 0.5
        assert model.embed.weight.tobytes() + model.embed.bias.tobytes() == frozen
        assert np.array_equal(model.params()["lstm.U_o"], stage.params()["lstm.U_o"])

    def test_checkpoint_rebuilds_the_flat_layout(self, tmp_path):
        for model in all_stacks():
            flat = flatten_layers(model.layers)
            flat[...] = np.random.default_rng(3).normal(size=flat.size)
            path = tmp_path / "m.egomdl"
            write_checkpoint(model.params(), path)
            written = path.read_bytes()
            clone = model_from_params(read_checkpoint(path))
            assert np.array_equal(flatten_layers(clone.layers), flat)
            write_checkpoint(clone.params(), path)
            assert path.read_bytes() == written
            write_checkpoint({name: w.copy() for name, w in clone.params().items()}, path)
            assert path.read_bytes() == written

    def test_model_from_params_shares_no_memory_with_its_input(self):
        for model in all_stacks():
            params = {name: w.copy() for name, w in model.params().items()}
            clone = model_from_params(params)
            for name, w in clone.params().items():
                assert np.array_equal(w, params[name]), name
                for given in params.values():
                    assert not np.shares_memory(w, given), name


class TestTimelineJson:
    def test_round_trip_with_probs(self, tmp_path):
        rng = np.random.default_rng(16)
        model = build_baseline(3, 4, seed=10)
        timelines = [predict_baseline(model, random_seq(rng, 6, 3, 4, sid=f"s{i}"))
                     for i in range(3)]
        path = tmp_path / "timelines.json"
        write_timelines_json(timelines, path, include_probs=True)
        back = read_timelines_json(path, 4)
        for mine, theirs in zip(timelines, back):
            assert mine.sequence_id == theirs.sequence_id
            assert np.array_equal(mine.true_labels, theirs.true_labels)
            assert np.array_equal(mine.pred_labels, theirs.pred_labels)
            assert np.abs(mine.probs - theirs.probs).max() < 1e-12

    def test_round_trip_without_probs(self, tmp_path):
        rng = np.random.default_rng(17)
        model = build_baseline(3, 4, seed=11)
        timelines = [predict_baseline(model, random_seq(rng, 6, 3, 4))]
        path = tmp_path / "lean.json"
        write_timelines_json(timelines, path, include_probs=False)
        obj = json.loads(path.read_text())
        assert "probs" not in obj[0]["frames"][0]
        back = read_timelines_json(path, 4)
        assert np.array_equal(back[0].pred_labels, timelines[0].pred_labels)

    def test_schema_fields(self, tmp_path):
        model = build_baseline(3, 2, seed=12)
        seq = random_seq(np.random.default_rng(18), 4, 3, 2)
        path = tmp_path / "schema.json"
        write_timelines_json([predict_baseline(model, seq)], path,
                             include_probs=True)
        obj = json.loads(path.read_text())
        frame = obj[0]["frames"][0]
        assert set(obj[0]) == {"sequence_id", "frames"}
        assert set(frame) == {"index", "true", "pred", "probs"}
        assert len(frame["probs"]) == 2

    def test_integer_probabilities_accepted(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps([{"sequence_id": "s", "frames": [
            {"true": 0, "pred": 1, "probs": [0, 1]}]}]))
        (timeline,) = read_timelines_json(path, 2)
        assert np.array_equal(timeline.probs, [[0.0, 1.0]])


# quotes, backslashes, control characters and non-ASCII, escaped by json
ID_CHARS = st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
                     st.characters())
# the smallest subnormal, a probability json writes in exponent form, and 0
SPECIAL_PROBS = st.sampled_from((0.0, 5e-324, 1e-05))


@st.composite
def timeline_lists(draw):
    """(class count, timelines) with distinct ids; each probability row sums
    to 1, and a row whose other entries are all 0 holds 1.0."""
    classes = draw(st.integers(1, 4))
    timelines = []
    for sid in draw(st.lists(st.text(ID_CHARS, max_size=8), max_size=3, unique=True)):
        length = draw(st.integers(1, 4))
        rows = []
        for _ in range(length):
            row = draw(st.lists(st.one_of(SPECIAL_PROBS, st.floats(0.0, 1.0 / classes)),
                                min_size=classes - 1, max_size=classes - 1))
            row.insert(draw(st.integers(0, classes - 1)), 1.0 - math.fsum(row))
            rows.append(row)
        probs = np.array(rows)
        true = draw(st.lists(st.integers(0, classes - 1), min_size=length,
                             max_size=length))
        timelines.append(PredictionTimeline(sid, true, probs.argmax(axis=1), probs))
    return classes, timelines


class TestTimelineWriter:
    """`write_timelines_json` formats frames itself; its bytes must be those
    of `json.dumps(..., indent=2)` over the reference objects."""

    @settings(derandomize=True, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(timeline_lists(), st.booleans())
    def test_matches_json_dumps_and_reads_back(self, tmp_path, drawn, include_probs):
        classes, timelines = drawn
        path = tmp_path / "timelines.json"
        write_timelines_json(timelines, path, include_probs=include_probs)
        objs = [timeline_to_obj(t, include_probs) for t in timelines]
        assert path.read_bytes() == (json.dumps(objs, indent=2) + "\n").encode()
        back = read_timelines_json(path, classes)
        assert len(back) == len(timelines)
        for mine, theirs in zip(timelines, back):
            assert theirs.sequence_id == mine.sequence_id
            assert np.array_equal(theirs.true_labels, mine.true_labels)
            assert np.array_equal(theirs.pred_labels, mine.pred_labels)
            if include_probs:
                assert np.array_equal(theirs.probs, mine.probs)

    @pytest.mark.parametrize("include_probs", [False, True])
    def test_empty_list(self, tmp_path, include_probs):
        path = tmp_path / "timelines.json"
        write_timelines_json([], path, include_probs=include_probs)
        assert path.read_bytes() == b"[]\n"
        assert read_timelines_json(path, 2) == []


class TestMalformedTimelineJson:
    @pytest.mark.parametrize("frames", [
        [{"true": 0, "pred": 0, "probs": [1.0, 0.0]},
         {"true": 1, "pred": 1, "probs": [1.0]}],
        [{"true": "x", "pred": 0}],
        # labels are JSON integers and probabilities JSON numbers, never coerced
        [{"true": 1.7, "pred": 0}],
        [{"true": 0, "pred": "1"}],
        [{"true": True, "pred": 0}],
        [{"true": 0, "pred": False}],
        [{"true": 2 ** 70, "pred": 0}],
        [{"true": 0, "pred": 1, "probs": ["0.5", 0.5]}],
        [{"true": 0, "pred": 1, "probs": [True, 0]}],
    ])
    def test_rejected_as_format_error(self, tmp_path, frames):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"sequence_id": "s", "frames": frames}]))
        with pytest.raises(FormatError):
            read_timelines_json(path, 2)

    @pytest.mark.parametrize("ids", [["a", "b", "a"], ["x", "x"], [7], [None],
                                     [["a"]], ["a", 1]])
    def test_repeated_or_non_string_ids_rejected(self, tmp_path, ids):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"sequence_id": sid, "frames": [
            {"true": 0, "pred": 0}]} for sid in ids]))
        with pytest.raises(FormatError):
            read_timelines_json(path, 2)


class TestTimelineValidation:
    def test_rejects_bad_probability_rows(self):
        with pytest.raises(DataError):
            PredictionTimeline("x", np.zeros(2, int), np.zeros(2, int),
                               np.full((2, 3), 0.5))

    def test_rejects_nan_rows(self):
        probs = np.full((2, 2), 0.5)
        probs[1, 0] = np.nan
        with pytest.raises(DataError):
            PredictionTimeline("x", np.zeros(2, int), np.zeros(2, int), probs)

    def test_rejects_empty_timeline(self):
        with pytest.raises(DataError):
            PredictionTimeline("x", np.zeros(0, int), np.zeros(0, int),
                               np.zeros((0, 2)))


class TestGuards:
    """Each guard raises its error with its message."""

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: PredictionTimeline("s", [0, 1], [0], np.full((2, 2), 0.5)),
                     DataError, "timeline fields must cover the same frame count",
                     id="timeline-lengths"),
        pytest.param(lambda: PredictionTimeline("s", [0, 1], [0, 1], np.full(2, 0.5)),
                     DataError, "probabilities must be an L x K matrix", id="timeline-probs-1d"),
    ])
    def test_refuses(self, call, error, message):
        with pytest.raises(error, match=re.escape(message)):
            call()
