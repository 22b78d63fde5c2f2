import json

import numpy as np
import pytest

from egobatch import (
    ConfigError,
    DataError,
    DaySequence,
    DenseLayer,
    FrameBaselineModel,
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
from egobatch.batching import batch_rows
from egobatch.models import piggyback_logits
from egobatch.nnet import softmax
from oracles import unbatched_reference_logits


def random_seq(rng, length, dim, num_classes, sid="s0"):
    return DaySequence(sid, "u1", rng.normal(size=(length, dim)),
                       rng.integers(num_classes, size=length))


class TestBaseline:
    def test_constant_argmax(self):
        # class-0 logit always wins by a large bias margin
        model = FrameBaselineModel(head=DenseLayer(np.zeros((2, 3)),
                                                   np.array([5.0, 0.0])))
        seq = random_seq(np.random.default_rng(0), 9, 3, 2)
        timeline = predict_baseline(model, seq)
        assert (timeline.pred_labels == 0).all()

    def test_zero_weights_tie_to_lowest_id(self):
        model = FrameBaselineModel(head=DenseLayer(np.zeros((4, 3)), np.zeros(4)))
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
                for start in range(0, length, timestep):
                    rows, _, valid = batch_rows(seq.features, seq.labels, start,
                                                timestep)
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

    def test_store_holds_previous_batch_outputs_bit_for_bit(self):
        from egobatch import CarryStore, apply_carry, carry_mask

        rng = np.random.default_rng(30)
        model = build_piggyback(3, 2, hidden=4, seed=20)
        seq = random_seq(rng, 11, 3, 2)
        store = CarryStore(2)
        h0, _ = model.lstm.run(model.embed.forward_rows(seq.features[0:5]))
        store.update(h0[-2:])
        # batch 1 covers frames 3..7; its first two recurrent inputs must be
        # exactly the previous batch's last two outputs
        embedded = model.embed.forward_rows(seq.features[3:8])
        lstm_in = apply_carry(embedded, store, carry_mask(5, 2, first_batch=False))
        assert np.array_equal(lstm_in[:2], h0[-2:])
        assert np.array_equal(lstm_in[2:], embedded[2:])

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
        for builder, cls_name in [(build_baseline, "FrameBaselineModel"),
                                  (build_sliding, "SlidingWindowModel"),
                                  (build_piggyback, "PiggybackModel")]:
            model = builder(4, 3, seed=1) if builder is build_baseline \
                else builder(4, 3, hidden=5, seed=1)
            path = tmp_path / "arch.egomdl"
            write_checkpoint(model.params(), path)
            assert type(model_from_params(read_checkpoint(path))).__name__ == cls_name

    def test_checkpoint_with_missing_tensor_rejected(self, tmp_path):
        model = build_sliding(4, 3, hidden=5, seed=2)
        params = model.params()
        del params["lstm.b_f"]
        path = tmp_path / "broken.egomdl"
        write_checkpoint(params, path)
        with pytest.raises(ShapeError):
            model_from_params(read_checkpoint(path))


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
