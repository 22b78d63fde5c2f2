import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egobatch import (
    ConfigError,
    DaySequence,
    DenseLayer,
    LayerStack,
    ShapeError,
    batch_plan,
    build_piggyback,
    sliding_plan,
)
from egobatch.models import piggyback_logits


def pad_count(plan):
    return int((~plan.valid).sum())


class TestSlidingStarts:
    def test_counts_follow_length(self):
        plan = sliding_plan(7, 5)
        assert plan.starts.tolist() == [0, 1, 2]
        assert pad_count(plan) == 0

    def test_exact_fit_single_window(self):
        assert sliding_plan(5, 5).starts.tolist() == [0]

    def test_short_sequence_left_padded(self):
        plan = sliding_plan(3, 5)
        assert plan.starts.tolist() == [0]
        assert plan.valid.tolist() == [False, False, True, True, True]

    def test_coverage_counts(self):
        # frame j appears in min(j+1, T, L-j, L-T+1) windows; the last term
        # caps membership by the total window count for L < 2T-1
        for length, timestep in [(7, 5), (10, 3), (6, 6), (9, 1), (20, 4)]:
            plan = sliding_plan(length, timestep)
            hits = np.zeros(length, dtype=int)
            for start in plan.starts:
                hits[plan.source[start:start + plan.size]] += 1
            for j in range(length):
                assert hits[j] == min(j + 1, timestep, length - j,
                                      length - timestep + 1)
            assert (hits >= 1).all()

    def test_window_rows_padding_repeats_first_frame(self):
        feats = np.arange(6.0).reshape(3, 2)
        labels = np.array([0, 1, 2])
        plan = sliding_plan(3, 5)
        rows, labs = plan.rows(feats), plan.rows(labels)
        assert np.array_equal(rows[0], feats[0])
        assert np.array_equal(rows[1], feats[0])
        assert np.array_equal(rows[2:], feats)
        assert np.array_equal(labs, [0, 0, 0, 1, 2])

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            sliding_plan(0, 5)
        with pytest.raises(ConfigError):
            sliding_plan(5, 0)

    def test_timestep_one_is_one_step_per_frame(self):
        for length in (1, 2, 9, 40):
            plan = sliding_plan(length, 1)
            assert plan.size == 1
            assert plan.starts.tolist() == list(range(length))
            assert plan.source.tolist() == list(range(length))
            assert plan.valid.all()


class TestTiles:
    def test_exact_tiling(self):
        plan = batch_plan(10, 5)
        assert plan.starts.tolist() == [0, 5] and pad_count(plan) == 0

    def test_ragged_tail(self):
        plan = batch_plan(12, 5)
        assert plan.starts.tolist() == [0, 5, 10] and pad_count(plan) == 3

    def test_short_sequence(self):
        plan = batch_plan(3, 5)
        assert plan.starts.tolist() == [0] and pad_count(plan) == 2

    def test_batch_rows_right_pad_repeats_last(self):
        feats = np.arange(8.0).reshape(4, 2)
        labels = np.array([0, 1, 2, 3])
        plan = batch_plan(4, 3)
        rows, labs = plan.rows(feats), plan.rows(labels)
        assert np.array_equal(rows[:4], feats)
        assert np.array_equal(rows[4], feats[3])
        assert np.array_equal(rows[5], feats[3])
        assert np.array_equal(labs, [0, 1, 2, 3, 3, 3])
        assert np.array_equal(plan.valid, [True, True, True, True, False, False])

    def test_tiles_are_ceil_division(self):
        for length in range(1, 41):
            for n in range(1, 13):
                plan = batch_plan(length, n)
                assert plan.starts.tolist() == list(range(0, length, n))
                assert pad_count(plan) == -(-length // n) * n - length


class TestPiggybackPlan:
    def test_exact_plan(self):
        plan = batch_plan(11, 5, 2)
        assert plan.starts.tolist() == [0, 3, 6]
        assert pad_count(plan) == 0

    def test_padded_plan(self):
        plan = batch_plan(12, 5, 2)
        assert plan.starts.tolist() == [0, 3, 6, 9]
        assert pad_count(plan) == 2

    def test_single_batch(self):
        plan = batch_plan(5, 5, 2)
        assert plan.starts.tolist() == [0]
        assert pad_count(plan) == 0

    def test_overlap_must_be_positive_and_small(self):
        with pytest.raises(ConfigError):
            batch_plan(10, 5, 5)
        with pytest.raises(ConfigError):
            batch_plan(10, 5, -1)
        # overlap 0 is the carry-free tiling, which the carried pass rejects
        model = build_piggyback(3, 2, hidden=4, seed=0)
        seq = DaySequence("s", "u", np.zeros((10, 3)), np.zeros(10, dtype=int))
        with pytest.raises(ConfigError):
            piggyback_logits(model, seq, 5, 0)

    def test_short_sequence_is_one_padded_batch(self):
        for length in (1, 2):
            plan = batch_plan(length, 5, 2)
            assert plan.starts.tolist() == [0]
            assert plan.source.tolist() == [*range(length)] + [length - 1] * (5 - length)
            assert plan.valid.sum() == length

    def test_determinism(self):
        a, b = batch_plan(47, 10, 3), batch_plan(47, 10, 3)
        for field in ("starts", "source", "valid"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    @settings(derandomize=True, max_examples=300)
    @given(st.integers(1, 200), st.integers(1, 16), st.data())
    def test_batch_count_formula_and_coverage(self, length, size, data):
        if data.draw(st.booleans(), label="sliding"):
            plan, stride = sliding_plan(length, size), 1
        else:
            overlap = data.draw(st.integers(0, size - 1), label="overlap")
            plan, stride = batch_plan(length, size, overlap), size - overlap
            expected = 1 if length <= size else -(-(length - size) // stride) + 1
            assert len(plan.starts) == expected
        assert plan.size == size
        assert ((plan.source >= 0) & (plan.source < length)).all()
        assert plan.valid.sum() == length
        assert plan.starts[-1] + size == len(plan.source)
        assert (np.diff(plan.starts) == stride).all()
        pad = pad_count(plan)
        assert len(plan.starts) == 1 or pad < stride
        # every real frame is primary exactly once: batch 0 in full, every
        # later batch in its last `stride` positions, the rest repeating
        # the previous batch's frames
        primary = np.zeros(length, dtype=int)
        for k, start in enumerate(plan.starts):
            first = start if k == 0 else start + size - stride
            span = np.arange(first, start + size)
            np.add.at(primary, plan.source[span[plan.valid[span]]], 1)
        assert (primary == 1).all()


def record_lstm_inputs(monkeypatch, model):
    """Record each batch's recurrent inputs and outputs in `forward_batch`."""
    calls = []
    original = model.lstm.forward_batch

    def recording(inputs, *args):
        out = original(inputs, *args)
        calls.append((inputs[0].copy(), out[0].copy()))
        return out

    monkeypatch.setattr(model.lstm, "forward_batch", recording)
    return calls


class TestCarry:
    def setup_method(self):
        rng = np.random.default_rng(40)
        self.model = build_piggyback(3, 2, hidden=4, seed=21)
        self.seq = DaySequence("s", "u", rng.normal(size=(11, 3)),
                               rng.integers(2, size=11))
        self.embedded = self.model.embed.forward_rows(
            batch_plan(11, 5, 2).rows(self.seq.features))

    def test_mask_first_batch_all_false(self, monkeypatch):
        calls = record_lstm_inputs(monkeypatch, self.model)
        piggyback_logits(self.model, self.seq, 5, 2)
        assert len(calls) == 3
        assert np.array_equal(calls[0][0], self.embedded[0:5])

    def test_mask_later_batches(self, monkeypatch):
        # batches 1 and 2 start at frames 3 and 6; only their first m = 2
        # positions take carried outputs, the rest stay embedded frames
        calls = record_lstm_inputs(monkeypatch, self.model)
        piggyback_logits(self.model, self.seq, 5, 2)
        for k, start in ((1, 3), (2, 6)):
            assert not np.array_equal(calls[k][0][:2], self.embedded[start:start + 2])
            assert np.array_equal(calls[k][0][2:], self.embedded[start + 2:start + 5])

    def test_all_false_mask_passthrough(self, monkeypatch):
        # a day of at most n frames is one batch that carries nothing
        for length in (1, 2, 5):
            calls = record_lstm_inputs(monkeypatch, self.model)
            seq = DaySequence("s", "u", self.seq.features[:length],
                              self.seq.labels[:length])
            piggyback_logits(self.model, seq, 5, 2)
            assert len(calls) == 1
            rows = batch_plan(length, 5, 2).rows(seq.features)
            assert np.array_equal(calls[0][0], self.model.embed.forward_rows(rows))

    def test_substitution_in_temporal_order(self, monkeypatch):
        calls = record_lstm_inputs(monkeypatch, self.model)
        piggyback_logits(self.model, self.seq, 5, 2)
        for k in (1, 2):
            previous_out = calls[k - 1][1]
            assert np.array_equal(calls[k][0][0], previous_out[-2])
            assert np.array_equal(calls[k][0][1], previous_out[-1])

    def test_width_mismatch_rejected(self):
        # carried outputs can replace inputs only if the widths agree, which
        # the model enforces when it is built
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            LayerStack(embed=DenseLayer.create(3, 5, rng),
                       lstm=self.model.lstm, head=self.model.head)
