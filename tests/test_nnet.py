import math
import os
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egobatch import (
    ConfigError,
    DataError,
    DenseLayer,
    FormatError,
    LstmLayer,
    LstmState,
    NumericError,
    OptimizerState,
    ShapeError,
    backprop_window,
    build_baseline,
    build_piggyback,
    build_sliding,
    grad_check,
    read_checkpoint,
    run_window,
    sgd_update,
    softmax,
    write_checkpoint,
)
from egobatch.models import LayerStack
from egobatch.nnet import (SGD_CHUNK, StepWorkspace, _LstmCache, _masked_xent_rows,
                           _Recurrence, flatten_layers, layer_views)
from oracles import (
    reference_lstm_backward,
    reference_lstm_recur,
    reference_lstm_step,
    reference_masked_xent_rows,
    reference_sgd_update,
    softmax_xent,
)


def zero_lstm(in_dim, hidden):
    return LstmLayer(np.zeros((4 * hidden, in_dim)), np.zeros((4 * hidden, hidden)),
                     np.zeros(4 * hidden))


class TestDense:
    def test_identity(self):
        layer = DenseLayer(np.eye(2), np.zeros(2))
        assert np.array_equal(layer.forward(np.array([3.0, -1.0])), [3.0, -1.0])

    def test_hand_arithmetic(self):
        layer = DenseLayer(np.array([[1.0, 2.0]]), np.array([0.5]))
        assert np.allclose(layer.forward(np.array([1.0, 1.0])), [3.5])

    def test_shape_error(self):
        layer = DenseLayer(np.eye(2), np.zeros(2))
        with pytest.raises(ShapeError):
            layer.forward(np.array([1.0, 2.0, 3.0]))

    def test_rows_match_single(self):
        rng = np.random.default_rng(0)
        layer = DenseLayer.create(4, 3, rng)
        rows = rng.normal(size=(5, 4))
        batched = layer.forward_rows(rows)
        for t in range(5):
            assert np.allclose(batched[t], layer.forward(rows[t]), atol=1e-12)


class TestLstmStep:
    def test_all_zero(self):
        layer = zero_lstm(1, 1)
        state = layer.step(np.array([1.0]), LstmState.zeros(1))
        assert np.array_equal(state.h, [0.0])
        assert np.array_equal(state.c, [0.0])

    def test_scalar_hand_case(self):
        # only the candidate input weight is live: i = o = 0.5, g = tanh(1)
        layer = zero_lstm(1, 1)
        layer.w_stack[3, 0] = 1.0  # W_c, the fourth row block
        state = layer.step(np.array([1.0]), LstmState.zeros(1))
        g = math.tanh(1.0)
        c = 0.5 * g
        h = 0.5 * math.tanh(c)
        assert abs(g - 0.761594) < 1e-6
        assert abs(c - 0.380797) < 1e-6
        assert abs(h - 0.181700) < 1e-6
        assert np.allclose(state.c, [c], atol=1e-12)
        assert np.allclose(state.h, [h], atol=1e-12)

    def test_output_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            hidden = int(rng.integers(1, 6))
            in_dim = int(rng.integers(1, 6))
            layer = LstmLayer(
                rng.normal(scale=20.0, size=(4 * hidden, in_dim)),
                rng.normal(scale=20.0, size=(4 * hidden, hidden)),
                rng.normal(scale=5.0, size=4 * hidden),
            )
            state = LstmState(rng.uniform(-1, 1, hidden), rng.normal(size=hidden))
            for _ in range(4):
                state = layer.step(rng.normal(scale=10.0, size=in_dim), state)
                assert np.abs(state.h).max() < 1.0

    def test_step_refuses_an_infinite_cell_behind_a_finite_output(self):
        # o * tanh(inf) is finite, so only the cell check sees it
        layer = LstmLayer.create(2, 3, np.random.default_rng(4))
        state = LstmState(np.zeros(3), np.array([0.0, np.inf, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite recurrent state"):
                layer.step(np.ones(2), state)

    def test_step_matches_the_per_gate_reference(self):
        # states drawn as in test_output_bound; the reference reads only
        # the per-gate tensors of the stack's params()
        rng = np.random.default_rng(3)
        for _ in range(25):
            hidden = int(rng.integers(1, 6))
            in_dim = int(rng.integers(1, 6))
            layer = LstmLayer(
                rng.normal(scale=20.0, size=(4 * hidden, in_dim)),
                rng.normal(scale=20.0, size=(4 * hidden, hidden)),
                rng.normal(scale=5.0, size=4 * hidden),
            )
            params = LayerStack(DenseLayer(np.zeros((1, hidden)), np.zeros(1)),
                                layer).params()
            state = LstmState(rng.uniform(-1, 1, hidden), rng.normal(size=hidden))
            h, c = state.h, state.c
            for _ in range(4):
                x = rng.normal(scale=10.0, size=in_dim)
                state = layer.step(x, state)
                h, c = reference_lstm_step(params, x, h, c)
                assert np.abs(state.h - h).max() <= 1e-12
                assert np.abs(state.c - c).max() <= 1e-12

    def test_run_matches_steps(self):
        rng = np.random.default_rng(2)
        layer = LstmLayer.create(3, 4, rng)
        inputs = rng.normal(size=(6, 3))
        outputs, _ = layer.run(inputs)
        state = LstmState.zeros(4)
        for t in range(6):
            state = layer.step(inputs[t], state)
            assert np.allclose(outputs[t], state.h, atol=1e-12)

    def test_forward_batch_matches_run_per_window(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            batch, steps = int(rng.integers(1, 7)), int(rng.integers(1, 12))
            in_dim, hidden = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            layer = LstmLayer.create(in_dim, hidden, rng)
            inputs = rng.normal(scale=3.0, size=(batch, steps, in_dim))
            outputs = layer.forward_batch(inputs)
            assert outputs.shape == (batch, steps, hidden)
            for k in range(batch):
                expected, _ = layer.run(inputs[k])
                assert np.abs(outputs[k] - expected).max() <= 1e-12

    def test_forward_batch_of_one_window_is_run_bit_for_bit(self):
        rng = np.random.default_rng(25)
        for hidden in (1, 2, 7, 32, 64):
            in_dim = int(rng.integers(1, 40))
            layer = LstmLayer.create(in_dim, hidden, rng)
            inputs = rng.normal(scale=3.0, size=(int(rng.integers(1, 12)), in_dim))
            expected, _ = layer.run(inputs)
            assert np.array_equal(layer.forward_batch(inputs[np.newaxis])[0], expected)

    def test_forward_batch_refills_the_rows_it_is_handed(self):
        rng = np.random.default_rng(26)
        layer = LstmLayer.create(3, 4, rng)
        rows = layer.batch_rows(2, 5)
        for _ in range(3):
            inputs = rng.normal(scale=3.0, size=(2, 5, 3))
            got = layer.forward_batch(inputs, rows)
            assert got is rows.h_rows
            assert got.tobytes() == layer.forward_batch(inputs).tobytes()

    def test_forward_batch_shape_checked(self):
        layer = LstmLayer.create(3, 4, np.random.default_rng(22))
        with pytest.raises(ShapeError):
            layer.forward_batch(np.zeros((5, 3)))
        with pytest.raises(ShapeError):
            layer.forward_batch(np.zeros((2, 5, 4)))
        narrower = LstmLayer.create(3, 3, np.random.default_rng(23))
        for rows in (layer.batch_rows(3, 5), layer.batch_rows(2, 6), narrower.batch_rows(2, 5)):
            with pytest.raises(ShapeError, match=re.escape("cannot hold 2 x 5 x 4")):
                layer.forward_batch(np.zeros((2, 5, 3)), rows)

    def test_non_finite_input_raises_numeric_error_without_warnings(self):
        rng = np.random.default_rng(31)
        layer = LstmLayer.create(3, 4, rng)
        inputs = rng.normal(size=(3, 6, 3))
        inputs[1, 2, 0] = np.nan  # one bad row in the middle window
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                layer.run(inputs[1])
            for batch in (inputs[1:2], inputs):
                with pytest.raises(NumericError):
                    layer.forward_batch(batch)
            with pytest.raises(NumericError):
                layer.step(inputs[1, 2], LstmState.zeros(4))


class TestLstmRecur:
    def test_equals_the_per_position_loop_bit_for_bit(self):
        # scales 40 and 800 saturate the gates
        rng = np.random.default_rng(32)
        # hidden 256 at batch 6 and 18 are shapes of the h256 inference benchmark
        shapes = [(batch, hidden) for batch in (1, 4) for hidden in (1, 3, 32, 64)]
        for batch, hidden in shapes + [(6, 256), (18, 256)]:
            for steps in (range(1, 13) if hidden < 256 else (1, 2, 10)):
                for scale in (1.0, 40.0, 800.0):
                    in_dim = int(rng.integers(1, 40))
                    layer = LstmLayer.create(in_dim, hidden, rng)
                    layer.b_stack[...] = rng.normal(size=4 * hidden)
                    inputs = rng.normal(scale=scale, size=(batch, steps, in_dim))
                    got = layer._recur(inputs)
                    want = reference_lstm_recur(layer, inputs)
                    for name, a, b in zip(("gates", "c", "tanh c", "h"), got, want):
                        assert same_bits(a, b), (batch, hidden, steps, scale, name)


def masked_sigmoid(x):
    """The two-branch form: each branch's exp sees only non-positive values."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def recur_sigmoid(x, rows=None):
    """The input gates `_recur` computes from pre-activations `x`: one 1 x 1
    window per value through a layer of hidden size 1 whose four gates read
    the input with weight 1 and nothing else, so each gate row holds x
    exactly, infinities included (an identity W would mix 0 * inf into every
    row). The windows go into `rows` when given."""
    layer = LstmLayer(np.ones((4, 1)), np.zeros((4, 1)), np.zeros(4))
    if rows is None:
        rows = layer.batch_rows(x.size, 1)
    try:
        layer._recur(x.reshape(-1, 1, 1), rows=rows)
    except NumericError:
        assert np.isnan(x).any()  # a NaN gate makes a NaN output
    return rows.gate_rows[:, 0, 0].copy()


class TestSigmoid:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, -709.0, 745.0, -745.0,
               5e-324, -5e-324, 2.2e-308, -2.2e-308]

    def test_equals_masked_form_bit_for_bit(self):
        rng = np.random.default_rng(26)
        for scale in (1e-8, 1e-3, 1.0, 10.0, 40.0, 800.0):
            x = np.concatenate([rng.normal(scale=scale, size=300), self.SPECIAL])
            got, want = recur_sigmoid(x), masked_sigmoid(x)
            real = ~np.isnan(want)
            assert np.array_equal(np.isnan(got), ~real)
            assert np.array_equal(got[real].view(np.uint64),
                                  want[real].view(np.uint64)), scale

    def test_saturates_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(recur_sigmoid(np.array([1000.0, -1000.0])), [1.0, 0.0])

    def test_in_place_equals_allocating_form_bit_for_bit(self):
        # rows handed to `_recur` full of other values are overwritten to the
        # bits of new rows
        rng = np.random.default_rng(33)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e-8, 1e-3, 1.0, 10.0, 40.0, 800.0):
                x = np.concatenate([rng.normal(scale=scale, size=300), self.SPECIAL])
                want, masked = recur_sigmoid(x), masked_sigmoid(x)
                rows = _Recurrence(x.size, 1, 1)
                for block in (rows.gate_rows, rows.sigmoid_scratch):
                    block[...] = rng.normal(scale=scale, size=block.shape)
                got = recur_sigmoid(x, rows)
                assert same_bits(got, want), scale
                real = ~np.isnan(masked)
                assert same_bits(got[real], masked[real]), scale


class TestLstmStorage:
    def test_gate_tensors_are_views_of_the_stacks(self):
        model = build_piggyback(5, 3, hidden=4, seed=23)
        lstm = model.lstm
        for name, w in model.params().items():
            if name.startswith("lstm."):
                stack = {"W": lstm.w_stack, "U": lstm.u_stack,
                         "b": lstm.b_stack}[name[len("lstm."):][0]]
                assert np.shares_memory(w, stack), name
        params = model.params()
        assert np.array_equal(lstm.w_stack, np.concatenate(
            [params[f"lstm.W_{g}"] for g in "ifoc"]))

    def test_sgd_update_through_views_moves_the_stacks(self):
        rng = np.random.default_rng(24)
        model = build_sliding(3, 2, hidden=4, seed=25)
        before = {name: getattr(model.lstm, name).copy()
                  for name in ("w_stack", "u_stack", "b_stack")}
        flat = flatten_layers(model.layers)
        grads = rng.normal(size=flat.size)
        sgd_update(flat, grads, OptimizerState.create(flat.size, learning_rate=0.1))
        for name, old in before.items():
            stack = getattr(model.lstm, name)
            assert not np.array_equal(stack, old)
        named = model.unflatten(grads)
        for k, g in enumerate("ifoc"):
            assert np.array_equal(model.lstm.w_stack[4 * k:4 * (k + 1)],
                                  before["w_stack"][4 * k:4 * (k + 1)]
                                  - 0.1 * named[f"lstm.W_{g}"])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestLstmBackward:
    def test_equals_the_per_position_loop_bit_for_bit(self):
        rng = np.random.default_rng(27)
        # hidden 256 at T = 10 is the paper's training shape
        for hidden in (1, 3, 32, 64, 256):
            for steps in (range(1, 13) if hidden < 256 else (1, 2, 10)):
                in_dim = int(rng.integers(1, 40))
                layer = LstmLayer.create(in_dim, hidden, rng)
                layer.b_stack[...] = rng.normal(size=4 * hidden)
                _, cache = layer.run(rng.normal(scale=2.0, size=(steps, in_dim)))
                d_outputs = rng.normal(size=(steps, hidden))
                stacked = {kind: np.empty_like(t) for kind, t in zip("WUb", layer._tensors())}
                d_pre = layer.backward(cache, d_outputs, *stacked.values())
                want, want_inputs = reference_lstm_backward(layer, cache, d_outputs)
                for k, gate in enumerate("ifoc"):
                    for kind, stack in stacked.items():
                        got = stack[k * hidden:(k + 1) * hidden]
                        assert same_bits(got, want[f"{kind}_{gate}"]), (hidden, steps, kind)
                assert same_bits(d_pre @ layer.w_stack, want_inputs), (hidden, steps)

    def test_writes_into_the_given_vector(self):
        rng = np.random.default_rng(28)
        layer = LstmLayer.create(3, 4, rng)
        _, cache = layer.run(rng.normal(size=(5, 3)))
        out = np.full(sum(t.size for t in layer._tensors()) + 2, np.nan)
        (views,) = layer_views([layer], out[1:-1])
        assert all(np.shares_memory(view, out) for view in views)
        layer.backward(cache, rng.normal(size=(5, 4)), *views)
        assert np.isfinite(out[1:-1]).all()
        assert np.isnan(out[[0, -1]]).all()


class TestSoftmaxXent:
    def test_uniform_21_classes(self):
        loss, dlogits = softmax_xent(np.zeros(21), 0)
        assert abs(loss - math.log(21)) < 1e-12
        assert np.allclose(softmax(np.zeros(21)), 1.0 / 21, atol=1e-15)

    def test_two_class_hand_value(self):
        loss, dlogits = softmax_xent(np.array([1.0, 2.0]), 0)
        expected = math.log(1.0 + math.e)  # -ln(1 / (1 + e))
        assert abs(loss - expected) < 1e-12
        assert abs(loss - 1.313262) < 1e-6

    def test_large_logits_stable(self):
        loss, dlogits = softmax_xent(np.array([1000.0, 0.0]), 0)
        assert loss < 1e-12
        assert np.isfinite(dlogits).all()

    def test_gradient_is_probs_minus_onehot(self):
        logits = np.array([0.3, -1.2, 2.0])
        loss, dlogits = softmax_xent(logits, 2)
        expected = softmax(logits)
        expected[2] -= 1.0
        assert np.allclose(dlogits, expected, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            softmax_xent(np.zeros(3), 3)

    def test_probs_sum_and_loss_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            logits = rng.normal(scale=rng.uniform(0.1, 50), size=rng.integers(2, 12))
            probs = softmax(logits)
            assert abs(probs.sum() - 1.0) < 1e-12
            loss, _ = softmax_xent(logits, int(rng.integers(len(logits))))
            assert loss >= 0.0


class TestSgd:
    def test_plain_step(self):
        w = np.array([1.0])
        opt = OptimizerState.create(w.size, learning_rate=0.1)
        sgd_update(w, np.array([0.5]), opt)
        assert np.allclose(w, [0.95], atol=1e-15)

    def test_momentum_two_steps(self):
        w = np.array([1.0])
        opt = OptimizerState.create(w.size, learning_rate=0.1, momentum=0.9)
        g = np.array([0.5])
        sgd_update(w, g, opt)
        assert np.allclose(opt.velocity, [-0.05], atol=1e-15)
        assert np.allclose(w, [0.95], atol=1e-15)
        sgd_update(w, g, opt)
        assert np.allclose(opt.velocity, [-0.095], atol=1e-15)
        assert np.allclose(w, [0.855], atol=1e-15)

    def test_decay_only_step(self):
        w = np.array([1.0])
        opt = OptimizerState.create(w.size, learning_rate=0.1, weight_decay=0.01)
        sgd_update(w, np.array([0.0]), opt)
        assert np.allclose(w, [0.999], atol=1e-15)

    def test_vanilla_equals_w_minus_alpha_g(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=12)
        g = rng.normal(size=12)
        params = w.copy()
        opt = OptimizerState.create(params.size, learning_rate=0.37)
        sgd_update(params, g, opt)
        assert np.array_equal(params, w - 0.37 * g)

    def test_shape_mismatch(self):
        w = np.ones(2)
        opt = OptimizerState.create(w.size, learning_rate=0.1)
        with pytest.raises(ShapeError):
            sgd_update(w, np.ones(3), opt)
        with pytest.raises(ShapeError):
            sgd_update(np.ones(3), np.ones(3), opt)

    def test_chunked_flat_update_equals_per_tensor_loop_bit_for_bit(self):
        rng = np.random.default_rng(29)
        shapes = [(3 * SGD_CHUNK // 200 + 7, 200), (SGD_CHUNK + 5,), (13,), (4, 9)]
        tensors = {f"t{k}": rng.normal(size=shape) for k, shape in enumerate(shapes)}
        flat = np.concatenate([w.reshape(-1) for w in tensors.values()])
        assert flat.size > SGD_CHUNK and flat.size % SGD_CHUNK
        per_tensor = {name: w.copy() for name, w in tensors.items()}
        velocity = {name: np.zeros_like(w) for name, w in tensors.items()}
        opt = OptimizerState.create(flat.size, learning_rate=0.03, momentum=0.9,
                                    weight_decay=5e-3)
        for _ in range(3):
            grads = {name: rng.normal(size=w.shape) for name, w in tensors.items()}
            reference_sgd_update(per_tensor, grads, velocity, opt)
            sgd_update(flat, np.concatenate([g.reshape(-1) for g in grads.values()]), opt)
        want = np.concatenate([w.reshape(-1) for w in per_tensor.values()])
        want_v = np.concatenate([v.reshape(-1) for v in velocity.values()])
        assert same_bits(flat, want)
        assert same_bits(opt.velocity, want_v)

    def test_hyperparameter_validation(self):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                OptimizerState.create(1, learning_rate=bad)
        with pytest.raises(ConfigError):
            OptimizerState.create(1, learning_rate=0.1, momentum=1.0)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                OptimizerState.create(1, learning_rate=0.1, weight_decay=bad)


class TestBackpropWindow:
    def test_single_step_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        model = build_piggyback(4, 3, hidden=3, seed=21)
        report = grad_check(model, rng.normal(size=(1, 4)), rng.integers(3, size=1),
                            epsilon=1e-5)
        assert report.max_rel_error < 1e-5

    def test_masked_steps_contribute_nothing(self):
        rng = np.random.default_rng(9)
        model = build_sliding(3, 2, hidden=4, seed=4)
        inputs = rng.normal(size=(5, 3))
        labels = rng.integers(2, size=5)
        mask = np.array([False, False, True, True, True])
        loss, _, fwd = backprop_window(model, inputs, labels, mask)
        per_step = [softmax_xent(fwd.logits[t], labels[t])[0] for t in range(5)]
        expected = np.mean([per_step[t] for t in range(5) if mask[t]])
        assert abs(loss - expected) < 1e-12

    def test_eval_mode_is_deterministic(self):
        # without dropout, as validation and grad_check run it
        rng = np.random.default_rng(10)
        model = build_sliding(3, 2, hidden=4, seed=5)
        inputs = rng.normal(size=(4, 3))
        labels = rng.integers(2, size=4)
        first = backprop_window(model, inputs, labels)
        second = backprop_window(model, inputs, labels)
        assert np.array_equal(first[2].logits, second[2].logits)
        assert first[0] == second[0]

    def test_degenerate_mask_in_train_mode(self):
        # an all-masked window is refused with and without dropout
        model = build_baseline(2, 2, seed=0)
        for rate in (0.0, 0.5):
            with pytest.raises(DataError, match="loss-masked"):
                backprop_window(model, np.zeros((2, 2)), np.zeros(2, dtype=int),
                                np.zeros(2, dtype=bool), dropout_rate=rate,
                                rng=np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [3, -1])
    def test_supervised_label_out_of_range(self, bad):
        model = build_sliding(2, 3, hidden=3, seed=0)
        labels = np.array([0, bad, 2])
        for rate in (0.0, 0.5):
            with pytest.raises(DataError):
                backprop_window(model, np.ones((3, 2)), labels, dropout_rate=rate,
                                rng=np.random.default_rng(0))
        # the same label at a masked-out step is never looked at
        loss, _, _ = backprop_window(model, np.ones((3, 2)), labels,
                                     np.array([True, False, True]))
        assert np.isfinite(loss)

    def test_gradient_vector_is_laid_out_like_the_flat_layers(self):
        # an SGD step over flatten_layers' vector and backprop_window's
        # gradient moves every tensor unflatten names by the gradient it names
        rng = np.random.default_rng(30)
        for model in (build_baseline(4, 3, seed=1), build_sliding(4, 3, hidden=5, seed=1),
                      build_piggyback(4, 3, hidden=5, seed=1)):
            inputs, labels = rng.normal(size=(6, 4)), rng.integers(3, size=6)
            for mask in (None, np.arange(6) % 2 == 0):
                _, grads, _ = backprop_window(model, inputs, labels, mask)
                before = {name: w.copy() for name, w in model.params().items()}
                flat = flatten_layers(model.layers)
                assert grads.shape == flat.shape
                named = model.unflatten(grads)
                assert list(named) == list(before)
                sgd_update(flat, grads, OptimizerState.create(flat.size, learning_rate=0.5))
                for name, w in model.params().items():
                    assert named[name].shape == w.shape, name
                    assert same_bits(w, before[name] - 0.5 * named[name]), name
                    assert np.shares_memory(w, flat), name

    def test_dropout_gradient_with_replayed_mask(self):
        # replaying the rng seed fixes the dropout mask, so central
        # differences stay valid for the dropped loss as well
        model = build_sliding(3, 2, hidden=4, seed=6)
        data_rng = np.random.default_rng(11)
        inputs = data_rng.normal(size=(5, 3))
        labels = data_rng.integers(2, size=5)

        def dropped_loss():
            rng = np.random.default_rng(123)
            loss, _, _ = backprop_window(model, inputs, labels,
                                         dropout_rate=0.5, rng=rng)
            return loss

        _, grads, _ = backprop_window(model, inputs, labels, dropout_rate=0.5,
                                      rng=np.random.default_rng(123))
        grads = model.unflatten(grads)
        eps = 1e-6
        for name, w in model.params().items():
            flat = w.reshape(-1)
            gflat = grads[name].reshape(-1)
            sample = np.random.default_rng(12).choice(
                flat.size, size=min(6, flat.size), replace=False)
            for idx in sample:
                saved = flat[idx]
                flat[idx] = saved + eps
                hi = dropped_loss()
                flat[idx] = saved - eps
                lo = dropped_loss()
                flat[idx] = saved
                numeric = (hi - lo) / (2 * eps)
                # absolute slack covers coordinates below the FD noise floor
                bound = 1e-8 + 1e-4 * max(abs(numeric), abs(gflat[idx]))
                assert abs(numeric - gflat[idx]) < bound


class TestDropout:
    def test_inverted_dropout_preserves_expectation(self):
        model = build_baseline(6, 3, seed=7)
        activation = np.full((1, 6), 2.0)
        rng = np.random.default_rng(99)
        total = np.zeros(6)
        draws = 40_000
        for _ in range(draws):
            keep = (rng.random((1, 6)) < 0.5) / 0.5
            total += (activation * keep)[0]
        assert np.abs(total / draws - activation[0]).max() < 0.01 * 2.0

    def test_train_dropout_changes_logits(self):
        model = build_sliding(3, 2, hidden=4, seed=8)
        inputs = np.random.default_rng(14).normal(size=(4, 3))
        plain = run_window(model, inputs)
        dropped = run_window(model, inputs, dropout_rate=0.5, rng=np.random.default_rng(1))
        assert not np.array_equal(plain, dropped)


class TestGradCheck:
    def test_dense_softmax_tight(self):
        rng = np.random.default_rng(15)
        model = build_baseline(3, 2, seed=9)
        report = grad_check(model, rng.normal(size=(4, 3)),
                            rng.integers(2, size=4), epsilon=1e-5)
        assert report.max_rel_error < 1e-7

    def test_lstm_stack_within_tolerance(self):
        # dense -> LSTM(H=4) -> dense over six steps
        rng = np.random.default_rng(16)
        model = build_piggyback(5, 3, hidden=4, seed=10)
        report = grad_check(model, rng.normal(size=(6, 5)) * 2.0,
                            rng.integers(3, size=6), epsilon=1e-5)
        assert report.max_rel_error < 1e-5

    def test_recurrent_only_stack_within_tolerance(self):
        rng = np.random.default_rng(26)
        model = build_sliding(5, 3, hidden=4, seed=10)
        report = grad_check(model, rng.normal(size=(6, 5)) * 2.0,
                            rng.integers(3, size=6), epsilon=1e-5)
        assert report.max_rel_error < 1e-5

    @pytest.mark.parametrize("build", [build_sliding, build_piggyback])
    def test_builds_recurrence_rows_once(self, build, monkeypatch):
        # every finite-difference loss runs in the cache of the workspace
        # that the analytic gradients were computed in
        built = []
        init = _Recurrence.__init__

        def counting(rows, *args):
            built.append(type(rows))
            init(rows, *args)

        monkeypatch.setattr(_Recurrence, "__init__", counting)
        rng = np.random.default_rng(27)
        model = build(4, 3, hidden=3, seed=5)
        grad_check(model, rng.normal(size=(5, 4)), rng.integers(3, size=5))
        assert built == [_LstmCache]

    def test_zero_gradient_coordinate_reports_zero(self):
        # a feature column that is identically zero leaves its head weights
        # with exactly zero analytic and numeric gradients
        rng = np.random.default_rng(17)
        model = build_baseline(3, 2, seed=11)
        inputs = rng.normal(size=(4, 3))
        inputs[:, 1] = 0.0
        report = grad_check(model, inputs, rng.integers(2, size=4), epsilon=1e-5)
        assert report.max_rel_error < 1e-7
        _, grads, _ = backprop_window(model, inputs, rng.integers(2, size=4))
        assert np.array_equal(model.unflatten(grads)["head.W"][:, 1], [0.0, 0.0])

    def test_epsilon_range_enforced(self):
        model = build_baseline(2, 2, seed=0)
        with pytest.raises(ConfigError):
            grad_check(model, np.ones((1, 2)), np.zeros(1, dtype=int), epsilon=1e-2)

    def test_all_masked_window_is_refused(self):
        # no supervised step leaves nothing to compare: no vacuous pass
        model = build_piggyback(3, 2, hidden=3, seed=0)
        with pytest.raises(DataError, match="loss-masked"):
            grad_check(model, np.ones((4, 3)), np.zeros(4, dtype=int),
                       np.zeros(4, dtype=bool))


class TestCheckpoint:
    def test_round_trip_bytes(self, tmp_path):
        model = build_piggyback(3, 2, hidden=4, seed=13)
        path = tmp_path / "m.egomdl"
        write_checkpoint(model.params(), path)
        first = path.read_bytes()
        back = read_checkpoint(path)
        write_checkpoint(back, path)
        assert path.read_bytes() == first
        for name, w in model.params().items():
            assert np.array_equal(back[name], w)

    def test_round_trip_keeps_every_rank(self, tmp_path):
        params = {f"t{rank}": np.arange(1.0, 1.0 + 2 ** rank).reshape((2,) * rank)
                  for rank in range(4)}
        path = tmp_path / "ranks.egomdl"
        write_checkpoint(params, path)
        back = read_checkpoint(path)
        for name, w in params.items():
            assert back[name].shape == w.shape
            assert np.array_equal(back[name], w)
        first = path.read_bytes()
        write_checkpoint(back, path)
        assert path.read_bytes() == first

    @settings(derandomize=True, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_round_trip_property(self, tmp_path, data):
        # any names, ranks 0-3 and dimensions of size 0 read back bit for bit
        names = data.draw(st.lists(st.text(st.characters(codec="utf-8"), max_size=6),
                                   max_size=4, unique=True))
        params = {}
        for name in names:
            shape = data.draw(st.lists(st.integers(0, 3), max_size=3).map(tuple))
            params[name] = data.draw(arrays(np.float64, shape,
                                            elements=st.floats(allow_nan=False,
                                                               allow_infinity=False)))
        path = tmp_path / "prop.egomdl"
        write_checkpoint(params, path)
        first = path.read_bytes()
        back = read_checkpoint(path)
        assert list(back) == sorted(params)
        for name, w in params.items():
            assert back[name].dtype == np.float64 and back[name].shape == w.shape
            assert back[name].tobytes() == w.tobytes(), name
        # equal dicts write equal bytes, whatever their insertion order
        write_checkpoint(dict(reversed(back.items())), path)
        assert path.read_bytes() == first

    def test_fuzz_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        for _ in range(15):
            params = {}
            for i in range(int(rng.integers(1, 6))):
                rank = int(rng.integers(1, 3))
                shape = tuple(int(rng.integers(1, 7)) for _ in range(rank))
                params[f"t{i}.x{int(rng.integers(100))}"] = rng.normal(size=shape)
            path = tmp_path / "fuzz.egomdl"
            write_checkpoint(params, path)
            first = path.read_bytes()
            write_checkpoint(read_checkpoint(path), path)
            assert path.read_bytes() == first

    def test_non_finite_tensor_refused(self, tmp_path):
        path = tmp_path / "nan.egomdl"
        for bad in (np.nan, np.inf, -np.inf):
            params = build_sliding(3, 2, hidden=4, seed=13).params()
            params["lstm.U_f"][1, 2] = bad
            with pytest.raises(DataError):
                write_checkpoint(params, path)
            assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.egomdl"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 10)
        with pytest.raises(FormatError):
            read_checkpoint(path)

    def test_truncated(self, tmp_path):
        model = build_baseline(2, 2, seed=0)
        path = tmp_path / "t.egomdl"
        write_checkpoint(model.params(), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            read_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.egomdl"
        write_checkpoint(build_baseline(2, 2, seed=0).params(), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(FormatError, match="3 trailing bytes"):
            read_checkpoint(path)

    def test_every_proper_prefix_names_its_part(self, tmp_path):
        params = build_sliding(3, 2, hidden=2, seed=13).params()
        path = tmp_path / "m.egomdl"
        write_checkpoint(params, path)
        blob = path.read_bytes()
        parts = [(8, "bad checkpoint magic"), (12, "truncated tensor count")]
        for name in sorted(params):  # (end offset, error) in file order
            shape = params[name].shape
            for size, what in ((2, "name length"), (len(name), "tensor name"),
                               (1, "rank"), (4 * len(shape), "dimension"),
                               (8 * math.prod(shape), f"data of {name!r}")):
                parts.append((parts[-1][0] + size, f"truncated {what}"))
        assert len(blob) == parts[-1][0]
        for keep in range(len(blob)):
            path.write_bytes(blob[:keep])
            error = next(error for end, error in parts if keep < end)
            with pytest.raises(FormatError) as caught:
                read_checkpoint(path)
            assert str(caught.value) == f"{path}: {error}"
        path.write_bytes(blob + b"\x00")
        with pytest.raises(FormatError) as caught:
            read_checkpoint(path)
        assert str(caught.value) == f"{path}: 1 trailing bytes"

    @pytest.mark.parametrize("dims", [(2 ** 31, 2 ** 31, 4), (65536,) * 4])
    def test_dimensions_whose_product_wraps_are_truncated_data(self, tmp_path, dims):
        # in int64 both products wrap to 0 elements
        name = b"head.W"
        payload = b"EGOMDL01" + struct.pack("<I", 1)
        payload += struct.pack("<H", len(name)) + name + bytes([len(dims)])
        payload += b"".join(struct.pack("<I", d) for d in dims)
        path = tmp_path / "wrap.egomdl"
        path.write_bytes(payload)
        with pytest.raises(FormatError, match="truncated"):
            read_checkpoint(path)

    def test_order_enforced(self, tmp_path):
        import struct

        def tensor_blob(name, values):
            arr = np.asarray(values, dtype="<f8")
            blob = struct.pack("<H", len(name)) + name.encode()
            blob += bytes([arr.ndim])
            for d in arr.shape:
                blob += struct.pack("<I", d)
            return blob + arr.tobytes()

        payload = b"EGOMDL01" + struct.pack("<I", 2)
        payload += tensor_blob("b", [1.0]) + tensor_blob("a", [2.0])
        path = tmp_path / "o.egomdl"
        path.write_bytes(payload)
        with pytest.raises(FormatError):
            read_checkpoint(path)


@pytest.mark.parametrize("kind", ["all", "partial", "single", "one row"])
def test_masked_xent_rows_equals_the_reference_bit_for_bit(kind):
    rng = np.random.default_rng(35)
    for scale in (0.1, 1.0, 30.0):
        steps = 1 if kind == "one row" else 10
        logits = rng.normal(scale=scale, size=(steps, 21))
        labels = rng.integers(21, size=steps)
        mask = np.ones(steps, dtype=bool)
        if kind == "partial":
            mask[7:] = False  # a padded last batch
        elif kind == "single":
            mask[:] = False
            mask[4] = True
        loss, dlogits = _masked_xent_rows(logits, labels, mask)
        want_loss, want_dlogits = reference_masked_xent_rows(logits, labels, mask)
        assert same_bits(loss, want_loss), (kind, scale)
        assert same_bits(dlogits, want_dlogits), (kind, scale)


def test_masked_xent_rows_matches_per_frame():
    rng = np.random.default_rng(20)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(4, size=6)
    mask = np.array([True, False, True, True, False, True])
    loss, dlogits = _masked_xent_rows(logits, labels, mask)
    singles = [softmax_xent(logits[t], labels[t]) for t in range(6)]
    expected_loss = np.mean([singles[t][0] for t in range(6) if mask[t]])
    assert abs(loss - expected_loss) < 1e-12
    for t in range(6):
        if mask[t]:
            assert np.allclose(dlogits[t], singles[t][1] / mask.sum(), atol=1e-12)
        else:
            assert np.array_equal(dlogits[t], np.zeros(4))


class TestStepWorkspace:
    """A workspace reused across windows against a new one per window."""

    @staticmethod
    def windows(rng, in_dim, classes, steps, count):
        """Windows with their labels and masks; every third masks a padded tail."""
        for k in range(count):
            mask = np.ones(steps, dtype=bool)
            if k % 3 == 2:
                mask[int(rng.integers(1, steps)):] = False
            yield (rng.normal(scale=2.0, size=(steps, in_dim)),
                   rng.integers(classes, size=steps), mask)

    @pytest.mark.parametrize("build", [build_baseline, build_sliding, build_piggyback])
    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_reused_equals_new_bit_for_bit(self, build, rate):
        rng = np.random.default_rng(34)
        kwargs = {} if build is build_baseline else {"hidden": 5}
        model = build(4, 3, seed=7, **kwargs)
        workspace = StepWorkspace(model, 6)
        reused_rng, new_rng = np.random.default_rng(8), np.random.default_rng(8)
        for inputs, labels, mask in self.windows(rng, 4, 3, 6, 12):
            want = backprop_window(model, inputs, labels, mask, dropout_rate=rate,
                                   rng=new_rng)
            got = backprop_window(model, inputs, labels, mask, dropout_rate=rate,
                                  rng=reused_rng, workspace=workspace)
            assert got[0].hex() == want[0].hex()
            assert got[1] is workspace.grads and same_bits(got[1], want[1])
            assert same_bits(got[2].logits, want[2].logits)
            if model.lstm is not None:
                assert same_bits(got[2].lstm_outputs, want[2].lstm_outputs)
            assert got[2].lstm_outputs is None or \
                np.shares_memory(got[2].lstm_outputs, workspace.lstm_cache.h_rows)
            # an SGD step between windows, as in training
            flat = flatten_layers(model.layers)
            sgd_update(flat, got[1], OptimizerState.create(flat.size, learning_rate=0.1))

    @staticmethod
    def held_arrays(obj):
        """Every array among the attributes, lists and tuples of `obj`, and of
        the objects it holds."""
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                yield from TestStepWorkspace.held_arrays(item)
        elif hasattr(obj, "__dict__"):
            for value in vars(obj).values():
                yield from TestStepWorkspace.held_arrays(value)

    @pytest.mark.parametrize("build", [build_baseline, build_sliding, build_piggyback])
    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_results_hold_until_the_next_call(self, build, rate):
        rng = np.random.default_rng(35)
        kwargs = {} if build is build_baseline else {"hidden": 5}
        model = build(4, 3, seed=8, **kwargs)
        workspace = StepWorkspace(model, 6)
        (x1, y1, m1), (x2, y2, m2) = self.windows(rng, 4, 3, 6, 2)

        def step(inputs, labels, mask):
            result = backprop_window(model, inputs, labels, mask, dropout_rate=rate,
                                     rng=np.random.default_rng(9), workspace=workspace)
            assert result[2] is workspace
            # the workspace keeps no reference to the window it ran
            assert not any(np.shares_memory(held, inputs)
                           for held in self.held_arrays(workspace))
            assert workspace.lstm_cache is None or workspace.lstm_cache.inputs is None
            return result

        def copies(result):
            outputs = result[2].lstm_outputs
            return (result[1].copy(), result[2].logits.copy(),
                    None if outputs is None else outputs.copy())

        first = step(x1, y1, m1)
        grads, outputs, kept = first[1], first[2].lstm_outputs, copies(first)
        assert (outputs is None) == (model.lstm is None)
        second = step(x2, y2, m2)
        assert second[1] is grads and second[2].lstm_outputs is outputs
        assert not np.array_equal(grads, kept[0])
        assert not np.array_equal(workspace.logits, kept[1])
        assert outputs is None or not np.array_equal(outputs, kept[2])
        again = copies(step(x1, y1, m1))
        assert same_bits(again[0], kept[0]) and same_bits(again[1], kept[1])
        assert outputs is None or same_bits(again[2], kept[2])

    def test_a_reused_cache_runs_and_backpropagates_as_a_new_one(self):
        rng = np.random.default_rng(36)
        layer = LstmLayer.create(3, 4, rng)
        _, cache = layer.run(rng.normal(size=(5, 3)))
        for _ in range(4):
            inputs, d_outputs = rng.normal(scale=3.0, size=(5, 3)), rng.normal(size=(5, 4))
            want_rows, want_cache = layer.run(inputs)
            got_rows, got_cache = layer.run(inputs, cache)
            assert got_cache is cache and same_bits(got_rows, want_rows)
            want = [np.empty_like(t) for t in layer._tensors()]
            got = [np.empty_like(t) for t in layer._tensors()]
            want_pre = layer.backward(want_cache, d_outputs, *want)
            got_pre = layer.backward(cache, d_outputs, *got)
            assert same_bits(got_pre, want_pre)
            assert all(same_bits(a, b) for a, b in zip(got, want))


def small_sliding():
    return build_sliding(3, 2, hidden=2, seed=0)


class TestGuards:
    """Each guard raises its error with its message."""

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: DenseLayer(np.zeros((2, 3)), np.zeros(3)), ShapeError,
                     "dense layer needs (out,in) weight and (out,) bias", id="dense-shapes"),
        pytest.param(lambda: LstmLayer(np.zeros((8, 3)), np.zeros((8, 3)), np.zeros(8)),
                     ShapeError, "inconsistent stacked gate shapes", id="lstm-stacks"),
        pytest.param(lambda: zero_lstm(3, 2).step(np.zeros(4), LstmState.zeros(2)),
                     ShapeError, "expected input of length 3, got (4,)", id="step-input"),
        pytest.param(lambda: zero_lstm(3, 2).step(np.zeros(3), LstmState.zeros(5)),
                     ShapeError, "state size does not match the hidden size",
                     id="step-state"),
        pytest.param(lambda: run_window(small_sliding(), np.zeros(3)),
                     ShapeError, "window inputs must be a T x D matrix", id="window-rank"),
        pytest.param(lambda: run_window(small_sliding(), np.zeros((4, 3)), dropout_rate=0.5),
                     ConfigError, "dropout requires an rng", id="dropout-without-rng"),
        pytest.param(lambda: backprop_window(small_sliding(), np.zeros((4, 3)), [0, 1, 0]),
                     ShapeError, "labels and loss mask must have one entry per step",
                     id="labels-length"),
        pytest.param(lambda: backprop_window(small_sliding(), np.zeros((4, 3)), [0, 1, 0, 1],
                                             [True, True, False]),
                     ShapeError, "labels and loss mask must have one entry per step",
                     id="mask-length"),
        pytest.param(lambda: StepWorkspace(small_sliding(), 0), ConfigError,
                     "a window needs at least one position, got 0", id="workspace-steps"),
        pytest.param(lambda: backprop_window(small_sliding(), np.zeros((4, 3)), [0, 1, 0, 1],
                                             workspace=StepWorkspace(small_sliding(), 5)),
                     ShapeError, "a workspace for windows of 5 positions cannot run a "
                     "window of 4", id="workspace-window"),
        pytest.param(lambda: backprop_window(small_sliding(), np.zeros((4, 3)), [0, 1, 0, 1],
                                             workspace=StepWorkspace(small_sliding(), 4)),
                     ShapeError, "the workspace was built for the layers of another stack",
                     id="workspace-stack"),
        pytest.param(lambda: zero_lstm(3, 2).run(np.zeros((4, 3)),
                                                 zero_lstm(3, 2).run(np.zeros((5, 3)))[1]),
                     ShapeError, "a cache of (5, 2) outputs cannot hold 4 x 2", id="run-cache"),
        pytest.param(lambda: zero_lstm(3, 2).backward(
                         zero_lstm(3, 2).run(np.zeros((5, 3)))[1], np.zeros((4, 2)),
                         np.empty((8, 3)), np.empty((8, 2)), np.empty(8)),
                     ShapeError, "output gradients of shape (4, 2) do not match a cache of "
                     "(5, 2) outputs", id="backward-outputs"),
        # 32768 characters, 65536 UTF-8 bytes
        pytest.param(lambda: write_checkpoint({"\u00e9" * 32768: np.zeros(1)}, os.devnull),
                     DataError, "tensor name too long", id="checkpoint-name-bytes"),
    ])
    def test_refuses(self, call, error, message):
        with pytest.raises(error, match=re.escape(message)) as refused:
            call()
        # a message names what was refused without quoting a whole input
        assert len(str(refused.value)) <= 200
