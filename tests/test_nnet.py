import math
import warnings

import numpy as np
import pytest

from egobatch import (
    ConfigError,
    DataError,
    DenseLayer,
    FormatError,
    LstmLayer,
    LstmState,
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
    softmax_xent,
    write_checkpoint,
)
from egobatch.nnet import _masked_xent_rows, _sigmoid, stack_params


def zero_lstm(in_dim, hidden):
    zeros_w = {g: np.zeros((hidden, in_dim)) for g in "ifoc"}
    zeros_u = {g: np.zeros((hidden, hidden)) for g in "ifoc"}
    zeros_b = {g: np.zeros(hidden) for g in "ifoc"}
    return LstmLayer(zeros_w, zeros_u, zeros_b)


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
        layer.w["c"][0, 0] = 1.0
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
                {g: rng.normal(scale=20.0, size=(hidden, in_dim)) for g in "ifoc"},
                {g: rng.normal(scale=20.0, size=(hidden, hidden)) for g in "ifoc"},
                {g: rng.normal(scale=5.0, size=hidden) for g in "ifoc"},
            )
            state = LstmState(rng.uniform(-1, 1, hidden), rng.normal(size=hidden))
            for _ in range(4):
                state = layer.step(rng.normal(scale=10.0, size=in_dim), state)
                assert np.abs(state.h).max() < 1.0

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

    def test_forward_batch_shape_checked(self):
        layer = LstmLayer.create(3, 4, np.random.default_rng(22))
        with pytest.raises(ShapeError):
            layer.forward_batch(np.zeros((5, 3)))
        with pytest.raises(ShapeError):
            layer.forward_batch(np.zeros((2, 5, 4)))


def masked_sigmoid(x):
    """The two-branch form: each branch's exp sees only non-positive values."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, -709.0, 745.0, -745.0,
               5e-324, -5e-324, 2.2e-308, -2.2e-308]

    def test_equals_masked_form_bit_for_bit(self):
        rng = np.random.default_rng(26)
        for scale in (1e-8, 1e-3, 1.0, 10.0, 40.0, 800.0):
            x = np.concatenate([rng.normal(scale=scale, size=300), self.SPECIAL])
            got, want = _sigmoid(x), masked_sigmoid(x)
            real = ~np.isnan(want)
            assert np.array_equal(np.isnan(got), ~real)
            assert np.array_equal(got[real].view(np.uint64),
                                  want[real].view(np.uint64)), scale

    def test_saturates_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_sigmoid(np.array([1000.0, -1000.0])), [1.0, 0.0])


class TestLstmStorage:
    def test_gate_tensors_are_views_of_the_stacks(self):
        model = build_piggyback(5, 3, hidden=4, seed=23)
        lstm = model.lstm
        for name, w in stack_params(model).items():
            if name.startswith("lstm."):
                stack = {"W": lstm.w_stack, "U": lstm.u_stack,
                         "b": lstm.b_stack}[name[len("lstm."):][0]]
                assert np.shares_memory(w, stack), name
        assert np.array_equal(lstm.w_stack, np.concatenate(
            [lstm.w[g] for g in "ifoc"]))

    def test_sgd_update_through_views_moves_the_stacks(self):
        rng = np.random.default_rng(24)
        model = build_sliding(3, 2, hidden=4, seed=25)
        params = stack_params(model)
        before = {name: getattr(model.lstm, name).copy()
                  for name in ("w_stack", "u_stack", "b_stack")}
        grads = {name: rng.normal(size=w.shape) for name, w in params.items()}
        sgd_update(params, grads, OptimizerState.create(params, learning_rate=0.1))
        for name, old in before.items():
            stack = getattr(model.lstm, name)
            assert not np.array_equal(stack, old)
        for k, g in enumerate("ifoc"):
            assert np.array_equal(model.lstm.w_stack[4 * k:4 * (k + 1)],
                                  before["w_stack"][4 * k:4 * (k + 1)]
                                  - 0.1 * grads[f"lstm.W_{g}"])


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
        params = {"w": np.array([1.0])}
        opt = OptimizerState.create(params, learning_rate=0.1)
        sgd_update(params, {"w": np.array([0.5])}, opt)
        assert np.allclose(params["w"], [0.95], atol=1e-15)

    def test_momentum_two_steps(self):
        params = {"w": np.array([1.0])}
        opt = OptimizerState.create(params, learning_rate=0.1, momentum=0.9)
        grads = {"w": np.array([0.5])}
        sgd_update(params, grads, opt)
        assert np.allclose(opt.velocity["w"], [-0.05], atol=1e-15)
        assert np.allclose(params["w"], [0.95], atol=1e-15)
        sgd_update(params, grads, opt)
        assert np.allclose(opt.velocity["w"], [-0.095], atol=1e-15)
        assert np.allclose(params["w"], [0.855], atol=1e-15)

    def test_decay_only_step(self):
        params = {"w": np.array([1.0])}
        opt = OptimizerState.create(params, learning_rate=0.1, weight_decay=0.01)
        sgd_update(params, {"w": np.array([0.0])}, opt)
        assert np.allclose(params["w"], [0.999], atol=1e-15)

    def test_vanilla_equals_w_minus_alpha_g(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(3, 4))
        g = rng.normal(size=(3, 4))
        params = {"w": w.copy()}
        opt = OptimizerState.create(params, learning_rate=0.37)
        sgd_update(params, {"w": g}, opt)
        assert np.array_equal(params["w"], w - 0.37 * g)

    def test_frozen_params_untouched(self):
        params = {"a": np.ones(2), "b": np.ones(2)}
        trainable = {"a": params["a"]}
        opt = OptimizerState.create(trainable, learning_rate=0.5)
        sgd_update(params, {"a": np.ones(2), "b": np.ones(2)}, opt)
        assert np.array_equal(params["b"], [1.0, 1.0])
        assert not np.array_equal(params["a"], [1.0, 1.0])

    def test_shape_mismatch(self):
        params = {"w": np.ones(2)}
        opt = OptimizerState.create(params, learning_rate=0.1)
        with pytest.raises(ShapeError):
            sgd_update(params, {"w": np.ones(3)}, opt)

    def test_hyperparameter_validation(self):
        with pytest.raises(ConfigError):
            OptimizerState.create({}, learning_rate=0.0)
        with pytest.raises(ConfigError):
            OptimizerState.create({}, learning_rate=0.1, momentum=1.0)
        with pytest.raises(ConfigError):
            OptimizerState.create({}, learning_rate=0.1, weight_decay=-1.0)


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
        loss, _, fwd = backprop_window(model, inputs, labels, mask, mode="eval")
        per_step = [softmax_xent(fwd.logits[t], labels[t])[0] for t in range(5)]
        expected = np.mean([per_step[t] for t in range(5) if mask[t]])
        assert abs(loss - expected) < 1e-12

    def test_eval_mode_is_deterministic(self):
        rng = np.random.default_rng(10)
        model = build_sliding(3, 2, hidden=4, seed=5)
        inputs = rng.normal(size=(4, 3))
        labels = rng.integers(2, size=4)
        first = backprop_window(model, inputs, labels, mode="eval")
        second = backprop_window(model, inputs, labels, mode="eval")
        assert np.array_equal(first[2].logits, second[2].logits)
        assert first[0] == second[0]

    def test_degenerate_mask_in_train_mode(self):
        model = build_baseline(2, 2, seed=0)
        with pytest.raises(DataError):
            backprop_window(model, np.zeros((2, 2)), np.zeros(2, dtype=int),
                            np.zeros(2, dtype=bool), mode="train")

    def test_all_masked_eval_gives_zero(self):
        model = build_baseline(2, 2, seed=0)
        loss, grads, _ = backprop_window(model, np.ones((2, 2)),
                                         np.zeros(2, dtype=int),
                                         np.zeros(2, dtype=bool), mode="eval")
        assert loss == 0.0
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

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
                                         dropout_rate=0.5, rng=rng, mode="train")
            return loss

        _, grads, _ = backprop_window(model, inputs, labels, dropout_rate=0.5,
                                      rng=np.random.default_rng(123), mode="train")
        eps = 1e-6
        for name, w in stack_params(model).items():
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

    def test_eval_ignores_dropout(self):
        model = build_sliding(3, 2, hidden=4, seed=8)
        inputs = np.random.default_rng(13).normal(size=(4, 3))
        plain = run_window(model, inputs).logits
        _, _, evald = backprop_window(model, inputs, np.zeros(4, dtype=np.int64),
                                      dropout_rate=0.9, rng=np.random.default_rng(0),
                                      mode="eval")
        assert np.array_equal(plain, evald.logits)

    def test_train_dropout_changes_logits(self):
        model = build_sliding(3, 2, hidden=4, seed=8)
        inputs = np.random.default_rng(14).normal(size=(4, 3))
        plain = run_window(model, inputs).logits
        dropped = run_window(model, inputs, dropout_rate=0.5,
                             rng=np.random.default_rng(1)).logits
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

    def test_zero_gradient_coordinate_reports_zero(self):
        # a feature column that is identically zero leaves its head weights
        # with exactly zero analytic and numeric gradients
        rng = np.random.default_rng(17)
        model = build_baseline(3, 2, seed=11)
        inputs = rng.normal(size=(4, 3))
        inputs[:, 1] = 0.0
        report = grad_check(model, inputs, rng.integers(2, size=4), epsilon=1e-5)
        assert report.max_rel_error < 1e-7
        _, grads, _ = backprop_window(model, inputs, rng.integers(2, size=4),
                                      mode="eval")
        assert np.array_equal(grads["head.W"][:, 1], [0.0, 0.0])

    def test_epsilon_range_enforced(self):
        model = build_baseline(2, 2, seed=0)
        with pytest.raises(ConfigError):
            grad_check(model, np.ones((1, 2)), np.zeros(1, dtype=int), epsilon=1e-2)

    def test_coordinate_sampling_caps_work(self):
        rng = np.random.default_rng(18)
        model = build_sliding(4, 2, hidden=3, seed=12)
        report = grad_check(model, rng.normal(size=(3, 4)),
                            rng.integers(2, size=3), epsilon=1e-5,
                            max_coords=5, rng=np.random.default_rng(0))
        assert all(t.coords_checked <= 5 for t in report.tensors)


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
