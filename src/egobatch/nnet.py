"""From-scratch differentiable layers, SGD with momentum, and gradient checks.

Everything runs in float64 with plain numpy; there is no autodiff framework.
A "layer stack" is any object exposing `embed` (affine or None), `lstm`
(recurrent layer or None) and `head` (affine producing class logits); the
three model architectures all fit this shape.

Checkpoints (.egomdl) store named float64 tensors, lexicographically ordered,
little-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, NumericError, ShapeError

GATES = ("i", "f", "o", "c")

CHECKPOINT_MAGIC = b"EGOMDL01"


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # per element the usual two branches, 1/(1+e^-x) for x >= 0 and
    # e^x/(1+e^x) below, so the same bits; exp sees only -|x| and cannot overflow
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def _glorot(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

class DenseLayer:
    """Affine map y = W x + b with W of shape (out, in)."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        self.weight = np.ascontiguousarray(weight, dtype=np.float64)
        self.bias = np.ascontiguousarray(bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(
                f"dense layer needs (out,in) weight and (out,) bias, got "
                f"{self.weight.shape} and {self.bias.shape}"
            )
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise DataError("dense layer parameters must be finite")

    @classmethod
    def create(cls, in_dim: int, out_dim: int, rng: np.random.Generator) -> "DenseLayer":
        return cls(_glorot(rng, out_dim, in_dim), np.zeros(out_dim))

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.in_dim,):
            raise ShapeError(f"expected input of length {self.in_dim}, got {x.shape}")
        return self.weight @ x + self.bias

    def forward_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.in_dim:
            raise ShapeError(f"expected rows of width {self.in_dim}, got {rows.shape}")
        return rows @ self.weight.T + self.bias


@dataclass
class LstmState:
    """Recurrent output h and cell c; every |h_j| is strictly below 1."""

    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden: int) -> "LstmState":
        return cls(np.zeros(hidden), np.zeros(hidden))


@dataclass
class _LstmCache:
    inputs: np.ndarray
    gate_rows: np.ndarray  # T x 4H activated gates, laid out like the stacks
    c_rows: np.ndarray
    tanh_c_rows: np.ndarray
    h_rows: np.ndarray


class LstmLayer:
    """Single recurrent layer; gate order is (input, forget, output, candidate).

    Step equations, applied per position t with previous state (h, c):

        i = sigmoid(W_i x + U_i h + b_i)      f = sigmoid(W_f x + U_f h + b_f)
        o = sigmoid(W_o x + U_o h + b_o)      g = tanh(W_c x + U_c h + b_c)
        c' = f * c + i * g                    h' = o * tanh(c')

    The gates live stacked in that order in `w_stack` (4H x D), `u_stack`
    (4H x H) and `b_stack` (4H); `w`, `u` and `b` map each gate to its row
    block, a view, so updating either name updates both.
    """

    def __init__(self, w: dict[str, np.ndarray], u: dict[str, np.ndarray],
                 b: dict[str, np.ndarray]):
        w = {g: np.asarray(w[g], dtype=np.float64) for g in GATES}
        u = {g: np.asarray(u[g], dtype=np.float64) for g in GATES}
        b = {g: np.asarray(b[g], dtype=np.float64) for g in GATES}
        hidden, in_dim = w["i"].shape
        for g in GATES:
            if w[g].shape != (hidden, in_dim) or u[g].shape != (hidden, hidden) \
                    or b[g].shape != (hidden,):
                raise ShapeError(f"inconsistent parameter shapes for gate {g!r}")
            if not (np.isfinite(w[g]).all() and np.isfinite(u[g]).all()
                    and np.isfinite(b[g]).all()):
                raise DataError("recurrent layer parameters must be finite")
        self.w_stack = np.concatenate([w[g] for g in GATES])
        self.u_stack = np.concatenate([u[g] for g in GATES])
        self.b_stack = np.concatenate([b[g] for g in GATES])
        self.w, self.u, self.b = (
            {g: stack[k * hidden:(k + 1) * hidden] for k, g in enumerate(GATES)}
            for stack in (self.w_stack, self.u_stack, self.b_stack)
        )

    @classmethod
    def create(cls, in_dim: int, hidden: int, rng: np.random.Generator) -> "LstmLayer":
        """Glorot-uniform matrices, zero biases except the forget gate at 1."""
        w, u, b = {}, {}, {}
        for g in GATES:
            w[g] = _glorot(rng, hidden, in_dim)
            u[g] = _glorot(rng, hidden, hidden)
            b[g] = np.ones(hidden) if g == "f" else np.zeros(hidden)
        return cls(w, u, b)

    @property
    def hidden(self) -> int:
        return self.u_stack.shape[1]

    @property
    def in_dim(self) -> int:
        return self.w_stack.shape[1]

    def step(self, x: np.ndarray, state: LstmState) -> LstmState:
        """Advance one position; the returned h is strictly inside (-1, 1)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.in_dim,):
            raise ShapeError(f"expected input of length {self.in_dim}, got {x.shape}")
        if state.h.shape != (self.hidden,) or state.c.shape != (self.hidden,):
            raise ShapeError("state size does not match the hidden size")
        hid = self.hidden
        a = self.w_stack @ x + self.u_stack @ state.h + self.b_stack
        ifo = _sigmoid(a[:3 * hid])
        g = np.tanh(a[3 * hid:])
        c = ifo[hid:2 * hid] * state.c + ifo[:hid] * g
        h = ifo[2 * hid:] * np.tanh(c)
        if not (np.isfinite(h).all() and np.isfinite(c).all()):
            raise NumericError("non-finite recurrent state")
        return LstmState(h, c)

    def _recur(self, inputs: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The recurrence over B x T x D windows, each from zero state.

        The input projection is one matrix product over all B*T rows and each
        position advances every window with one (B x H)(H x 4H) product.
        Returns the B x T activated gates (4H, laid out like the stacks),
        cells, tanh of the cells and outputs.
        """
        batch, steps, _ = inputs.shape
        hid = self.hidden
        gate_rows = (inputs.reshape(batch * steps, -1) @ self.w_stack.T
                     + self.b_stack).reshape(batch, steps, 4 * hid)
        c_rows = np.empty((batch, steps, hid))
        tanh_c_rows = np.empty((batch, steps, hid))
        h_rows = np.empty((batch, steps, hid))
        u_t = self.u_stack.T
        h = np.zeros((batch, hid))
        c = np.zeros((batch, hid))
        for t in range(steps):
            gates = gate_rows[:, t]
            gates += h @ u_t
            gates[:, :3 * hid] = _sigmoid(gates[:, :3 * hid])
            gates[:, 3 * hid:] = np.tanh(gates[:, 3 * hid:])
            c = gates[:, hid:2 * hid] * c + gates[:, :hid] * gates[:, 3 * hid:]
            tanh_c = np.tanh(c)
            h = gates[:, 2 * hid:3 * hid] * tanh_c
            c_rows[:, t] = c
            tanh_c_rows[:, t] = tanh_c
            h_rows[:, t] = h
        if not np.isfinite(h_rows).all():
            raise NumericError("non-finite recurrent outputs")
        return gate_rows, c_rows, tanh_c_rows, h_rows

    def run(self, inputs: np.ndarray) -> tuple[np.ndarray, _LstmCache]:
        """Forward over a T x D window from zero state; returns (T x H
        outputs, backward cache). This is the training path."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.in_dim:
            raise ShapeError(f"expected rows of width {self.in_dim}, got {inputs.shape}")
        cache = _LstmCache(inputs, *(rows[0] for rows in self._recur(inputs[np.newaxis])))
        return cache.h_rows, cache

    def forward_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Forward over B x T x D independent windows, each from zero state;
        returns the B x T x H outputs. This is the inference path."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3 or inputs.shape[2] != self.in_dim:
            raise ShapeError(
                f"expected B x T x {self.in_dim} inputs, got {inputs.shape}")
        return self._recur(inputs)[3]

    def backward(self, cache: _LstmCache, d_outputs: np.ndarray
                 ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Exact truncated-BPTT gradients for one window.

        `d_outputs` is dLoss/dh per position. Returns gradients keyed like
        `stack_params` (without the "lstm." prefix) and dLoss/dinputs.
        """
        steps, hid = d_outputs.shape
        # the window starts from zero state
        c_prev_rows = np.vstack([np.zeros(hid), cache.c_rows[:-1]])
        h_prev_rows = np.vstack([np.zeros(hid), cache.h_rows[:-1]])
        d_pre = np.empty((steps, 4 * hid))
        dh_next = np.zeros(hid)
        dc_next = np.zeros(hid)
        for t in range(steps - 1, -1, -1):
            gates = cache.gate_rows[t]
            i, f = gates[:hid], gates[hid:2 * hid]
            o, g = gates[2 * hid:3 * hid], gates[3 * hid:]
            tanh_c = cache.tanh_c_rows[t]
            dh = d_outputs[t] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_next
            d_pre[t, :hid] = dc * g * i * (1.0 - i)
            d_pre[t, hid:2 * hid] = dc * c_prev_rows[t] * f * (1.0 - f)
            d_pre[t, 2 * hid:3 * hid] = do * o * (1.0 - o)
            d_pre[t, 3 * hid:] = dc * i * (1.0 - g * g)
            dc_next = dc * f
            dh_next = self.u_stack.T @ d_pre[t]
        dw_stack = d_pre.T @ cache.inputs
        du_stack = d_pre.T @ h_prev_rows
        db_stack = d_pre.sum(axis=0)
        grads: dict[str, np.ndarray] = {}
        for k, gate in enumerate(GATES):
            grads[f"W_{gate}"] = dw_stack[k * hid:(k + 1) * hid]
            grads[f"U_{gate}"] = du_stack[k * hid:(k + 1) * hid]
            grads[f"b_{gate}"] = db_stack[k * hid:(k + 1) * hid]
        d_inputs = d_pre @ self.w_stack
        return grads, d_inputs


# ---------------------------------------------------------------------------
# Softmax cross-entropy
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def softmax_xent(logits: np.ndarray, true_label: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of one frame; returns (loss, dLoss/dlogits)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ShapeError("softmax_xent expects a 1-D logit vector")
    if not 0 <= true_label < logits.shape[0]:
        raise DataError(f"label {true_label} out of range for {logits.shape[0]} classes")
    shifted = logits - logits.max()
    logp = shifted - np.log(np.exp(shifted).sum())
    loss = -logp[true_label]
    dlogits = np.exp(logp)
    dlogits[true_label] -= 1.0
    return float(loss), dlogits


def _masked_xent_rows(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray
                      ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over masked rows and its gradient (already /M)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.flatnonzero(mask)
    count = len(rows)
    loss = -logp[rows, labels[rows]].sum() / count
    dlogits = np.exp(logp)
    dlogits[rows, labels[rows]] -= 1.0
    dlogits[~mask] = 0.0
    dlogits /= count
    return float(loss), dlogits


# ---------------------------------------------------------------------------
# Layer-stack forward / backward over one window
# ---------------------------------------------------------------------------

def stack_params(model) -> dict[str, np.ndarray]:
    """Live parameter tensors of a layer stack, canonically named."""
    out: dict[str, np.ndarray] = {}
    embed = getattr(model, "embed", None)
    lstm = getattr(model, "lstm", None)
    if embed is not None:
        out["embed.W"] = embed.weight
        out["embed.b"] = embed.bias
    if lstm is not None:
        for g in GATES:
            out[f"lstm.W_{g}"] = lstm.w[g]
            out[f"lstm.U_{g}"] = lstm.u[g]
            out[f"lstm.b_{g}"] = lstm.b[g]
    out["head.W"] = model.head.weight
    out["head.b"] = model.head.bias
    return out


@dataclass
class WindowForward:
    """Forward results for one window plus the caches backward needs."""

    logits: np.ndarray
    lstm_outputs: np.ndarray | None
    _inputs: np.ndarray = field(repr=False, default=None)
    _head_inputs: np.ndarray = field(repr=False, default=None)
    _dropout_scale: np.ndarray | None = field(repr=False, default=None)
    _lstm_cache: _LstmCache | None = field(repr=False, default=None)


def run_window(model, inputs: np.ndarray, *, dropout_rate: float = 0.0,
               rng: np.random.Generator | None = None) -> WindowForward:
    """Forward one T x D window through a layer stack to per-step logits.

    A positive `dropout_rate` applies inverted dropout to the head input
    (activations scaled by 1/(1-rate)), so evaluation, at rate 0, needs no
    rescaling.
    """
    if not 0.0 <= dropout_rate < 1.0:
        raise ConfigError("dropout rate must lie in [0, 1)")
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ShapeError("window inputs must be a T x D matrix")
    embed = getattr(model, "embed", None)
    lstm = getattr(model, "lstm", None)

    rows = embed.forward_rows(inputs) if embed is not None else inputs
    lstm_cache = None
    lstm_outputs = None
    if lstm is not None:
        rows, lstm_cache = lstm.run(rows)
        lstm_outputs = rows
    scale = None
    head_in = rows
    if dropout_rate > 0.0:
        if rng is None:
            raise ConfigError("dropout requires an rng")
        keep = 1.0 - dropout_rate
        scale = (rng.random(rows.shape) < keep).astype(np.float64) / keep
        head_in = rows * scale
    logits = model.head.forward_rows(head_in)
    return WindowForward(logits=logits, lstm_outputs=lstm_outputs, _inputs=inputs,
                         _head_inputs=head_in, _dropout_scale=scale,
                         _lstm_cache=lstm_cache)


def backprop_window(model, inputs: np.ndarray, labels: np.ndarray,
                    loss_mask: np.ndarray | None = None, *,
                    dropout_rate: float = 0.0,
                    rng: np.random.Generator | None = None,
                    mode: str = "train"
                    ) -> tuple[float, dict[str, np.ndarray], WindowForward]:
    """Loss and exact gradients of the mean masked cross-entropy over a window.

    Masked-out steps contribute nothing to the loss or any gradient. Eval
    mode disables dropout; with an all-false mask it returns zero loss and
    zero gradients, while train mode rejects such a degenerate batch.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    steps = inputs.shape[0]
    mask = np.ones(steps, dtype=bool) if loss_mask is None else np.asarray(loss_mask, dtype=bool)
    if labels.shape != (steps,) or mask.shape != (steps,):
        raise ShapeError("labels and loss mask must have one entry per step")
    train = mode == "train"
    if not mask.any():
        if train:
            raise DataError("degenerate training batch: every step is loss-masked")
        fwd = run_window(model, inputs)
        zeros = {name: np.zeros_like(w) for name, w in stack_params(model).items()}
        return 0.0, zeros, fwd
    if (labels[mask] >= model.head.out_dim).any() or (labels[mask] < 0).any():
        raise DataError("label id out of range for the head's class count")

    fwd = run_window(model, inputs, dropout_rate=dropout_rate if train else 0.0, rng=rng)
    loss, dlogits = _masked_xent_rows(fwd.logits, labels, mask)
    if not np.isfinite(loss):
        raise NumericError("non-finite window loss")

    grads: dict[str, np.ndarray] = {}
    grads["head.W"] = dlogits.T @ fwd._head_inputs
    grads["head.b"] = dlogits.sum(axis=0)
    d_rows = dlogits @ model.head.weight
    if fwd._dropout_scale is not None:
        d_rows = d_rows * fwd._dropout_scale

    embed = getattr(model, "embed", None)
    lstm = getattr(model, "lstm", None)
    if lstm is not None:
        lstm_grads, d_rows = lstm.backward(fwd._lstm_cache, d_rows)
        for name, g in lstm_grads.items():
            grads[f"lstm.{name}"] = g
    if embed is not None:
        grads["embed.W"] = d_rows.T @ fwd._inputs
        grads["embed.b"] = d_rows.sum(axis=0)
    return loss, grads, fwd


# ---------------------------------------------------------------------------
# SGD with momentum and coupled weight decay
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Velocity buffers plus hyperparameters; only buffered tensors train."""

    learning_rate: float
    momentum: float
    weight_decay: float
    velocity: dict[str, np.ndarray]

    @classmethod
    def create(cls, params: dict[str, np.ndarray], learning_rate: float,
               momentum: float = 0.0, weight_decay: float = 0.0) -> "OptimizerState":
        if learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if weight_decay < 0:
            raise ConfigError("weight decay must be non-negative")
        return cls(learning_rate, momentum, weight_decay,
                   {name: np.zeros_like(w) for name, w in params.items()})


def sgd_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               opt: OptimizerState) -> None:
    """In place: v <- mu v - alpha (g + lambda w); w <- w + v.

    Parameters without a velocity buffer are frozen and left untouched.
    """
    for name, v in opt.velocity.items():
        if name not in params or name not in grads:
            raise ShapeError(f"missing parameter or gradient for {name!r}")
        w = params[name]
        g = grads[name]
        if g.shape != w.shape:
            raise ShapeError(f"{name!r}: gradient shape {g.shape} != {w.shape}")
        v *= opt.momentum
        v -= opt.learning_rate * (g + opt.weight_decay * w)
        w += v


# ---------------------------------------------------------------------------
# Finite-difference gradient check
# ---------------------------------------------------------------------------

@dataclass
class TensorCheck:
    name: str
    max_rel_error: float
    coords_checked: int


@dataclass
class GradCheckReport:
    tensors: list[TensorCheck]

    @property
    def max_rel_error(self) -> float:
        return max((t.max_rel_error for t in self.tensors), default=0.0)

    def passed(self, tolerance: float) -> bool:
        return self.max_rel_error < tolerance


def _window_loss(model, inputs, labels, mask) -> float:
    fwd = run_window(model, inputs)
    loss, _ = _masked_xent_rows(fwd.logits, labels, mask)
    return loss


def grad_check(model, inputs: np.ndarray, labels: np.ndarray,
               loss_mask: np.ndarray | None = None, *, epsilon: float = 1e-5,
               max_coords: int | None = None,
               rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    Every coordinate is checked unless `max_coords` caps the per-tensor count
    (then a seeded random sample is used). Relative error is
    |a - n| / max(|a|, |n|, 1e-12); failures are reported, never raised.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ConfigError("epsilon must lie in [1e-7, 1e-3]")
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.ones(inputs.shape[0], dtype=bool) if loss_mask is None else np.asarray(loss_mask, dtype=bool)
    _, grads, _ = backprop_window(model, inputs, labels, mask, mode="eval")
    checks = []
    for name, w in sorted(stack_params(model).items()):
        flat = w.reshape(-1)
        gflat = grads[name].reshape(-1)
        if max_coords is not None and flat.size > max_coords:
            sample_rng = rng if rng is not None else np.random.default_rng(0)
            coords = sample_rng.choice(flat.size, size=max_coords, replace=False)
        else:
            coords = range(flat.size)
        worst = 0.0
        checked = 0
        for idx in coords:
            saved = flat[idx]
            flat[idx] = saved + epsilon
            hi = _window_loss(model, inputs, labels, mask)
            flat[idx] = saved - epsilon
            lo = _window_loss(model, inputs, labels, mask)
            flat[idx] = saved
            numeric = (hi - lo) / (2.0 * epsilon)
            analytic = gflat[idx]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
            worst = max(worst, float(rel))
            checked += 1
        checks.append(TensorCheck(name, worst, checked))
    return GradCheckReport(checks)


# ---------------------------------------------------------------------------
# Checkpoint files (.egomdl)
# ---------------------------------------------------------------------------

def write_checkpoint(params: dict[str, np.ndarray], path: str | Path) -> None:
    """magic | u32 count | per tensor: u16 name len, name, u8 rank, u32 dims,
    float64 LE row-major data; tensors in lexicographic name order.

    Non-finite tensors are refused: no model could be rebuilt from them."""
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", len(params))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        if not np.isfinite(arr).all():
            raise DataError(f"refusing to write non-finite tensor {name!r}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise DataError(f"tensor name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise DataError(f"tensor rank too large: {name!r}")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob.append(arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<I", dim)
        blob += arr.tobytes()
    Path(path).write_bytes(bytes(blob))


def read_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Parse a checkpoint; enforces magic, ordering and exact payload size."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < len(CHECKPOINT_MAGIC) or raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    offset = len(CHECKPOINT_MAGIC)

    def need(nbytes: int, what: str) -> int:
        nonlocal offset
        if len(raw) < offset + nbytes:
            raise FormatError(f"{path}: truncated {what}")
        offset += nbytes
        return offset - nbytes

    (count,) = struct.unpack_from("<I", raw, need(4, "tensor count"))
    params: dict[str, np.ndarray] = {}
    previous = None
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, need(2, "name length"))
        name = raw[need(name_len, "tensor name"): offset].decode("utf-8")
        if previous is not None and not name > previous:
            raise FormatError(f"{path}: tensors out of lexicographic order at {name!r}")
        previous = name
        rank = raw[need(1, "rank")]
        dims = tuple(
            struct.unpack_from("<I", raw, need(4, "dimension"))[0] for _ in range(rank)
        )
        size = int(np.prod(dims, dtype=np.int64)) if dims else 1
        data = np.frombuffer(raw, dtype="<f8", count=size,
                             offset=need(size * 8, f"data of {name!r}"))
        params[name] = data.reshape(dims).astype(np.float64)
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return params
