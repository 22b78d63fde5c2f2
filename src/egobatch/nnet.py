"""From-scratch differentiable layers, SGD with momentum, and gradient checks.

Everything runs in float64 with plain numpy; there is no autodiff framework.
A "layer stack" is a `models.LayerStack`: an optional affine `embed`, an
optional recurrent `lstm` and an affine `head` producing class logits, with
`params()` naming its tensors. The layers present decide the architecture.

A training run lays the tensors of the layers it trains back to back in one
vector (`flatten_layers`), rebinding the layers to views of it.
`backprop_window` writes a window's gradients into one vector with the same
layout, which `layer_views` alone computes, so each step updates the whole
stack with one `sgd_update` over the two vectors, which runs its element-wise
passes chunk by chunk to stay in cache.

Checkpoints (.egomdl) store named float64 tensors, lexicographically ordered,
little-endian.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datamodel import CheckedFile
from .errors import ConfigError, DataError, FormatError, NumericError, ShapeError

GATES = ("i", "f", "o", "c")

CHECKPOINT_MAGIC = b"EGOMDL01"

# Elements per chunk of an SGD pass. A chunk of the parameters, gradients,
# velocities and scratch then takes 1 MiB, half of a 2 MiB per-core L2, and
# stays in cache through the update's six passes; a pass over a whole h256
# stack (281k parameters) streams 2.2 MiB per array. On a 2-core Xeon an
# h256 update took 0.61 ms at this size, 0.65-0.80 ms at 8k-128k elements
# and 1.0 ms unchunked.
SGD_CHUNK = 32768


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # per element the usual two branches, 1/(1+e^-x) for x >= 0 and
    # e^x/(1+e^x) below, so the same bits; exp sees only -|x|, which copysign
    # gives in one call, and cannot overflow. `out` may be `x` itself.
    ex = np.copysign(x, -1.0)
    np.exp(ex, out=ex)
    num = np.where(x >= 0, 1.0, ex)
    ex += 1.0
    return np.divide(num, ex, out=out)


def _glorot(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    if out_dim < 1 or in_dim < 1:
        raise ConfigError(f"layer sizes must be positive, got {out_dim} x {in_dim}")
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

    def _tensors(self) -> tuple[np.ndarray, ...]:
        return self.weight, self.bias

    def _bind(self, weight: np.ndarray, bias: np.ndarray) -> None:
        self.weight, self.bias = weight, bias

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.in_dim,):
            raise ShapeError(f"expected input of length {self.in_dim}, got {x.shape}")
        return self.forward_rows(x[np.newaxis])[0]

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
    (4H x H) and `b_stack` (4H), the three arrays the constructor takes.
    """

    def __init__(self, w_stack: np.ndarray, u_stack: np.ndarray, b_stack: np.ndarray):
        self._bind(*(np.ascontiguousarray(stack, dtype=np.float64)
                     for stack in (w_stack, u_stack, b_stack)))
        if self.w_stack.ndim != 2:
            raise ShapeError(f"gate weights must be a matrix, got shape {self.w_stack.shape}")
        rows = self.w_stack.shape[0]
        if rows % 4 or self.u_stack.shape != (rows, rows // 4) \
                or self.b_stack.shape != (rows,):
            raise ShapeError(f"inconsistent stacked gate shapes: "
                             f"{[t.shape for t in self._tensors()]}")
        if not all(np.isfinite(t).all() for t in self._tensors()):
            raise DataError("recurrent layer parameters must be finite")

    def _tensors(self) -> tuple[np.ndarray, ...]:
        return self.w_stack, self.u_stack, self.b_stack

    def _bind(self, w_stack: np.ndarray, u_stack: np.ndarray,
              b_stack: np.ndarray) -> None:
        self.w_stack, self.u_stack, self.b_stack = w_stack, u_stack, b_stack

    @classmethod
    def create(cls, in_dim: int, hidden: int, rng: np.random.Generator) -> "LstmLayer":
        """Glorot-uniform matrices, zero biases except the forget gate at 1.

        The matrices are drawn gate by gate in stack order, W before U."""
        w, u = zip(*((_glorot(rng, hidden, in_dim), _glorot(rng, hidden, hidden))
                     for _ in GATES))
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 1.0
        return cls(np.concatenate(w), np.concatenate(u), b)

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
        _, c_rows, _, h_rows = self._recur(x.reshape(1, 1, -1), state)
        if not np.isfinite(c_rows).all():
            raise NumericError("non-finite recurrent state")
        return LstmState(h_rows[0, 0], c_rows[0, 0])

    def _recur(self, inputs: np.ndarray, start: LstmState | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The recurrence over B x T x D windows, each from zero state or
        from `start`, whose h and c broadcast against B x H.

        The input projection is one matrix product over all B*T rows and each
        position advances every window with one (B x H)(H x 4H) product.
        Returns the B x T activated gates (4H, laid out like the stacks),
        cells, tanh of the cells and outputs.
        """
        batch, steps, _ = inputs.shape
        hid = self.hidden
        gate_rows = (inputs.reshape(batch * steps, -1) @ self.w_stack.T
                     + self.b_stack).reshape(batch, steps, 4 * hid)
        # three arrays, not one block: `forward_batch` keeps only the outputs
        c_rows, tanh_c_rows, h_rows = (np.empty((batch, steps, hid)) for _ in range(3))
        u_t = self.u_stack.T
        h, c = (np.zeros((batch, hid)),) * 2 if start is None else (start.h, start.c)
        i_times_g = np.empty((batch, hid))
        # each position gets (B, .) views of its rows: all gates, the three
        # sigmoid gates, i, f, o, g, then cell, tanh of the cell and output
        by_pos = gate_rows.swapaxes(0, 1)
        views = [by_pos, by_pos[..., :3 * hid]]
        views += [by_pos[..., k * hid:(k + 1) * hid] for k in range(4)]
        views += [rows.swapaxes(0, 1) for rows in (c_rows, tanh_c_rows, h_rows)]
        for gates, ifo, i, f, o, g, c_out, tanh_c, h_out in zip(*views):
            gates += h @ u_t
            _sigmoid(ifo, out=ifo)
            np.tanh(g, out=g)
            np.multiply(f, c, out=c_out)
            c_out += np.multiply(i, g, out=i_times_g)
            np.tanh(c_out, out=tanh_c)
            np.multiply(o, tanh_c, out=h_out)
            h, c = h_out, c_out
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

    def backward(self, cache: _LstmCache, d_outputs: np.ndarray, dw: np.ndarray,
                 du: np.ndarray, db: np.ndarray) -> np.ndarray:
        """Exact truncated-BPTT gradients for one window.

        `d_outputs` is dLoss/dh per position. The parameter gradients go into
        `dw` (4H x D), `du` (4H x H) and `db` (4H), stacked like the gates.
        Returns the T x 4H gate pre-activation gradient; dLoss/dinputs is
        that times `w_stack`, for a caller that needs it.
        """
        steps, hid = d_outputs.shape
        # Per position and gate the chain rule is ((s * a) * b) * c with
        # s = (dc, dc, dh, dc); the factors a, b, c of every position are
        # built first. The products run in the order of the per-gate
        # formulas, and the candidate gate's c = 1 is exact, so the bits are
        # those of the formulas.
        gates = cache.gate_rows
        i, f, o, g = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
        # the window starts from zero state
        c_prev, h_prev = np.zeros((2, steps, hid))
        c_prev[1:], h_prev[1:] = cache.c_rows[:-1], cache.h_rows[:-1]
        a = np.concatenate([g, c_prev, cache.tanh_c_rows, i], axis=1)
        b = np.concatenate([i, f, o, 1.0 - g * g], axis=1)
        c = np.concatenate([1.0 - gates[:, :3 * hid], np.ones((steps, hid))], axis=1)
        d_tanh_c = 1.0 - cache.tanh_c_rows * cache.tanh_c_rows
        d_pre = np.empty((steps, 4 * hid))
        s = np.empty((4, hid))
        dc, dh = s[0], s[2]
        s_flat = s.reshape(-1)
        dh_next = np.zeros(hid)
        dc_next = np.zeros(hid)
        u_t = self.u_stack.T
        for d_out, o_t, d_tanh_t, a_t, b_t, c_t, f_t, row in zip(
                *(rows[::-1] for rows in (d_outputs, o, d_tanh_c, a, b, c, f, d_pre))):
            np.add(d_out, dh_next, out=dh)
            np.multiply(dh, o_t, out=dc)
            dc *= d_tanh_t
            dc += dc_next
            s[1::2] = dc
            np.multiply(s_flat, a_t, out=row)
            row *= b_t
            row *= c_t
            np.multiply(dc, f_t, out=dc_next)
            np.matmul(u_t, row, out=dh_next)
        np.matmul(d_pre.T, cache.inputs, out=dw)
        np.matmul(d_pre.T, h_prev, out=du)
        d_pre.sum(axis=0, out=db)
        return d_pre


def layer_views(layers: list, vector: np.ndarray) -> list[list[np.ndarray]]:
    """For each layer, views of `vector` shaped like its `_tensors()`; the
    tensors of `layers` lie back to back in order, as `flatten_layers` and
    `backprop_window` lay them out."""
    views, offset = [], 0
    for layer in layers:
        views.append([])
        for t in layer._tensors():
            views[-1].append(vector[offset:offset + t.size].reshape(t.shape))
            offset += t.size
    return views


def flatten_layers(layers: list) -> np.ndarray:
    """A new vector holding the tensors of `layers`, laid out by `layer_views`;
    every layer is rebound to its views, so updating the vector updates it."""
    flat = np.concatenate([t.reshape(-1) for layer in layers for t in layer._tensors()])
    for layer, views in zip(layers, layer_views(layers, flat)):
        layer._bind(*views)
    return flat


# ---------------------------------------------------------------------------
# Softmax cross-entropy
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _masked_xent_rows(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray
                      ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over masked rows and its gradient (already /M)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.flatnonzero(mask)
    picked = labels[rows]
    count = len(rows)
    loss = -logp[rows, picked].sum() / count
    dlogits = np.exp(logp)
    dlogits[rows, picked] -= 1.0
    if count < len(mask):  # only a day's padded last batch masks positions
        dlogits[~mask] = 0.0
    dlogits /= count
    return float(loss), dlogits


# ---------------------------------------------------------------------------
# Layer-stack forward / backward over one window
# ---------------------------------------------------------------------------

@dataclass
class WindowForward:
    """Forward results for one window plus the caches backward needs."""

    logits: np.ndarray
    lstm_outputs: np.ndarray | None
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
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ShapeError("window inputs must be a T x D matrix")
    rows = inputs if model.embed is None else model.embed.forward_rows(inputs)
    lstm_cache = None
    lstm_outputs = None
    if model.lstm is not None:
        rows, lstm_cache = model.lstm.run(rows)
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
    return WindowForward(logits=logits, lstm_outputs=lstm_outputs,
                         _head_inputs=head_in, _dropout_scale=scale,
                         _lstm_cache=lstm_cache)


def backprop_window(model, inputs: np.ndarray, labels: np.ndarray,
                    loss_mask: np.ndarray | None = None, *,
                    dropout_rate: float = 0.0,
                    rng: np.random.Generator | None = None
                    ) -> tuple[float, np.ndarray, WindowForward]:
    """Loss and exact gradients of the mean masked cross-entropy over a window.

    The gradients are one new vector laid out by `layer_views` over
    `model.layers`; `model.unflatten` names its parts. Masked-out steps
    contribute nothing to the loss or any gradient, and a window with no
    supervised step is refused. Dropout follows `dropout_rate` alone (as in
    `run_window`), so rate 0 gives the deterministic loss.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    steps = inputs.shape[0]
    mask = np.ones(steps, dtype=bool) if loss_mask is None else np.asarray(loss_mask, dtype=bool)
    if labels.shape != (steps,) or mask.shape != (steps,):
        raise ShapeError("labels and loss mask must have one entry per step")
    if not mask.any():
        raise DataError("degenerate window: every step is loss-masked")
    supervised = labels[mask]
    if supervised.min() < 0 or supervised.max() >= model.head.out_dim:
        raise DataError("label id out of range for the head's class count")

    fwd = run_window(model, inputs, dropout_rate=dropout_rate, rng=rng)
    loss, dlogits = _masked_xent_rows(fwd.logits, labels, mask)
    if not np.isfinite(loss):
        raise NumericError("non-finite window loss")

    grads = np.empty(sum(t.size for layer in model.layers for t in layer._tensors()))
    *below, head_grads = layer_views(model.layers, grads)
    _dense_grads(dlogits, fwd._head_inputs, *head_grads)
    if model.lstm is None:  # nothing below the head reads its input gradient
        return loss, grads, fwd
    d_rows = dlogits @ model.head.weight
    if fwd._dropout_scale is not None:
        d_rows = d_rows * fwd._dropout_scale
    d_pre = model.lstm.backward(fwd._lstm_cache, d_rows, *below[-1])
    if model.embed is not None:
        _dense_grads(d_pre @ model.lstm.w_stack, inputs, *below[0])
    return loss, grads, fwd


def _dense_grads(d_outputs: np.ndarray, inputs: np.ndarray, dw: np.ndarray,
                 db: np.ndarray) -> None:
    """Write an affine layer's dW and db for a window into `dw` and `db`."""
    np.matmul(d_outputs.T, inputs, out=dw)
    d_outputs.sum(axis=0, out=db)


# ---------------------------------------------------------------------------
# SGD with momentum and coupled weight decay
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """One velocity vector, as long as the trained parameter vector, plus
    hyperparameters."""

    learning_rate: float
    momentum: float
    weight_decay: float
    velocity: np.ndarray

    @classmethod
    def create(cls, size: int, learning_rate: float,
               momentum: float = 0.0, weight_decay: float = 0.0) -> "OptimizerState":
        if not 0 < learning_rate < np.inf:  # NaN fails every comparison
            raise ConfigError("learning rate must be positive and finite")
        if not 0.0 <= momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not 0 <= weight_decay < np.inf:
            raise ConfigError("weight decay must be non-negative and finite")
        return cls(learning_rate, momentum, weight_decay, np.zeros(size))


def sgd_update(params: np.ndarray, grads: np.ndarray, opt: OptimizerState) -> None:
    """In place over vectors: v <- mu v - alpha (g + lambda w); w <- w + v.

    The vectors are updated in chunks of `SGD_CHUNK` elements, each chunk
    through all six element-wise passes before the next. The passes compute
    the same products and sums as the formula, so the bits do not depend on
    the chunking.
    """
    v = opt.velocity
    if params.ndim != 1 or grads.shape != params.shape or v.shape != params.shape:
        raise ShapeError(f"parameter, gradient and velocity vectors differ: "
                         f"{params.shape}, {grads.shape} and {v.shape}")
    scratch = np.empty(min(SGD_CHUNK, params.size))
    for start in range(0, params.size, SGD_CHUNK):
        chunk = slice(start, start + SGD_CHUNK)
        w_part, v_part = params[chunk], v[chunk]
        step = scratch[:len(w_part)]
        np.multiply(w_part, opt.weight_decay, out=step)
        step += grads[chunk]
        step *= opt.learning_rate
        v_part *= opt.momentum
        v_part -= step
        w_part += v_part


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


def _window_loss(model, inputs, labels, mask) -> float:
    fwd = run_window(model, inputs)
    loss, _ = _masked_xent_rows(fwd.logits, labels, mask)
    return loss


def grad_check(model, inputs: np.ndarray, labels: np.ndarray,
               loss_mask: np.ndarray | None = None, *,
               epsilon: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central differences at every
    coordinate of every tensor.

    Relative error is |a - n| / max(|a|, |n|, 1e-12); failures are reported,
    never raised. A window with no supervised step is refused.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ConfigError("epsilon must lie in [1e-7, 1e-3]")
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.ones(inputs.shape[0], dtype=bool) if loss_mask is None else np.asarray(loss_mask, dtype=bool)
    grads = model.unflatten(backprop_window(model, inputs, labels, mask)[1])
    checks = []
    for name, w in sorted(model.params().items()):
        flat = w.reshape(-1)
        gflat = grads[name].reshape(-1)
        worst = 0.0
        for idx in range(flat.size):
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
        checks.append(TensorCheck(name, worst, flat.size))
    return GradCheckReport(checks)


# ---------------------------------------------------------------------------
# Checkpoint files (.egomdl)
# ---------------------------------------------------------------------------

def write_checkpoint(params: dict[str, np.ndarray], path: str | Path) -> None:
    """magic | u32 count | per tensor: u16 name len, name, u8 rank, u32 dims,
    float64 LE row-major data; tensors in lexicographic name order.

    Non-finite tensors are refused: no model could be rebuilt from them."""
    # Every tensor is checked before the file is opened, and the data is
    # written from the tensors' own memory: no in-memory copy of the model.
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(params))]
    for name in sorted(params):
        arr = np.asarray(params[name], dtype="<f8", order="C")  # keeps rank 0
        if not np.isfinite(arr).all():
            raise DataError(f"refusing to write non-finite tensor {name!r}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise DataError(f"tensor name too long: {name!r}")
        parts.append(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded),
                                 encoded, arr.ndim, *arr.shape))
        # the bytes of a C-ordered array; memoryview.cast refuses a size-0 dim
        parts.append(arr.reshape(-1).view(np.uint8))
    with open(path, "wb") as out:
        out.writelines(parts)


def read_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Parse a checkpoint; enforces magic, ordering and exact payload size."""
    path = Path(path)
    with CheckedFile(path) as src:
        if src.file.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic")
        (count,) = src.take(1, "<u4", "tensor count").tolist()
        params: dict[str, np.ndarray] = {}
        previous = None
        for _ in range(count):
            (name_len,) = src.take(1, "<u2", "name length").tolist()
            name = src.take(name_len, "u1", "tensor name").tobytes().decode("utf-8")
            if previous is not None and not name > previous:
                raise FormatError(
                    f"{path}: tensors out of lexicographic order at {name!r}")
            previous = name
            (rank,) = src.take(1, "u1", "rank").tolist()
            dims = src.take(rank, "<u4", "dimension").tolist()
            # a Python int product: np.prod would wrap around
            data = src.take(math.prod(dims), "<f8", f"data of {name!r}")
            params[name] = data.reshape(dims).astype(np.float64, copy=False)
    return params
