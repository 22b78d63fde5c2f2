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
passes chunk by chunk to stay in cache. Each step writes into one
`StepWorkspace`, built once per run.

Checkpoints (.egomdl) store named float64 tensors, lexicographically ordered,
little-endian.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
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

# Scalar operands of the LSTM's per-position ufunc calls, as read-only 0-d
# float64 arrays so that no call converts a Python float.
_ZERO, _ONE, _MINUS_ONE = (np.broadcast_to(v, ()) for v in (0.0, 1.0, -1.0))


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


class _Recurrence:
    """The rows and scratch of the recurrence over B x T windows of hidden
    size H, with each position's (B, .) views built once.

    The rows are the activated gates (4H, laid out like the stacks), cells,
    tanh of the cells and outputs, each B x T; every `LstmLayer._recur` that
    is handed them overwrites them, so one set serves every pass of this
    shape until the next pass overwrites it. A window that starts from
    `zero_state` has no h·Uᵀ product at its first position.
    """

    def __init__(self, batch: int, steps: int, hid: int):
        self.gate_rows = np.empty((batch, steps, 4 * hid))
        # three arrays, not one block: `forward_batch` keeps only the outputs
        self.c_rows, self.tanh_c_rows, self.h_rows = (
            np.empty((batch, steps, hid)) for _ in range(3))
        self.zero_state = np.zeros((batch, hid))
        self.h_times_u = np.empty((batch, 4 * hid))
        self.i_times_g = np.empty((batch, hid))
        self.sigmoid_scratch = np.empty((2, batch, 3 * hid))
        # per position: all gates, the three sigmoid gates, i, f, o, g, then
        # cell, tanh of the cell and output
        by_pos = self.gate_rows.swapaxes(0, 1)
        views = [by_pos, by_pos[..., :3 * hid]]
        views += [by_pos[..., k * hid:(k + 1) * hid] for k in range(4)]
        views += [rows.swapaxes(0, 1) for rows in (self.c_rows, self.tanh_c_rows, self.h_rows)]
        self.positions = list(zip(*views))


class _LstmCache(_Recurrence):
    """One layer's recurrence rows over a window of T positions (B = 1),
    which `LstmLayer.run` fills, with their T x H `outputs`, and the blocks
    `LstmLayer.backward` builds from them; allocated once, with their
    per-position views, and overwritten by every run and backward that is
    handed them. `inputs` is the last run's input window."""

    def __init__(self, steps: int, hid: int):
        super().__init__(1, steps, hid)
        self.inputs: np.ndarray | None = None
        gates, c_rows, tanh_c_rows, self.outputs = (
            rows[0] for rows in (self.gate_rows, self.c_rows, self.tanh_c_rows, self.h_rows))
        # Per position and gate the chain rule is ((s * a) * b) * c with
        # s = (dc, dc, dh, dc): a = (g, c_prev, tanh c, i),
        # b = (i, f, o, 1 - g^2), c = (1 - i, 1 - f, 1 - o, 1).
        a, b, c = np.empty((3, steps, 4 * hid))
        c[:, 3 * hid:] = 1.0
        a[0, hid:2 * hid] = 0.0  # the window starts from zero state
        self.h_prev = np.zeros((steps, hid))
        self.d_tanh_c = np.empty((steps, hid))
        self.d_pre = np.empty((steps, 4 * hid))
        s = np.empty((4, hid))
        self.s_flat, self.dc, self.dh, self.dc_twice = s.reshape(-1), s[0], s[2], s[1::2]
        self.dh_next, self.dc_next = np.empty((2, hid))
        i, f, o, g = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
        # (destination, source) of the factors copied from the rows
        self.copies = [(a[:, :hid], g), (a[1:, hid:2 * hid], c_rows[:-1]),
                       (a[:, 2 * hid:3 * hid], tanh_c_rows), (a[:, 3 * hid:], i),
                       (b[:, :3 * hid], gates[:, :3 * hid]),
                       (self.h_prev[1:], self.outputs[:-1])]
        # (destination, x) of the factors 1 - x^2, and the sigmoid gates of 1 - x
        self.squares = [(b[:, 3 * hid:], g), (self.d_tanh_c, tanh_c_rows)]
        self.sigmoid_gates, self.sigmoid_complements = gates[:, :3 * hid], c[:, :3 * hid]
        # backward walks the positions last to first
        self.backward_positions = list(zip(*(
            rows[::-1] for rows in (o, self.d_tanh_c, a, b, c, f, self.d_pre))))


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
        _, c_rows, _, h_rows = self._recur(
            x.reshape(1, 1, -1), LstmState(state.h.reshape(1, -1), state.c))
        if not np.isfinite(c_rows).all():
            raise NumericError("non-finite recurrent state")
        return LstmState(h_rows[0, 0], c_rows[0, 0])

    def _recur(self, inputs: np.ndarray, start: LstmState | None = None,
               rows: _Recurrence | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The recurrence over B x T x D windows, each from zero state or
        from `start`, whose h is B x H and whose c broadcasts against B x H.

        The input projection is one matrix product over all B*T rows and each
        position advances every window with one (B x H)(H x 4H) product,
        except the first position of windows from zero state, whose product
        would be zero and is skipped (adding it gives the same bits).
        The results go into `rows`, a `_Recurrence` of this shape, or into a
        new one when None. Returns its B x T activated gates (4H, laid out
        like the stacks), cells, tanh of the cells and outputs.

        The sigmoid gates take, per element, the usual two branches
        1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below as one quotient
        e^min(x,0) / (1+e^-|x|), with the same bits; exp sees only
        non-positive values and cannot overflow, and one exp call takes
        numerator and denominator, stacked in the rows' sigmoid scratch.
        """
        batch, steps, _ = inputs.shape
        if rows is None:
            rows = self.batch_rows(batch, steps)
        np.matmul(inputs.reshape(batch * steps, -1), self.w_stack.T,
                  out=rows.gate_rows.reshape(batch * steps, -1))
        rows.gate_rows += self.b_stack
        u_t = self.u_stack.T
        zero_state = rows.zero_state
        h, c = (zero_state,) * 2 if start is None else (start.h, start.c)
        h_times_u, i_times_g, scratch = rows.h_times_u, rows.i_times_g, rows.sigmoid_scratch
        num, den = scratch
        # At h32 a position's arithmetic is smaller than the fixed cost of
        # each numpy call, so the loop keeps that cost down with the same
        # bits: scalar operands are the 0-d `_ZERO`, `_ONE`, `_MINUS_ONE`,
        # never Python floats; h·Uᵀ is `np.dot` with a positional out; and
        # every update is an explicit ufunc call (positional out, except
        # `np.minimum`, which warns on it), not `+=`, `np.copyto` or a
        # helper function.
        for gates, ifo, i, f, o, g, c_out, tanh_c, h_out in rows.positions:
            if h is not zero_state:
                np.add(gates, np.dot(h, u_t, h_times_u), gates)
            np.minimum(ifo, _ZERO, out=num)
            np.copysign(ifo, _MINUS_ONE, den)
            np.exp(scratch, scratch)
            np.add(den, _ONE, den)
            np.divide(num, den, ifo)
            np.tanh(g, g)
            np.multiply(f, c, c_out)
            np.add(c_out, np.multiply(i, g, i_times_g), c_out)
            np.tanh(c_out, tanh_c)
            np.multiply(o, tanh_c, h_out)
            h, c = h_out, c_out
        if not np.isfinite(rows.h_rows).all():
            raise NumericError("non-finite recurrent outputs")
        return rows.gate_rows, rows.c_rows, rows.tanh_c_rows, rows.h_rows

    def run(self, inputs: np.ndarray, cache: _LstmCache | None = None
            ) -> tuple[np.ndarray, _LstmCache]:
        """Forward over a T x D window from zero state; returns (T x H
        outputs, backward cache). This is the training path.

        `cache`, from an earlier run of a window of T positions through a
        layer of this size, is refilled and returned; when None, a new one is
        built. The outputs are its `outputs`, and its `inputs` is `inputs`
        itself, not a copy, until the caller clears it."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.in_dim:
            raise ShapeError(f"expected rows of width {self.in_dim}, got {inputs.shape}")
        if cache is None:
            cache = _LstmCache(len(inputs), self.hidden)
        elif cache.outputs.shape != (len(inputs), self.hidden):
            raise ShapeError(f"a cache of {cache.outputs.shape} outputs cannot hold "
                             f"{len(inputs)} x {self.hidden}")
        cache.inputs = inputs
        self._recur(inputs[np.newaxis], rows=cache)
        return cache.outputs, cache

    def batch_rows(self, batch: int, steps: int) -> _Recurrence:
        """New rows for `forward_batch` over B x T windows through this layer."""
        return _Recurrence(batch, steps, self.hidden)

    def forward_batch(self, inputs: np.ndarray, rows: _Recurrence | None = None
                      ) -> np.ndarray:
        """Forward over B x T x D independent windows, each from zero state;
        returns the B x T x H outputs. This is the inference path.

        `rows`, from `batch_rows` of B x T windows through a layer of this
        size, is refilled, and the outputs are its `h_rows`, valid until the
        next pass handed it; when None, new rows are built."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3 or inputs.shape[2] != self.in_dim:
            raise ShapeError(
                f"expected B x T x {self.in_dim} inputs, got {inputs.shape}")
        if rows is not None and rows.h_rows.shape != (*inputs.shape[:2], self.hidden):
            raise ShapeError(f"rows of {rows.h_rows.shape} outputs cannot hold "
                             f"{inputs.shape[0]} x {inputs.shape[1]} x {self.hidden}")
        return self._recur(inputs, rows=rows)[3]

    def backward(self, cache: _LstmCache, d_outputs: np.ndarray, dw: np.ndarray,
                 du: np.ndarray, db: np.ndarray) -> np.ndarray:
        """Exact truncated-BPTT gradients for one window.

        `d_outputs` is dLoss/dh per position. The parameter gradients go into
        `dw` (4H x D), `du` (4H x H) and `db` (4H), stacked like the gates.
        Returns the T x 4H gate pre-activation gradient, a block of `cache`
        that the next backward over it overwrites; dLoss/dinputs is that
        times `w_stack`, for a caller that needs it.
        """
        steps, hid = d_outputs.shape
        if cache.outputs.shape != (steps, hid):
            raise ShapeError(f"output gradients of shape {d_outputs.shape} do not "
                             f"match a cache of {cache.outputs.shape} outputs")
        # The factors a, b, c of every position are built first. The products
        # run in the order of the per-gate formulas, and the candidate gate's
        # c = 1 is exact, so the bits are those of the formulas.
        for dst, src in cache.copies:
            np.copyto(dst, src)
        for dst, x in cache.squares:
            np.multiply(x, x, out=dst)
            np.subtract(_ONE, dst, out=dst)
        np.subtract(_ONE, cache.sigmoid_gates, out=cache.sigmoid_complements)
        s_flat, dc, dh, dc_twice = cache.s_flat, cache.dc, cache.dh, cache.dc_twice
        dh_next, dc_next = cache.dh_next, cache.dc_next
        dh_next.fill(0.0)
        dc_next.fill(0.0)
        u_t = self.u_stack.T
        # the per-position calls follow `_recur`'s loop conventions
        for d_out, (o_t, d_tanh_t, a_t, b_t, c_t, f_t, row) in zip(
                d_outputs[::-1], cache.backward_positions):
            np.add(d_out, dh_next, dh)
            np.multiply(dh, o_t, dc)
            np.multiply(dc, d_tanh_t, dc)
            np.add(dc, dc_next, dc)
            dc_twice[...] = dc
            np.multiply(s_flat, a_t, row)
            np.multiply(row, b_t, row)
            np.multiply(row, c_t, row)
            np.multiply(dc, f_t, dc_next)
            np.dot(u_t, row, dh_next)
        d_pre = cache.d_pre
        np.matmul(d_pre.T, cache.inputs, out=dw)
        np.matmul(d_pre.T, cache.h_prev, out=du)
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

class StepWorkspace:
    """What an SGD step of one layer stack over windows of `steps` positions
    writes: the gradient vector `grads` with its `layer_views`, the `logits`
    and, for a stack with a recurrent layer, that layer's cache
    (`LstmLayer.run`) and T x H `lstm_outputs` (else None). A training run
    builds one; every `backprop_window` handed it overwrites them all and
    leaves none of them holding the window's inputs."""

    def __init__(self, model, steps: int):
        if steps < 1:
            raise ConfigError(f"a window needs at least one position, got {steps}")
        self.steps = steps
        self.layers = model.layers
        self.grads = np.empty(sum(t.size for layer in self.layers for t in layer._tensors()))
        self.grad_views = layer_views(self.layers, self.grads)
        self.lstm_cache = None if model.lstm is None else _LstmCache(steps, model.lstm.hidden)
        self.lstm_outputs = None if model.lstm is None else self.lstm_cache.outputs
        self.logits = self.head_inputs = self.dropout_scale = None


def run_window(model, inputs: np.ndarray, *, dropout_rate: float = 0.0,
               rng: np.random.Generator | None = None,
               workspace: StepWorkspace | None = None) -> np.ndarray:
    """Forward one T x D window through a layer stack; returns the logits.

    A positive `dropout_rate` applies inverted dropout to the head input
    (activations scaled by 1/(1-rate)), so evaluation, at rate 0, needs no
    rescaling. The recurrent layer runs through `LstmLayer.run`, in the
    cache of `workspace` or, with none, in a new cache. A `workspace` also
    keeps the head's inputs (the caller's rows for a lone head at rate 0,
    which `backprop_window` drops) and the dropout scale (None at rate 0).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ShapeError("window inputs must be a T x D matrix")
    rows = inputs if model.embed is None else model.embed.forward_rows(inputs)
    if model.lstm is not None:
        rows = model.lstm.run(rows, None if workspace is None else workspace.lstm_cache)[0]
    scale = None
    if dropout_rate > 0.0:
        if rng is None:
            raise ConfigError("dropout requires an rng")
        keep = 1.0 - dropout_rate
        scale = (rng.random(rows.shape) < keep).astype(np.float64) / keep
        rows = rows * scale
    if workspace is not None:
        workspace.head_inputs, workspace.dropout_scale = rows, scale
    return model.head.forward_rows(rows)


def backprop_window(model, inputs: np.ndarray, labels: np.ndarray,
                    loss_mask: np.ndarray | None = None, *,
                    dropout_rate: float = 0.0,
                    rng: np.random.Generator | None = None,
                    workspace: StepWorkspace | None = None
                    ) -> tuple[float, np.ndarray, StepWorkspace]:
    """Loss and exact gradients of the mean masked cross-entropy over a window.

    Returns (loss, `workspace.grads`, `workspace`). The gradients are one
    vector laid out by `layer_views` over `model.layers`; `model.unflatten`
    names its parts. Masked-out steps contribute nothing to the loss or any
    gradient, and a window with no supervised step is refused. Dropout
    follows `dropout_rate` alone (as in `run_window`), so rate 0 gives the
    deterministic loss.

    `workspace` is a `StepWorkspace` of this stack and window length, or a
    new one when None. Its gradients, logits and recurrent outputs hold
    until the next call handed it overwrites them; it keeps no reference to
    `inputs` after the call.
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
    if workspace is None:
        workspace = StepWorkspace(model, steps)
    elif workspace.steps != steps:
        raise ShapeError(f"a workspace for windows of {workspace.steps} positions "
                         f"cannot run a window of {steps}")
    elif workspace.layers != model.layers:
        raise ShapeError("the workspace was built for the layers of another stack")

    workspace.logits = run_window(model, inputs, dropout_rate=dropout_rate, rng=rng,
                                  workspace=workspace)
    loss, dlogits = _masked_xent_rows(workspace.logits, labels, mask)
    if not np.isfinite(loss):
        raise NumericError("non-finite window loss")

    *below, head_grads = workspace.grad_views
    _dense_grads(dlogits, workspace.head_inputs, *head_grads)
    workspace.head_inputs = None  # may be the caller's rows
    if model.lstm is None:  # nothing below the head reads its input gradient
        return loss, workspace.grads, workspace
    d_rows = dlogits @ model.head.weight
    if workspace.dropout_scale is not None:
        d_rows *= workspace.dropout_scale
    d_pre = model.lstm.backward(workspace.lstm_cache, d_rows, *below[-1])
    workspace.lstm_cache.inputs = None  # may be the caller's rows
    if model.embed is not None:
        _dense_grads(d_pre @ model.lstm.w_stack, inputs, *below[0])
    return loss, workspace.grads, workspace


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


def _window_loss(model, inputs, labels, mask, workspace: StepWorkspace) -> float:
    """The window's loss without dropout, its forward pass run in `workspace`."""
    return _masked_xent_rows(run_window(model, inputs, workspace=workspace), labels, mask)[0]


def grad_check(model, inputs: np.ndarray, labels: np.ndarray,
               loss_mask: np.ndarray | None = None, *,
               epsilon: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central differences at every
    coordinate of every tensor.

    Relative error is |a - n| / max(|a|, |n|, 1e-12); failures are reported,
    never raised. A window with no supervised step is refused. Every
    finite-difference loss runs in the workspace that `backprop_window`
    built for the analytic gradients, so no evaluation allocates rows.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ConfigError("epsilon must lie in [1e-7, 1e-3]")
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.ones(inputs.shape[0], dtype=bool) if loss_mask is None else np.asarray(loss_mask, dtype=bool)
    _, flat_grads, workspace = backprop_window(model, inputs, labels, mask)
    grads = model.unflatten(flat_grads)
    checks = []
    for name, w in sorted(model.params().items()):
        flat = w.reshape(-1)
        gflat = grads[name].reshape(-1)
        worst = 0.0
        for idx in range(flat.size):
            saved = flat[idx]
            flat[idx] = saved + epsilon
            hi = _window_loss(model, inputs, labels, mask, workspace)
            flat[idx] = saved - epsilon
            lo = _window_loss(model, inputs, labels, mask, workspace)
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
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:  # checked first: the other messages quote the name
            raise DataError(f"tensor name too long: {len(encoded)} UTF-8 bytes, "
                            f"the limit is 65535")
        arr = np.asarray(params[name], dtype="<f8", order="C")  # keeps rank 0
        if not np.isfinite(arr).all():
            raise DataError(f"refusing to write non-finite tensor {name!r}")
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
