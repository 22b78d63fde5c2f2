"""Independent reference implementations used to check the production code.

These deliberately avoid the library's vectorized paths: the carry-over
reference walks frame by frame through gate equations it writes itself from
the per-gate tensors (`reference_lstm_step`), calling no library layer, and the
split reference enumerates subsets with plain-Python bitmask loops; the
cross-entropy reference scores one frame at a time. The recurrence,
backward, masked cross-entropy, SGD and split-stage references are the plain
loops the library's kernels replaced; the kernels must match them bit for
bit. The timeline reference builds the objects that `json.dumps` writes,
which the direct timelines writer must match byte for byte, and the
`.egoseq` reference is the writer that assembled each day in one copy.
"""

import itertools
import math
import struct
from pathlib import Path

import numpy as np

from egobatch.errors import DataError, ShapeError
from egobatch.nnet import GATES
from egobatch.splitter import bhattacharyya


def timeline_to_obj(timeline, include_probs=False):
    """One timeline as the JSON object `write_timelines_json` writes, built
    frame by frame with plain Python numbers."""
    frames = []
    for idx in range(len(timeline)):
        frame = {
            "index": idx,
            "true": int(timeline.true_labels[idx]),
            "pred": int(timeline.pred_labels[idx]),
        }
        if include_probs:
            frame["probs"] = [float(p) for p in timeline.probs[idx]]
        frames.append(frame)
    return {"sequence_id": timeline.sequence_id, "frames": frames}


def softmax_xent(logits, true_label):
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


def unbatched_reference_logits(model, seq, batch_size, overlap,
                               retention="earlier"):
    """Frame-by-frame carry-over simulation of a piggyback stack, one
    position and one gate at a time.

    It reads only the per-gate tensors of `model.params()` and writes the
    embedding, gate, cell and head equations itself, so it shares no code
    with the layers it checks.
    """
    p = model.params()
    n, m = batch_size, overlap
    length = len(seq)
    stride = n - m
    batches = 1 if length <= n else -(-(length - n) // stride) + 1
    hidden = p["lstm.U_i"].shape[0]
    store = None
    logits = np.full((length, p["head.b"].shape[0]), np.nan)
    for k in range(batches):
        start = k * stride
        h = np.zeros(hidden)
        c = np.zeros(hidden)
        h_list = []
        for j in range(n):
            frame = min(start + j, length - 1)  # right padding repeats the end
            if k > 0 and j < m:
                z = store[j]
            else:
                x = np.asarray(seq.features[frame], dtype=np.float64)
                z = p["embed.W"] @ x + p["embed.b"]
            h, c = reference_lstm_step(p, z, h, c)
            h_list.append(h)
            keep = (k == 0 or j >= m) if retention == "earlier" else True
            if keep and start + j < length:
                logits[start + j] = p["head.W"] @ h + p["head.b"]
        store = h_list[-m:]
    assert not np.isnan(logits).any()
    return logits


def reference_lstm_step(p, x, h, c):
    """One position of the recurrence from state (h, c), one gate at a time.

    `p` is a stack's `params()`; only its per-gate `lstm.*` tensors are
    read. Returns the new (h, c).
    """
    pre = {g: p[f"lstm.W_{g}"] @ x + p[f"lstm.U_{g}"] @ h + p[f"lstm.b_{g}"]
           for g in GATES}
    i, f, o = (reference_sigmoid(pre[g]) for g in "ifo")
    c = f * c + i * np.tanh(pre["c"])
    return o * np.tanh(c), c


def brute_force_split(bin_labels, num_classes, test_bins, val_bins,
                      stage2_reference="whole"):
    """Two-stage exhaustive split selection over explicit bins."""

    def dist(counts):
        total = sum(counts)
        return None if total == 0 else [c / total for c in counts]

    def distance(p, q):
        coeff = sum(math.sqrt(a * b) for a, b in zip(p, q))
        if coeff <= 0:
            return math.inf
        return max(0.0, -math.log(min(coeff, 1.0)))

    def counts_of(ids):
        counts = [0] * num_classes
        for b in ids:
            for label in bin_labels[b]:
                counts[label] += 1
        return counts

    total_bins = len(bin_labels)
    whole = dist(counts_of(range(total_bins)))

    def stage(candidates, choose, reference):
        best = None
        best_val = None
        for mask in range(1 << len(candidates)):
            picked = [candidates[i] for i in range(len(candidates))
                      if mask >> i & 1]
            if len(picked) != choose:
                continue
            rest = [b for b in candidates if b not in picked]
            d_pick = dist(counts_of(picked))
            d_rest = dist(counts_of(rest))
            value = math.inf
            if d_pick is not None and d_rest is not None:
                value = distance(d_pick, reference) + distance(d_rest, reference)
            key = tuple(sorted(picked))
            # bitmask order is not lexicographic, so ties must compare keys
            if best is None or value < best_val or \
                    (value == best_val and key < best):
                best, best_val = key, value
        return best, best_val

    test_ids, objective_test = stage(list(range(total_bins)), test_bins, whole)
    remaining = [b for b in range(total_bins) if b not in test_ids]
    reference = whole
    if stage2_reference == "rest":
        reference = dist(counts_of(remaining))
    val_ids, objective_val = stage(remaining, val_bins, reference)
    return test_ids, val_ids, objective_test, objective_val


def reference_best_subset(bin_counts, candidates, choose, reference):
    """The split search's stage as it scored subsets before the count matrix:
    per-bin class-count vectors summed per subset, each distribution checked
    by the public `bhattacharyya`, and a subset or rest of zero frames scored
    inf. `splitter._best_subset` must return the same ids and objective bit
    for bit."""

    def distribution(counts):
        total = counts.sum()
        return None if total == 0 else counts / float(total)

    def pair_objective(subset_counts, rest_counts):
        total = 0.0
        for counts in (subset_counts, rest_counts):
            dist = distribution(counts)
            if dist is None:
                return math.inf
            total += bhattacharyya(dist, reference)
        return total

    pool = np.sum([bin_counts[b] for b in candidates], axis=0)
    best_ids = None
    best_value = math.inf
    for picks in itertools.combinations(range(len(candidates)), choose):
        ids = tuple(candidates[i] for i in picks)
        subset = np.sum([bin_counts[b] for b in ids], axis=0)
        value = pair_objective(subset, pool - subset)
        if best_ids is None or value < best_value:
            best_ids = ids
            best_value = value
    return best_ids, best_value


def reference_lstm_backward(layer, cache, d_outputs):
    """Truncated-BPTT gradients of one window, one position at a time.

    Returns per-gate gradients keyed `W_i`, `U_i`, `b_i`, ... and dLoss/dinputs.
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
        dh_next = layer.u_stack.T @ d_pre[t]
    dw_stack = d_pre.T @ cache.inputs
    du_stack = d_pre.T @ h_prev_rows
    db_stack = d_pre.sum(axis=0)
    grads = {}
    for k, gate in enumerate(GATES):
        grads[f"W_{gate}"] = dw_stack[k * hid:(k + 1) * hid]
        grads[f"U_{gate}"] = du_stack[k * hid:(k + 1) * hid]
        grads[f"b_{gate}"] = db_stack[k * hid:(k + 1) * hid]
    d_inputs = d_pre @ layer.w_stack
    return grads, d_inputs


def reference_sgd_update(params, grads, velocity, opt):
    """In place, one tensor at a time: v <- mu v - alpha (g + lambda w); w <- w + v.

    `velocity` holds one buffer per name; `opt` gives the hyperparameters."""
    for name, v in velocity.items():
        w = params[name]
        g = grads[name]
        v *= opt.momentum
        v -= opt.learning_rate * (g + opt.weight_decay * w)
        w += v


def reference_masked_xent_rows(logits, labels, mask):
    """Mean cross-entropy over the rows `mask` selects and its gradient (/M)."""
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


def reference_sigmoid(x):
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below; exp sees only -|x|."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def reference_lstm_recur(layer, inputs):
    """The recurrence over B x T x D windows, each from zero state, indexing
    one position at a time.

    Returns the B x T activated gates (4H, laid out like the stacks), cells,
    tanh of the cells and outputs.
    """
    batch, steps, _ = inputs.shape
    hid = layer.hidden
    gate_rows = (inputs.reshape(batch * steps, -1) @ layer.w_stack.T
                 + layer.b_stack).reshape(batch, steps, 4 * hid)
    c_rows = np.empty((batch, steps, hid))
    tanh_c_rows = np.empty((batch, steps, hid))
    h_rows = np.empty((batch, steps, hid))
    u_t = layer.u_stack.T
    h = np.zeros((batch, hid))
    c = np.zeros((batch, hid))
    for t in range(steps):
        gates = gate_rows[:, t]
        gates += h @ u_t
        gates[:, :3 * hid] = reference_sigmoid(gates[:, :3 * hid])
        gates[:, 3 * hid:] = np.tanh(gates[:, 3 * hid:])
        c = gates[:, hid:2 * hid] * c + gates[:, :hid] * gates[:, 3 * hid:]
        tanh_c = np.tanh(c)
        h = gates[:, 2 * hid:3 * hid] * tanh_c
        c_rows[:, t] = c
        tanh_c_rows[:, t] = tanh_c
        h_rows[:, t] = h
    return gate_rows, c_rows, tanh_c_rows, h_rows


def reference_write_sequence_file(seq, path):
    """A day as `.egoseq` bytes, built whole in memory and written at once."""
    seq.validate()
    feats32 = np.ascontiguousarray(seq.features, dtype="<f4")
    if not np.isfinite(feats32).all():
        raise DataError("feature value overflows float32 storage")
    length, dim = seq.features.shape
    blob = bytearray()
    blob += b"EGOSEQ01"
    blob += struct.pack("<II", length, dim)
    blob.append(0 if seq.timestamps is None else 1)
    blob += feats32.tobytes()
    blob += np.ascontiguousarray(seq.labels, dtype="<u2").tobytes()
    if seq.timestamps is not None:
        blob += np.ascontiguousarray(seq.timestamps, dtype="<u4").tobytes()
    Path(path).write_bytes(bytes(blob))
