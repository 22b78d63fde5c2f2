"""Counters added to spans after a call returns: bytes, flops, frames, items.

Each entry maps a span name to `post(record, args, kwargs, result)`, which
adds to the record's counters and returns the result handed to the caller.
Flops are computed from array shapes (matrix products only), not measured.
"""

from __future__ import annotations

import json
from pathlib import Path


def _size(path) -> int:
    return Path(path).stat().st_size


def _frames(rec, args, kwargs, result):
    rec.add("frames", len(result))
    return result


def _generated_bytes(rec, args, kwargs, result):
    rec.add("bytes", sum(s.features.nbytes + s.labels.nbytes for s in result.sequences))
    return result


def _manifest_bytes(rec, args, kwargs, result):
    dataset, manifest, seq_dir = args[:3]
    rec.add("bytes", _size(manifest) + sum(
        _size(Path(seq_dir) / f"{s.sequence_id}.egoseq") for s in dataset.sequences))
    return result


def _loaded_bytes(rec, args, kwargs, result):
    manifest, labels = Path(args[0]), args[1]
    entries = json.loads(manifest.read_text(encoding="utf-8"))
    rec.add("bytes", _size(manifest) + _size(labels)
            + sum(_size(manifest.parent / e["path"]) for e in entries))
    return result


def _checkpoint_written(rec, args, kwargs, result):
    rec.add("bytes", _size(args[1]))
    return result


def _checkpoint_read(rec, args, kwargs, result):
    rec.add("bytes", _size(args[0]))
    return result


def _lstm_forward_flops(rec, args, kwargs, result):
    layer, inputs = args[0], args[1]
    steps, width = inputs.shape
    hidden = layer.hidden
    rec.add("flops", 2 * steps * 4 * hidden * (width + hidden))
    return result


def _lstm_backward_flops(rec, args, kwargs, result):
    cache, d_outputs = args[1], args[2]
    steps, hidden = d_outputs.shape
    width = cache.inputs.shape[1]
    # dh through U, then dW, dU and d_inputs
    rec.add("flops", 2 * steps * 4 * hidden * (2 * width + 2 * hidden))
    return result


def _train_steps(rec, args, kwargs, result):
    if kwargs.get("mode", "train") == "train":
        rec.add("train_steps", 1)
    return result


def _counted(rec, args, kwargs, result):
    def items():
        for item in result:
            rec.add("items", 1)
            yield item
    return items()


POSTS = {
    "models.predict_baseline": _frames,
    "models.predict_sliding_sequence": _frames,
    "models.predict_piggyback_sequence": _frames,
    "datamodel.generate_synthetic": _generated_bytes,
    "datamodel.write_manifest": _manifest_bytes,
    "datamodel.load_dataset": _loaded_bytes,
    "nnet.write_checkpoint": _checkpoint_written,
    "nnet.read_checkpoint": _checkpoint_read,
    "nnet.LstmLayer.run": _lstm_forward_flops,
    "nnet.LstmLayer.backward": _lstm_backward_flops,
    "nnet.backprop_window": _train_steps,
    "splitter.combinations": _counted,
}
