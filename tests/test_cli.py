import argparse
import dataclasses
import inspect
import json
import os
import shutil
import struct
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import egobatch
from egobatch import (
    Dataset,
    DaySequence,
    build_baseline,
    build_piggyback,
    build_sliding,
    build_stack,
    load_dataset,
    read_sequence_file,
    select_split,
    write_checkpoint,
    write_manifest,
    write_sequence_file,
)
from egobatch import cli, datamodel
from egobatch.cli import dispatch
from egobatch.datamodel import SynthConfig
from egobatch.models import ARCHITECTURES, DEFAULT_HIDDEN, RETENTIONS, predict_days
from egobatch.splitter import STAGE2_REFERENCES, SUBSETS
from egobatch.training import PHASES, TrainConfig


def run(*argv):
    return dispatch(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = run("synth", "--out-dir", str(out), "--sequences", "8",
               "--frames", "40", "--seed", "5")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def split_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("split")
    code = run("split", "--manifest", str(synth_dir / "manifest.json"),
               "--labels", str(synth_dir / "labels.txt"),
               "--out-dir", str(out), "--bins", "6",
               "--test-bins", "1", "--val-bins", "1")
    assert code == 0
    return out


class TestHelp:
    @pytest.mark.parametrize("sub", ["synth", "split", "train", "predict",
                                     "eval", "gradcheck"])
    def test_subcommand_help_exits_zero(self, sub, capsys):
        assert run(sub, "--help") == 0
        out = capsys.readouterr().out
        assert "--" in out

    def test_top_level_help(self):
        assert run("--help") == 0


def test_defaults_and_choices_are_the_librarys():
    """Each command parsed with only its required flags gives the values the
    library decides, and each flag's choices are the library's tuple."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def choices(command, flag):
        return next(a for a in commands[command]._actions
                    if flag in a.option_strings).choices

    def default(function, name):
        return inspect.signature(function).parameters[name].default

    synth = parser.parse_args(["synth", "--out-dir", "o"])
    want = SynthConfig()
    assert (synth.classes, synth.feature_dim, tuple(synth.ambiguous),
            synth.self_transition, synth.noise_sigma, synth.mean_scale,
            synth.sequences, synth.frames, synth.seed) == (
        want.num_classes, want.feature_dim, want.ambiguous_pair,
        want.self_transition_prob, want.noise_sigma, want.mean_scale,
        want.num_sequences, want.frames_per_sequence, want.seed)
    assert tuple(synth.context) == tuple(want.context_map[a] for a in want.ambiguous_pair)

    split = parser.parse_args(["split", "--manifest", "m", "--labels", "l",
                               "--out-dir", "o", "--bins", "3", "--test-bins", "1",
                               "--val-bins", "1"])
    assert split.stage2_reference == default(select_split, "stage2_reference")
    assert choices("split", "--stage2-reference") == STAGE2_REFERENCES

    for arch in ARCHITECTURES:
        train = parser.parse_args(["train", "--arch", arch, "--manifest", "m",
                                   "--labels", "l", "--split", "s", "--out-dir", "o"])
        # TrainConfig("piggyback") refuses overlap 0, so compare field defaults
        want = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        want.update(architecture=arch)
        assert {name: getattr(train, name) for name in want} == want
        assert train.hidden == DEFAULT_HIDDEN == default(build_stack, "hidden")
    assert choices("train", "--phase") == PHASES

    predict = parser.parse_args(["predict", "--model", "x", "--manifest", "m",
                                 "--labels", "l", "--out-dir", "o"])
    assert predict.retention == default(predict_days, "retention")
    assert choices("predict", "--retention") == RETENTIONS
    assert choices("predict", "--subset") == SUBSETS


class TestUsageErrors:
    def test_missing_subcommand(self):
        assert run() == 1

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_unknown_flag_rejected(self, synth_dir):
        assert run("synth", "--out-dir", str(synth_dir), "--bogus", "1") == 1

    def test_overlap_must_be_below_timestep(self, synth_dir, split_dir, tmp_path):
        code = run("train", "--arch", "piggyback", "--timestep", "5",
                   "--overlap", "5",
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--out-dir", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("hidden", ["0", "-1"])
    def test_non_positive_hidden_size(self, synth_dir, split_dir, tmp_path, hidden,
                                      capsys):
        code = run("train", "--arch", "piggyback", "--timestep", "5",
                   "--overlap", "2", "--hidden", hidden,
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--out-dir", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--lr", "--weight-decay"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_training_rate(self, synth_dir, split_dir, tmp_path, flag, value):
        code = run("train", "--arch", "baseline", "--epochs", "1", flag, value,
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"), "--out-dir", str(tmp_path))
        assert code == 1
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flag", ["--noise-sigma", "--mean-scale"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_synth_scale(self, tmp_path, flag, value):
        assert run("synth", "--out-dir", str(tmp_path), flag, value) == 1
        assert not (tmp_path / "manifest.json").exists()

    def test_bad_value_type(self):
        assert run("synth", "--out-dir", "x", "--sequences", "lots") == 1

    @pytest.mark.parametrize("empty", ["train", "val", "train+val"])
    def test_empty_split_list(self, synth_dir, split_dir, tmp_path, empty):
        split = json.loads((split_dir / "split.json").read_text())
        for key in empty.split("+"):
            split[key] = []
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(split))
        out = tmp_path / "out"
        code = run("train", "--arch", "baseline", "--epochs", "1",
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_path), "--out-dir", str(out))
        assert code == 1
        assert not (out / "report.json").exists()


class TestDataErrors:
    def test_missing_manifest_is_data_error(self, synth_dir, tmp_path):
        code = run("split", "--manifest", str(tmp_path / "nope.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--out-dir", str(tmp_path), "--bins", "4",
                   "--test-bins", "1", "--val-bins", "1")
        assert code == 2

    def test_corrupt_sequence_file(self, synth_dir, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "labels.txt").write_text("a\nb\n")
        (bad / "seq.egoseq").write_bytes(b"XXXXXXXX" + b"\x00" * 16)
        (bad / "manifest.json").write_text(json.dumps(
            [{"sequence_id": "s", "user_id": "u", "path": "seq.egoseq"}]))
        code = run("split", "--manifest", str(bad / "manifest.json"),
                   "--labels", str(bad / "labels.txt"),
                   "--out-dir", str(tmp_path / "out"), "--bins", "2",
                   "--test-bins", "1", "--val-bins", "1")
        assert code == 2

    def test_blank_line_in_labels(self, synth_dir, tmp_path):
        names = (synth_dir / "labels.txt").read_text().splitlines()
        labels = tmp_path / "labels.txt"
        labels.write_text("\n".join([names[0], "", *names[1:]]) + "\n")
        code = run("split", "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(labels),
                   "--out-dir", str(tmp_path / "out"), "--bins", "4",
                   "--test-bins", "1", "--val-bins", "1")
        assert code == 2

    @pytest.mark.parametrize("ids", [["s0", "s1", "s0"], ["s0", 3]])
    def test_eval_of_a_repeated_or_non_string_day(self, synth_dir, tmp_path, ids):
        timelines = tmp_path / "timelines.json"
        timelines.write_text(json.dumps([{"sequence_id": sid, "frames": [
            {"index": 0, "true": 0, "pred": 1}]} for sid in ids]))
        code = run("eval", "--timelines", str(timelines),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--out-dir", str(tmp_path / "eval"))
        assert code == 2
        assert not (tmp_path / "eval" / "report.json").exists()

    @pytest.mark.parametrize("bad", ["labels", "manifest", "checkpoint", "split",
                                     "timelines", "manifest-json", "split-json",
                                     "timelines-json", "manifest-nested",
                                     "timelines-nested"])
    def test_non_utf8_input(self, synth_dir, split_dir, tmp_path, bad, capsys):
        """Every command that reads a file that is not UTF-8, or ("-json")
        not JSON, or ("-nested") JSON nested too deeply to parse, exits 2;
        malformed JSON is reported with the file's name."""
        data = load_dataset(synth_dir / "manifest.json", synth_dir / "labels.txt")
        checkpoint = tmp_path / "model.egomdl"
        write_checkpoint(build_baseline(data.feature_dim, data.label_set.size).params(),
                         checkpoint)
        timelines = tmp_path / "timelines.json"
        timelines.write_text("[]\n")
        files = {"labels": synth_dir / "labels.txt",
                 "manifest": synth_dir / "manifest.json",
                 "checkpoint": checkpoint, "split": split_dir / "split.json",
                 "timelines": timelines}
        bad, _, kind = bad.partition("-")
        broken = tmp_path / "broken"
        if bad == "checkpoint":
            # a tensor name that is not UTF-8, same length as "head.W"
            broken.write_bytes(checkpoint.read_bytes().replace(b"head.W", b"head.\xff"))
        elif kind == "json":
            broken.write_text('[{"test": ["s0", ', encoding="utf-8")
        elif kind == "nested":
            broken.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        else:
            broken.write_bytes(b"\xff\xfe\n")
        files[bad] = broken
        inputs = ["--manifest", files["manifest"], "--labels", files["labels"]]
        commands = [["predict", "--model", files["checkpoint"], *inputs,
                     "--split", files["split"]]]
        if bad in ("labels", "timelines"):
            commands = [["eval", "--timelines", files["timelines"],
                         "--labels", files["labels"]]]
        elif bad == "manifest":
            commands.append(["split", *inputs, "--bins", "4", "--test-bins", "1",
                             "--val-bins", "1"])
        elif bad == "split":
            commands.append(["train", "--arch", "baseline", *inputs,
                             "--split", files["split"]])
        for argv in commands:
            assert run(*map(str, argv), "--out-dir", str(tmp_path / "out")) == 2
            if kind:
                assert f"error: {broken}: invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ids", [None, [["x"]]])
    def test_malformed_split_ids(self, synth_dir, split_dir, tmp_path, ids):
        split = json.loads((split_dir / "split.json").read_text())
        split["train"] = ids
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(split))
        code = run("train", "--arch", "baseline", "--epochs", "1",
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_path), "--out-dir", str(tmp_path / "out"))
        assert code == 2

    CHECKPOINT_ERRORS = {
        "no_embed_bias": "checkpoint tensors mismatch: missing=['embed.b']",
        "flat_recurrent_weight": "the four gates of lstm.W_*, lstm.U_* and lstm.b_*",
        "mismatched_gate_rows": "the four gates of lstm.W_*, lstm.U_* and lstm.b_*",
        "nan_head": "dense layer parameters must be finite",
        "nan_gate": "recurrent layer parameters must be finite",
        "rank_1_gates": "gate weights must be a matrix, got shape (16,)",
        "head_width": "head input width must equal the recurrent hidden size"}

    @pytest.mark.parametrize("damage", ["no_embed_bias", "flat_recurrent_weight",
                                        "mismatched_gate_rows", "nan_head", "nan_gate",
                                        "rank_1_gates", "head_width"])
    def test_malformed_checkpoint(self, synth_dir, tmp_path, damage, capsys):
        data = load_dataset(synth_dir / "manifest.json", synth_dir / "labels.txt")
        params = build_piggyback(data.feature_dim, data.label_set.size, hidden=4).params()
        marker = 12345.678  # a value no other tensor holds, replaced by NaN
        if damage == "no_embed_bias":
            del params["embed.b"]
        elif damage == "flat_recurrent_weight":
            params["lstm.W_i"] = params["lstm.W_i"].reshape(-1)
        elif damage == "mismatched_gate_rows":
            # 3 + 5 + 4 + 4 rows stack like a valid H = 4 layer
            for kind in "WUb":
                i, f = params[f"lstm.{kind}_i"], params[f"lstm.{kind}_f"]
                params[f"lstm.{kind}_i"] = i[:3]
                params[f"lstm.{kind}_f"] = np.concatenate([f, i[3:]])
        elif damage == "nan_head":
            params["head.b"][0] = marker
        elif damage == "nan_gate":
            params["lstm.U_f"][1, 2] = marker
        elif damage == "rank_1_gates":
            for g in "ifoc":
                params[f"lstm.W_{g}"] = params[f"lstm.W_{g}"][:, 0]
        else:
            params["head.W"] = np.zeros((data.label_set.size, 5))
        checkpoint = tmp_path / "model.egomdl"
        write_checkpoint(params, checkpoint)
        nan = struct.pack("<d", float("nan"))
        checkpoint.write_bytes(checkpoint.read_bytes().replace(struct.pack("<d", marker),
                                                               nan))
        assert (nan in checkpoint.read_bytes()) == damage.startswith("nan")
        code = run("predict", "--model", str(checkpoint),
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"error: {self.CHECKPOINT_ERRORS[damage]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_checkpoint_dimensions_that_wrap(self, synth_dir, tmp_path):
        # 65536^4 elements wrap to 0 in int64; the data is missing, not empty
        name = b"head.W"
        checkpoint = tmp_path / "bad.egomdl"
        checkpoint.write_bytes(b"EGOMDL01" + struct.pack("<I", 1)
                               + struct.pack("<H", len(name)) + name + bytes([4])
                               + struct.pack("<I", 65536) * 4)
        code = run("predict", "--model", str(checkpoint),
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--out-dir", str(tmp_path / "out"))
        assert code == 2

    def test_checkpoint_rank_beyond_numpys_limit(self, synth_dir, tmp_path, capsys):
        # 65 dimensions of 1 and the one element they hold
        name = b"head.W"
        checkpoint = tmp_path / "bad.egomdl"
        checkpoint.write_bytes(b"EGOMDL01" + struct.pack("<I", 1)
                               + struct.pack("<H", len(name)) + name + bytes([65])
                               + struct.pack("<I", 1) * 65 + struct.pack("<d", 0.0))
        code = run("predict", "--model", str(checkpoint),
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert "tensor 'head.W' has rank 65" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_phase2_without_checkpoint(self, synth_dir, split_dir, tmp_path):
        code = run("train", "--arch", "piggyback", "--timestep", "5",
                   "--overlap", "2", "--phase", "2",
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--out-dir", str(tmp_path))
        assert code == 2


def bad_day(path, damage):
    """Overwrite the day stored at `path` with a well-formed file that
    breaks one check; the frame count is kept."""
    length = struct.unpack_from("<I", path.read_bytes(), 8)[0]
    rng = np.random.default_rng(0)
    features = rng.normal(size=(length, 8 if damage == "feature_dim" else 16))
    labels = np.zeros(length, dtype=np.int64)
    if damage == "label_beyond_k":
        labels[-1] = 6  # the synthetic label set has K = 6
    timestamps = np.arange(length) if damage == "decreasing_timestamps" else None
    write_sequence_file(DaySequence("x", "u", features, labels, timestamps), path)
    blob = bytearray(path.read_bytes())
    if damage == "nan_feature":
        blob[17:21] = struct.pack("<f", float("nan"))  # after magic, L, D, flags
    elif damage == "decreasing_timestamps":
        blob[-8:] = struct.pack("<II", 5, 3)  # the last two u32 minutes
    path.write_bytes(bytes(blob))


class TestSplitChecks:
    """`split` keeps only each day's labels but still checks every day."""

    @pytest.mark.parametrize("damage", ["nan_feature", "label_beyond_k",
                                        "decreasing_timestamps", "feature_dim"])
    def test_damaged_day_exits_2(self, synth_dir, tmp_path, damage):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        bad_day(data / "sequences" / "synth003.egoseq", damage)
        out = tmp_path / "split"
        code = run("split", "--manifest", str(data / "manifest.json"),
                   "--labels", str(data / "labels.txt"), "--out-dir", str(out),
                   "--bins", "6", "--test-bins", "1", "--val-bins", "1")
        assert code == 2
        assert not (out / "split.json").exists()

    @pytest.mark.parametrize("capacity, code, error", [
        ("0", 1, "capacity must be at least 1"),
        ("-5", 1, "capacity must be at least 1"),
        ("39", 2, "item of size 40 exceeds capacity 39"),  # every day has 40 frames
        ("320", 1, "packing produced 1 bins; need test_bins + val_bins < bins")])
    def test_capacity(self, synth_dir, tmp_path, capacity, code, error, capsys):
        out = tmp_path / "split"
        assert run("split", "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"), "--out-dir", str(out),
                   "--bins", "6", "--test-bins", "1", "--val-bins", "1",
                   "--capacity", capacity) == code
        assert error in capsys.readouterr().err
        assert not (out / "split.json").exists()

    def test_capacity_makes_bins_irrelevant(self, synth_dir, split_dir, tmp_path):
        # --bins 6 derives capacity ceil(1.1 * 320 / 6) = 59, one day to a bin
        out = tmp_path / "split"
        assert run("split", "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"), "--out-dir", str(out),
                   "--bins", "2", "--test-bins", "1", "--val-bins", "1",
                   "--capacity", "59") == 0
        assert (out / "split.json").read_bytes() == \
            (split_dir / "split.json").read_bytes()

    def test_search_too_large_exits_1_at_once(self, tmp_path, capsys):
        # 40 days of 40 frames pack one to a bin at --bins 24, and choosing
        # 10 test bins among 40 would score C(40, 10) + C(30, 1) subsets
        data = tmp_path / "data"
        assert run("synth", "--out-dir", str(data), "--sequences", "40",
                   "--frames", "40", "--seed", "5") == 0
        out = tmp_path / "split"
        start = time.perf_counter()
        code = run("split", "--manifest", str(data / "manifest.json"),
                   "--labels", str(data / "labels.txt"), "--out-dir", str(out),
                   "--bins", "24", "--test-bins", "10", "--val-bins", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "produced 40 bins" in capsys.readouterr().err
        assert not (out / "split.json").exists()

    def test_empty_manifest_exits_2(self, synth_dir, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]")
        out = tmp_path / "split"
        assert run("split", "--manifest", str(manifest),
                   "--labels", str(synth_dir / "labels.txt"), "--out-dir", str(out),
                   "--bins", "6", "--test-bins", "1", "--val-bins", "1") == 2
        assert not (out / "split.json").exists()

    def test_same_split_as_whole_days(self, synth_dir, split_dir):
        data = load_dataset(synth_dir / "manifest.json", synth_dir / "labels.txt")
        result = select_split(data, 6, 1, 1)
        assert (split_dir / "split.json").read_text() == \
            json.dumps(result.to_json_obj(), indent=2) + "\n"


class TestPipeline:
    def test_synth_outputs(self, synth_dir):
        assert (synth_dir / "labels.txt").exists()
        assert (synth_dir / "manifest.json").exists()
        assert (synth_dir / "config.json").exists()
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert len(manifest) == 8
        assert set(manifest[0]) == {"sequence_id", "user_id", "path"}

    def test_split_outputs(self, split_dir):
        obj = json.loads((split_dir / "split.json").read_text())
        assert obj["test"] and obj["val"] and obj["train"]
        total = len(obj["test"]) + len(obj["val"]) + len(obj["train"])
        assert total == 8

    def test_train_predict_eval_baseline(self, synth_dir, split_dir, tmp_path):
        run_dir = tmp_path / "run"
        code = run("train", "--arch", "baseline",
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--out-dir", str(run_dir),
                   "--lr", "0.05", "--epochs", "2", "--dropout", "0.0",
                   "--seed", "3")
        assert code == 0
        assert (run_dir / "best.egomdl").exists()
        assert (run_dir / "last.egomdl").exists()
        report = json.loads((run_dir / "report.json").read_text())
        assert len(report["epochs"]) <= 2
        assert report["stop_reason"] in ("max_epochs", "early_stop")

        pred_dir = tmp_path / "pred"
        code = run("predict", "--model", str(run_dir / "best.egomdl"),
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--subset", "test", "--out-dir", str(pred_dir))
        assert code == 0
        timelines = json.loads((pred_dir / "timelines.json").read_text())
        assert timelines and timelines[0]["frames"]

        eval_dir = tmp_path / "eval"
        code = run("eval", "--timelines", str(pred_dir / "timelines.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--out-dir", str(eval_dir))
        assert code == 0
        report = json.loads((eval_dir / "report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert (eval_dir / "confusion.csv").exists()
        assert (eval_dir / "confusion_normalized.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverged_training_exits_numeric(self, synth_dir, split_dir, tmp_path):
        # weights overflow to inf; the non-finite last state is not written
        code = run("train", "--arch", "baseline",
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--out-dir", str(tmp_path),
                   "--lr", "1e300", "--epochs", "1", "--dropout", "0.0")
        assert code == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["stop_reason"] == "numeric_failure"
        assert not (tmp_path / "last.egomdl").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_met_in_validation_exits_numeric(self, tmp_path):
        # the epoch's one step overflows the weights; validation then fails,
        # and the finished epoch's report and best.egomdl are still written
        data = tmp_path / "data"
        assert run("synth", "--out-dir", str(data), "--sequences", "2",
                   "--frames", "3", "--seed", "1") == 0
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"test": [], "val": ["synth001"],
                                     "train": ["synth000"]}))
        out = tmp_path / "out"
        code = run("train", "--arch", "sliding", "--timestep", "4", "--hidden", "8",
                   "--manifest", str(data / "manifest.json"),
                   "--labels", str(data / "labels.txt"), "--split", str(split),
                   "--out-dir", str(out), "--lr", "1e308", "--momentum", "0",
                   "--dropout", "0", "--epochs", "3")
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert report["stop_reason"] == "numeric_failure"
        assert (len(report["epochs"]), report["best_epoch"]) == (1, 0)
        assert (out / "best.egomdl").exists()
        assert not (out / "last.egomdl").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_predict_with_overflowing_logits_exits_numeric(self, synth_dir, tmp_path):
        params = build_baseline(16, 6, seed=0).params()
        params["head.W"][:] = 1e308  # finite weights, logits beyond float64
        write_checkpoint(params, tmp_path / "model.egomdl")
        out = tmp_path / "out"
        code = run("predict", "--model", str(tmp_path / "model.egomdl"),
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"), "--out-dir", str(out))
        assert code == 3
        assert not (out / "timelines.json").exists()

    def test_sliding_schedule_flags(self, synth_dir, split_dir, tmp_path):
        # the documented timestep-15 schedule: lr 1e-4, momentum 0.9, wd 5e-6
        code = run("train", "--arch", "sliding", "--timestep", "15",
                   "--lr", "1e-4", "--momentum", "0.9",
                   "--weight-decay", "5e-6", "--epochs", "1",
                   "--hidden", "8", "--dropout", "0.0",
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--out-dir", str(tmp_path / "sl"))
        assert code == 0
        cfg = json.loads((tmp_path / "sl" / "config.json").read_text())
        assert cfg["learning_rate"] == 1e-4
        assert cfg["momentum"] == 0.9
        assert cfg["weight_decay"] == 5e-6

    def test_piggyback_two_phase_pipeline(self, synth_dir, split_dir, tmp_path):
        phase1 = tmp_path / "ph1"
        code = run("train", "--arch", "piggyback", "--timestep", "5",
                   "--overlap", "2", "--phase", "1", "--hidden", "8",
                   "--lr", "0.05", "--epochs", "1", "--dropout", "0.0",
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--out-dir", str(phase1))
        assert code == 0
        phase2 = tmp_path / "ph2"
        code = run("train", "--arch", "piggyback", "--timestep", "5",
                   "--overlap", "2", "--phase", "2", "--hidden", "8",
                   "--lr", "0.05", "--epochs", "1", "--dropout", "0.0",
                   "--init-from", str(phase1 / "best.egomdl"),
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--out-dir", str(phase2))
        assert code == 0
        code = run("predict", "--model", str(phase2 / "best.egomdl"),
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--subset", "test", "--timestep", "5", "--overlap", "2",
                   "--retention", "later", "--include-probs",
                   "--out-dir", str(tmp_path / "pb_pred"))
        assert code == 0
        timelines = json.loads((tmp_path / "pb_pred" / "timelines.json").read_text())
        assert "probs" in timelines[0]["frames"][0]

    def test_train_runs_are_reproducible(self, synth_dir, split_dir, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = run("train", "--arch", "sliding", "--timestep", "5",
                       "--hidden", "6", "--lr", "0.02", "--epochs", "2",
                       "--seed", "11",
                       "--manifest", str(synth_dir / "manifest.json"),
                       "--labels", str(synth_dir / "labels.txt"),
                       "--split", str(split_dir / "split.json"),
                       "--out-dir", str(out))
            assert code == 0
            outputs.append((out / "best.egomdl").read_bytes())
        assert outputs[0] == outputs[1]


class TestSubsetReads:
    """`predict --split` and `train` read only the days their split names."""

    @pytest.fixture()
    def data_copy(self, synth_dir, split_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        split = json.loads((split_dir / "split.json").read_text())
        model = build_baseline(16, 6, seed=2)
        checkpoint = tmp_path / "model.egomdl"
        write_checkpoint(model.params(), checkpoint)
        return data, split, checkpoint

    def predict(self, data, split_path, checkpoint, out, subset="test"):
        return run("predict", "--model", str(checkpoint),
                   "--manifest", str(data / "manifest.json"),
                   "--labels", str(data / "labels.txt"),
                   "--split", str(split_path), "--subset", subset,
                   "--out-dir", str(out))

    def test_corrupt_train_day(self, data_copy, split_dir, tmp_path):
        data, split, checkpoint = data_copy
        split_path = split_dir / "split.json"
        assert self.predict(data, split_path, checkpoint, tmp_path / "intact") == 0
        (data / "sequences" / f"{split['train'][0]}.egoseq").write_bytes(b"XXXXXXXX")
        assert self.predict(data, split_path, checkpoint, tmp_path / "corrupt") == 0
        assert (tmp_path / "corrupt" / "timelines.json").read_bytes() == \
               (tmp_path / "intact" / "timelines.json").read_bytes()
        code = run("split", "--manifest", str(data / "manifest.json"),
                   "--labels", str(data / "labels.txt"),
                   "--out-dir", str(tmp_path / "split"), "--bins", "6",
                   "--test-bins", "1", "--val-bins", "1")
        assert code == 2

    def test_corrupt_test_day_in_training(self, data_copy, split_dir, tmp_path):
        data, split, _ = data_copy
        (data / "sequences" / f"{split['test'][0]}.egoseq").write_bytes(b"XXXXXXXX")
        code = run("train", "--arch", "baseline", "--epochs", "1",
                   "--manifest", str(data / "manifest.json"),
                   "--labels", str(data / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--out-dir", str(tmp_path / "run"))
        assert code == 0

    def test_unknown_split_id(self, data_copy, tmp_path):
        data, split, checkpoint = data_copy
        split["test"] = [*split["test"], "nope"]
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(split))
        assert self.predict(data, split_path, checkpoint, tmp_path / "out") == 2

    def test_repeated_split_id_in_predict(self, data_copy, tmp_path):
        # a test day listed twice would be predicted, and then scored, twice
        data, split, checkpoint = data_copy
        split["test"] = [split["test"][0]] * 2
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(split))
        assert self.predict(data, split_path, checkpoint, tmp_path / "out") == 2
        assert not (tmp_path / "out" / "timelines.json").exists()

    @pytest.mark.parametrize("where", ["within_train", "train_and_val"])
    def test_repeated_split_id_in_train(self, data_copy, tmp_path, where):
        data, split, _ = data_copy
        if where == "within_train":
            split["train"] = [*split["train"], split["train"][0]]
        else:
            split["val"] = [*split["val"], split["train"][0]]
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(split))
        code = run("train", "--arch", "baseline", "--epochs", "1",
                   "--manifest", str(data / "manifest.json"),
                   "--labels", str(data / "labels.txt"),
                   "--split", str(split_path), "--out-dir", str(tmp_path / "run"))
        assert code == 2
        assert not (tmp_path / "run").exists()

    def test_empty_subset_predicts_nothing(self, data_copy, tmp_path):
        data, split, checkpoint = data_copy
        split["test"] = []
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(split))
        assert self.predict(data, split_path, checkpoint, tmp_path / "out") == 0
        assert json.loads((tmp_path / "out" / "timelines.json").read_text()) == []

    @staticmethod
    def reordered_split(tmp_path, test):
        """A split whose test days are `test`, in that order."""
        ids = [f"synth{k:03d}" for k in range(8)]
        rest = [sid for sid in ids if sid not in test]
        split_path = tmp_path / "reordered.json"
        split_path.write_text(json.dumps({"test": test, "val": rest[:1],
                                          "train": rest[1:]}))
        return split_path

    def test_timelines_follow_the_split_order(self, data_copy, tmp_path):
        data, _, checkpoint = data_copy
        test = ["synth006", "synth001", "synth004"]
        split_path = self.reordered_split(tmp_path, test)
        assert self.predict(data, split_path, checkpoint, tmp_path / "out") == 0
        got = json.loads((tmp_path / "out" / "timelines.json").read_text())
        assert [t["sequence_id"] for t in got] == test
        # each day's timeline is the one `predict` without --split writes
        assert run("predict", "--model", str(checkpoint),
                   "--manifest", str(data / "manifest.json"),
                   "--labels", str(data / "labels.txt"),
                   "--out-dir", str(tmp_path / "all")) == 0
        every = json.loads((tmp_path / "all" / "timelines.json").read_text())
        assert [t["sequence_id"] for t in every] == [f"synth{k:03d}" for k in range(8)]
        by_id = {t["sequence_id"]: t for t in every}
        assert got == [by_id[sid] for sid in test]

    def test_subset_day_of_another_feature_dim(self, data_copy, tmp_path):
        # the last day read is the bad one: the others are already predicted
        data, _, checkpoint = data_copy
        split_path = self.reordered_split(tmp_path, ["synth006", "synth001", "synth004"])
        bad_day(data / "sequences" / "synth006.egoseq", "feature_dim")
        out = tmp_path / "out"
        assert self.predict(data, split_path, checkpoint, out) == 2
        assert not (out / "timelines.json").exists()

    def test_reads_only_the_subset(self, data_copy, tmp_path, monkeypatch):
        data, split, checkpoint = data_copy
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(split))
        assert self.predict(data, split_path, checkpoint, tmp_path / "intact") == 0
        for sid in split["train"] + split["val"]:
            (data / "sequences" / f"{sid}.egoseq").write_bytes(b"XXXXXXXX")
        read = []

        def counting(path, *args, **kwargs):
            read.append(kwargs["sequence_id"])
            return read_sequence_file(path, *args, **kwargs)

        monkeypatch.setattr(datamodel, "read_sequence_file", counting)
        assert self.predict(data, split_path, checkpoint, tmp_path / "corrupt") == 0
        assert sorted(read) == sorted(split["test"])
        assert (tmp_path / "corrupt" / "timelines.json").read_bytes() == \
               (tmp_path / "intact" / "timelines.json").read_bytes()


class TestOneDayAtATime:
    """`split`, `predict` and `train` drop each day before they read the next."""

    @pytest.fixture()
    def earlier_day_alive(self, monkeypatch):
        """For each day read, whether a day read before it was still alive."""
        refs, alive = [], []

        def watched(*args, **kwargs):
            alive.append(any(ref() is not None for ref in refs))
            day = read_sequence_file(*args, **kwargs)
            refs.append(weakref.ref(day))
            return day

        monkeypatch.setattr(datamodel, "read_sequence_file", watched)
        return alive

    def test_split(self, synth_dir, tmp_path, earlier_day_alive):
        assert run("split", "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--out-dir", str(tmp_path), "--bins", "6",
                   "--test-bins", "1", "--val-bins", "1") == 0
        assert earlier_day_alive == [False] * 8

    def test_predict(self, synth_dir, tmp_path, earlier_day_alive):
        # the carried piggyback pass keeps each day's embedded rows, not the day
        for name, model in (("baseline", build_baseline(16, 6, seed=2)),
                            ("piggyback", build_piggyback(16, 6, hidden=4, seed=2))):
            checkpoint = tmp_path / f"{name}.egomdl"
            write_checkpoint(model.params(), checkpoint)
            earlier_day_alive.clear()
            assert run("predict", "--model", str(checkpoint), "--overlap", "2",
                       "--manifest", str(synth_dir / "manifest.json"),
                       "--labels", str(synth_dir / "labels.txt"),
                       "--out-dir", str(tmp_path / name)) == 0
            assert earlier_day_alive == [False] * 8

    @pytest.mark.parametrize("arch, phase", [("baseline", 1), ("sliding", 1),
                                             ("piggyback", 1), ("piggyback", 2)])
    def test_train(self, synth_dir, tmp_path, earlier_day_alive, arch, phase):
        ids = [f"synth{k:03d}" for k in range(8)]  # two val days, five train days
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps({"test": ids[:1], "val": ids[1:3],
                                          "train": ids[3:]}))
        checkpoint = tmp_path / "phase1.egomdl"
        write_checkpoint(build_piggyback(16, 6, hidden=4, seed=2).params(), checkpoint)
        init = ["--init-from", str(checkpoint)] if phase == 2 else []
        out = tmp_path / "out"
        assert run("train", "--arch", arch, "--timestep", "5", "--overlap", "2",
                   "--phase", str(phase), "--hidden", "4", "--epochs", "2", *init,
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_path), "--out-dir", str(out)) == 0
        assert len(json.loads((out / "report.json").read_text())["epochs"]) == 2
        # one check pass, then every train and val day once per epoch
        assert earlier_day_alive == [False] * (7 + 2 * 7)


class TestDayChangedAfterTheCheck:
    """`train` checks every train and val day once, then reads each again,
    with all of `read_sequence_file`'s checks, whenever it trains or
    validates on it. A day that changes on disk after the check pass trains
    as it now reads, or exits 2 with nothing written under --out-dir."""

    FLAGS = {"baseline": [], "sliding": ["--timestep", "3"],
             "piggyback": ["--timestep", "5", "--overlap", "2"]}

    @pytest.fixture()
    def data(self, synth_dir, split_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        return data, json.loads((split_dir / "split.json").read_text())

    @staticmethod
    def change_after_check(monkeypatch, change):
        """Run `change()` once `train`'s check pass has read every day."""
        check = cli._checked_days

        def checked_then_changed(manifest):
            dataset = check(manifest)
            change()
            return dataset

        monkeypatch.setattr(cli, "_checked_days", checked_then_changed)

    def train(self, data, split_dir, arch, out):
        return run("train", "--arch", arch, *self.FLAGS[arch], "--hidden", "4",
                   "--epochs", "2", "--dropout", "0.0",
                   "--manifest", str(data / "manifest.json"),
                   "--labels", str(data / "labels.txt"),
                   "--split", str(split_dir / "split.json"), "--out-dir", str(out))

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("where, damage", [("train", "feature_dim"),
                                               ("train", "nan_feature"),
                                               ("train", "label_beyond_k"),
                                               ("val", "feature_dim")])
    def test_a_day_that_no_longer_passes_exits_2(self, data, split_dir, tmp_path,
                                                 monkeypatch, arch, where, damage):
        data, split = data
        path = data / "sequences" / f"{split[where][0]}.egoseq"
        self.change_after_check(monkeypatch, lambda: bad_day(path, damage))
        out = tmp_path / "out"
        assert self.train(data, split_dir, arch, out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_a_day_that_still_passes_trains_as_it_reads(self, data, split_dir,
                                                        tmp_path, monkeypatch, arch):
        data, split = data
        path = data / "sequences" / f"{split['train'][0]}.egoseq"
        original = path.read_bytes()
        day = read_sequence_file(path, egobatch.read_labels_file(data / "labels.txt"))
        shorter = DaySequence(day.sequence_id, day.user_id, day.features[:25],
                              day.labels[:25])
        write_sequence_file(shorter, path)
        assert self.train(data, split_dir, arch, tmp_path / "before") == 0
        path.write_bytes(original)
        self.change_after_check(monkeypatch,
                                lambda: write_sequence_file(shorter, path))
        assert self.train(data, split_dir, arch, tmp_path / "after") == 0
        for name in ("best.egomdl", "last.egomdl", "report.json"):
            assert (tmp_path / "after" / name).read_bytes() == \
                   (tmp_path / "before" / name).read_bytes()


class TestShortDays:
    """A day of at most m frames is one right-padded batch with no carry."""

    @pytest.fixture()
    def short_day_data(self, synth_dir, tmp_path):
        data = load_dataset(synth_dir / "manifest.json", synth_dir / "labels.txt")
        first = data.sequences[0]
        short = DaySequence("short", first.user_id, first.features[:3],
                            first.labels[:3])
        manifest = tmp_path / "manifest.json"
        write_manifest(Dataset(data.label_set, [*data.sequences, short]),
                       manifest, tmp_path / "sequences")
        ids = [seq.sequence_id for seq in data.sequences]
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"train": [*ids[:5], "short"],
                                     "val": ids[5:7], "test": ids[7:]}))
        model = build_piggyback(data.feature_dim, data.label_set.size, hidden=8,
                                seed=4)
        checkpoint = tmp_path / "piggyback.egomdl"
        write_checkpoint(model.params(), checkpoint)
        return manifest, split, checkpoint

    def test_predict_covers_a_short_day_once(self, synth_dir, short_day_data,
                                             tmp_path):
        manifest, _, checkpoint = short_day_data
        code = run("predict", "--model", str(checkpoint),
                   "--manifest", str(manifest),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--timestep", "5", "--overlap", "3",
                   "--out-dir", str(tmp_path / "pred"))
        assert code == 0
        timelines = json.loads((tmp_path / "pred" / "timelines.json").read_text())
        short = [t for t in timelines if t["sequence_id"] == "short"]
        assert len(short) == 1
        assert [f["index"] for f in short[0]["frames"]] == [0, 1, 2]

    def test_phase2_trains_on_a_short_day(self, synth_dir, short_day_data, tmp_path):
        manifest, split, checkpoint = short_day_data
        code = run("train", "--arch", "piggyback", "--timestep", "5",
                   "--overlap", "3", "--phase", "2", "--hidden", "8",
                   "--lr", "0.05", "--epochs", "1", "--dropout", "0.0",
                   "--init-from", str(checkpoint),
                   "--manifest", str(manifest),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split), "--out-dir", str(tmp_path / "ph2"))
        assert code == 0
        assert (tmp_path / "ph2" / "last.egomdl").exists()


class TestGradcheckCommand:
    def test_seed_seven_passes(self, tmp_path):
        code = run("gradcheck", "--seed", "7", "--out-dir", str(tmp_path))
        assert code == 0
        obj = json.loads((tmp_path / "gradcheck.json").read_text())
        assert obj["passed"] is True
        assert obj["max_rel_error"] < 1e-5

    def test_impossible_tolerance_fails_with_exit_3(self):
        assert run("gradcheck", "--seed", "0", "--tolerance", "1e-18") == 3

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
    def test_tolerance_must_be_positive_and_finite(self, tmp_path, tolerance,
                                                   monkeypatch, capsys):
        def no_check(*args, **kwargs):
            raise AssertionError("a gradient check ran")

        monkeypatch.setattr(cli, "grad_check", no_check)
        assert run("gradcheck", "--tolerance", tolerance, "--out-dir", str(tmp_path)) == 1
        assert "--tolerance must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "gradcheck.json").exists()

    def test_every_coordinate_is_checked(self, tmp_path):
        assert run("gradcheck", "--seed", "0", "--out-dir", str(tmp_path)) == 0
        obj = json.loads((tmp_path / "gradcheck.json").read_text())
        assert [a["architecture"] for a in obj["architectures"]] == list(ARCHITECTURES)
        for arch in obj["architectures"]:
            # gradcheck's models: 6 features, 4 classes, hidden 5
            model = build_stack(arch["architecture"], 6, 4, hidden=5)
            assert {t["name"]: t["coords_checked"] for t in arch["tensors"]} == \
                {name: w.size for name, w in model.params().items()}


class TestArchitectureBoundaries:
    """A checkpoint that does not fit the command's data or flags exits 2
    before anything is written."""

    # the command's own check, not a layer's shape check later on
    ERRORS = {"architecture": "checkpoint holds a 'sliding' model",
              "classes": "class count does not match the label set",
              "width": "input width does not match"}

    @pytest.mark.parametrize("mismatch", ["architecture", "classes", "width"])
    def test_train_init_from_another_model(self, synth_dir, split_dir, tmp_path,
                                           mismatch, capsys):
        data = load_dataset(synth_dir / "manifest.json", synth_dir / "labels.txt")
        dim, classes = data.feature_dim, data.label_set.size
        model = {"architecture": build_sliding(dim, classes, hidden=4),
                 "classes": build_baseline(dim, classes + 1),
                 "width": build_baseline(dim + 1, classes)}[mismatch]
        checkpoint = tmp_path / "model.egomdl"
        write_checkpoint(model.params(), checkpoint)
        out = tmp_path / "out"
        code = run("train", "--arch", "baseline", "--epochs", "1",
                   "--init-from", str(checkpoint),
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"), "--out-dir", str(out))
        assert code == 2
        assert not (out / "best.egomdl").exists()
        assert self.ERRORS[mismatch] in capsys.readouterr().err

    @pytest.mark.parametrize("mismatch", ["missing", "architecture", "classes", "width"])
    def test_train_checks_a_checkpoint_before_reading_days(self, synth_dir, split_dir,
                                                           tmp_path, mismatch,
                                                           monkeypatch):
        # the width is known only once the days are checked; the rest is not
        split = json.loads((split_dir / "split.json").read_text())
        checkpoint = tmp_path / "model.egomdl"
        if mismatch != "missing":
            model = {"architecture": build_sliding(16, 6, hidden=4),
                     "classes": build_baseline(16, 7),
                     "width": build_baseline(17, 6)}[mismatch]
            write_checkpoint(model.params(), checkpoint)
        read = []

        def counting(path, *args, **kwargs):
            read.append(kwargs["sequence_id"])
            return read_sequence_file(path, *args, **kwargs)

        monkeypatch.setattr(datamodel, "read_sequence_file", counting)
        code = run("train", "--arch", "baseline", "--epochs", "1",
                   "--init-from", str(checkpoint),
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert read == (split["train"] + split["val"] if mismatch == "width" else [])

    @pytest.mark.parametrize("mismatch", ["classes", "width"])
    def test_predict_another_model(self, synth_dir, tmp_path, mismatch, capsys):
        data = load_dataset(synth_dir / "manifest.json", synth_dir / "labels.txt")
        dim, classes = data.feature_dim, data.label_set.size
        model = {"classes": build_piggyback(dim, classes + 1, hidden=4),
                 "width": build_piggyback(dim + 1, classes, hidden=4)}[mismatch]
        checkpoint = tmp_path / "model.egomdl"
        write_checkpoint(model.params(), checkpoint)
        out = tmp_path / "out"
        code = run("predict", "--model", str(checkpoint),
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"), "--out-dir", str(out))
        assert code == 2
        assert not (out / "timelines.json").exists()
        assert self.ERRORS[mismatch] in capsys.readouterr().err


class TestPredictReproducesValidation:
    """`predict` of `best.egomdl` on the val days, at the training run's
    timestep and overlap, gives the best epoch's validation loss bit for bit."""

    def train(self, synth_dir, split_dir, out, *flags):
        code = run("train", *flags, "--hidden", "6", "--lr", "0.05", "--epochs", "2",
                   "--dropout", "0.25", "--seed", "4",
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"), "--out-dir", str(out))
        assert code == 0
        return out

    @pytest.mark.parametrize("run_kind", ["sliding", "phase1", "phase2"])
    def test_val_loss_from_predicted_probabilities(self, synth_dir, split_dir, tmp_path,
                                                   run_kind):
        piggyback = ["--arch", "piggyback", "--timestep", "5", "--overlap", "2"]
        if run_kind == "sliding":
            trained = self.train(synth_dir, split_dir, tmp_path / "sl",
                                 "--arch", "sliding", "--timestep", "5")
        else:
            trained = self.train(synth_dir, split_dir, tmp_path / "pb1", *piggyback,
                                 "--phase", "1")
        if run_kind == "phase2":
            trained = self.train(synth_dir, split_dir, tmp_path / "pb2", *piggyback,
                                 "--phase", "2",
                                 "--init-from", str(trained / "best.egomdl"))
        # phase 1 trains and validates carry-free, so it is predicted at m = 0
        overlap = "0" if run_kind == "phase1" else "2"
        code = run("predict", "--model", str(trained / "best.egomdl"),
                   "--timestep", "5", "--overlap", overlap,
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"), "--subset", "val",
                   "--include-probs", "--out-dir", str(tmp_path / "pred"))
        assert code == 0
        timelines = json.loads((tmp_path / "pred" / "timelines.json").read_text())
        split = json.loads((split_dir / "split.json").read_text())
        assert [t["sequence_id"] for t in timelines] == split["val"]
        total, frames = 0.0, 0
        for timeline in timelines:
            probs = np.array([f["probs"] for f in timeline["frames"]])
            true = np.array([f["true"] for f in timeline["frames"]])
            p_true = probs[np.arange(len(true)), true]
            total += float(-np.log(np.maximum(p_true, 1e-300)).sum())
            frames += len(true)
        report = json.loads((trained / "report.json").read_text())
        assert report["best_epoch"] >= 0
        assert total / frames == report["epochs"][report["best_epoch"]]["val_loss"]


class TestRepeatedDispatch:
    def test_each_dispatch_exits_as_a_fresh_process_would(self, synth_dir, tmp_path,
                                                          monkeypatch):
        """One process builds one parser for all its dispatches: a run with
        non-default flags, then a usage error part-way through parsing, then a
        run with the defaults each exit and write as in a fresh process."""
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._shared_parser.cache_clear()
        split = ["split", "--manifest", str(synth_dir / "manifest.json"),
                 "--labels", str(synth_dir / "labels.txt"), "--bins", "6",
                 "--test-bins", "1", "--val-bins", "1"]
        runs = [split + ["--stage2-reference", "rest", "--capacity", "120"],
                split + ["--bins", "six"],
                split]
        env = dict(os.environ, PYTHONPATH=str(Path(egobatch.__file__).parents[1]))
        for number, argv in enumerate(runs):
            here, fresh = tmp_path / f"here{number}", tmp_path / f"fresh{number}"
            code = run(*argv, "--out-dir", str(here))
            done = subprocess.run([sys.executable, "-m", "egobatch", *argv,
                                   "--out-dir", str(fresh)], env=env,
                                  capture_output=True, timeout=120)
            assert code == done.returncode == (1 if number == 1 else 0)
            for name in ("split.json", "config.json"):
                assert (here / name).exists() == (fresh / name).exists()
                if (here / name).exists():
                    assert (here / name).read_bytes() == (fresh / name).read_bytes()
        assert len(built) == 1


class TestConfigJson:
    """`synth`, `split`, `eval` and `gradcheck` record the command and their
    flags in parser order, without --out-dir; `train` records the hidden
    size of the model it trained."""

    @staticmethod
    def config(out):
        return list(json.loads((out / "config.json").read_text()).items())

    def test_parsed_flags(self, tmp_path):
        data, split, scored = tmp_path / "data", tmp_path / "split", tmp_path / "eval"
        assert run("synth", "--out-dir", str(data), "--seed", "4", "--frames", "12",
                   "--sequences", "6", "--classes", "5", "--feature-dim", "4",
                   "--ambiguous", "2", "3", "--context", "1", "0",
                   "--self-transition", "0.7", "--noise-sigma", "0.2",
                   "--mean-scale", "1.5") == 0
        assert self.config(data) == [
            ("command", "synth"), ("classes", 5), ("feature_dim", 4),
            ("ambiguous", [2, 3]), ("context", [1, 0]), ("self_transition", 0.7),
            ("noise_sigma", 0.2), ("mean_scale", 1.5), ("sequences", 6),
            ("frames", 12), ("seed", 4)]

        manifest, labels = str(data / "manifest.json"), str(data / "labels.txt")
        assert run("split", "--stage2-reference", "rest", "--capacity", "30",
                   "--val-bins", "1", "--test-bins", "1", "--bins", "3",
                   "--out-dir", str(split), "--labels", labels,
                   "--manifest", manifest) == 0
        assert self.config(split) == [
            ("command", "split"), ("manifest", manifest), ("labels", labels),
            ("bins", 3), ("test_bins", 1), ("val_bins", 1), ("capacity", 30),
            ("stage2_reference", "rest")]

        timelines = tmp_path / "timelines.json"
        timelines.write_text(json.dumps([{"sequence_id": "s", "frames": [
            {"index": 0, "true": 0, "pred": 1}]}]))
        assert run("eval", "--out-dir", str(scored), "--labels", labels,
                   "--timelines", str(timelines)) == 0
        assert self.config(scored) == [
            ("command", "eval"), ("timelines", str(timelines)), ("labels", labels)]

    def test_gradcheck_flags(self, tmp_path):
        assert run("gradcheck", "--out-dir", str(tmp_path), "--tolerance", "1e-4",
                   "--epsilon", "2e-5", "--seed", "3") == 0
        assert self.config(tmp_path) == [
            ("command", "gradcheck"), ("seed", 3), ("epsilon", 2e-5),
            ("tolerance", 1e-4)]

    @pytest.mark.parametrize("arch, hidden", [("baseline", None), ("piggyback", 8)])
    def test_train_records_the_hidden_size_it_trained(self, synth_dir, split_dir,
                                                      tmp_path, arch, hidden):
        # phase 2 starts from an h8 checkpoint, and --hidden (default 256)
        # is ignored; the baseline has no recurrent layer
        data = ["--manifest", str(synth_dir / "manifest.json"),
                "--labels", str(synth_dir / "labels.txt"),
                "--split", str(split_dir / "split.json"),
                "--epochs", "1", "--dropout", "0"]
        flags = []
        if arch == "piggyback":
            assert run("train", "--arch", arch, "--timestep", "5", "--overlap", "2",
                       "--hidden", "8", *data, "--out-dir", str(tmp_path / "pb1")) == 0
            flags = ["--timestep", "5", "--overlap", "2", "--phase", "2",
                     "--init-from", str(tmp_path / "pb1" / "best.egomdl")]
        assert run("train", "--arch", arch, *flags, *data,
                   "--out-dir", str(tmp_path / "out")) == 0
        config = json.loads((tmp_path / "out" / "config.json").read_text())
        assert list(config)[4] == "hidden"
        assert config["hidden"] == hidden

    def test_train_without_rate_or_epochs_records_the_schedule(self, synth_dir, split_dir,
                                                                tmp_path):
        # sliding at T = 15 trains 2 epochs at 1e-4
        assert run("train", "--arch", "sliding", "--timestep", "15", "--hidden", "4",
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--out-dir", str(tmp_path)) == 0
        config = json.loads((tmp_path / "config.json").read_text())
        assert (config["learning_rate"], config["epochs"]) == (1e-4, 2)
        assert len(json.loads((tmp_path / "report.json").read_text())["epochs"]) == 2

    @pytest.mark.parametrize("split, subset, days", [(False, None, 8), (True, "val", 1)])
    def test_predict_records_the_subset_it_predicted(self, synth_dir, split_dir, tmp_path,
                                                     split, subset, days):
        # without --split every day would be predicted, so --subset is refused
        checkpoint = tmp_path / "model.egomdl"
        write_checkpoint(build_baseline(16, 6, seed=2).params(), checkpoint)
        flags = ["--split", str(split_dir / "split.json")] if split else []
        code = run("predict", "--model", str(checkpoint), *flags, "--subset", "val",
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--out-dir", str(tmp_path / "out"))
        if not split:
            assert code == 1
            assert not (tmp_path / "out").exists()
            return
        assert code == 0
        config = json.loads((tmp_path / "out" / "config.json").read_text())
        assert config["subset"] == subset
        assert len(json.loads((tmp_path / "out" / "timelines.json").read_text())) == days

    def test_predict_with_split_and_no_subset_predicts_the_test_days(
            self, synth_dir, split_dir, tmp_path):
        checkpoint = tmp_path / "model.egomdl"
        write_checkpoint(build_baseline(16, 6, seed=2).params(), checkpoint)
        assert run("predict", "--model", str(checkpoint),
                   "--split", str(split_dir / "split.json"),
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--out-dir", str(tmp_path / "out")) == 0
        config = json.loads((tmp_path / "out" / "config.json").read_text())
        assert config["subset"] == "test"
        timelines = json.loads((tmp_path / "out" / "timelines.json").read_text())
        split = json.loads((split_dir / "split.json").read_text())
        assert [t["sequence_id"] for t in timelines] == split["test"]


def no_grad_check(*args, **kwargs):
    raise AssertionError("a gradient check ran")


class TestNegativeSeed:
    """A seed below 0 is a config error before anything is written."""

    @pytest.mark.parametrize("command", ["synth", "train", "gradcheck"])
    def test_exits_1_and_writes_nothing(self, synth_dir, split_dir, tmp_path, command,
                                        monkeypatch, capsys):
        monkeypatch.setattr(cli, "grad_check", no_grad_check)
        out = tmp_path / "out"
        extra = {"train": ["--arch", "baseline",
                           "--manifest", str(synth_dir / "manifest.json"),
                           "--labels", str(synth_dir / "labels.txt"),
                           "--split", str(split_dir / "split.json")]}.get(command, [])
        assert run(command, *extra, "--seed", "-1", "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed must be >= 0, got -1" in err
        assert not out.exists()


def egoseq_header(length, dim, flags):
    """A `.egoseq` file's magic and header, with one frame of one feature
    and its label after it."""
    return (b"EGOSEQ01" + struct.pack("<IIB", length, dim, flags)
            + struct.pack("<fH", 0.5, 0))


class TestRefusals:
    """Each refusal exits with its code and names what is wrong."""

    @pytest.mark.parametrize("flags, error", [
        (["--classes", "1"], "need at least two classes"),
        (["--sequences", "0"], "need at least one sequence and one frame"),
        (["--context", "0", "6"], "context predecessors must be class ids < K")])
    def test_synth(self, tmp_path, flags, error, capsys):
        out = tmp_path / "out"
        assert run("synth", "--out-dir", str(out), *flags) == 1
        assert f"error: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, error", [
        ("--epochs", "epochs must be >= 1"),
        ("--patience", "patience must be >= 1"),
        ("--timestep", "timestep must be >= 1")])
    def test_train(self, synth_dir, split_dir, tmp_path, flag, error, capsys):
        out = tmp_path / "out"
        assert run("train", "--arch", "baseline", flag, "0",
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"), "--out-dir", str(out)) == 1
        assert f"error: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("flags, error", [
        (["--timestep", "0"], "--timestep must be >= 1, got 0"),
        (["--timestep", "-2", "--overlap", "-3"], "--timestep must be >= 1, got -2"),
        (["--overlap", "-1"], "--overlap must be >= 0, got -1"),
        (["--timestep", "3", "--overlap", "3"], "a piggyback model needs --overlap below "
                                                "--timestep, got --timestep 3 --overlap 3"),
        (["--timestep", "3", "--overlap", "7"], "a piggyback model needs --overlap below "
                                                "--timestep, got --timestep 3 --overlap 7")])
    def test_predict_flags_before_any_day(self, synth_dir, split_dir, tmp_path,
                                          monkeypatch, arch, flags, error, capsys):
        checkpoint = tmp_path / "model.egomdl"
        write_checkpoint(build_stack(arch, 16, 6, hidden=4, seed=0).params(), checkpoint)

        def no_day(*args, **kwargs):
            raise AssertionError("a day was read")

        monkeypatch.setattr(datamodel, "read_sequence_file", no_day)
        out = tmp_path / "out"
        argv = ["predict", "--model", str(checkpoint),
                "--manifest", str(synth_dir / "manifest.json"),
                "--labels", str(synth_dir / "labels.txt"),
                "--split", str(split_dir / "split.json"), "--out-dir", str(out), *flags]
        if error.startswith("a piggyback") and arch != "piggyback":
            # the other stacks ignore the overlap
            monkeypatch.undo()
            assert run(*argv) == 0
            assert (out / "timelines.json").is_file()
            return
        assert run(*argv) == 1
        assert f"error: {error}" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_beyond_float32_warns_nothing(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("synth", "--out-dir", str(tmp_path / "out"), "--mean-scale", "1e39",
                       "--sequences", "1", "--frames", "4") == 2
        assert capsys.readouterr().err == "error: feature value overflows float32 storage\n"
        assert caught == []

    def test_split_into_no_bins(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("split", "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"), "--out-dir", str(out),
                   "--bins", "0", "--test-bins", "1", "--val-bins", "1") == 1
        assert "error: bin counts must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("header, error", [
        ((0, 1, 0), "header declares empty matrix L=0 D=1"),
        ((1, 0, 0), "header declares empty matrix L=1 D=0"),
        ((1, 1, 0x02), "unknown flag bits 0x02")])
    def test_egoseq_header(self, synth_dir, tmp_path, header, error, capsys):
        day = tmp_path / "day.egoseq"
        day.write_bytes(egoseq_header(*header))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            [{"sequence_id": "s", "user_id": "u", "path": "day.egoseq"}]))
        out = tmp_path / "out"
        assert run("split", "--manifest", str(manifest),
                   "--labels", str(synth_dir / "labels.txt"), "--out-dir", str(out),
                   "--bins", "4", "--test-bins", "1", "--val-bins", "1") == 2
        assert f"error: {day}: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("what", ["manifest", "timelines"])
    def test_json_that_is_not_an_array(self, synth_dir, tmp_path, what, capsys):
        broken = tmp_path / f"{what}.json"
        broken.write_text('{"sequence_id": "s"}\n')
        out = tmp_path / "out"
        labels = str(synth_dir / "labels.txt")
        if what == "manifest":
            argv = ["split", "--manifest", str(broken), "--labels", labels,
                    "--bins", "4", "--test-bins", "1", "--val-bins", "1"]
            error = "manifest must be a JSON array"
        else:
            argv = ["eval", "--timelines", str(broken), "--labels", labels]
            error = "expected a JSON array of timelines"
        assert run(*argv, "--out-dir", str(out)) == 2
        assert f"error: {broken}: {error}" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_path_with_a_nul_byte(self, synth_dir, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"sequence_id": "s", "path": "x\u0000.egoseq"}]))
        out = tmp_path / "out"
        assert run("split", "--manifest", str(manifest),
                   "--labels", str(synth_dir / "labels.txt"), "--bins", "4",
                   "--test-bins", "1", "--val-bins", "1", "--out-dir", str(out)) == 2
        assert "the path must be a string without NUL bytes" in capsys.readouterr().err
        assert not out.exists()

    def test_labels_beyond_u16_ids(self, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"c{k}\n" for k in range(65537)))
        timelines = tmp_path / "timelines.json"
        timelines.write_text("[]\n")
        out = tmp_path / "out"
        assert run("eval", "--timelines", str(timelines), "--labels", str(labels),
                   "--out-dir", str(out)) == 2
        assert "error: at most 65536 categories (u16 label ids)" in \
            capsys.readouterr().err
        assert not out.exists()
