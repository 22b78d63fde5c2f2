import json

import pytest

from egobatch import (
    Dataset,
    DaySequence,
    build_piggyback,
    load_dataset,
    write_checkpoint,
    write_manifest,
)
from egobatch.cli import dispatch


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

    def test_bad_value_type(self):
        assert run("synth", "--out-dir", "x", "--sequences", "lots") == 1

    @pytest.mark.parametrize("empty", ["train", "val"])
    def test_empty_split_list(self, synth_dir, split_dir, tmp_path, empty):
        split = json.loads((split_dir / "split.json").read_text())
        split[empty] = []
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

    def test_phase2_without_checkpoint(self, synth_dir, split_dir, tmp_path):
        code = run("train", "--arch", "piggyback", "--timestep", "5",
                   "--overlap", "2", "--phase", "2",
                   "--manifest", str(synth_dir / "manifest.json"),
                   "--labels", str(synth_dir / "labels.txt"),
                   "--split", str(split_dir / "split.json"),
                   "--out-dir", str(tmp_path))
        assert code == 2


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
