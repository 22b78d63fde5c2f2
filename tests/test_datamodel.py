import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egobatch import (
    ConfigError,
    DataError,
    DayLabels,
    DaySequence,
    FormatError,
    LabelSet,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    read_labels_file,
    read_manifest,
    read_sequence_file,
    select_split,
    synthetic_days,
    write_labels_file,
    write_manifest,
    write_sequence_file,
)
from egobatch import cli
from egobatch.datamodel import class_means
from oracles import reference_write_sequence_file


def make_seq(features, labels, sid="seq0", user="u1", timestamps=None):
    return DaySequence(sid, user, np.asarray(features, dtype=np.float64),
                       np.asarray(labels), timestamps=timestamps)


LABELS_AB = LabelSet(("a", "b"))


class TestLabelSet:
    def test_size_and_ids(self):
        ls = LabelSet(("walking", "eating", "working"))
        assert ls.size == 3
        assert ls.names.index("eating") == 1

    def test_rejects_duplicates(self):
        with pytest.raises(DataError):
            LabelSet(("a", "a"))

    def test_rejects_empty_name(self):
        with pytest.raises(DataError):
            LabelSet(("a", ""))

    def test_rejects_a_name_that_is_not_one_line(self):
        # labels.txt breaks lines at \r and \n and refuses a blank line
        for name in ("a\rb", "b\r\n", "x\ny", "\n", " ", "\t \x0c"):
            with pytest.raises(DataError):
                LabelSet(("c", name))

    def test_rejects_single_category(self):
        with pytest.raises(DataError):
            LabelSet(("only",))

    def test_labels_file_round_trip(self, tmp_path):
        ls = LabelSet(("cooking at home", "watching tv", "commuting"))
        path = tmp_path / "labels.txt"
        write_labels_file(ls, path)
        assert read_labels_file(path) == ls

    def test_labels_file_breaks_lines_only_at_newline(self, tmp_path):
        # str.splitlines would also break at each of these inside a name
        ls = LabelSet(("walk\u2028ing", "cook\x0cing", "eat", "a\x0bb\x85c",
                       "x\x1cy\x1dz\x1e", "line\u2029sep"))
        path = tmp_path / "labels.txt"
        write_labels_file(ls, path)
        back = read_labels_file(path)
        assert back == ls
        assert back.names.index("eat") == 2

    def test_labels_file_trailing_newline_optional(self, tmp_path):
        path = tmp_path / "labels.txt"
        for text in ("a\nb\nc\n", "a\nb\nc"):
            path.write_text(text, encoding="utf-8")
            assert read_labels_file(path) == LabelSet(("a", "b", "c"))

    def test_labels_file_blank_line_rejected(self, tmp_path):
        # dropping the line would shift every later id by one
        path = tmp_path / "labels.txt"
        for text in ("a\n\nb\nc\n", "a\n  \nb\n", "\na\nb\n", "a\nb\n\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(FormatError):
                read_labels_file(path)


class TestDaySequence:
    def test_float32_features_kept_others_float64(self):
        feats32 = np.array([[1.5, -2.25]], dtype=np.float32)
        assert DaySequence("s", "u", feats32, [0]).features is feats32
        feats64 = np.array([[1.5, -2.25]])
        assert DaySequence("s", "u", feats64, [0]).features is feats64
        for other in ([[1, 2]], np.array([[1, 2]], dtype=np.float16),
                      np.array([[1, 2]], dtype=">f4")):
            day = DaySequence("s", "u", other, [0])
            assert day.features.dtype == np.float64
            assert day.features.tolist() == [[1.0, 2.0]]

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DataError):
            make_seq([[1.0, 2.0]], [0, 1])

    def test_rejects_non_finite_features(self):
        with pytest.raises(DataError):
            make_seq([[np.inf]], [0])

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(DataError):
            make_seq([[1.0], [2.0]], [0, 0], timestamps=[10, 5])

    def test_rejects_timestamps_beyond_u32(self, tmp_path):
        # .egoseq stores u32 minutes: 2**32 + 7 would be written as 7
        with pytest.raises(DataError):
            make_seq([[1.0], [2.0]], [0, 0], timestamps=[5, 2**32 + 7])
        seq = make_seq([[1.0], [2.0]], [0, 0], timestamps=[5, 2**32 - 1])
        write_sequence_file(seq, tmp_path / "s.egoseq")
        back = read_sequence_file(tmp_path / "s.egoseq", LABELS_AB)
        assert back.timestamps.tolist() == [5, 2**32 - 1]
        seq.timestamps[-1] = 2**32 + 7  # validate runs again before writing
        with pytest.raises(DataError):
            write_sequence_file(seq, tmp_path / "s.egoseq")


class TestSequenceFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(3, 4)).astype(np.float32).astype(np.float64)
        seq = make_seq(feats, [0, 1, 0], timestamps=[60, 61, 75])
        path = tmp_path / "s.egoseq"
        write_sequence_file(seq, path)
        back = read_sequence_file(path, LABELS_AB)
        assert np.array_equal(back.features, seq.features)
        assert np.array_equal(back.labels, seq.labels)
        assert np.array_equal(back.timestamps, seq.timestamps)

    def test_features_read_as_the_float32_written(self, tmp_path):
        rng = np.random.default_rng(1)
        seq = make_seq(rng.normal(size=(5, 3)), [0, 1, 1, 0, 1])
        path = tmp_path / "s.egoseq"
        write_sequence_file(seq, path)
        back = read_sequence_file(path, LABELS_AB)
        assert back.features.dtype == np.float32
        assert back.features.flags.writeable and back.features.flags.aligned
        header = len(b"EGOSEQ01") + 4 + 4 + 1
        assert back.features.tobytes() == path.read_bytes()[header:header + 5 * 3 * 4]

    def test_minimal_file_is_23_bytes(self, tmp_path):
        # header 8 + 4 + 4 + 1, one float32 feature, one u16 label
        expected = len(b"EGOSEQ01") + 4 + 4 + 1 + 1 * 1 * 4 + 1 * 2
        assert expected == 23
        path = tmp_path / "min.egoseq"
        write_sequence_file(make_seq([[0.0]], [0]), path)
        assert path.stat().st_size == 23

    def test_write_is_deterministic(self, tmp_path):
        seq = make_seq([[1.5, -2.0], [0.25, 3.0]], [1, 0])
        a, b = tmp_path / "a.egoseq", tmp_path / "b.egoseq"
        write_sequence_file(seq, a)
        write_sequence_file(seq, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.egoseq"
        write_sequence_file(make_seq([[0.0]], [0]), path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"XXXXXXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_sequence_file(path, LABELS_AB)

    def test_truncated_features_rejected(self, tmp_path):
        # header declares L=2 but the payload holds a single feature row
        path = tmp_path / "trunc.egoseq"
        write_sequence_file(make_seq([[0.5], [1.5]], [0, 1]), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: 8 + 4 + 4 + 1 + 4])
        with pytest.raises(FormatError):
            read_sequence_file(path, LABELS_AB)

    @pytest.mark.parametrize("keep, error", [
        (5, "truncated before magic"), (12, "truncated header"),
        (17 + 8, "truncated feature rows"), (17 + 16 + 2, "truncated labels"),
        (17 + 16 + 4 + 4, "truncated timestamps")])
    def test_every_truncation_named(self, tmp_path, keep, error):
        path = tmp_path / "trunc.egoseq"
        write_sequence_file(make_seq([[0.5, 1.0], [1.5, 2.0]], [0, 1],
                                     timestamps=[3, 4]), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError, match=error):
            read_sequence_file(path, LABELS_AB)

    def test_every_proper_prefix_names_its_part(self, tmp_path):
        # L = 4, D = 3 with timestamps: 17 + 48 + 8 + 16 = 89 bytes
        path = tmp_path / "day.egoseq"
        write_sequence_file(make_seq(np.arange(12.0).reshape(4, 3), [0, 1, 1, 0],
                                     timestamps=[1, 2, 3, 4]), path)
        blob = path.read_bytes()
        parts = [(8, "truncated before magic"), (17, "truncated header"),
                 (65, "truncated feature rows"), (73, "truncated labels"),
                 (89, "truncated timestamps")]  # (end offset, error) in file order
        assert len(blob) == parts[-1][0]
        for keep in range(len(blob)):
            path.write_bytes(blob[:keep])
            error = next(error for end, error in parts if keep < end)
            with pytest.raises(FormatError) as caught:
                read_sequence_file(path, LABELS_AB)
            assert str(caught.value) == f"{path}: {error}"
        path.write_bytes(blob + b"\x00")
        with pytest.raises(FormatError) as caught:
            read_sequence_file(path, LABELS_AB)
        assert str(caught.value) == f"{path}: 1 trailing bytes"

    def test_header_promising_too_much_refused_before_allocating(self, tmp_path):
        path = tmp_path / "huge.egoseq"
        path.write_bytes(b"EGOSEQ01" + struct.pack("<II", 2**32 - 1, 2**32 - 1)
                         + b"\x00" + bytes(6))
        with pytest.raises(FormatError, match="truncated feature rows"):
            read_sequence_file(path, LABELS_AB)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.egoseq"
        write_sequence_file(make_seq([[0.0]], [0]), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_sequence_file(path, LABELS_AB)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "label.egoseq"
        write_sequence_file(make_seq([[0.0]], [2]), path)
        with pytest.raises(DataError):
            read_sequence_file(path, LABELS_AB)

    def test_mutated_sequence_rejected_on_write(self, tmp_path):
        seq = make_seq([[0.0], [1.0]], [0, 1])
        seq.labels = np.asarray([0], dtype=np.int64)  # break the invariant
        with pytest.raises(DataError):
            write_sequence_file(seq, tmp_path / "bad.egoseq")

    def test_round_trip_fuzz(self, tmp_path):
        rng = np.random.default_rng(7)
        for case in range(40):
            length = int(rng.integers(1, 65))
            dim = int(rng.integers(1, 33))
            feats = (rng.normal(size=(length, dim)) * 10).astype(np.float32)
            labels = rng.integers(0, 2, size=length)
            ts = np.sort(rng.integers(0, 1440, size=length)) if case % 2 else None
            seq = make_seq(feats.astype(np.float64), labels, sid=f"f{case}",
                           timestamps=ts)
            path = tmp_path / "fuzz.egoseq"
            write_sequence_file(seq, path)
            first = path.read_bytes()
            reference_write_sequence_file(seq, tmp_path / "reference.egoseq")
            assert (tmp_path / "reference.egoseq").read_bytes() == first
            back = read_sequence_file(path, LABELS_AB)
            assert np.array_equal(back.features, seq.features)
            assert np.array_equal(back.labels, seq.labels)
            write_sequence_file(back, path)
            assert path.read_bytes() == first


    @settings(derandomize=True, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_round_trip_property(self, tmp_path, data):
        length, dim = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 6))
        classes = data.draw(st.integers(2, 6))
        # finite in float64 and, once rounded, in float32
        feats = data.draw(arrays(np.float64, (length, dim),
                                 elements=st.floats(-3.4e38, 3.4e38)))
        labels = data.draw(arrays(np.int64, length, elements=st.integers(0, classes - 1)))
        stamps = data.draw(st.none() | arrays(np.int64, length,
                                              elements=st.integers(0, 2**32 - 1)))
        if stamps is not None:
            stamps.sort()
        seq = make_seq(feats, labels, timestamps=stamps)
        label_set = LabelSet(tuple(f"c{k}" for k in range(classes)))
        path = tmp_path / "prop.egoseq"
        write_sequence_file(seq, path)
        first = path.read_bytes()
        back = read_sequence_file(path, label_set)
        # held as the float32 the file stores, bit for bit
        assert back.features.dtype == np.float32
        assert back.features.tobytes() == feats.astype(np.float32).tobytes()
        assert np.array_equal(back.labels, labels)
        if stamps is None:
            assert back.timestamps is None
        else:
            assert np.array_equal(back.timestamps, stamps)
        write_sequence_file(back, path)
        assert path.read_bytes() == first


class TestManifest:
    def test_write_and_load_dataset(self, tmp_path):
        ds = generate_synthetic(SynthConfig(num_sequences=3, frames_per_sequence=8,
                                            seed=5))
        write_labels_file(ds.label_set, tmp_path / "labels.txt")
        write_manifest(ds, tmp_path / "manifest.json", tmp_path / "seqs")
        back = load_dataset(tmp_path / "manifest.json", tmp_path / "labels.txt")
        assert back.label_set == ds.label_set
        assert [s.sequence_id for s in back.sequences] == \
               [s.sequence_id for s in ds.sequences]
        assert [s.user_id for s in back.sequences] == \
               [s.user_id for s in ds.sequences]
        for mine, theirs in zip(ds.sequences, back.sequences):
            # disk storage is float32; the generator emits float64
            assert np.array_equal(theirs.features,
                                  mine.features.astype(np.float32).astype(np.float64))
            assert np.array_equal(theirs.labels, mine.labels)


class TestLoadSubset:
    """`read_manifest(...).subset(ids)` reads only the days it names, in the
    order named, and only when they are asked for."""

    @pytest.fixture()
    def manifest(self, tmp_path):
        ds = generate_synthetic(SynthConfig(num_sequences=5, frames_per_sequence=8,
                                            seed=5))
        write_labels_file(ds.label_set, tmp_path / "labels.txt")
        write_manifest(ds, tmp_path / "manifest.json", tmp_path / "seqs")
        return tmp_path / "manifest.json", tmp_path / "labels.txt"

    @staticmethod
    def days(manifest, ids=None):
        """The days read from `manifest`: all of them, or the subset `ids`."""
        days = read_manifest(*manifest)
        return list(days if ids is None else days.subset(ids))

    def test_returns_exactly_those_days(self, manifest):
        whole = load_dataset(*manifest)
        part = self.days(manifest, ["synth003", "synth001"])
        assert [s.sequence_id for s in part] == ["synth003", "synth001"]
        for seq in part:
            assert np.array_equal(seq.features, whole.by_id(seq.sequence_id).features)
            assert seq.user_id == whole.by_id(seq.sequence_id).user_id
        assert self.days(manifest, []) == []

    def test_reads_a_repeated_id_once(self, manifest, monkeypatch):
        from egobatch import datamodel

        read = []

        def counting(path, *args, **kwargs):
            read.append(kwargs["sequence_id"])
            return read_sequence_file(path, *args, **kwargs)

        monkeypatch.setattr(datamodel, "read_sequence_file", counting)
        part = read_manifest(*manifest).subset(["synth002", "synth004", "synth002"])
        assert read == [] and len(part) == 2
        assert [seq.sequence_id for seq in part] == ["synth002", "synth004"]
        assert read == ["synth002", "synth004"]

    def test_skips_the_files_of_other_days(self, manifest):
        (manifest[0].parent / "seqs" / "synth000.egoseq").write_bytes(b"XXXXXXXX")
        assert len(self.days(manifest, ["synth001"])) == 1
        with pytest.raises(FormatError):
            self.days(manifest)

    def test_unknown_id(self, manifest, monkeypatch):
        from egobatch import datamodel

        monkeypatch.setattr(datamodel, "read_sequence_file", None)  # no day is read
        with pytest.raises(DataError, match="nope"):
            read_manifest(*manifest).subset(["synth001", "nope"])

    @pytest.mark.parametrize("ids", [None, ["synth001"]])
    def test_duplicate_manifest_ids(self, manifest, ids):
        path, labels = manifest
        entries = json.loads(path.read_text())
        entries[3]["sequence_id"] = entries[0]["sequence_id"]
        path.write_text(json.dumps(entries))
        with pytest.raises(DataError, match="duplicate"):
            self.days(manifest, ids)

    @pytest.mark.parametrize("entry", [["synth000"], {"path": "x"},
                                       {"sequence_id": ["a"], "path": "x"},
                                       {"sequence_id": 5, "path": "x"},
                                       {"sequence_id": "z", "user_id": 7, "path": "x"},
                                       {"sequence_id": "z", "user_id": None, "path": "x"}])
    def test_bad_manifest_entry(self, manifest, entry):
        path, labels = manifest
        entries = json.loads(path.read_text())
        path.write_text(json.dumps([*entries, entry]))
        with pytest.raises(FormatError, match="bad manifest entry"):
            self.days(manifest, ["synth001"])


class TestLabelsOnly:
    """`split` runs every check of a whole-day read but keeps only each
    day's id, labels and feature width."""

    def test_same_days_without_features(self, tmp_path, monkeypatch):
        ds = generate_synthetic(SynthConfig(num_sequences=6, frames_per_sequence=40,
                                            seed=5))
        write_labels_file(ds.label_set, tmp_path / "labels.txt")
        write_manifest(ds, tmp_path / "manifest.json", tmp_path / "seqs")
        whole = load_dataset(tmp_path / "manifest.json", tmp_path / "labels.txt")
        kept = []

        def keeping(dataset, *args, **kwargs):
            kept.append(dataset)
            return select_split(dataset, *args, **kwargs)

        monkeypatch.setattr(cli, "select_split", keeping)
        assert split_one(tmp_path) == 0
        (lean,) = kept
        assert [type(day) for day in lean.sequences] == [DayLabels] * 6
        assert [day.sequence_id for day in lean.sequences] == \
               [day.sequence_id for day in whole.sequences]
        for day in lean.sequences:
            full = whole.by_id(day.sequence_id)
            assert len(day) == len(full)
            assert day.feature_dim == full.feature_dim == 16
            assert day.labels.dtype == np.int64
            assert np.array_equal(day.labels, full.labels)

    @staticmethod
    def assert_refused(path, features, capsys, error):
        """A whole-day read (`features`) raises `DataError`; `split`, which
        keeps only each day's labels, exits 2 with the same message."""
        if features:
            with pytest.raises(DataError, match=error):
                read_sequence_file(path, LABELS_AB)
            return
        write_labels_file(LABELS_AB, path.parent / "labels.txt")
        (path.parent / "manifest.json").write_text(
            json.dumps([{"sequence_id": "s", "path": path.name}]))
        assert split_one(path.parent) == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("features", [True, False])
    def test_decreasing_timestamps_in_a_file(self, tmp_path, capsys, features):
        # u32 minutes 5, 3: a difference of unsigned values would wrap positive
        path = tmp_path / "s.egoseq"
        write_sequence_file(make_seq([[1.0], [2.0]], [0, 1], timestamps=[5, 6]), path)
        path.write_bytes(path.read_bytes()[:-8] + np.array([5, 3], "<u4").tobytes())
        self.assert_refused(path, features, capsys, "non-decreasing")

    @pytest.mark.parametrize("features", [True, False])
    def test_non_finite_feature_in_a_file(self, tmp_path, capsys, features):
        path = tmp_path / "s.egoseq"
        write_sequence_file(make_seq([[1.0], [2.0]], [0, 1]), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:17] + np.array([np.inf], "<f4").tobytes() + blob[21:])
        self.assert_refused(path, features, capsys, "non-finite")


def split_one(data):
    """Run `split` on the dataset in `data`, asking for one test and one
    validation bin of three."""
    return cli.dispatch(["split", "--manifest", str(data / "manifest.json"),
                         "--labels", str(data / "labels.txt"),
                         "--out-dir", str(data / "split"), "--bins", "3",
                         "--test-bins", "1", "--val-bins", "1"])


class TestSynthetic:
    def test_days_are_those_of_the_whole_set(self):
        cfg = SynthConfig(num_sequences=3, frames_per_sequence=20, seed=3)
        whole = generate_synthetic(cfg)
        assert whole.label_set == cfg.label_set
        digest = hashlib.sha256()
        days = list(synthetic_days(cfg))
        assert len(days) == len(whole.sequences) == 3
        for day, want in zip(days, whole.sequences):
            assert (day.sequence_id, day.user_id) == (want.sequence_id, want.user_id)
            assert day.features.dtype == want.features.dtype == np.float64
            assert day.features.tobytes() == want.features.tobytes()
            assert day.labels.tobytes() == want.labels.tobytes()
            digest.update(f"{day.sequence_id} {day.user_id}".encode())
            digest.update(day.features.tobytes() + day.labels.tobytes())
        # pins the generator's draws, so neither path can drift from it
        assert digest.hexdigest() == \
            "85bc1340d47de715593cd3ef98bbef55d70ad5633754012dfdb2a926ce9382d6"

    def test_days_are_drawn_as_they_are_asked_for(self):
        days = synthetic_days(SynthConfig(num_sequences=10 ** 9, frames_per_sequence=5))
        assert next(days).sequence_id == "synth000"
        assert next(days).sequence_id == "synth001"

    def test_deterministic(self):
        cfg = SynthConfig(num_sequences=3, frames_per_sequence=50, seed=9)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        for sa, sb in zip(a.sequences, b.sequences):
            assert np.array_equal(sa.features, sb.features)
            assert np.array_equal(sa.labels, sb.labels)

    def test_zero_noise_hits_class_means(self):
        cfg = SynthConfig(noise_sigma=0.0, num_sequences=2,
                          frames_per_sequence=200, seed=2, mean_scale=2.5)
        ds = generate_synthetic(cfg)
        means = class_means(cfg)
        for seq in ds.sequences:
            assert np.array_equal(seq.features, means[seq.labels])

    def test_ambiguous_pair_shares_mean(self):
        cfg = SynthConfig()
        means = class_means(cfg)
        a, b = cfg.ambiguous_pair
        assert np.array_equal(means[a], means[b])
        others = [k for k in range(cfg.num_classes) if k not in (a, b)]
        for i in others:
            assert not np.array_equal(means[i], means[a])

    def test_ambiguous_bayes_bound_is_prior_ratio(self):
        # with zero noise the pair's frames are literally identical, so the
        # best frame-only accuracy on them is the larger prior (~0.5)
        cfg = SynthConfig(noise_sigma=0.0, num_sequences=10,
                          frames_per_sequence=1500, seed=11)
        ds = generate_synthetic(cfg)
        labels = np.concatenate([s.labels for s in ds.sequences])
        a, b = cfg.ambiguous_pair
        count_a = int((labels == a).sum())
        count_b = int((labels == b).sum())
        assert count_a + count_b >= 1000
        bayes = max(count_a, count_b) / (count_a + count_b)
        assert abs(bayes - 0.5) < 0.05

    def test_self_transition_frequency(self):
        cfg = SynthConfig(num_sequences=20, frames_per_sequence=3000, seed=13)
        ds = generate_synthetic(cfg)
        stays = transitions = 0
        for seq in ds.sequences:
            stays += int((seq.labels[1:] == seq.labels[:-1]).sum())
            transitions += len(seq) - 1
        assert transitions >= 50_000
        assert abs(stays / transitions - cfg.self_transition_prob) < 0.02

    def test_ambiguous_entered_only_from_context(self):
        cfg = SynthConfig(num_sequences=8, frames_per_sequence=500, seed=17)
        ds = generate_synthetic(cfg)
        for seq in ds.sequences:
            prev, cur = seq.labels[:-1], seq.labels[1:]
            for member, predecessor in cfg.context_map.items():
                entered = (cur == member) & (prev != member)
                assert (prev[entered] == predecessor).all()
            assert seq.labels[0] not in cfg.ambiguous_pair

    def test_ambiguous_empirical_means_match(self):
        cfg = SynthConfig(num_sequences=10, frames_per_sequence=1000, seed=19)
        ds = generate_synthetic(cfg)
        feats = np.concatenate([s.features for s in ds.sequences])
        labels = np.concatenate([s.labels for s in ds.sequences])
        a, b = cfg.ambiguous_pair
        mean_a = feats[labels == a].mean(axis=0)
        mean_b = feats[labels == b].mean(axis=0)
        n = min(int((labels == a).sum()), int((labels == b).sum()))
        assert n > 100
        bound = 3.0 * cfg.noise_sigma / np.sqrt(n)
        assert np.abs(mean_a - mean_b).max() < bound

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(ambiguous_pair=(4, 4))
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ConfigError):
                SynthConfig(noise_sigma=bad)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                SynthConfig(mean_scale=bad)
        with pytest.raises(ConfigError):
            SynthConfig(self_transition_prob=1.0)
        with pytest.raises(ConfigError):
            SynthConfig(context_map={4: 0, 5: 0})
        with pytest.raises(ConfigError):
            SynthConfig(feature_dim=3)
