import math
import re
import time

import numpy as np
import pytest
from mpmath import mp, mpf

from egobatch import (
    Bin,
    ConfigError,
    DataError,
    Dataset,
    DayLabels,
    DaySequence,
    LabelSet,
    PackingError,
    bhattacharyya,
    combinations,
    ffd_pack,
    select_split,
    splitter,
)
from oracles import brute_force_split, reference_best_subset


def seq_with_labels(labels, sid, length_pad=None):
    labels = np.asarray(labels)
    return DaySequence(sid, "u1", np.zeros((len(labels), 1)), labels)


class TestFfdPack:
    def test_hand_traced_example(self):
        bins = ffd_pack([7, 5, 4, 3, 2], capacity=9)
        sizes = {7: 0, 5: 1, 4: 2, 3: 3, 2: 4}  # size -> original index
        assert [b.total_frames for b in bins] == [9, 9, 3]
        assert [b.sequence_ids for b in bins] == [[0, 4], [1, 2], [3]]

    def test_single_item(self):
        bins = ffd_pack([5], capacity=5)
        assert len(bins) == 1 and bins[0].total_frames == 5

    def test_oversized_item_rejected(self):
        with pytest.raises(PackingError):
            ffd_pack([6], capacity=5)

    def test_never_exceeds_capacity(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            capacity = int(rng.integers(5, 40))
            sizes = rng.integers(1, capacity + 1, size=rng.integers(1, 25)).tolist()
            bins = ffd_pack(sizes, capacity)
            assert all(b.total_frames <= capacity for b in bins)
            assert sum(len(b.sequence_ids) for b in bins) == len(sizes)
            for b in bins:
                assert b.total_frames == sum(sizes[i] for i in b.sequence_ids)

    def test_no_worse_than_unsorted_first_fit(self):
        def first_fit(sizes, capacity):
            bins = []
            for size in sizes:
                for b in bins:
                    if b + size <= capacity:
                        bins[bins.index(b)] += size
                        break
                else:
                    bins.append(size)
            return len(bins)

        rng = np.random.default_rng(2)
        for _ in range(30):
            capacity = int(rng.integers(5, 30))
            sizes = rng.integers(1, capacity + 1, size=rng.integers(1, 20)).tolist()
            assert len(ffd_pack(sizes, capacity)) <= first_fit(sizes, capacity)

    def test_stable_tie_order(self):
        bins = ffd_pack([3, 3, 3], capacity=3)
        assert [b.sequence_ids for b in bins] == [[0], [1], [2]]


class TestCombinations:
    def test_three_choose_two(self):
        assert list(combinations(3, 2)) == [(0, 1), (0, 2), (1, 2)]

    def test_four_singletons(self):
        assert list(combinations(4, 1)) == [(0,), (1,), (2,), (3,)]

    def test_count_five_choose_two(self):
        assert len(list(combinations(5, 2))) == 10

    def test_counts_match_binomials(self):
        for total in range(1, 13):
            for choose in range(1, total + 1):
                subsets = list(combinations(total, choose))
                assert len(subsets) == math.comb(total, choose)
                assert len(set(subsets)) == len(subsets)
                assert subsets == sorted(subsets)

    def test_invalid_choose(self):
        with pytest.raises(ConfigError):
            list(combinations(3, 4))
        with pytest.raises(ConfigError):
            list(combinations(3, 0))


def mp_bhattacharyya(p, q):
    """High-precision oracle for the distance."""
    mp.dps = 60
    coeff = sum(mp.sqrt(mpf(a) * mpf(b)) for a, b in zip(p, q))
    return float(-mp.log(coeff)) if coeff > 0 else math.inf


class TestBhattacharyya:
    def test_identical_distributions(self):
        p = [0.2, 0.3, 0.5]
        assert abs(bhattacharyya(p, p)) < 1e-12

    def test_disjoint_support_is_infinite(self):
        assert bhattacharyya([1.0, 0.0], [0.0, 1.0]) == math.inf

    def test_hand_value_against_oracle(self):
        p, q = [0.5, 0.5], [0.25, 0.75]
        expected = mp_bhattacharyya(p, q)
        # -ln(sqrt(.125) + sqrt(.375)) = 0.0346682...
        assert abs(expected - 0.034668) < 1e-6
        assert abs(bhattacharyya(p, q) - expected) < 1e-9

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            size = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(size))
            q = rng.dirichlet(np.ones(size))
            mine = bhattacharyya(p, q)
            assert abs(mine - mp_bhattacharyya(p, q)) < 1e-9
            assert mine >= 0.0
            assert abs(mine - bhattacharyya(q, p)) < 1e-15

    def test_zero_iff_equal_on_common_support(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            if not np.allclose(p, q, atol=1e-12):
                assert bhattacharyya(p, q) > 0.0

    def test_input_validation(self):
        with pytest.raises(DataError):
            bhattacharyya([0.5, 0.5], [0.5, 0.25, 0.25])
        with pytest.raises(DataError):
            bhattacharyya([0.7, 0.7], [0.5, 0.5])
        with pytest.raises(DataError):
            bhattacharyya([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(DataError):
            bhattacharyya([math.nan, 1.0], [0.5, 0.5])
        with pytest.raises(DataError):
            bhattacharyya([0.5, 0.5], [1.0, math.nan])


def random_counts(rng, bins, classes):
    """A bins x K count matrix whose every row holds at least one frame;
    a bin holds a few frames of each class, or hundreds as real days do."""
    counts = rng.integers(0, rng.choice([6, 400]), size=(bins, classes))
    counts[np.arange(bins), rng.integers(0, classes, size=bins)] += 1
    return counts


class TestBestSubset:
    """The count-matrix search against the per-subset loop it replaced."""

    def check(self, counts, candidates, choose, reference):
        ids, value = splitter._best_subset(counts, candidates, choose, reference)
        expect_ids, expect_value = reference_best_subset(list(counts), candidates,
                                                         choose, reference)
        assert ids == expect_ids
        assert value.hex() == expect_value.hex()
        return value

    def test_equals_the_reference_bit_for_bit_on_random_counts(self):
        rng = np.random.default_rng(11)
        for case in range(150):
            classes = int(rng.integers(2, 6))
            count = int(rng.integers(2, 10))
            counts = random_counts(rng, count, classes)
            if case % 3 == 0:  # repeated rows tie whole subsets
                counts[rng.integers(0, count, size=count // 2)] = counts[0]
            candidates = sorted(rng.choice(count, size=int(rng.integers(2, count + 1)),
                                           replace=False).tolist())
            choose = int(rng.integers(1, len(candidates)))
            reference = rng.dirichlet(np.ones(classes))
            self.check(counts, candidates, choose, reference)

    def test_ties_go_to_the_lexicographically_first_subset(self):
        counts = np.array([[3, 1], [1, 3], [1, 3], [3, 1], [2, 2]])
        whole = counts.sum(axis=0) / float(counts.sum())
        ids, _ = splitter._best_subset(counts, [0, 1, 2, 3, 4], 2, whole)
        assert ids == (0, 1)
        self.check(counts, [0, 1, 2, 3, 4], 2, whole)
        self.check(counts, [1, 2, 3, 4], 1, whole)

    def test_rest_reference_with_a_zero_class_gives_inf_distances(self):
        # the last class is absent from the reference; bins 0 and 3 hold only it
        reference = np.array([0.5, 0.5, 0.0])
        counts = np.array([[0, 0, 3], [1, 1, 0], [2, 0, 1], [0, 0, 5], [1, 2, 0]])
        assert self.check(counts, [0, 1, 2, 3, 4], 2, reference) < math.inf
        assert self.check(counts, [0, 3, 1], 2, reference) == math.inf
        assert self.check(counts, [0, 3], 1, reference) == math.inf
        rng = np.random.default_rng(12)
        for _ in range(60):
            count = int(rng.integers(3, 9))
            counts = random_counts(rng, count, 3)
            counts[rng.random(count) < 0.4, :2] = 0  # some bins of the absent class
            counts[counts.sum(axis=1) == 0, 2] = 1
            reference = np.append(rng.dirichlet(np.ones(2)), 0.0)
            self.check(counts, list(range(count)), int(rng.integers(1, count)),
                       reference)


def build_dataset(label_lists):
    """One two-frame sequence per bin; capacity keeps them in singleton bins."""
    sequences = [seq_with_labels(labels, f"s{i}") for i, labels in
                 enumerate(label_lists)]
    names = tuple(chr(ord("a") + k) for k in
                  range(int(max(max(ls) for ls in label_lists)) + 1))
    return Dataset(LabelSet(names), sequences)


def build_named_dataset(label_lists, num_classes):
    """Day i is "s{i}" with the given labels, over classes c0..c{K-1}."""
    sequences = [seq_with_labels(labels, f"s{i}") for i, labels in
                 enumerate(label_lists)]
    return Dataset(LabelSet(tuple(f"c{k}" for k in range(num_classes))), sequences)


class TestSelectSplit:
    def test_hand_example_prefers_matching_bin(self):
        # bins: [a,a], [b,b], [a,b], [a,b]; the [a,b] bins match the whole
        # distribution exactly and the lexicographically first one wins
        ds = build_dataset([[0, 0], [1, 1], [0, 1], [0, 1]])
        result = select_split(ds, num_bins=4, test_bins=1, val_bins=1, capacity=3)
        assert [b.sequence_ids for b in result.bins] == [["s0"], ["s1"], ["s2"], ["s3"]]
        assert result.test_bin_ids == (2,)
        assert result.objective_test < 1e-9
        assert result.val_bin_ids == (3,)
        assert result.objective_val < 1e-9
        assert set(result.train_bin_ids) == {0, 1}

    def test_identical_bins_tie_to_lexicographic_first(self):
        ds = build_dataset([[0, 1], [0, 1], [0, 1], [0, 1]])
        result = select_split(ds, num_bins=4, test_bins=1, val_bins=1, capacity=3)
        assert result.test_bin_ids == (0,)
        assert result.val_bin_ids == (1,)
        assert result.objective_test < 1e-9

    def test_partition_covers_everything_once(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            count = int(rng.integers(5, 9))
            ds = build_dataset([rng.integers(0, 3, size=2).tolist()
                                for _ in range(count)]
                               + [[0, 1, 2]])  # guarantee every class appears
            result = select_split(ds, num_bins=count + 1, test_bins=1, val_bins=1,
                                  capacity=3)
            all_ids = sorted(result.sequence_ids("test")
                             + result.sequence_ids("val")
                             + result.sequence_ids("train"))
            assert all_ids == sorted(s.sequence_id for s in ds.sequences)

    def test_infeasible_counts_rejected(self):
        ds = build_dataset([[0, 1], [0, 1], [0, 1]])
        with pytest.raises(ConfigError):
            select_split(ds, num_bins=3, test_bins=3, val_bins=1, capacity=3)
        with pytest.raises(ConfigError):
            select_split(ds, num_bins=3, test_bins=2, val_bins=1, capacity=3)

    def test_absent_class_rejected(self):
        sequences = [seq_with_labels([0, 0], "s0"), seq_with_labels([0, 1], "s1"),
                     seq_with_labels([1, 0], "s2")]
        ds = Dataset(LabelSet(("a", "b", "c")), sequences)
        with pytest.raises(DataError):
            select_split(ds, num_bins=3, test_bins=1, val_bins=1, capacity=3)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            select_split(Dataset(LabelSet(("a", "b")), []), 3, 1, 1)

    # below 1 no day could fit; from 1 up to the longest day the packing refuses
    @pytest.mark.parametrize("capacity, error", [(0, ConfigError), (-5, ConfigError),
                                                 (1, PackingError)])
    def test_capacity_too_small(self, capacity, error):
        ds = build_dataset([[0, 1], [0, 1], [0, 1]])
        with pytest.raises(error, match="capacity"):
            select_split(ds, 3, 1, 1, capacity=capacity)

    def test_search_too_large_refused_at_once(self):
        # 40 days of 40 frames at capacity ceil(1.1 * 1600 / 24) = 74 pack
        # one to a bin: C(40, 10) + C(30, 1) subsets, hours of scoring
        rng = np.random.default_rng(3)
        days = [DayLabels(f"d{i:02d}", rng.integers(0, 3, size=40), 1)
                for i in range(40)]
        ds = Dataset(LabelSet(("a", "b", "c")), days)
        subsets = math.comb(40, 10) + math.comb(30, 1)
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=f"40 bins.* {subsets} subsets"):
            select_split(ds, num_bins=24, test_bins=10, val_bins=1)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("limit, refused", [(7, False), (6, True)])
    def test_search_limit_counts_both_stages(self, monkeypatch, limit, refused):
        # four singleton bins, one test and one val: C(4, 1) + C(3, 1) = 7
        ds = build_dataset([[0, 0], [1, 1], [0, 1], [0, 1]])
        monkeypatch.setattr(splitter, "MAX_SUBSETS", limit)
        if refused:
            with pytest.raises(ConfigError, match="4 bins.* 7 subsets"):
                select_split(ds, 4, 1, 1, capacity=3)
        else:
            assert select_split(ds, 4, 1, 1, capacity=3).test_bin_ids == (2,)

    def test_stage2_rest_reference_flag(self):
        ds = build_dataset([[0, 0], [1, 1], [0, 1], [0, 1], [0, 1]])
        whole = select_split(ds, 5, 1, 1, capacity=3, stage2_reference="whole")
        rest = select_split(ds, 5, 1, 1, capacity=3, stage2_reference="rest")
        assert whole.test_bin_ids == rest.test_bin_ids
        with pytest.raises(ConfigError):
            select_split(ds, 5, 1, 1, capacity=3, stage2_reference="pool")


class TestSplitOracle:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(6)
        for case in range(30):
            num_classes = int(rng.integers(2, 5))
            bin_count = int(rng.integers(4, 9))
            # lengths in (cap/2, cap] force singleton bins in FFD order
            lengths = rng.integers(6, 11, size=bin_count)
            label_lists = []
            for length in lengths:
                labels = rng.integers(0, num_classes, size=length)
                label_lists.append(labels.tolist())
            flat = [l for ls in label_lists for l in ls]
            if len(set(flat)) < num_classes:
                continue
            order = sorted(range(bin_count), key=lambda i: -lengths[i])
            sequences = [seq_with_labels(label_lists[i], f"s{i}")
                         for i in range(bin_count)]
            ds = Dataset(LabelSet(tuple(f"c{k}" for k in range(num_classes))),
                         sequences)
            test_bins = int(rng.integers(1, min(3, bin_count - 2)))
            val_bins = int(rng.integers(1, bin_count - test_bins))
            ref = "whole" if case % 2 == 0 else "rest"
            result = select_split(ds, bin_count, test_bins, val_bins,
                                  capacity=10, stage2_reference=ref)
            assert all(len(b.sequence_ids) == 1 for b in result.bins)
            # the oracle works on bins in the same FFD (descending size) order
            oracle_bins = [label_lists[i] for i in order]
            expect = brute_force_split(oracle_bins, num_classes, test_bins,
                                       val_bins, stage2_reference=ref)
            assert result.test_bin_ids == expect[0]
            assert result.val_bin_ids == expect[1]
            if math.isfinite(expect[2]):
                assert abs(result.objective_test - expect[2]) < 1e-9
            if math.isfinite(expect[3]):
                assert abs(result.objective_val - expect[3]) < 1e-9

    def test_matches_brute_force_with_several_days_per_bin(self):
        rng = np.random.default_rng(13)
        shared = 0
        for case in range(30):
            num_classes = int(rng.integers(2, 5))
            lengths = rng.integers(1, 9, size=int(rng.integers(8, 16))).tolist()
            label_lists = [rng.integers(0, num_classes, size=n).tolist()
                           for n in lengths]
            if len({label for ls in label_lists for label in ls}) < num_classes:
                continue
            capacity = int(rng.integers(9, 17))
            bin_count = len(ffd_pack(lengths, capacity))
            if bin_count < 3:
                continue
            test_bins = int(rng.integers(1, min(3, bin_count - 1)))
            val_bins = int(rng.integers(1, bin_count - test_bins))
            ds = build_named_dataset(label_lists, num_classes)
            ref = "whole" if case % 2 == 0 else "rest"
            result = select_split(ds, bin_count, test_bins, val_bins,
                                  capacity=capacity, stage2_reference=ref)
            shared += sum(len(b.sequence_ids) > 1 for b in result.bins)
            by_id = {f"s{i}": labels for i, labels in enumerate(label_lists)}
            oracle_bins = [[label for sid in b.sequence_ids for label in by_id[sid]]
                           for b in result.bins]
            expect = brute_force_split(oracle_bins, num_classes, test_bins,
                                       val_bins, stage2_reference=ref)
            assert result.test_bin_ids == expect[0]
            assert result.val_bin_ids == expect[1]
            assert abs(result.objective_test - expect[2]) < 1e-9
            assert abs(result.objective_val - expect[3]) < 1e-9
        assert shared > 50

    def test_takes_one_combination_per_scored_subset(self, monkeypatch):
        taken = []
        enumerate_subsets = splitter.combinations

        def counted(count, choose):
            for picks in enumerate_subsets(count, choose):
                taken.append(picks)
                yield picks

        monkeypatch.setattr(splitter, "combinations", counted)
        rng = np.random.default_rng(14)
        label_lists = [rng.integers(0, 3, size=n).tolist()
                       for n in (9, 7, 7, 6, 5, 5, 4, 3, 3, 2, 2, 1)]
        result = select_split(build_named_dataset(label_lists, 3), 6, 2, 2,
                              capacity=10)
        count = len(result.bins)
        assert count > 4 and any(len(b.sequence_ids) > 1 for b in result.bins)
        assert len(taken) == math.comb(count, 2) + math.comb(count - 2, 2)


class TestSplitJson:
    def test_split_manifest_schema(self, tmp_path):
        ds = build_dataset([[0, 0], [1, 1], [0, 1], [0, 1]])
        result = select_split(ds, num_bins=4, test_bins=1, val_bins=1, capacity=3)
        path = tmp_path / "split.json"
        result.write_json(path)
        import json

        obj = json.loads(path.read_text())
        assert set(obj) == {"test", "val", "train", "objective_test",
                            "objective_val", "bins"}
        assert obj["test"] == ["s2"]


class TestGuards:
    """Each guard raises its error with its message."""

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: ffd_pack([], capacity=10), ConfigError, "nothing to pack",
                     id="pack-nothing"),
        pytest.param(lambda: ffd_pack([3, 0], capacity=10), ConfigError,
                     "item sizes must be positive", id="pack-size-0"),
    ])
    def test_refuses(self, call, error, message):
        with pytest.raises(error, match=re.escape(message)):
            call()
