import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import balanced_dataset, labels_only_dataset
from fedsim.core import Rng
from fedsim.data import Dataset, allocate_local_test
from fedsim.errors import InvalidArgument, PartitionError
from fedsim.partition import (
    _EPS,
    PARTITION_KINDS,
    ClientPartition,
    PartitionSpec,
    attach_local_tests,
    classes_per_client,
    largest_remainder_counts,
    make_partitions,
    manifest_jsonl,
    manifest_lines,
    partition_iid,
    partition_label_dir,
    partition_label_skew,
    partition_quantity_dir,
    partition_random_shard,
)


def assert_exact_cover(partitions, n_samples):
    all_idx = np.concatenate([p.train_indices for p in partitions])
    assert len(all_idx) == n_samples, "union must cover every sample"
    assert len(np.unique(all_idx)) == n_samples, "index sets must be disjoint"


def assert_owned_classes_consistent(partitions, train):
    for p in partitions:
        recomputed = frozenset(int(c) for c in np.unique(train.labels[p.train_indices]))
        assert recomputed == p.owned_classes


class TestPartitionSpec:
    def test_requires_matching_parameter(self):
        with pytest.raises(InvalidArgument):
            PartitionSpec("label-dir", 10)  # missing alpha
        with pytest.raises(InvalidArgument):
            PartitionSpec("iid", 10, p=0.5)  # extraneous parameter
        spec = PartitionSpec("label-skew", 10, p=0.3)
        assert spec.level == 0.3

    def test_unknown_kind(self):
        with pytest.raises(InvalidArgument):
            PartitionSpec("zipf", 10)


class TestIid:
    def test_equal_sizes(self, ten_class_data):
        train, _ = ten_class_data
        small = labels_only_dataset([i % 10 for i in range(100)], 10)
        parts = partition_iid(small, 10, Rng(1))
        assert all(p.n_train == 10 for p in parts)
        assert_exact_cover(parts, 100)

    def test_single_client_owns_everything(self, ten_class_data):
        train, _ = ten_class_data
        parts = partition_iid(train, 1, Rng(2))
        assert parts[0].n_train == train.n_samples

    def test_too_many_clients(self):
        small = labels_only_dataset([0, 1], 2)
        with pytest.raises(InvalidArgument):
            partition_iid(small, 3, Rng(1))

    def test_class_histogram_matches_hypergeometric_mean(self, ten_class_data):
        # Over 100 seeded trials, the mean per-(client, class) count must
        # sit within 3 standard errors of the hypergeometric mean of 10.
        # Var = n*(K/N)*(1-K/N)*(N-n)/(N-1) with N=1000, K=100, n=100.
        train, _ = ten_class_data
        var = 100 * 0.1 * 0.9 * (900 / 999)
        se = np.sqrt(var / 100)
        counts = np.zeros((10, 10))
        for seed in range(100):
            parts = partition_iid(train, 10, Rng(seed))
            for p in parts:
                labels = train.labels[p.train_indices]
                for c in range(10):
                    counts[p.client_id, c] += (labels == c).sum()
        mean_counts = counts / 100
        assert np.all(np.abs(mean_counts - 10.0) < 3 * se)


class TestLabelSkew:
    def test_exact_class_count(self, ten_class_data):
        train, _ = ten_class_data
        parts = partition_label_skew(train, 20, 0.2, Rng(3))
        assert all(len(p.owned_classes) == 2 for p in parts)
        assert_exact_cover(parts, train.n_samples)
        assert_owned_classes_consistent(parts, train)

    @pytest.mark.parametrize("p,expected", [(0.2, 2), (0.25, 3), (0.3, 3), (1.0, 10)])
    def test_ceil_of_p_times_classes(self, p, expected):
        assert classes_per_client(p, 10) == expected

    def test_p_one_reduces_to_per_class_even_split(self, ten_class_data):
        train, _ = ten_class_data
        parts = partition_label_skew(train, 10, 1.0, Rng(4))
        assert all(len(p.owned_classes) == 10 for p in parts)
        for p in parts:
            labels = train.labels[p.train_indices]
            counts = [(labels == c).sum() for c in range(10)]
            assert max(counts) - min(counts) <= 1

    def test_owner_counts_within_one(self):
        # 100-sample single class owned by 3 clients -> counts {33, 34}
        ds = labels_only_dataset([0] * 100, 1)
        parts = partition_label_skew(ds, 3, 1.0, Rng(5))
        sizes = sorted(p.n_train for p in parts)
        assert sizes in ([33, 33, 34], [33, 34, 33], [34, 33, 33]) or sizes == [33, 33, 34]
        assert sum(sizes) == 100

    def test_uncovered_class_repair(self, ten_class_data):
        # With few clients and 0.2 coverage, some seeds would leave a
        # class unowned without repair; every class must end up owned.
        train, _ = ten_class_data
        for seed in range(30):
            parts = partition_label_skew(train, 6, 0.2, Rng(seed))
            owned_union = set()
            for p in parts:
                owned_union |= p.owned_classes
            assert owned_union == set(range(10))
            assert_exact_cover(parts, train.n_samples)

    def test_infeasible_p_rejected(self, ten_class_data):
        train, _ = ten_class_data
        with pytest.raises(InvalidArgument):
            partition_label_skew(train, 20, 0.05, Rng(1))  # p * classes < 1
        with pytest.raises(InvalidArgument):
            partition_label_skew(train, 3, 0.2, Rng(1))  # cannot cover 10 classes


class TestLabelDir:
    def test_concentration_limit_near_uniform(self, ten_class_data):
        train, _ = ten_class_data
        parts = partition_label_dir(train, 10, 1e9, Rng(6))
        for p in parts:
            labels = train.labels[p.train_indices]
            for c in range(10):
                assert abs((labels == c).sum() - 10) <= 2
        assert_exact_cover(parts, train.n_samples)

    def test_per_class_counts_sum_exactly(self, ten_class_data):
        train, _ = ten_class_data
        parts = partition_label_dir(train, 7, 0.3, Rng(7))
        for c in range(10):
            total = sum((train.labels[p.train_indices] == c).sum() for p in parts)
            assert total == 100

    def test_extreme_skew_regime(self, ten_class_data):
        # At alpha=0.05, the median client should be dominated by a
        # single class (max share > 0.7) in every seeded trial batch.
        train, _ = ten_class_data
        medians = []
        for seed in range(20):
            parts = partition_label_dir(train, 20, 0.05, Rng(1000 + seed))
            shares = []
            for p in parts:
                labels = train.labels[p.train_indices]
                counts = np.array([(labels == c).sum() for c in range(10)])
                shares.append(counts.max() / counts.sum())
            medians.append(np.median(shares))
        assert np.median(medians) > 0.7

    def test_tv_distance_vanishes_at_huge_alpha(self, ten_class_data):
        train, _ = ten_class_data
        parts = partition_label_dir(train, 10, 1e9, Rng(8))
        for p in parts:
            labels = train.labels[p.train_indices]
            hist = np.array([(labels == c).sum() for c in range(10)], dtype=float)
            hist /= hist.sum()
            tv = 0.5 * np.abs(hist - 0.1).sum()
            assert tv < 0.02

    def test_no_empty_clients(self, ten_class_data):
        train, _ = ten_class_data
        for seed in range(20):
            parts = partition_label_dir(train, 30, 0.05, Rng(seed))
            assert all(p.n_train > 0 for p in parts)


class TestRandomShard:
    def test_equal_sizes(self):
        # 100 samples over 10 clients is an exact cover, so each client
        # must hold 100/10 = 10 samples (2 shards of 5).
        ds = labels_only_dataset([i % 10 for i in range(100)], 10)
        parts = partition_random_shard(ds, 10, 2, Rng(9))
        assert all(p.n_train == 10 for p in parts)
        assert_exact_cover(parts, 100)

    def test_one_shard_equals_one_class(self):
        # shard size equals class size on a balanced label-sorted set
        ds = labels_only_dataset([i // 10 for i in range(100)], 10)
        parts = partition_random_shard(ds, 10, 1, Rng(10))
        for p in parts:
            assert len(p.owned_classes) == 1

    def test_at_most_shards_plus_one_classes(self, ten_class_data):
        train, _ = ten_class_data
        parts = partition_random_shard(train, 10, 2, Rng(11))
        for p in parts:
            assert len(p.owned_classes) <= 3
        assert_exact_cover(parts, train.n_samples)

    def test_indivisible_suggests_largest_valid(self):
        ds = labels_only_dataset([i % 10 for i in range(100)], 10)
        with pytest.raises(InvalidArgument, match="largest valid shards_per_client is 2"):
            partition_random_shard(ds, 10, 3, Rng(1))

    def test_empty_train_set_leaves_a_client_without_samples(self):
        # 0 rows divide into any number of shards, each of them empty
        ds = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=np.int64), 0)
        with pytest.raises(InvalidArgument, match="client 0 has no train samples"):
            partition_random_shard(ds, 1, 1, Rng(1))


class TestQuantityDir:
    def test_concentration_limit_near_equal(self, ten_class_data):
        train, _ = ten_class_data
        parts = partition_quantity_dir(train, 10, 1e9, Rng(12))
        sizes = [p.n_train for p in parts]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == train.n_samples

    def test_counts_sum_exactly(self, ten_class_data):
        train, _ = ten_class_data
        parts = partition_quantity_dir(train, 13, 0.7, Rng(13))
        assert sum(p.n_train for p in parts) == train.n_samples

    def test_skew_regime(self, ten_class_data):
        # alpha=0.1, n=10: max/min size ratio > 5 in at least 80% of 50 seeds
        train, _ = ten_class_data
        hits = 0
        for seed in range(50):
            parts = partition_quantity_dir(train, 10, 0.1, Rng(2000 + seed))
            sizes = [p.n_train for p in parts]
            if max(sizes) / min(sizes) > 5:
                hits += 1
        assert hits >= 40


class TestLargestRemainder:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        near_integers=st.booleans(),
        size=st.integers(1, 60),
    )
    def test_floors_never_sum_above_total(self, data, near_integers, size):
        # near_integers: shares that are integer counts nudged by up to
        # 1e-9, with total their sum, so every raw value sits next to an
        # integer and the epsilon can lift its floor
        if near_integers:
            counts = data.draw(st.lists(st.integers(0, 10**4), min_size=size, max_size=size))
            assume(sum(counts) > 0)
            nudge = data.draw(st.lists(
                st.floats(-1e-9, 1e-9), min_size=size, max_size=size,
            ))
            shares = np.maximum(np.array(counts, dtype=np.float64) + nudge, 0.0)
            total = sum(counts)
        else:
            shares = np.array(data.draw(st.lists(
                st.floats(0.0, 1e6, allow_subnormal=False), min_size=size, max_size=size,
            )))
            total = data.draw(st.integers(0, 10**6))
        assume(shares.sum() > 0.0)
        raw = shares / shares.sum() * total
        assert int(np.floor(raw + _EPS).astype(np.int64).sum()) <= total
        got = largest_remainder_counts(shares, total)
        assert int(got.sum()) == total
        assert np.all(got >= 0) and np.all(np.abs(got - raw) < 1.0 + _EPS)


class TestCrossMechanismInvariants:
    def test_exact_cover_200_random_specs(self):
        # 200 random (mechanism, parameter, seed) draws on a smaller set
        ds = labels_only_dataset([i % 6 for i in range(300)], 6)
        meta = Rng(31337)
        for trial in range(200):
            kind = ["iid", "label-skew", "label-dir", "random-shard", "quantity-dir"][
                meta.randbelow(5)
            ]
            rng = Rng(50_000 + trial)
            if kind == "iid":
                parts = partition_iid(ds, 2 + meta.randbelow(10), rng)
            elif kind == "label-skew":
                n = 3 + meta.randbelow(10)
                p = (1.0 + meta.randbelow(6)) / 6.0
                while n * classes_per_client(p, 6) < 6:
                    n += 3
                parts = partition_label_skew(ds, n, p, rng)
            elif kind == "label-dir":
                parts = partition_label_dir(ds, 2 + meta.randbelow(10), 0.05 + meta.uniform() * 2, rng)
            elif kind == "random-shard":
                spc = [1, 2, 5][meta.randbelow(3)]
                n = {1: 6, 2: 10, 5: 4}[spc] if 300 % (spc * 6) else 6
                for cand in (10, 6, 5, 4, 3, 2):
                    if 300 % (cand * spc) == 0:
                        n = cand
                        break
                parts = partition_random_shard(ds, n, spc, rng)
            else:
                parts = partition_quantity_dir(ds, 2 + meta.randbelow(10), 0.1 + meta.uniform(), rng)
            assert_exact_cover(parts, 300)
            assert_owned_classes_consistent(parts, ds)

    def test_seed_determinism(self, ten_class_data):
        train, _ = ten_class_data
        for spec in (
            PartitionSpec("iid", 9),
            PartitionSpec("label-skew", 9, p=0.4),
            PartitionSpec("label-dir", 9, alpha=0.2),
            PartitionSpec("random-shard", 10, shards_per_client=2),
            PartitionSpec("quantity-dir", 9, alpha=0.5),
        ):
            a = make_partitions(train, spec, Rng(77))
            b = make_partitions(train, spec, Rng(77))
            for pa, pb in zip(a, b):
                assert np.array_equal(pa.train_indices, pb.train_indices)
                assert pa.owned_classes == pb.owned_classes


# 120 rows in shuffled order, with classes of 1, 2, 5, 20, 40 and 52 rows:
# the tiny classes send label-skew, label-dir and quantity-dir through
# their empty-client redraws
UNEVEN_TRAIN = labels_only_dataset(
    np.repeat(np.arange(6), [1, 2, 5, 20, 40, 52])[Rng(99).permutation(120)].tolist(), 6
)

# kind -> (uneven set?, spec) cases, each run at seeds 0, 1 and 2
GOLDEN_SPECS = {
    "iid": [(False, PartitionSpec("iid", 7)), (True, PartitionSpec("iid", 9))],
    "label-skew": [
        (False, PartitionSpec("label-skew", 20, p=0.2)),
        (False, PartitionSpec("label-skew", 9, p=0.35)),
        (True, PartitionSpec("label-skew", 12, p=1 / 6)),
        (True, PartitionSpec("label-skew", 4, p=1.0)),
    ],
    "label-dir": [
        (False, PartitionSpec("label-dir", 20, alpha=0.1)),
        (False, PartitionSpec("label-dir", 9, alpha=1.0)),
        (True, PartitionSpec("label-dir", 15, alpha=0.05)),
    ],
    "random-shard": [
        (False, PartitionSpec("random-shard", 10, shards_per_client=2)),
        (False, PartitionSpec("random-shard", 8, shards_per_client=5)),
        (True, PartitionSpec("random-shard", 6, shards_per_client=2)),
        (True, PartitionSpec("random-shard", 10, shards_per_client=3)),
    ],
    "quantity-dir": [
        (False, PartitionSpec("quantity-dir", 9, alpha=0.5)),
        (False, PartitionSpec("quantity-dir", 4, alpha=5.0)),
        (True, PartitionSpec("quantity-dir", 20, alpha=0.1)),
    ],
}


class TestPartitionGolden:
    """Pinned partitions of every mechanism.

    Each digest covers every client's id, train indices and owned
    classes, and the `uniform(4)` drawn right after the call, so it also
    pins how much of the stream the mechanism consumed. A change to how
    a mechanism assembles its clients must keep these values; a
    deliberate change of partitions re-pins them on purpose.
    """

    @pytest.mark.parametrize(
        "kind, expected",
        [
            ("iid", "d0d38f9ad70b4ee50bb3a976eddc1c8d"),
            ("label-skew", "8fb49a83872b87e65892f10149db7cac"),
            ("label-dir", "5b0457771c2dc3395937798430d17ca7"),
            ("random-shard", "aff99821f4b02ce107a124cf293e91a2"),
            ("quantity-dir", "48e719bdcb3f4710bc86596e4c4c1649"),
        ],
    )
    def test_partition_digest(self, kind, expected, ten_class_data):
        h = hashlib.sha256()
        for uneven, spec in GOLDEN_SPECS[kind]:
            for seed in range(3):
                rng = Rng(seed)
                parts = make_partitions(UNEVEN_TRAIN if uneven else ten_class_data[0], spec, rng)
                for p in parts:
                    h.update(np.array([p.client_id, p.n_train], dtype=np.int64).tobytes())
                    h.update(p.train_indices.tobytes())
                    h.update(np.array(sorted(p.owned_classes), dtype=np.int64).tobytes())
                h.update(rng.uniform(4).tobytes())
        assert h.hexdigest()[:32] == expected


# each kind's level parameter, two values apiece
LEVELS = {
    "iid": [{}],
    "label-skew": [{"p": 0.2}, {"p": 1.0}],
    "label-dir": [{"alpha": 0.1}, {"alpha": 1.0}],
    "random-shard": [{"shards_per_client": 1}, {"shards_per_client": 3}],
    "quantity-dir": [{"alpha": 0.3}, {"alpha": 5.0}],
}
SMALL_TRAIN, _ = balanced_dataset(n_classes=6, per_class=12, n_features=3, seed=4)


class TestAttachLocalTests:
    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(PARTITION_KINDS),
        level=st.integers(0, 1),
        n_clients=st.integers(1, 10),
        seed=st.integers(0, 2**16),
        test_labels=st.lists(st.integers(0, 5), max_size=40),
    )
    def test_each_client_equals_allocate_local_test(
        self, kind, level, n_clients, seed, test_labels
    ):
        # a test split may miss classes, so some clients own no test row
        spec = PartitionSpec(kind, n_clients, **LEVELS[kind][level % len(LEVELS[kind])])
        try:
            parts = make_partitions(SMALL_TRAIN, spec, Rng(seed))
        except (InvalidArgument, PartitionError):  # infeasible at this size
            assume(False)
        test = Dataset(np.full((len(test_labels), 3), 0.5), test_labels, 6, "test")
        attached = attach_local_tests(parts, test)
        by_classes = {}
        for part, got in zip(parts, attached):
            expected = allocate_local_test(test, part.owned_classes)
            reference = np.flatnonzero(np.isin(test.labels, sorted(part.owned_classes)))
            assert got.test_indices.dtype == expected.dtype == np.int64
            assert np.array_equal(got.test_indices, expected)
            assert np.array_equal(expected, reference)
            assert not got.test_indices.flags.writeable
            assert np.array_equal(got.train_indices, part.train_indices)
            assert (got.client_id, got.owned_classes) == (part.client_id, part.owned_classes)
            # clients owning equal class sets share one array
            assert by_classes.setdefault(part.owned_classes, got.test_indices) is got.test_indices


class TestManifest:
    def test_lines_format(self, ten_class_data):
        train, test = ten_class_data
        parts = attach_local_tests(partition_iid(train, 4, Rng(14)), test)
        lines = manifest_lines(parts)
        assert len(lines) == 4
        assert lines[0].startswith("client,0,classes,")
        assert ",train_n,250,test_n,400" in lines[0]

    def test_jsonl_round_trip(self, ten_class_data):
        import json

        train, test = ten_class_data
        parts = attach_local_tests(partition_iid(train, 4, Rng(15)), test)
        rec = json.loads(manifest_jsonl(parts)[2])
        assert rec["client"] == 2
        assert sorted(rec["train_indices"]) == parts[2].train_indices.tolist()

    def test_empty_client_rejected(self):
        with pytest.raises(InvalidArgument):
            ClientPartition(0, np.array([], dtype=np.int64), frozenset({0}))
