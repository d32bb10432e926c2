import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.core import Rng, dirichlet_sample, hash64
from fedsim.errors import IncompatibleShape, InvalidArgument
from fedsim.federation import fuse_fedavg


def assert_chi_square_uniform(counts: np.ndarray, df: int) -> None:
    """Pearson's statistic of counts that should be equal, within the
    two-sided 1e-6 tails of chi-square with `df` degrees of freedom, by
    the Wilson-Hilferty normal approximation."""
    expected = counts.sum() / counts.size
    stat = float(((counts - expected) ** 2).sum() / expected)
    z = ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
    assert abs(z) < 4.9, f"chi-square {stat:.1f} on {df} degrees of freedom (z = {z:.2f})"


class TestRng:
    def test_same_seed_bit_identical_million_draws(self):
        a = Rng(987654321).uniform(10**6)
        b = Rng(987654321).uniform(10**6)
        assert np.array_equal(a, b)

    def test_same_seed_bit_identical_across_processes(self):
        import hashlib
        import subprocess
        import sys

        local = hashlib.sha256(Rng(987654321).uniform(10**6).tobytes()).hexdigest()
        code = (
            "import hashlib; from fedsim.core import Rng; "
            "print(hashlib.sha256(Rng(987654321).uniform(10**6).tobytes()).hexdigest())"
        )
        remote = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert remote.stdout.strip() == local

    def test_scalar_and_vector_draws_reproducible(self):
        r1, r2 = Rng(5), Rng(5)
        seq1 = [r1.uniform() for _ in range(100)]
        seq2 = [r2.uniform() for _ in range(100)]
        assert seq1 == seq2

    def test_substreams_distinct_per_client_round(self):
        root = Rng(42)
        seen = set()
        for client in range(20):
            for rnd in range(20):
                sub = root.substream("client", client, rnd)
                seen.add(sub.uniform(4).tobytes())
        assert len(seen) == 400

    @pytest.mark.parametrize("n, count", [(1, 3), (20, 5), (100, 1), (100, 20), (700, 2)])
    def test_shuffles_are_count_permutations_of_range_n(self, n, count):
        got = Rng(3, 11).shuffles(n, count)
        assert got.shape == (count, n)
        assert all(sorted(row) == list(range(n)) for row in got.tolist())

    def test_fresh_stream_refills_only_what_it_asks_for(self):
        # a short substream buffers the words its first request asks for,
        # not a whole block; later refills take whole blocks again
        rng = Rng(5).substream("client", 0, 0)
        rng.shuffles(20, 5)
        assert len(rng._buf) == 100
        rng.uniform(Rng._BLOCK)
        assert len(rng._buf) >= Rng._BLOCK
        # a long first request buffers just its words, rounded up to whole
        # 4-word Philox blocks
        long = Rng(5).substream("client", 1, 0)
        long.shuffles(7, 301)
        assert len(long._buf) == 2108

    @pytest.mark.parametrize(
        "n, draws", [(2, 20_000), (3, 20_000), (5, 20_000), (20, 5_000), (100, 2_000)]
    )
    def test_shuffle_positions_are_uniform(self, n, draws):
        # counts[i, v]: how many of the shuffles hold v at position i;
        # every row and column sums to `draws`
        rows = Rng(77, n).shuffles(n, draws)
        counts = np.zeros((n, n))
        np.add.at(counts, (np.broadcast_to(np.arange(n), rows.shape), rows), 1)
        assert_chi_square_uniform(counts, (n - 1) ** 2)

    def test_shuffle_orders_are_uniform(self):
        # all 24 orders of 4 items, each row read as a base-4 number
        rows = Rng(78).shuffles(4, 48_000)
        counts = np.bincount(rows @ 4 ** np.arange(4), minlength=4**4)
        counts = counts[counts > 0]
        assert counts.size == 24
        assert_chi_square_uniform(counts, 23)

    def test_substream_reproducible(self):
        a = Rng(7).substream("client", 3, 9).uniform(16)
        b = Rng(7).substream("client", 3, 9).uniform(16)
        assert np.array_equal(a, b)

    def test_permutation_is_permutation(self):
        perm = Rng(3).permutation(100)
        assert sorted(perm.tolist()) == list(range(100))

    def test_sample_without_replacement(self):
        got = Rng(11).sample_without_replacement(10, 4)
        assert len(set(got.tolist())) == 4
        assert all(0 <= v < 10 for v in got)
        assert np.array_equal(got, np.sort(got))

    def test_normal_moments(self):
        z = Rng(17).normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_gamma_moments(self):
        r = Rng(23)
        for alpha in (0.3, 1.0, 4.5):
            draws = np.array([r.gamma(alpha) for _ in range(20_000)])
            # Gamma(alpha, 1) has mean alpha and variance alpha
            assert abs(draws.mean() - alpha) < 4 * math.sqrt(alpha / 20_000)

    def test_gamma_rejects_bad_alpha(self):
        with pytest.raises(InvalidArgument):
            Rng(1).gamma(0.0)


def _stream_digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.asarray(p).tobytes())
    return h.hexdigest()[:32]


class TestRngStreamGolden:
    """Pinned outputs of the integer draws on the raw stream.

    Every digest also covers the `uniform(8)` drawn right after the call,
    so it pins how many raw words the call consumed, not just its result.
    Any change to how permutations, shuffles and samples read the stream
    must keep these values; a deliberate change of stream re-pins them on
    purpose.
    """

    @pytest.mark.parametrize(
        "n, expected",
        [
            (0, "2a82782b3736662fa57ab76120e9df06"),
            (1, "42465d8dd1d543416d657aae85620fc5"),
            (2, "14737234944c1abba2f84c6e231dcfcd"),
            (7, "2dba0a29d395be46d3f965dbcbc0b4f6"),
            (100, "117f6b11f76bf1bc1e22eafea5b48e49"),
            (1023, "ab6d88d1eb09886f40fda8e87e13fbac"),
            (1024, "cb23a09a663f71bef73b9be3f996a660"),
            (1025, "b77daff7bafccb2d6b9f263b42c50be4"),
            (5000, "63604b8e5df9b726a3b2d56af084e75c"),
        ],
    )
    def test_permutation(self, n, expected):
        r = Rng(2024, n)
        assert _stream_digest(r.permutation(n).astype(np.int64), r.uniform(8)) == expected

    @pytest.mark.parametrize(
        "n, k, expected",
        [
            (10, 4, "ca81020164d9a975734313be80009e12"),
            (100, 100, "9e13d6d852e97e485165a6ecb1777964"),
            (1, 1, "7f90e5e05ca874e35e80de449403886f"),
            (5, 0, "5dab8ce52f957fb080e11ac1c838db7d"),
            (3000, 1500, "0be7431ae8549c1b254c5abf900086c2"),
        ],
    )
    def test_sample_without_replacement(self, n, k, expected):
        r = Rng(2024, 7)
        got = r.sample_without_replacement(n, k).astype(np.int64)
        assert _stream_digest(got, r.uniform(8)) == expected

    def test_randbelow_sequence(self):
        r = Rng(31)
        seq = [r.randbelow(m) for m in (1, 2, 3, 5, 8, 100, 1000, 2**40 + 3) * 40]
        got = _stream_digest(np.array(seq, dtype=np.int64), r.uniform(8))
        assert got == "dcf65a16d40170e72453aa416c6de300"

    @pytest.mark.parametrize(
        "skip, n, expected",
        [
            # the draws for these permutations start a few words before the
            # end of a 1024-word buffer block, so they run across a refill
            (1000, 200, "d92e8bac770665ebb7e81709174402e0"),
            (1020, 5000, "d11227a6d16b45fba6b2d2d1ad5cf20c"),
            (1023, 2, "1b5ff7aad31d1ab2b541c56d6a79034b"),
            # the block's last words suffice, but a bulk read sized for
            # rejections would reach past the block end
            (730, 200, "81bdf9e016958ceca57fd4d517efa05e"),
            (870, 100, "995df8547e28df41c79dd647353f0a31"),
        ],
    )
    def test_permutation_across_buffer_refill(self, skip, n, expected):
        r = Rng(9)
        r.uniform(skip)
        assert _stream_digest(r.permutation(n).astype(np.int64), r.uniform(8)) == expected

    @pytest.mark.parametrize(
        "n, count, expected",
        [
            (20, 0, "1d6637f37d97bef3b8b6c25cd7d45aae"),
            (0, 5, "c862e4fcb444c300cb113593c88ec186"),
            (1, 5, "cea0217cfcd83b5ec4b3a3eb49f10bb6"),
            (20, 5, "065dc03a9611990254975500f0fb2013"),
            (100, 10, "e1b328b524b12629f2af9c835c9508a3"),
        ],
    )
    def test_shuffles(self, n, count, expected):
        r = Rng(2024, 1000 + n)
        assert _stream_digest(r.shuffles(n, count).astype(np.int64), r.uniform(8)) == expected

    def test_shuffles_across_buffer_refill(self):
        # a 4-word first refill, then a 1024-word block of which the
        # shuffles read the last 27 words and 73 words of the next block
        r = Rng(9)
        r.uniform(1)
        r.uniform(1000)
        got = _stream_digest(r.shuffles(20, 5).astype(np.int64), r.uniform(8))
        assert got == "1e914d5890cd4fc5a01498b119c40840"

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        skip=st.integers(0, 2100),
        n=st.integers(0, 1500),
        k_frac=st.floats(0.0, 1.0),
    )
    def test_bulk_draws_match_scalar_randbelow(self, seed, skip, n, k_frac):
        """The reference loops: one randbelow call per swap."""
        k = int(k_frac * n)
        bulk, ref = Rng(seed), Rng(seed)
        bulk.uniform(skip)
        ref.uniform(skip)

        perm = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = ref.randbelow(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        pool = np.arange(n, dtype=np.int64)
        for i in range(k):
            j = i + ref.randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]

        assert np.array_equal(bulk.permutation(n), perm)
        assert np.array_equal(bulk.sample_without_replacement(n, k), np.sort(pool[:k]))
        assert np.array_equal(bulk.uniform(8), ref.uniform(8))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        stream=st.integers(0, 2**64 - 1),
        skip=st.integers(0, 2100),
        n=st.integers(0, 120),
        count=st.integers(0, 25),
    )
    def test_shuffles_sort_the_words_of_one_philox_stream(self, seed, stream, skip, n, count):
        """However the reads fall on buffer refills, the shuffles sort the
        words a Philox keyed (seed, stream) yields in one call."""
        r = Rng(seed, stream)
        r.uniform(skip)
        words = np.random.Philox(key=seed | stream << 64).random_raw(skip + n * count + 8)
        expected = np.argsort(words[skip : skip + n * count].reshape(count, n), axis=1, kind="stable")
        assert np.array_equal(r.shuffles(n, count), expected)
        assert np.array_equal(r._raw(8), words[-8:])

    def test_interleaved_calls(self):
        r = Rng(13)
        parts = [
            r.permutation(50),
            r.sample_without_replacement(40, 12),
            [r.randbelow(17)],
            r.permutation(1500),
            r.sample_without_replacement(2000, 600),
        ]
        got = _stream_digest(*[np.asarray(p, dtype=np.int64) for p in parts], r.uniform(8))
        assert got == "7c902df00a31513b241f14cc1d38f7dc"


class TestDirichlet:
    def test_concentration_limit(self):
        p = dirichlet_sample(Rng(1), 1e9, 4)
        assert np.all(np.abs(p - 0.25) < 1e-3)

    def test_k_equals_one(self):
        assert dirichlet_sample(Rng(2), 0.7, 1).tolist() == [1.0]

    def test_monte_carlo_mean(self):
        # Dirichlet(0.5,...,0.5) over 10 coords has mean 1/10 and
        # per-coordinate variance a(a0-a)/(a0^2 (a0+1)) = 0.015.
        rng = Rng(20240617)
        draws = np.vstack([dirichlet_sample(rng, 0.5, 10) for _ in range(10_000)])
        se = math.sqrt(0.015 / 10_000)
        assert np.all(np.abs(draws.mean(axis=0) - 0.1) < 3 * se)

    def test_invariants_over_random_draws(self):
        rng = Rng(99)
        meta = Rng(100)
        for _ in range(10_000):
            alpha = 0.05 + meta.uniform() * 5.0
            k = 1 + meta.randbelow(12)
            p = dirichlet_sample(rng, alpha, k)
            assert p.shape == (k,)
            assert np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) <= 1e-9

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgument):
            dirichlet_sample(Rng(1), -1.0, 3)
        with pytest.raises(InvalidArgument):
            dirichlet_sample(Rng(1), 1.0, 0)


class TestHash64:
    def test_stable_known_inputs(self):
        assert hash64(1, 2) == hash64(1, 2)
        assert hash64("client", 1) != hash64("client", 2)
        assert hash64("a", 1) != hash64(1, "a")


class TestWeightedMean:
    """The size-weighted mean fuse_fedavg computes: sum(w_k * v_k) / sum(w_k)."""

    def test_symmetry(self):
        out = fuse_fedavg([(np.array([1.0]), 1), (np.array([3.0]), 1)])
        assert out.tolist() == [2.0]

    def test_size_weighted(self):
        # (1*0 + 3*4) / 4 = 3
        out = fuse_fedavg([(np.array([0.0]), 1), (np.array([4.0]), 3)])
        assert out.tolist() == [3.0]

    def test_single_vector_identity(self):
        theta = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(fuse_fedavg([(theta, 0.7)]), theta)

    def test_layout_mismatch(self):
        with pytest.raises(IncompatibleShape):
            fuse_fedavg([(np.ones(5), 1), (np.ones(4), 1)])

    def test_all_zero_weights(self):
        theta = np.ones(5)
        with pytest.raises(InvalidArgument):
            fuse_fedavg([(theta, 0), (theta, 0)])

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.lists(
            st.lists(st.floats(-10, 10), min_size=4, max_size=4), min_size=1, max_size=6
        ),
        weights=st.lists(st.floats(0.01, 10), min_size=6, max_size=6),
        scale=st.floats(0.001, 1000),
    )
    def test_weight_scaling_invariance(self, data, weights, scale):
        vecs = [np.array(row) for row in data]
        w = weights[: len(vecs)]
        a = fuse_fedavg(list(zip(vecs, w)))
        b = fuse_fedavg([(v, scale * x) for v, x in zip(vecs, w)])
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a)))
