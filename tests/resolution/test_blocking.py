"""Tests for blocking strategies."""

import pytest

from repro.resolution.blocking import (
    BLOCKING_MODES,
    DEFAULT_LSH_HASHES,
    BlockIndex,
    MinHasher,
    derive_lsh_params,
    build_blocks,
    candidate_pairs,
    char_shingles,
    combine_keys,
    exact_keys,
    lsh_keys,
    make_block_keys,
    prefix_keys,
    stable_hash,
    token_keys,
)


class TestKeyFunctions:
    def test_token_keys_lowercase(self):
        assert token_keys("Main St") == {"main", "st"}

    def test_prefix_keys(self):
        fn = prefix_keys(3)
        assert fn("Martha") == {"mar"}
        assert fn("") == set()

    def test_exact_keys(self):
        assert exact_keys("X1") == {"X1"}
        assert exact_keys("") == set()


class TestBlocks:
    def test_build_blocks(self):
        blocks = build_blocks(["a b", "b c", "d"])
        assert blocks["b"] == [0, 1]
        assert blocks["d"] == [2]

    def test_candidate_pairs_within_blocks_only(self):
        blocks = build_blocks(["a x", "a y", "b z"])
        pairs = candidate_pairs(blocks)
        assert (0, 1) in pairs
        assert (0, 2) not in pairs

    def test_pairs_deduped_across_blocks(self):
        blocks = build_blocks(["a b", "a b"])
        assert candidate_pairs(blocks) == {(0, 1)}

    def test_oversized_blocks_skipped(self):
        values = ["common"] * 10
        blocks = build_blocks(values)
        assert candidate_pairs(blocks, max_block_size=5) == set()

    def test_pairs_are_ordered(self):
        blocks = build_blocks(["k", "k"])
        assert all(a < b for a, b in candidate_pairs(blocks))


class TestShingles:
    def test_normalizes_case_and_whitespace(self):
        assert char_shingles("A  B", 3) == char_shingles("a b", 3)

    def test_short_values_shingle_whole(self):
        assert char_shingles("ab", 3) == {"ab"}
        assert char_shingles("", 3) == set()

    def test_gram_count(self):
        assert char_shingles("abcd", 3) == {"abc", "bcd"}


class TestMinHasher:
    def test_signature_is_deterministic(self):
        a = MinHasher(12).signature("5 Main Street")
        b = MinHasher(12).signature("5 Main Street")
        assert a == b
        assert len(a) == 12

    def test_empty_value_empty_signature(self):
        assert MinHasher(8).signature("") == ()

    def test_similar_values_agree_more(self):
        hasher = MinHasher(64)
        base = hasher.signature("100 north main street springfield")
        near = hasher.signature("100 north main street sprngfield")
        far = hasher.signature("the quarterly journal of economics")

        def agreement(x, y):
            return sum(1 for p, q in zip(x, y) if p == q) / len(x)

        assert agreement(base, near) > agreement(base, far)
        assert agreement(base, near) > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            MinHasher(0)
        with pytest.raises(ValueError):
            MinHasher(4, shingle=0)


class TestLshKeys:
    def test_one_key_per_band_in_band_order(self):
        fn = lsh_keys(bands=6, rows=2)
        keys = list(fn("5 Main Street"))
        assert len(keys) == 6
        assert [k[1] for k in keys] == list(range(6))
        assert all(k[0] == "lsh" for k in keys)

    def test_empty_value_no_keys(self):
        assert list(lsh_keys()("")) == []
        assert list(lsh_keys()("   ")) == []

    def test_near_duplicates_share_a_block(self):
        fn = lsh_keys(bands=16, rows=3)
        a = set(fn("100 north main street springfield"))
        b = set(fn("100 north main street sprngfield"))
        assert a & b

    def test_unrelated_values_do_not_collide(self):
        fn = lsh_keys(bands=16, rows=3)
        a = set(fn("100 north main street springfield"))
        b = set(fn("proceedings of the vldb endowment"))
        assert not (a & b)

    def test_keys_are_process_stable(self):
        # Pinned values: any str-hash salting or parameter drift that
        # leaked into the keys would break cross-process shard routing.
        keys = list(lsh_keys(bands=2, rows=2)("abc"))
        assert keys == [
            ("lsh", 0, 113158063),
            ("lsh", 1, 1557913380),
        ]

    def test_keys_route_through_block_index(self):
        fn = lsh_keys(bands=4, rows=2)
        index = BlockIndex(retention=2)
        for rid, value in [("r0", "5 Main St"), ("r1", "5 Main St.")]:
            for key in fn(value):
                index.add(key, rid)
        shared = [k for k in fn("5 Main St") if "r1" in index.members(k)]
        assert shared  # rotation works on LSH keys too

    def test_validation(self):
        with pytest.raises(ValueError):
            lsh_keys(bands=0)
        with pytest.raises(ValueError):
            lsh_keys(rows=0)


class TestKeyComposition:
    def test_combine_keys_unions_and_dedupes(self):
        fn = combine_keys(token_keys, token_keys, lsh_keys(bands=2))
        keys = list(fn("Main St"))
        assert keys.count("main") == 1
        assert sum(1 for k in keys if isinstance(k, tuple)) == 2

    def test_make_block_keys_modes(self):
        assert make_block_keys("token") is token_keys
        lsh_fn = make_block_keys("lsh", bands=4, rows=2)
        assert len(list(lsh_fn("Main Street"))) == 4
        both = make_block_keys("token+lsh", bands=4, rows=2)
        keys = list(both("Main Street"))
        assert "main" in keys
        assert sum(1 for k in keys if isinstance(k, tuple)) == 4

    def test_make_block_keys_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            make_block_keys("sorted-neighborhood")
        assert "lsh" in BLOCKING_MODES


class TestDeriveLshParams:
    """The S-curve-fitted defaults behind ``--similarity-threshold``."""

    def test_respects_the_signature_budget(self):
        for threshold in (0.3, 0.5, 0.7, 0.8, 0.9):
            bands, rows = derive_lsh_params(threshold)
            assert bands >= 1 and rows >= 1
            assert bands * rows <= DEFAULT_LSH_HASHES

    def test_collision_cliff_lands_at_the_threshold(self):
        """The derived banding puts the steep part of the S-curve at
        the threshold: collision probability is moderate there, near
        one well above it, and near zero well below it."""
        for threshold in (0.5, 0.6, 0.7, 0.8, 0.9):
            bands, rows = derive_lsh_params(threshold)

            def p(s):
                return 1.0 - (1.0 - s**rows) ** bands

            assert 0.2 <= p(threshold) <= 0.8
            assert p(min(0.99, threshold + 0.15)) > p(threshold)
            assert p(max(0.01, threshold - 0.25)) < 0.15
            assert p(min(0.999, threshold + 0.09999)) > 0.45

    def test_stricter_thresholds_mean_more_rows(self):
        rows_by_threshold = [
            derive_lsh_params(t)[1] for t in (0.5, 0.7, 0.9)
        ]
        assert rows_by_threshold == sorted(rows_by_threshold)

    def test_deterministic(self):
        assert derive_lsh_params(0.8) == derive_lsh_params(0.8)

    def test_smaller_budgets_are_honoured(self):
        bands, rows = derive_lsh_params(0.8, num_hashes=12)
        assert bands * rows <= 12

    def test_rejects_degenerate_thresholds(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                derive_lsh_params(bad)
        with pytest.raises(ValueError):
            derive_lsh_params(0.8, num_hashes=0)
