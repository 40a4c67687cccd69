"""Tests for the deterministic RNG tree."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rngtree import (
    RngTree,
    mt_words,
    sample_distinct,
    weighted_choice,
)


class TestRngTree:
    def test_same_path_same_stream(self):
        a = RngTree(42).child("x", 1).rng()
        b = RngTree(42).child("x", 1).rng()
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_labels_different_streams(self):
        a = RngTree(42).child("x").rng()
        b = RngTree(42).child("y").rng()
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_different_streams(self):
        a = RngTree(1).child("x").rng()
        b = RngTree(2).child("x").rng()
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_child_requires_labels(self):
        with pytest.raises(ValueError):
            RngTree(1).child()

    def test_seed_must_be_int(self):
        with pytest.raises(TypeError):
            RngTree("nope")  # type: ignore[arg-type]

    def test_nested_children_equal_flat_path(self):
        nested = RngTree(7).child("a").child("b", 3)
        flat = RngTree(7).child("a", "b", 3)
        assert nested == flat
        assert nested.derived_seed() == flat.derived_seed()

    def test_equality_and_hash(self):
        a = RngTree(7).child("a")
        b = RngTree(7).child("a")
        assert a == b
        assert hash(a) == hash(b)
        assert a != RngTree(7).child("b")

    def test_rng_calls_are_independent_objects(self):
        node = RngTree(9).child("z")
        first = node.rng()
        first.random()
        second = node.rng()
        # A fresh generator starts from the seed again.
        assert second.random() == node.rng().random()

    @given(st.integers(min_value=0, max_value=2**63), st.text(max_size=20))
    def test_derived_seed_stable_property(self, seed, label):
        assert (
            RngTree(seed).child(label).derived_seed()
            == RngTree(seed).child(label).derived_seed()
        )


class TestWeightedChoice:
    def test_empty_options_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(RngTree(1).rng(), [])

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(RngTree(1).rng(), [("a", 0.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(RngTree(1).rng(), [("a", -1.0)])

    def test_single_option_always_chosen(self):
        rng = RngTree(1).rng()
        assert weighted_choice(rng, [("only", 0.5)]) == "only"

    def test_zero_weight_option_never_chosen(self):
        rng = RngTree(2).rng()
        picks = {weighted_choice(rng, [("a", 1.0), ("b", 0.0)]) for _ in range(200)}
        assert picks == {"a"}

    def test_distribution_roughly_matches_weights(self):
        rng = RngTree(3).rng()
        counts = {"a": 0, "b": 0}
        for _ in range(4000):
            counts[weighted_choice(rng, [("a", 3.0), ("b", 1.0)])] += 1
        ratio = counts["a"] / counts["b"]
        assert 2.3 < ratio < 3.9

    @given(st.lists(st.tuples(st.integers(), st.floats(min_value=0.01, max_value=10)),
                    min_size=1, max_size=8), st.integers())
    def test_choice_always_from_options(self, options, seed):
        rng = RngTree(seed).rng()
        value = weighted_choice(rng, options)
        assert value in [v for v, _w in options]


class TestSampleDistinct:
    def test_sample_smaller_than_population(self):
        rng = RngTree(4).rng()
        sample = sample_distinct(rng, range(100), 10)
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_sample_larger_than_population_returns_all(self):
        rng = RngTree(5).rng()
        sample = sample_distinct(rng, [1, 2, 3], 10)
        assert sorted(sample) == [1, 2, 3]


class TestMtWords:
    """The numpy continuation against ``random.Random`` itself."""

    COUNTS = (0, 1, 623, 624, 625, 10**5)

    @staticmethod
    def twins(consumed: int):
        """Two generators at the same point, ``consumed`` words in."""
        rng = RngTree(31).rng()
        for _ in range(consumed):
            rng.getrandbits(32)
        oracle = random.Random()
        oracle.setstate(rng.getstate())
        return rng, oracle

    @pytest.mark.parametrize("consumed", [0, 1, 624, 1000])
    @pytest.mark.parametrize("count", COUNTS)
    def test_words_are_the_next_32_bit_draws(self, consumed, count):
        rng, oracle = self.twins(consumed)
        words = mt_words(rng, count)
        assert words.dtype == "uint32"
        assert words.tolist() == [oracle.getrandbits(32) for _ in range(count)]
        # The generator continues exactly where the scalar stream is.
        assert rng.random() == oracle.random()
        assert rng.getstate() == oracle.getstate()

    @pytest.mark.parametrize("bits", [1, 24, 29, 32])
    @pytest.mark.parametrize("count", COUNTS)
    def test_getrandbits_is_one_word_shifted(self, bits, count):
        rng, oracle = self.twins(5)
        words = mt_words(rng, count)
        assert (words >> (32 - bits)).tolist() == [
            oracle.getrandbits(bits) for _ in range(count)
        ]
        assert rng.getrandbits(bits) == oracle.getrandbits(bits)

    @pytest.mark.parametrize("count", COUNTS)
    def test_random_is_two_words_combined(self, count):
        rng, oracle = self.twins(3)
        words = mt_words(rng, 2 * count).astype("uint64")
        high, low = words[0::2] >> 5, words[1::2] >> 6
        rolls = ((high << 26) + low).astype("float64") / 2.0**53
        assert rolls.tolist() == [oracle.random() for _ in range(count)]
        assert rng.random() == oracle.random()

    def test_gauss_state_survives(self):
        rng, oracle = self.twins(0)
        rng.gauss(0.0, 1.0)
        oracle.gauss(0.0, 1.0)
        mt_words(rng, 10)
        for _ in range(10):
            oracle.getrandbits(32)
        assert rng.gauss(0.0, 1.0) == oracle.gauss(0.0, 1.0)
