"""Unit tests for the random baseline strategies and batch plumbing."""

import numpy as np
import pytest

from ganfuzz.errors import UsageError
from ganfuzz.synth import (
    SyntheticBatch,
    median_seed_length,
    random_from_corpus,
    random_urandom,
)


def test_unknown_strategy_rejected():
    with pytest.raises(UsageError):
        SyntheticBatch("markov", [b"x"])


class TestRandomFromCorpus:
    def test_degenerate_single_byte_corpus(self):
        batch = random_from_corpus([b"A" * 30], 20, 10, rng_seed=0)
        assert all(s == b"A" * 10 for s in batch.seeds)

    def test_fifty_fifty_corpus_statistics(self):
        batch = random_from_corpus([b"A" * 50, b"B" * 50], 1000, 100, rng_seed=3)
        frac_a = sum(s.count(ord("A")) for s in batch.seeds) / 1e5
        assert 0.48 <= frac_a <= 0.52

    def test_lengths_and_count(self):
        batch = random_from_corpus([b"xyz"], 7, 13, rng_seed=1)
        assert len(batch.seeds) == 7
        assert all(len(s) == 13 for s in batch.seeds)

    def test_determinism(self):
        a = random_from_corpus([b"hello"], 5, 8, rng_seed=9)
        b = random_from_corpus([b"hello"], 5, 8, rng_seed=9)
        assert a.seeds == b.seeds

    def test_empty_corpus_raises(self):
        with pytest.raises(UsageError):
            random_from_corpus([], 1, 1, rng_seed=0)

    def test_bad_counts_raise(self):
        with pytest.raises(UsageError):
            random_from_corpus([b"x"], 0, 1, rng_seed=0)


class TestRandomUrandom:
    def test_shape_contract(self):
        batch = random_urandom(200, 64, rng_seed=0)
        assert len(batch.seeds) == 200
        assert all(len(s) == 64 for s in batch.seeds)

    def test_determinism(self):
        assert random_urandom(5, 16, rng_seed=4).seeds == random_urandom(5, 16, rng_seed=4).seeds

    def test_os_entropy_flag_differs_across_calls(self):
        a = random_urandom(2, 32, rng_seed=0, os_entropy=True)
        b = random_urandom(2, 32, rng_seed=0, os_entropy=True)
        assert a.seeds != b.seeds  # 2^-512 collision odds

    def test_byte_frequencies_near_uniform(self):
        # 10^5 bytes: per-value expectation 390.6, sigma 19.7; require 5 sigma.
        batch = random_urandom(400, 250, rng_seed=5)
        counts = np.bincount(
            np.frombuffer(b"".join(batch.seeds), dtype=np.uint8), minlength=256
        )
        assert counts.min() >= 292 and counts.max() <= 489

    def test_bad_counts_raise(self):
        with pytest.raises(UsageError):
            random_urandom(1, 0, rng_seed=0)


class TestMedianSeedLength:
    def test_median_and_clamping(self):
        assert median_seed_length([b"x" * 20, b"x" * 30, b"x" * 40]) == 30
        assert median_seed_length([b"x"]) == 16  # clamped up
        assert median_seed_length([b"x" * 5000]) == 256  # clamped down

    def test_empty_corpus_raises(self):
        with pytest.raises(UsageError):
            median_seed_length([])
