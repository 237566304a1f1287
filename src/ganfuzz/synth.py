"""Synthetic seed batches and the two random baseline strategies."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

STRATEGIES = ("gan", "lstm", "rand_corpus", "rand_urandom")


@dataclass
class SyntheticBatch:
    strategy: str
    seeds: list[bytes]

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise UsageError(f"unknown strategy {self.strategy!r}")


def random_from_corpus(corpus: list[bytes], n: int, length: int, rng_seed: int) -> SyntheticBatch:
    """Draw every output byte i.i.d. uniformly from the byte multiset of a
    corpus given as a list of bytes."""
    if not corpus:
        raise UsageError("random_from_corpus needs a non-empty corpus")
    if n < 1 or length < 1:
        raise UsageError("n and length must be >= 1")
    pool = np.frombuffer(b"".join(corpus), dtype=np.uint8)
    if pool.size == 0:
        raise UsageError("corpus contains no bytes")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    draws = pool[rng.integers(0, pool.size, size=(n, length))]
    return SyntheticBatch("rand_corpus", [row.tobytes() for row in draws])


def random_urandom(n: int, length: int, rng_seed: int, os_entropy: bool = False) -> SyntheticBatch:
    """Uniform random bytes; a seeded PRNG stands in for /dev/urandom unless
    os_entropy is set."""
    if n < 1 or length < 1:
        raise UsageError("n and length must be >= 1")
    if os_entropy:
        seeds = [os.urandom(length) for _ in range(n)]
    else:
        rng = np.random.Generator(np.random.PCG64(rng_seed))
        seeds = [rng.integers(0, 256, size=length, dtype=np.uint8).tobytes() for _ in range(n)]
    return SyntheticBatch("rand_urandom", seeds)


def median_seed_length(corpus: list[bytes], low: int = 16, high: int = 256) -> int:
    """Default GAN output length: the median length of a corpus given as a
    list of bytes, clamped to [low, high]."""
    if not corpus:
        raise UsageError("empty corpus")
    lengths = sorted(map(len, corpus))
    median = lengths[len(lengths) // 2]
    return max(low, min(high, median))
