"""Unit tests for the coverage-guided fuzzing loop."""

import hashlib

import numpy as np
import pytest

from ganfuzz.errors import UsageError
from ganfuzz.fuzzer import (
    FuzzConfig,
    FuzzerState,
    deterministic_mutations,
    fuzz_loop,
    havoc,
    mutate,
    reinitialize,
    replay_audit,
    run_workers,
)
from ganfuzz.synth import SyntheticBatch
from ganfuzz.targets import MINIKEY

# Frozen at first build: minikey, single seed "MKEY", budget 50,000, rng seed 0.
GOLDEN_50K_DISCOVERIES = 38

# SHA-256 of repr(_queue_fingerprint(...)) for minikey, seed "MKEY", budget
# 20,000, rng seed 0; frozen while the target still materialized its traces.
GOLDEN_20K_QUEUE_SHA256 = "b8df29632ac0ebd045477f4f483333589a5beb62c5860a166872153b3ddb8f09"


def _queue_fingerprint(state):
    return [(e.id, e.data, e.origin, e.discovered_at, e.trace_length, e.outcome)
            for e in state.queue]


class TestDeterministicMutations:
    def test_first_mutation_is_msb_bitflip(self):
        first = next(deterministic_mutations(b"\x00", 512))
        assert first == b"\x80"

    def test_arith8_wraps(self):
        muts = set(deterministic_mutations(b"\xff", 512))
        assert b"\x00" in muts  # 0xFF + 1 wraps to 0x00

    def test_mutations_preserve_length(self):
        for m in deterministic_mutations(b"abcd", 512):
            assert len(m) == 4

    def test_prefix_cap_respected(self):
        # With max_bytes=2, no mutation touches byte 2 onward.
        for m in deterministic_mutations(b"ab" + b"Z" * 6, 2):
            assert m[2:] == b"Z" * 6


class TestHavoc:
    def test_length_bounds_over_many_mutations(self):
        rng = np.random.Generator(np.random.PCG64(0))
        config = FuzzConfig()
        seed = bytes(range(64))
        for _ in range(10_000):
            out = havoc(seed, [], rng, config)
            assert 1 <= len(out) <= config.max_len

    def test_mutate_rejects_empty_input(self):
        from ganfuzz.fuzzer import QueueEntry

        entry = QueueEntry(id=0, data=b"", discovered_at=0, parent=None,
                           origin="initial", trace_length=0)
        with pytest.raises(UsageError):
            mutate(entry, [], np.random.Generator(np.random.PCG64(0)))


class TestFuzzLoop:
    def test_zero_budget_is_noop(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        before = _queue_fingerprint(state)
        assert fuzz_loop(state, MINIKEY, 0) == []
        assert _queue_fingerprint(state) == before

    def test_empty_queue_raises(self):
        with pytest.raises(UsageError):
            fuzz_loop(FuzzerState(FuzzConfig()), MINIKEY, 10)

    def test_default_seed_when_none_given(self):
        state = FuzzerState.from_seeds([], MINIKEY, FuzzConfig())
        assert state.queue[0].data == b"0"

    def test_determinism(self):
        def run():
            state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=3))
            fuzz_loop(state, MINIKEY, 20_000)
            return state

        a, b = run(), run()
        assert _queue_fingerprint(a) == _queue_fingerprint(b)
        assert a.log == b.log

    def test_golden_discovery_count(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        new = fuzz_loop(state, MINIKEY, 50_000)
        assert len(new) == GOLDEN_50K_DISCOVERIES

    def test_golden_queue_digest(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        fuzz_loop(state, MINIKEY, 20_000)
        digest = hashlib.sha256(repr(_queue_fingerprint(state)).encode()).hexdigest()
        assert len(state.queue) == 22
        assert digest == GOLDEN_20K_QUEUE_SHA256

    def test_split_budget_equals_one_call(self):
        # Budgets that end mid deterministic pass and mid havoc round: each
        # is resumed by the next call on the same entry, so the split run is
        # the single run. The queue grows during the cut passes.
        single = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        fuzz_loop(single, MINIKEY, 60_000)
        cuts = []
        split = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        for budget in (7, 9_993, 10_000, 30_000, 800, 4_203, 4_997):
            fuzz_loop(split, MINIKEY, budget)
            cuts.append("havoc" if split._round[0].det_done else "det")
        assert {"det", "havoc"} <= set(cuts)
        assert _queue_fingerprint(split) == _queue_fingerprint(single)
        assert split.log == single.log
        assert split.exec_count == single.exec_count == 60_001

    def test_virtual_time_strictly_increasing(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=1))
        fuzz_loop(state, MINIKEY, 10_000)
        ticks = [e.discovered_at for e in state.queue]
        assert ticks == sorted(ticks)
        assert len(set(ticks)) == len(ticks)

    def test_ids_dense(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=1))
        fuzz_loop(state, MINIKEY, 10_000)
        assert [e.id for e in state.queue] == list(range(len(state.queue)))

    def test_replay_audit_passes_on_real_run(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=2))
        fuzz_loop(state, MINIKEY, 20_000)
        assert replay_audit(state.queue, MINIKEY)

    def test_replay_audit_catches_tampering(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=2))
        fuzz_loop(state, MINIKEY, 20_000)
        # Duplicate a mutation-origin entry: the copy cannot be novel on replay.
        victim = next(e for e in state.queue if e.origin == "mutation")
        from dataclasses import replace

        tampered = state.queue + [replace(victim, id=len(state.queue))]
        assert not replay_audit(tampered, MINIKEY)


class TestReinitialize:
    def test_queue_grows_by_batch_size(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        batch = SyntheticBatch("rand_urandom", [bytes([i]) * 4 for i in range(200)])
        before = len(state.queue)
        reinitialize(state, batch, MINIKEY)
        assert len(state.queue) == before + 200

    def test_origin_tagging(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        reinitialize(state, SyntheticBatch("gan", [b"aa"]), MINIKEY)
        reinitialize(state, SyntheticBatch("rand_corpus", [b"bb"]), MINIKEY)
        assert state.queue[-2].origin == "synthetic:gan"
        assert state.queue[-1].origin == "synthetic:rand"

    def test_empty_batch_raises(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        with pytest.raises(UsageError):
            reinitialize(state, SyntheticBatch("gan", []), MINIKEY)

    def test_double_injection_gets_fresh_ids(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        batch = SyntheticBatch("gan", [b"xy", b"zw"])
        first = reinitialize(state, batch, MINIKEY)
        second = reinitialize(state, batch, MINIKEY)
        assert {e.id for e in first}.isdisjoint({e.id for e in second})
        assert len(state.queue) == 5


class TestRunWorkers:
    def test_single_worker_matches_direct_loop(self):
        direct = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=5))
        fuzz_loop(direct, MINIKEY, 5_000)
        (worker,) = run_workers(1, MINIKEY, [b"MKEY"], 5_000,
                                FuzzConfig(rng_seed=5), [5])
        assert _queue_fingerprint(worker) == _queue_fingerprint(direct)

    def test_identical_seeds_identical_corpora(self):
        states = run_workers(3, MINIKEY, [b"MKEY"], 5_000, FuzzConfig(), [9, 9, 9])
        prints = [_queue_fingerprint(s) for s in states]
        assert prints[0] == prints[1] == prints[2]

    def test_distinct_seeds_union_superset(self):
        states = run_workers(2, MINIKEY, [b"MKEY"], 5_000, FuzzConfig(), [1, 2])
        union = {e.data for s in states for e in s.queue}
        for s in states:
            assert len(union) >= len({e.data for e in s.queue})

    def test_bad_worker_args_raise(self):
        with pytest.raises(UsageError):
            run_workers(0, MINIKEY, [b"MKEY"], 10, FuzzConfig())
        with pytest.raises(UsageError):
            run_workers(2, MINIKEY, [b"MKEY"], 10, FuzzConfig(), [1])
