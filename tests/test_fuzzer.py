"""Unit tests for the coverage-guided fuzzing loop."""

import hashlib

import numpy as np
import pytest

from ganfuzz.errors import UsageError
from ganfuzz.experiment import default_initial_seeds
from ganfuzz.fuzzer import (
    MAX_INPUT_LEN,
    FuzzConfig,
    FuzzerState,
    deterministic_mutations,
    fuzz_loop,
    havoc,
    reinitialize,
    replay_audit,
    run_workers,
)
from ganfuzz.synth import SyntheticBatch
from ganfuzz.targets import MINIKEY, TargetProgram

from oracles import plain_deterministic_mutations

# Frozen at first build: minikey, single seed "MKEY", budget 50,000, rng seed 0.
GOLDEN_50K_DISCOVERIES = 38

# SHA-256 of repr(_queue_fingerprint(...)) for minikey, seed "MKEY", budget
# 20,000, rng seed 0; frozen while the target still materialized its traces.
GOLDEN_20K_QUEUE_SHA256 = "b8df29632ac0ebd045477f4f483333589a5beb62c5860a166872153b3ddb8f09"

# _run_digest(...) (queue fingerprint, admission lines and exec_count) for minikey,
# default_initial_seeds(), budget 110,000, rng seed 0: the phase-1 crash flood
# (2,546 entries, 2,511 of them crashes). Frozen while every deterministic
# candidate was still executed, repeats included.
GOLDEN_CRASH_FLOOD_SHA256 = "d439535a9bbfcf94bfb2b24cf7d97728683bc77b361891d4495123010e92929c"


def _fingerprint(entries):
    return [(e.id, e.data, e.origin, e.discovered_at, e.trace_length, e.outcome)
            for e in entries]


def _queue_fingerprint(state):
    return _fingerprint(state.queue)


def _tail_return(state, budget):
    """fuzz_loop's return, checked to be the queue's tail from where the
    call began, entry for entry."""
    start = len(state.queue)
    new = fuzz_loop(state, MINIKEY, budget)
    assert len(new) == len(state.queue) - start
    assert all(a is b for a, b in zip(new, state.queue[start:]))
    return new


def _whole_state(state):
    """Everything a run leaves in its state: config, entries (every field,
    det_done included), crashes, exec count, coverage bits, generator state,
    cursor and the round a later call would resume."""
    return (state.config, state.queue, state.crashes, state.exec_count,
            bytes(state.coverage._bits), state.coverage.cells.tobytes(),
            state.rng.bit_generator.state, state._cursor, state._round)


def _admission_lines(state):
    """One line per queue entry: exec_count at admission, id, origin, trace
    length and novelty, as the fuzzer once logged them."""
    return [f"{e.discovered_at}\t{e.id}\t{e.origin}\t{e.trace_length}\t{int(e.novel)}"
            for e in state.queue]


def _run_digest(state):
    return hashlib.sha256(repr((_queue_fingerprint(state), _admission_lines(state),
                                state.exec_count)).encode()).hexdigest()


def _resolved(data, max_bytes):
    """The pass's candidates with each repeat replaced by the bytes it repeats."""
    out = []
    for candidate in deterministic_mutations(data, max_bytes):
        out.append(out[candidate] if isinstance(candidate, int) else candidate)
    return out


def _dedup_inputs():
    """300+ inputs rich in 0x00/0x7f/0x80/0xff bytes (where carries and
    interesting values collide), including 1- and 2-byte ones."""
    rng = np.random.Generator(np.random.PCG64(7))
    edges = np.array([0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF], dtype=np.uint8)
    inputs = [bytes([b]) for b in (0x00, 0x7F, 0x80, 0xFF, 0x41)]
    inputs += [bytes([a, b]) for a in (0x00, 0x7F, 0x80, 0xFF) for b in (0x00, 0x7F, 0x80, 0xFF)]
    inputs += [b"MKEY", bytes(range(256))]
    while len(inputs) < 320:
        n = int(rng.integers(1, 24))
        data = rng.integers(0, 256, n, dtype=np.uint8)
        pick = rng.random(n) < 0.6
        data[pick] = rng.choice(edges, int(pick.sum()))
        inputs.append(data.tobytes())
    return inputs


class TestDeterministicMutations:
    def test_first_mutation_is_msb_bitflip(self):
        first = next(deterministic_mutations(b"\x00", 512))
        assert first == b"\x80"

    def test_arith8_wraps(self):
        muts = set(deterministic_mutations(b"\xff", 512))
        assert b"\x00" in muts  # 0xFF + 1 wraps to 0x00

    def test_mutations_preserve_length(self):
        for m in _resolved(b"abcd", 512):
            assert len(m) == 4

    def test_prefix_cap_respected(self):
        # With max_bytes=2, no mutation touches byte 2 onward.
        for m in _resolved(b"ab" + b"Z" * 6, 2):
            assert m[2:] == b"Z" * 6

    @pytest.mark.parametrize("max_bytes", [1, 3, 512])
    def test_repeats_are_exact(self, max_bytes):
        # Against the longhand pass: the same candidates in the same order;
        # every index yielded points to an earlier candidate with equal bytes,
        # yielded as bytes (soundness), and no two yielded byte strings are
        # equal (completeness).
        repeats = 0
        for data in _dedup_inputs():
            plain = list(plain_deterministic_mutations(data, max_bytes))
            got = list(deterministic_mutations(data, max_bytes))
            assert len(got) == len(plain), data
            yielded = set()
            for k, (candidate, expect) in enumerate(zip(got, plain)):
                if isinstance(candidate, int):
                    assert 0 <= candidate < k and plain[candidate] == expect, (data, k)
                    assert got[candidate] == expect, (data, k)
                    repeats += 1
                else:
                    assert candidate == expect, (data, k)
                    assert candidate not in yielded, (data, k)
                    yielded.add(candidate)
        assert repeats > 0


class TestHavoc:
    def test_length_bounds_over_many_mutations(self):
        rng = np.random.Generator(np.random.PCG64(0))
        seed = bytes(range(64))
        for _ in range(10_000):
            out = havoc(seed, [], rng)
            assert 1 <= len(out) <= MAX_INPUT_LEN


class TestFuzzLoop:
    def test_zero_budget_is_noop(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        before = _queue_fingerprint(state)
        assert fuzz_loop(state, MINIKEY, 0) == []
        assert _queue_fingerprint(state) == before

    def test_negative_budget_raises(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        with pytest.raises(UsageError, match="exec_budget"):
            fuzz_loop(state, MINIKEY, -5)

    def test_empty_queue_raises(self):
        with pytest.raises(UsageError):
            fuzz_loop(FuzzerState(FuzzConfig()), MINIKEY, 10)

    @pytest.mark.parametrize("field", ["edge_budget"])
    def test_config_rejects_values_below_one(self, field):
        for bad in (0, -1):
            with pytest.raises(UsageError, match=field):
                FuzzConfig(**{field: bad})
        FuzzConfig(**{field: 1})

    def test_empty_seed_raises_naming_it(self):
        with pytest.raises(UsageError, match="seed 1 is empty"):
            FuzzerState.from_seeds([b"MKEY", b""], MINIKEY, FuzzConfig())

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
        assert _admission_lines(a) == _admission_lines(b)

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
        whole = _tail_return(single, 60_000)
        cuts = []
        split = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        returned = []
        for budget in (7, 9_993, 10_000, 30_000, 800, 4_203, 4_997):
            returned += _tail_return(split, budget)
            cuts.append("havoc" if split._round[0].det_done else "det")
        assert {"det", "havoc"} <= set(cuts)
        assert _queue_fingerprint(split) == _queue_fingerprint(single)
        assert _admission_lines(split) == _admission_lines(single)
        assert split.exec_count == single.exec_count == 60_001
        assert _fingerprint(returned) == _fingerprint(whole) and whole

    def test_golden_crash_flood_digest(self):
        state = FuzzerState.from_seeds(default_initial_seeds(), MINIKEY, FuzzConfig(rng_seed=0))
        fuzz_loop(state, MINIKEY, 110_000)
        assert len(state.crashes) == 2_511
        assert _run_digest(state) == GOLDEN_CRASH_FLOOD_SHA256

    def test_split_budget_crash_flood(self):
        # The last five cuts land in deterministic passes over crash entries
        # with crashes already admitted, whose repeats the resumed pass must
        # still admit.
        state = FuzzerState.from_seeds(default_initial_seeds(), MINIKEY, FuzzConfig(rng_seed=0))
        single = FuzzerState.from_seeds(default_initial_seeds(), MINIKEY, FuzzConfig(rng_seed=0))
        whole = _tail_return(single, 110_000)
        carried = 0
        returned = []
        for budget in (60_000, 45_000, 2_437, 1_000, 555, 321, 687):
            returned += _tail_return(state, budget)
            entry, done, crashes = state._round
            carried += entry.outcome == "crash" and not entry.det_done and bool(crashes)
        assert carried == 5
        assert _run_digest(state) == GOLDEN_CRASH_FLOOD_SHA256
        assert _fingerprint(returned) == _fingerprint(whole) and whole

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
        (worker,) = run_workers(1, MINIKEY, [b"MKEY"], 5_000, FuzzConfig(rng_seed=5))
        assert _queue_fingerprint(worker) == _queue_fingerprint(direct)

    def test_worker_i_draws_from_rng_seed_plus_i(self):
        # Each worker's whole state, the resumable round included, equals an
        # independent run's, though the workers share a deterministic prefix.
        cases = [
            ([b"MKEY"], 1_000, False),  # ends mid deterministic pass
            ([b"MKEY"], 5_000, True),  # havoc at 1,306, then deterministic passes
            (default_initial_seeds(), 20_000, False),
        ]
        for seeds, budget, reaches_havoc in cases:
            states = run_workers(3, MINIKEY, seeds, budget, FuzzConfig(rng_seed=7))
            for i, state in enumerate(states):
                direct = FuzzerState.from_seeds(seeds, MINIKEY, FuzzConfig(rng_seed=7 + i))
                fuzz_loop(direct, MINIKEY, budget)
                fresh = np.random.Generator(np.random.PCG64(7 + i)).bit_generator.state
                assert (direct.rng.bit_generator.state != fresh) == reaches_havoc
                assert state.config.rng_seed == 7 + i
                assert _whole_state(state) == _whole_state(direct)
            assert states[0]._round is not None

    def test_workers_run_the_deterministic_prefix_once(self):
        calls = []

        def entry(data, edge_budget):
            calls.append(data)
            return MINIKEY.entry(data, edge_budget)

        counting = TargetProgram("counting", entry)
        run_workers(1, counting, [b"MKEY"], 1_000, FuzzConfig())
        one = len(calls)
        calls.clear()
        run_workers(2, counting, [b"MKEY"], 1_000, FuzzConfig())
        assert len(calls) == one > 0

    def test_distinct_seeds_union_superset(self):
        states = run_workers(2, MINIKEY, [b"MKEY"], 5_000, FuzzConfig(rng_seed=1))
        union = {e.data for s in states for e in s.queue}
        for s in states:
            assert len(union) >= len({e.data for e in s.queue})

    def test_bad_worker_args_raise(self):
        with pytest.raises(UsageError):
            run_workers(0, MINIKEY, [b"MKEY"], 10, FuzzConfig())
