"""Unit tests for the on-disk corpus format, merge, and deduplication."""

import numpy as np
import pytest

from ganfuzz.corpus import (
    MANIFEST_NAME,
    SeedFile,
    dedup_by_length,
    dedup_content,
    ensure_trace_lengths,
    load_corpus,
    merge,
    save_corpus,
    seeds_from_state,
)
from ganfuzz.errors import CorpusCorruptionError, UsageError
from ganfuzz.fuzzer import FuzzConfig, FuzzerState, fuzz_loop
from ganfuzz.targets import MINIKEY

from oracles import brute_dedup_by_length, brute_dedup_content


def _random_seeds(n, rng_seed=0, workers=4, alphabet=8, max_len=6):
    """Seeds with deliberately collision-heavy contents and lengths."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    pairs = set()
    while len(pairs) < n:
        pairs.add((int(rng.integers(0, workers)), int(rng.integers(0, 10 * n))))
    seeds = []
    for worker, sid in sorted(pairs):
        length = int(rng.integers(1, max_len + 1))
        data = rng.integers(0, alphabet, size=length, dtype=np.uint8).tobytes()
        seeds.append(SeedFile(data=data, id=sid, origin="mutation",
                              discovered_at=sid, worker=worker))
    order = rng.permutation(len(seeds))
    return [seeds[i] for i in order]


class TestPersistence:
    def test_round_trip_1000_seeds(self, tmp_path):
        seeds = _random_seeds(1000, rng_seed=1, alphabet=256, max_len=30)
        save_corpus(tmp_path / "c", seeds)
        loaded = load_corpus(tmp_path / "c")
        assert sorted((s.worker, s.id, s.data, s.origin, s.discovered_at, s.trace_length)
                      for s in seeds) == \
               sorted((s.worker, s.id, s.data, s.origin, s.discovered_at, s.trace_length)
                      for s in loaded)

    def test_empty_dir_loads_empty(self, tmp_path):
        (tmp_path / "c").mkdir()
        assert load_corpus(tmp_path / "c") == []

    def test_missing_manifest_raises(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        (d / "stray").write_text("x")
        with pytest.raises(CorpusCorruptionError, match="manifest"):
            load_corpus(d)

    def test_tampered_payload_raises(self, tmp_path):
        seeds = _random_seeds(5, rng_seed=2)
        save_corpus(tmp_path / "c", seeds)
        victim = next((tmp_path / "c" / "queue").rglob("id-*"))
        victim.write_bytes(victim.read_bytes()[:-1] + b"!")
        with pytest.raises(CorpusCorruptionError, match="hash mismatch"):
            load_corpus(tmp_path / "c")

    def test_missing_payload_raises(self, tmp_path):
        seeds = _random_seeds(5, rng_seed=3)
        save_corpus(tmp_path / "c", seeds)
        next((tmp_path / "c" / "queue").rglob("id-*")).unlink()
        with pytest.raises(CorpusCorruptionError, match="missing payload"):
            load_corpus(tmp_path / "c")

    def test_bad_header_raises(self, tmp_path):
        seeds = _random_seeds(2, rng_seed=4)
        save_corpus(tmp_path / "c", seeds)
        manifest = tmp_path / "c" / MANIFEST_NAME
        manifest.write_text("bogus\n" + manifest.read_text())
        with pytest.raises(CorpusCorruptionError, match="header"):
            load_corpus(tmp_path / "c")

    def test_refuses_nonempty_dir_without_force(self, tmp_path):
        save_corpus(tmp_path / "c", _random_seeds(2))
        with pytest.raises(UsageError):
            save_corpus(tmp_path / "c", _random_seeds(2))
        save_corpus(tmp_path / "c", _random_seeds(2), force=True)

    def test_forced_save_leaves_no_earlier_payloads(self, tmp_path):
        d = tmp_path / "c"
        three = [SeedFile(data=bytes([i]), id=i, origin="initial", discovered_at=i, worker=i)
                 for i in range(3)]
        save_corpus(d, three)
        (d / "notes.txt").write_text("kept")
        one = [SeedFile(data=b"z", id=7, origin="mutation", discovered_at=9)]
        save_corpus(d, one, force=True)
        assert [p.name for p in (d / "queue").rglob("id-*")] == [one[0].payload_name()]
        assert load_corpus(d) == one
        assert (d / "notes.txt").read_text() == "kept"

    def test_payload_without_manifest_row_raises(self, tmp_path):
        d = tmp_path / "c"
        save_corpus(d, _random_seeds(3, rng_seed=5))
        stray = d / "queue" / "00009" / "id-000001,src-mutation,time-00000000000000000001"
        stray.parent.mkdir()
        stray.write_bytes(b"x")
        with pytest.raises(CorpusCorruptionError, match="without a manifest row"):
            load_corpus(d)

    def test_duplicate_worker_id_pairs_raise(self, tmp_path):
        seed = SeedFile(data=b"x", id=1, origin="initial", discovered_at=0)
        with pytest.raises(UsageError):
            save_corpus(tmp_path / "c", [seed, seed])


class TestDedupContent:
    def test_matches_brute_force_oracle(self):
        seeds = _random_seeds(1000, rng_seed=7)
        kept, dups = dedup_content(seeds)
        oracle_kept, oracle_dups = brute_dedup_content(seeds)
        assert [(s.worker, s.id) for s in kept] == [(s.worker, s.id) for s in oracle_kept]
        assert dups == oracle_dups

    def test_no_duplicates_is_identity(self):
        seeds = [SeedFile(data=bytes([i]), id=i, origin="x", discovered_at=i)
                 for i in range(10)]
        kept, dups = dedup_content(seeds)
        assert len(kept) == 10 and dups == 0

    def test_survivor_from_lower_worker(self):
        a = SeedFile(data=b"same", id=5, origin="x", discovered_at=0, worker=1)
        b = SeedFile(data=b"same", id=2, origin="x", discovered_at=0, worker=0)
        kept, dups = dedup_content([a, b])
        assert kept == [b] and dups == 1

    def test_idempotent(self):
        seeds = _random_seeds(300, rng_seed=8)
        once, _ = dedup_content(seeds)
        twice, dups = dedup_content(once)
        assert twice == once and dups == 0

    def test_output_has_no_equal_byte_strings(self):
        kept, _ = dedup_content(_random_seeds(500, rng_seed=9))
        datas = [s.data for s in kept]
        assert len(set(datas)) == len(datas)


class TestDedupByLength:
    def test_matches_brute_force_oracle(self):
        seeds = ensure_trace_lengths(_random_seeds(1000, rng_seed=10), MINIKEY)
        kept, coll = dedup_by_length(seeds, MINIKEY)
        oracle_kept, oracle_coll = brute_dedup_by_length(seeds)
        assert [(s.worker, s.id) for s in kept] == [(s.worker, s.id) for s in oracle_kept]
        assert coll == oracle_coll

    def test_hand_case(self):
        seeds = [SeedFile(data=bytes([i]), id=i, origin="x", discovered_at=i,
                          trace_length=tl)
                 for i, tl in enumerate([5, 7, 5, 9])]
        kept, coll = dedup_by_length(seeds, MINIKEY)
        assert [s.trace_length for s in kept] == [5, 7, 9] and coll == 1

    def test_all_distinct_is_identity(self):
        seeds = [SeedFile(data=bytes([i]), id=i, origin="x", discovered_at=i,
                          trace_length=i)
                 for i in range(20)]
        kept, coll = dedup_by_length(seeds, MINIKEY)
        assert len(kept) == 20 and coll == 0

    def test_fills_missing_lengths_by_execution(self):
        seeds = [SeedFile(data=b"MKEY", id=0, origin="x", discovered_at=0)]
        kept, _ = dedup_by_length(seeds, MINIKEY)
        assert kept[0].trace_length is not None

    def test_survivor_lengths_distinct_on_fuzzer_output(self):
        state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
        fuzz_loop(state, MINIKEY, 10_000)
        kept, _ = dedup_by_length(seeds_from_state(state), MINIKEY)
        lengths = [s.trace_length for s in kept]
        assert sorted(set(lengths)) == sorted(lengths)

    def test_inequality_chain(self):
        seeds = ensure_trace_lengths(_random_seeds(1000, rng_seed=11), MINIKEY)
        by_content, _ = dedup_content(seeds)
        by_length, _ = dedup_by_length(by_content, MINIKEY)
        assert len(by_length) <= len(by_content) <= len(seeds)


class TestMerge:
    def test_self_merge_is_content_dedup(self, tmp_path):
        seeds = _random_seeds(50, rng_seed=12)
        save_corpus(tmp_path / "a", seeds)
        merged = merge([tmp_path / "a", tmp_path / "a"])
        expected, _ = dedup_content(seeds)
        assert len(merged) == len(expected)

    def test_disjoint_merge_sums(self, tmp_path):
        a = [SeedFile(data=b"a" + bytes([i]), id=i, origin="x", discovered_at=i, worker=0)
             for i in range(5)]
        b = [SeedFile(data=b"b" + bytes([i]), id=i, origin="x", discovered_at=i, worker=1)
             for i in range(7)]
        save_corpus(tmp_path / "a", a)
        save_corpus(tmp_path / "b", b)
        assert len(merge([tmp_path / "a", tmp_path / "b"])) == 12

    def test_corrupt_dir_named_in_error(self, tmp_path):
        save_corpus(tmp_path / "a", _random_seeds(3, rng_seed=13))
        next((tmp_path / "a" / "queue").rglob("id-*")).unlink()
        with pytest.raises(CorpusCorruptionError, match="a"):
            merge([tmp_path / "a"])

    def test_no_dirs_raises(self):
        with pytest.raises(UsageError):
            merge([])

    def test_persists_when_out_given(self, tmp_path):
        seeds = _random_seeds(10, rng_seed=14)
        save_corpus(tmp_path / "a", seeds)
        merged = merge([tmp_path / "a"], out=tmp_path / "m")
        assert len(load_corpus(tmp_path / "m")) == len(merged)
