"""Unit tests for the on-disk corpus format, merge, and deduplication."""

import errno
import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

import ganfuzz.corpus as corpus_module
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


def _other_workers(seeds, offset=10):
    return [replace(s, worker=s.worker + offset) for s in seeds]


def _payloads(d):
    return sorted(p for p in (d / "queue").rglob("id-*"))


def _inodes(d):
    return {p.stat().st_ino for p in _payloads(d)}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _seeds(datas, worker=0):
    return [SeedFile(data=d, id=i, origin="mutation", discovered_at=i, worker=worker)
            for i, d in enumerate(datas)]


class TestSharedPayloads:
    def test_equal_payloads_in_one_save_share_an_inode(self, tmp_path):
        seeds = _seeds([b"a", b"b", b"a", b"a"]) + _seeds([b"b", b"c"], worker=3)
        save_corpus(tmp_path / "c", seeds)
        assert len(_payloads(tmp_path / "c")) == 6
        assert len(_inodes(tmp_path / "c")) == 3
        assert load_corpus(tmp_path / "c") == seeds

    def test_shared_record_links_across_saves(self, tmp_path):
        written = {}
        a = _seeds([b"x", b"y"])
        b = _seeds([b"y", b"z", b"x"], worker=1)
        save_corpus(tmp_path / "a", a, written=written)
        save_corpus(tmp_path / "b", b, written=written)
        assert _inodes(tmp_path / "a") < _inodes(tmp_path / "b")
        assert len(_inodes(tmp_path / "b")) == 3
        assert set(written) == {_sha(d) for d in (b"x", b"y", b"z")}
        assert load_corpus(tmp_path / "a") == a and load_corpus(tmp_path / "b") == b

    @pytest.mark.parametrize("same_record", [True, False])
    def test_forced_resave_keeps_a_linked_corpus(self, tmp_path, same_record):
        written = {}
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a = _seeds([b"one", b"two", b"three"])
        b = [replace(s, id=s.id + 10, worker=1) for s in a]
        save_corpus(a_dir, a, written=written)
        save_corpus(b_dir, b, written=written)
        assert _inodes(a_dir) == _inodes(b_dir)
        # Same payload names as before, other bytes.
        a2 = [replace(s, data=s.data + b"!") for s in a]
        save_corpus(a_dir, a2, force=True, written=written if same_record else None)
        assert [p.name for p in _payloads(a_dir)] == sorted(s.payload_name() for s in a)
        assert load_corpus(b_dir) == b
        assert load_corpus(a_dir) == a2
        assert not _inodes(a_dir) & _inodes(b_dir)
        if same_record:  # the cleared tree's entries are gone, the new ones recorded
            a_queue = os.path.join(os.path.realpath(a_dir), "queue")
            assert {written[_sha(s.data)] for s in a2} == {
                os.path.join(a_queue, "00000", s.payload_name()) for s in a2}
            assert not {_sha(s.data) for s in a} & set(written)

    def test_stale_record_never_links_wrong_bytes(self, tmp_path):
        written = {}
        a_dir = tmp_path / "a"
        save_corpus(a_dir, _seeds([b"old", b"gone"]), written=written)
        # Rewritten through another record: `written` still names a's paths.
        save_corpus(a_dir, _seeds([b"new"]), force=True)
        # A hand-made entry for bytes the named file does not hold.
        (tmp_path / "other").write_bytes(b"other")
        written[_sha(b"hand")] = str(tmp_path / "other")
        c = _seeds([b"old", b"gone", b"hand", b"new"])
        save_corpus(tmp_path / "c", c, written=written)
        assert load_corpus(tmp_path / "c") == c
        assert not _inodes(tmp_path / "c") & _inodes(a_dir)
        assert (tmp_path / "other").read_bytes() == b"other"
        c_queue = os.path.join(os.path.realpath(tmp_path / "c"), "queue", "00000")
        for s in c[:3]:  # each stale entry now names the fresh file
            assert written[_sha(s.data)] == os.path.join(c_queue, s.payload_name())

    @pytest.mark.parametrize("linked", [True, False])
    def test_existing_file_at_payload_path_is_not_truncated(self, tmp_path, monkeypatch,
                                                            linked):
        written = {}
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a = _seeds([b"keep"])
        save_corpus(a_dir, a, written=written)
        save_corpus(b_dir, _seeds([b"keep"], worker=1), written=written)
        if linked:  # the new bytes have a recorded file to link from
            save_corpus(tmp_path / "src", _seeds([b"clobber"], worker=2), written=written)
        # A clear that leaves the old payload in place.
        monkeypatch.setattr(corpus_module.shutil, "rmtree", lambda *a, **k: None)
        with pytest.raises(FileExistsError):
            save_corpus(a_dir, _seeds([b"clobber"]), force=True, written=written)
        assert _payloads(a_dir)[0].read_bytes() == b"keep"
        assert load_corpus(b_dir) == _seeds([b"keep"], worker=1)

    @pytest.mark.parametrize("error", [OSError(errno.EXDEV, "Invalid cross-device link"),
                                       PermissionError(errno.EPERM, "Operation not permitted")])
    def test_falls_back_to_copies_without_hard_links(self, tmp_path, monkeypatch, error):
        def no_link(src, dst):
            raise error

        monkeypatch.setattr(os, "link", no_link)
        written = {}
        a = _seeds([b"p", b"q", b"p"])
        b = _seeds([b"q", b"p"], worker=1)
        save_corpus(tmp_path / "a", a, written=written)
        save_corpus(tmp_path / "b", b, written=written)
        assert load_corpus(tmp_path / "a") == a and load_corpus(tmp_path / "b") == b
        files = _payloads(tmp_path / "a") + _payloads(tmp_path / "b")
        assert len({p.stat().st_ino for p in files}) == len(files) == 5
        assert all(p.stat().st_nlink == 1 for p in files)


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

    def test_output_payloads_link_to_their_inputs(self, tmp_path):
        a = _random_seeds(40, rng_seed=15, workers=2)
        b = _other_workers(_random_seeds(40, rng_seed=16, workers=3))
        save_corpus(tmp_path / "a", a)
        save_corpus(tmp_path / "b", b)
        merged = merge([tmp_path / "a", tmp_path / "b"], out=tmp_path / "m")
        expected, _ = dedup_content(a + b)
        assert sorted(load_corpus(tmp_path / "m"), key=lambda s: (s.worker, s.id)) == \
            merged == expected
        sources = {}
        for p in _payloads(tmp_path / "a") + _payloads(tmp_path / "b"):
            sources.setdefault(_sha(p.read_bytes()), set()).add(p.stat().st_ino)
        for p in _payloads(tmp_path / "m"):
            assert p.stat().st_ino in sources[_sha(p.read_bytes())]

    def test_forced_merge_into_an_input(self, tmp_path):
        a = _random_seeds(30, rng_seed=17, workers=2)
        b = _other_workers(_random_seeds(30, rng_seed=18, workers=2))
        save_corpus(tmp_path / "a", a)
        save_corpus(tmp_path / "b", b)
        merged = merge([tmp_path / "a", tmp_path / "b"], out=tmp_path / "a", force=True)
        assert sorted(load_corpus(tmp_path / "a"), key=lambda s: (s.worker, s.id)) == merged
        assert load_corpus(tmp_path / "b") == sorted(b, key=lambda s: (s.worker, s.id))
