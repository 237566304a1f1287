"""Unit tests for the in-process minikey target."""

import struct

import numpy as np
import pytest

from ganfuzz.errors import UsageError
from ganfuzz.targets import (
    MINIKEY,
    OUTCOME_CRASH,
    OUTCOME_HANG,
    OUTCOME_OK,
    REC_KEY,
    REC_LABEL,
    REC_NESTED,
    build_crash_input,
    build_minikey_input,
    build_record,
    execute,
    get_target,
    minikey,
)

from oracles import brute_hits, record_edges

# Golden traces, frozen at first build.
GOLDEN_VALID_EMPTY = [0, 3, 4, 8, 25, 29]  # enter, magic ok, v1, count, checksum ok, done
GOLDEN_BAD_MAGIC = [0, 2]
GOLDEN_EMPTY_INPUT = [0, 1]


def test_golden_trace_valid_empty_file():
    data = build_minikey_input(1, [])
    assert record_edges(data) == (GOLDEN_VALID_EMPTY, OUTCOME_OK)
    assert minikey(data).trace.outcome == OUTCOME_OK


def test_golden_trace_bad_magic():
    data = b"XKEY\x01\x00\x00"
    assert record_edges(data) == (GOLDEN_BAD_MAGIC, OUTCOME_OK)
    assert minikey(data).trace.outcome == OUTCOME_OK


def test_empty_input_is_short_header_path():
    assert record_edges(b"")[0] == GOLDEN_EMPTY_INPUT


def test_planted_defect_crashes():
    assert minikey(build_crash_input()).trace.outcome == OUTCOME_CRASH


def test_version_one_nested_empty_key_does_not_crash():
    inner = build_record(REC_KEY, b"")
    result = minikey(build_minikey_input(1, [build_record(REC_NESTED, inner)]))
    assert result.trace.outcome == OUTCOME_OK


def test_hang_on_huge_record_count_with_small_budget():
    data = b"MKEY\x01" + struct.pack("<H", 0xFFFF)
    result = minikey(data, edge_budget=1000)
    assert result.trace.outcome == OUTCOME_HANG
    assert result.trace_length == 1000  # budget exhausted exactly


def test_checksum_good_and_bad():
    good = build_minikey_input(1, [build_record(REC_LABEL, b"hi")])
    assert 25 in record_edges(good)[0]  # E_CHECKSUM_OK
    bad = good[:-1] + bytes([good[-1] ^ 0xFF])
    assert 26 in record_edges(bad)[0]  # E_CHECKSUM_BAD


def test_trailing_bytes_edge():
    data = build_minikey_input(1, []) + b"extra"
    assert 28 in record_edges(data)[0]  # E_TRAILING


def test_purity_on_random_inputs():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(10_000):
        n = int(rng.integers(0, 40))
        data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        if rng.integers(0, 2):
            data = b"MKEY" + data  # half the inputs get past the magic check
        assert minikey(data) == minikey(data)


def test_trace_length_monotone_in_record_count():
    lengths = []
    for k in range(1, 51):
        records = [build_record(REC_KEY, b"key") for _ in range(k)]
        result = minikey(build_minikey_input(1, records))
        assert result.trace.outcome == OUTCOME_OK
        lengths.append(result.trace_length)
    assert all(b > a for a, b in zip(lengths, lengths[1:]))


def test_execute_wraps_trace_length():
    result = execute(MINIKEY, build_minikey_input(1, []))
    assert result.trace_length == len(GOLDEN_VALID_EMPTY)
    assert result.trace.hits == brute_hits(GOLDEN_VALID_EMPTY)


def test_execute_rejects_bad_budget():
    with pytest.raises(UsageError):
        execute(MINIKEY, b"", 0)


def test_registry():
    assert get_target("minikey") is MINIKEY
    with pytest.raises(UsageError):
        get_target("ethkey")



# ---------------------------------------------------------------------------
# Counted hits against the recorded edge sequence

DIFF_BUDGETS = (1, 2, 3, 7, 8, 16, 17, 1000, 1_000_000)


def _differential_inputs(n: int, rng_seed: int = 0) -> list[bytes]:
    """Random bytes, MKEY-prefixed random bytes, and well-formed files of
    random records (empty payloads, nested lists, planted crashes), some
    truncated or with a rewritten record count."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))

    def payload() -> bytes:
        size = int(rng.choice([0, 0, 1, 2, int(rng.integers(3, 300))]))
        return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()

    inputs = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            data = rng.integers(0, 256, size=int(rng.integers(0, 40)), dtype=np.uint8).tobytes()
        elif kind == 1:
            data = b"MKEY" + rng.integers(0, 256, size=int(rng.integers(0, 40)),
                                          dtype=np.uint8).tobytes()
        else:
            records = []
            for _ in range(int(rng.integers(0, 6))):
                rec_type = int(rng.choice([REC_KEY, REC_LABEL, REC_NESTED, 7]))
                if rec_type == REC_NESTED:
                    inner = b"".join(build_record(int(rng.choice([REC_KEY, REC_LABEL, 9])),
                                                  payload())
                                     for _ in range(int(rng.integers(0, 4))))
                    records.append(build_record(rec_type, inner))
                else:
                    records.append(build_record(rec_type, payload()))
            data = build_minikey_input(int(rng.choice([1, 2, 3])), records)
            if kind == 3:
                if rng.integers(0, 2):
                    data = data[: int(rng.integers(0, len(data) + 1))]
                else:
                    count = int(rng.integers(0, 20)) if rng.integers(0, 4) else int(
                        rng.integers(0, 0x10000))
                    data = data[:5] + struct.pack("<H", count) + data[7:]
        inputs.append(data)
    return inputs


def _assert_counts_match_recording(data: bytes, budget: int) -> str:
    edges, outcome = record_edges(data, budget)
    result = minikey(data, budget)
    assert result.trace_length == len(edges), (data, budget)
    assert result.trace.outcome == outcome, (data, budget)
    assert result.trace.hits == brute_hits(edges), (data, budget)
    return outcome


def test_hits_match_brute_force_bincount_of_recorded_edges():
    outcomes = set()
    for data in _differential_inputs(3200):
        for budget in DIFF_BUDGETS:
            outcomes.add(_assert_counts_match_recording(data, budget))
    assert outcomes == {OUTCOME_OK, OUTCOME_CRASH, OUTCOME_HANG}


def test_hits_match_when_budget_cuts_runs_and_pairs():
    # Five expected records past the end: a six-edge prefix, then one
    # emit(E_REC_TRUNC) and emit_pairs for the four left. Every budget from
    # 1 to 20 cuts somewhere in that, including after a pair's first edge
    # (odd budgets past 7) and at zero budget left for the pairs (6).
    scan_out = b"MKEY\x01\x05\x00"
    # A key with a zero-length payload next to long payload runs.
    zero_payload = build_minikey_input(
        1, [build_record(REC_KEY, b""), build_record(REC_LABEL, b"x" * 9),
            build_record(REC_KEY, b"")])
    zero_nested = build_minikey_input(1, [build_record(REC_NESTED, build_record(REC_LABEL, b""))])
    for data in (scan_out, zero_payload, zero_nested):
        for budget in range(1, 41):
            _assert_counts_match_recording(data, budget)
    assert record_edges(scan_out, 7) == ([0, 3, 4, 8, 9, 10, 9], OUTCOME_HANG)
    # A zero-length payload emits no edge: length read (15) is followed by the
    # next record's entry (9).
    edges, _ = record_edges(zero_payload)
    assert edges[5:8] == [11, 15, 9]
