"""In-process instrumented targets: pure functions from bytes to hit counts.

The built-in `minikey` target parses a small TLV key-file format and emits a
distinct edge id at every parse decision, so trace length grows with input
structure. Planted defect: a version-2 file containing a nested-list record
whose inner record is an empty key crashes the parser.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from .coverage import edge_cell
from .errors import UsageError

DEFAULT_EDGE_BUDGET = 1_000_000

OUTCOME_OK = "ok"
OUTCOME_CRASH = "crash"
OUTCOME_HANG = "hang"


@dataclass
class Trace:
    hits: dict[int, int]  # map cell -> edge-pair hits in this run; no zero counts
    outcome: str = OUTCOME_OK


@dataclass
class ExecResult:
    trace: Trace
    trace_length: int  # edges executed


@dataclass
class TargetProgram:
    name: str
    entry: Callable[[bytes, int], ExecResult]


# minikey edge ids, one per parse decision.
E_ENTER = 0
E_SHORT_HEADER = 1
E_BAD_MAGIC = 2
E_MAGIC_OK = 3
E_VER1 = 4
E_VER2 = 5
E_BAD_VERSION = 6
E_HDR_TRUNC = 7
E_COUNT_READ = 8
E_REC_ENTER = 9
E_REC_TRUNC = 10
E_TYPE_KEY = 11
E_TYPE_LABEL = 12
E_TYPE_NESTED = 13
E_TYPE_BAD = 14
E_LEN_READ = 15
E_PAYLOAD_BYTE = 16
E_PAYLOAD_SHORT = 17
E_NEST_ENTER = 18
E_NEST_TRUNC = 19
E_NEST_TYPE_KEY = 20
E_NEST_TYPE_LABEL = 21
E_NEST_TYPE_BAD = 22
E_NEST_LEN_READ = 23
E_NEST_PAYLOAD_BYTE = 24
E_CHECKSUM_OK = 25
E_CHECKSUM_BAD = 26
E_CHECKSUM_MISSING = 27
E_TRAILING = 28
E_DONE = 29

MINIKEY_MAGIC = b"MKEY"
REC_KEY = 0x01
REC_LABEL = 0x02
REC_NESTED = 0x03


class _Budget(Exception):
    pass


class _Crash(Exception):
    pass


def minikey(data: bytes, edge_budget: int = DEFAULT_EDGE_BUDGET) -> ExecResult:
    """Parse a minikey file, emitting one edge per parse decision.

    Edges are not kept: each emit adds its edge pairs' hits to a sparse
    {cell: count} map in O(1), whatever the number of repeats.
    """
    hits: dict[int, int] = {}
    prev = 0
    budget = edge_budget

    def emit(edge: int, times: int = 1) -> None:
        # `times` repeats of `edge`: one (prev, edge) pair, then times - 1
        # (edge, edge) pairs. A zero-length run emits nothing.
        nonlocal prev, budget
        n = times if times <= budget else budget
        if n:
            cell = edge_cell(prev, edge)
            hits[cell] = hits.get(cell, 0) + 1
            if n > 1:
                cell = edge_cell(edge, edge)
                hits[cell] = hits.get(cell, 0) + n - 1
            prev = edge
            budget -= n
        if n < times:
            raise _Budget

    def emit_pairs(a: int, b: int, times: int) -> None:
        # Bulk form of `times` consecutive emit(a); emit(b) pairs, of which
        # the budget may cut the last one after its `a`.
        nonlocal prev, budget
        n = min(2 * times, budget)  # edges a, b, a, b, ...
        if n:
            for cell, count in ((edge_cell(prev, a), 1), (edge_cell(a, b), n // 2),
                                (edge_cell(b, a), (n - 1) // 2)):
                if count:
                    hits[cell] = hits.get(cell, 0) + count
            prev = a if n % 2 else b
            budget -= n
        if n < 2 * times:
            raise _Budget

    try:
        _parse(data, emit, emit_pairs)
    except _Budget:
        outcome = OUTCOME_HANG
    except _Crash:
        outcome = OUTCOME_CRASH
    else:
        outcome = OUTCOME_OK
    return ExecResult(Trace(hits, outcome), edge_budget - budget)


def _parse(data: bytes, emit, emit_pairs) -> None:
    n = len(data)
    emit(E_ENTER)
    if n < 4:
        emit(E_SHORT_HEADER)
        return
    if data[:4] != MINIKEY_MAGIC:
        emit(E_BAD_MAGIC)
        return
    emit(E_MAGIC_OK)
    if n < 5:
        emit(E_HDR_TRUNC)
        return
    version = data[4]
    if version == 1:
        emit(E_VER1)
    elif version == 2:
        emit(E_VER2)
    else:
        emit(E_BAD_VERSION)
        return
    if n < 7:
        emit(E_HDR_TRUNC)
        return
    count = data[5] | (data[6] << 8)
    emit(E_COUNT_READ)
    pos = 7
    for i in range(count):
        emit(E_REC_ENTER)
        if pos >= n:
            # Scan out the remaining expected records in one step.
            remaining = count - i - 1
            emit(E_REC_TRUNC)
            if remaining:
                emit_pairs(E_REC_ENTER, E_REC_TRUNC, remaining)
            break
        rec_type = data[pos]
        pos += 1
        if rec_type == REC_KEY:
            emit(E_TYPE_KEY)
        elif rec_type == REC_LABEL:
            emit(E_TYPE_LABEL)
        elif rec_type == REC_NESTED:
            emit(E_TYPE_NESTED)
        else:
            emit(E_TYPE_BAD)
            continue
        if pos + 2 > n:
            emit(E_REC_TRUNC)
            continue
        length = data[pos] | (data[pos + 1] << 8)
        pos += 2
        emit(E_LEN_READ)
        avail = min(length, n - pos)
        if rec_type == REC_NESTED:
            emit(E_NEST_ENTER)
            _parse_nested(data, pos, pos + avail, version, emit)
        else:
            emit(E_PAYLOAD_BYTE, avail)
        if avail < length:
            emit(E_PAYLOAD_SHORT)
        pos += avail
    if pos < n:
        expected = 0
        for b in data[:pos]:
            expected ^= b
        if data[pos] == expected:
            emit(E_CHECKSUM_OK)
        else:
            emit(E_CHECKSUM_BAD)
        pos += 1
        if pos < n:
            emit(E_TRAILING)
    else:
        emit(E_CHECKSUM_MISSING)
    emit(E_DONE)


def _parse_nested(data: bytes, pos: int, end: int, version: int, emit) -> None:
    """One level of inner TLV records; nested lists inside are invalid."""
    while pos < end:
        inner_type = data[pos]
        pos += 1
        if inner_type == REC_KEY:
            emit(E_NEST_TYPE_KEY)
        elif inner_type == REC_LABEL:
            emit(E_NEST_TYPE_LABEL)
        else:
            emit(E_NEST_TYPE_BAD)
            continue
        if pos + 2 > end:
            emit(E_NEST_TRUNC)
            return
        length = data[pos] | (data[pos + 1] << 8)
        pos += 2
        emit(E_NEST_LEN_READ)
        if version == 2 and inner_type == REC_KEY and length == 0:
            raise _Crash  # planted defect: empty key inside a v2 nested list
        avail = min(length, end - pos)
        emit(E_NEST_PAYLOAD_BYTE, avail)
        if avail < length:
            emit(E_PAYLOAD_SHORT)
        pos += avail


MINIKEY = TargetProgram(name="minikey", entry=minikey)

_REGISTRY: dict[str, TargetProgram] = {"minikey": MINIKEY}


def get_target(name: str) -> TargetProgram:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UsageError(f"unknown target {name!r}; known: {sorted(_REGISTRY)}") from None


def execute(target: TargetProgram, data: bytes, edge_budget: int = DEFAULT_EDGE_BUDGET) -> ExecResult:
    if edge_budget <= 0:
        raise UsageError("edge_budget must be positive")
    return target.entry(data, edge_budget)


# ---------------------------------------------------------------------------
# Input construction helpers (used by tests, demos, and initial seeds).


def build_record(rec_type: int, payload: bytes) -> bytes:
    return bytes([rec_type]) + struct.pack("<H", len(payload)) + payload


def build_minikey_input(version: int, records: list[bytes]) -> bytes:
    """Assemble a well-formed minikey file with a correct trailing checksum."""
    body = MINIKEY_MAGIC + bytes([version]) + struct.pack("<H", len(records)) + b"".join(records)
    checksum = 0
    for b in body:
        checksum ^= b
    return body + bytes([checksum])


def build_crash_input() -> bytes:
    """The planted defect: v2 file with an empty key inside a nested list."""
    inner = build_record(REC_KEY, b"")
    return build_minikey_input(2, [build_record(REC_NESTED, inner)])
