"""Reference model of the minikey parser's trace, written from its format.

The benchmark checks the program's reported trace lengths and outcomes
against this model, and takes every path count from it. It never calls the
target: it walks the documented format and counts the edges the parser
emits at each decision, without building the trace.

Format (all integers little-endian):

    "MKEY"  version:u8 (1 or 2)  count:u16  record*  checksum:u8  trailing*
    record  = type:u8 (1 key, 2 label, 3 nested list)  length:u16  payload
    nested  = payload holding inner records (1 key, 2 label) of the same shape

A payload may be cut short by the end of the file. The checksum is the XOR
of every byte before it. The planted defect: in a version-2 file, an inner
key record of length 0 crashes the parser. A run stops as a hang once it
would emit more edges than its budget; its trace then holds exactly
`budget` edges.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_EDGE_BUDGET = 1_000_000

# Depth levels: the deepest parse decision a trace reached.
DEPTHS = ("enter", "magic", "version", "count", "record", "checksum", "done")
PAST_MAGIC = DEPTHS.index("magic")
TO_CHECKSUM = DEPTHS.index("checksum")


@dataclass(frozen=True)
class RefTrace:
    length: int  # edges in the trace
    outcome: str  # ok | crash | hang
    depth: int  # index into DEPTHS

    @property
    def past_magic(self) -> bool:
        return self.depth >= PAST_MAGIC

    @property
    def to_checksum(self) -> bool:
        return self.depth >= TO_CHECKSUM


class _Hang(Exception):
    pass


class _Crash(Exception):
    pass


class _Counter:
    def __init__(self, budget: int):
        self.budget = budget
        self.used = 0
        self.depth = 0

    def edges(self, times: int = 1, depth: int = 0) -> None:
        # Depth markers are single edges, so one that does not fit was
        # never reached.
        if self.used + times > self.budget:
            self.used = self.budget
            raise _Hang
        self.used += times
        self.depth = max(self.depth, depth)


def _u16(data: bytes, at: int) -> int:
    return data[at] | (data[at + 1] << 8)


def reference_trace(data: bytes, edge_budget: int = DEFAULT_EDGE_BUDGET) -> RefTrace:
    """Trace length, outcome and depth of one minikey run."""
    c = _Counter(edge_budget)
    try:
        _file(data, c)
    except _Hang:
        return RefTrace(edge_budget, "hang", c.depth)
    except _Crash:
        return RefTrace(c.used, "crash", c.depth)
    return RefTrace(c.used, "ok", c.depth)


def _file(data: bytes, c: _Counter) -> None:
    n = len(data)
    c.edges()  # entry
    if n < 4:
        c.edges()  # short header
        return
    if data[:4] != b"MKEY":
        c.edges()  # bad magic
        return
    c.edges(depth=DEPTHS.index("magic"))
    if n < 5:
        c.edges()  # header truncated before the version
        return
    version = data[4]
    if version not in (1, 2):
        c.edges()  # bad version
        return
    c.edges(depth=DEPTHS.index("version"))
    if n < 7:
        c.edges()  # header truncated before the count
        return
    count = _u16(data, 5)
    c.edges(depth=DEPTHS.index("count"))
    at = 7
    for index in range(count):
        c.edges(depth=DEPTHS.index("record"))
        if at >= n:
            # Out of data: this record and each one still expected cost a
            # record-enter edge and a truncation edge.
            c.edges(1 + 2 * (count - index - 1))
            break
        kind = data[at]
        at += 1
        c.edges()  # the type decision, whatever the type
        if kind not in (1, 2, 3):
            continue
        if at + 2 > n:
            c.edges()  # record header truncated
            continue
        length = _u16(data, at)
        at += 2
        c.edges()  # length read
        avail = min(length, n - at)
        if kind == 3:
            c.edges()  # nested-list entry
            _nested(data, at, at + avail, version, c)
        else:
            c.edges(avail)  # one edge per payload byte
        if avail < length:
            c.edges()  # payload short
        at += avail
    if at < n:
        c.edges(depth=DEPTHS.index("checksum"))  # checksum ok or bad
        if at + 1 < n:
            c.edges()  # trailing bytes
    else:
        c.edges(depth=DEPTHS.index("checksum"))  # checksum missing
    c.edges(depth=DEPTHS.index("done"))


def _nested(data: bytes, at: int, end: int, version: int, c: _Counter) -> None:
    while at < end:
        kind = data[at]
        at += 1
        c.edges()  # inner type decision
        if kind not in (1, 2):
            continue
        if at + 2 > end:
            c.edges()  # inner header truncated; the list ends here
            return
        length = _u16(data, at)
        at += 2
        c.edges()  # inner length read
        if version == 2 and kind == 1 and length == 0:
            raise _Crash
        avail = min(length, end - at)
        c.edges(avail)
        if avail < length:
            c.edges()  # inner payload short
        at += avail


# Hand-worked cases: (name, input, edge budget, expected RefTrace). Each
# expected value is counted edge by edge in the README of this directory.
HAND_WORKED = (
    ("short header", b"MK", DEFAULT_EDGE_BUDGET, RefTrace(2, "ok", 0)),
    ("bad magic", b"ABCDEFG", DEFAULT_EDGE_BUDGET, RefTrace(2, "ok", 0)),
    ("header cut before version", b"MKEY", DEFAULT_EDGE_BUDGET, RefTrace(3, "ok", 1)),
    ("header cut before count", b"MKEY\x01\x00", DEFAULT_EDGE_BUDGET, RefTrace(4, "ok", 2)),
    ("bad version", b"MKEY\x07\x00\x00", DEFAULT_EDGE_BUDGET, RefTrace(3, "ok", 1)),
    ("record-count scan-out", b"MKEY\x01\x05\x00", DEFAULT_EDGE_BUDGET, RefTrace(16, "ok", 6)),
    ("largest scan-out", b"MKEY\x01\xff\xff", DEFAULT_EDGE_BUDGET, RefTrace(131_076, "ok", 6)),
    ("nested list",
     b"MKEY\x01\x01\x00" b"\x03\x05\x00" b"\x02\x02\x00ab" b"\x1f",
     DEFAULT_EDGE_BUDGET, RefTrace(14, "ok", 6)),
    ("short payload, checksum missing",
     b"MKEY\x01\x01\x00" b"\x02\x09\x00abc", DEFAULT_EDGE_BUDGET, RefTrace(13, "ok", 6)),
    ("bad type, bad checksum, trailing",
     b"MKEY\x01\x01\x00" b"\x09" b"\x00\x00\x00", DEFAULT_EDGE_BUDGET, RefTrace(9, "ok", 6)),
    ("planted crash",
     b"MKEY\x02\x01\x00" b"\x03\x03\x00" b"\x01\x00\x00" b"\x18",
     DEFAULT_EDGE_BUDGET, RefTrace(10, "crash", 4)),
    ("hang at a small budget", b"MKEY\x01\x05\x00", 7, RefTrace(7, "hang", 4)),
)


def self_check() -> None:
    """Raise AssertionError unless every hand-worked case matches."""
    for name, data, budget, expected in HAND_WORKED:
        got = reference_trace(data, budget)
        if got != expected:
            raise AssertionError(f"reference parser, case {name!r}: {got} != {expected}")
