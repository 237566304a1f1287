"""AFL-style bucketed edge-pair coverage map.

Each executed edge pair hashes to one of 65,536 cells (`edge_cell`). A target
counts its hits per cell while it runs, as AFL's instrumentation does, and
hands over only the non-zero cells. Per-run hit counts are quantized into the
classic hit-count buckets {1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+}; a run is
novel when it sets a bucket bit no earlier run has set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .targets import Trace

MAP_SIZE = 65536

# Bucket lower bounds; bucket index = searchsorted position.
_BUCKET_BOUNDS = (1, 2, 3, 4, 8, 16, 32, 128)


def edge_cell(prev: int, cur: int) -> int:
    """Map cell of the edge pair (prev, cur): XOR of the two edge ids."""
    return (prev ^ cur) & (MAP_SIZE - 1)


def bucket_index(count: int) -> int:
    """Bucket index (0..7) for a positive hit count; -1 for zero hits."""
    if count <= 0:
        return -1
    idx = 0
    for i, low in enumerate(_BUCKET_BOUNDS):
        if count >= low:
            idx = i
    return idx


# Bucket bit per hit count 0..128; every count from 128 up shares the last.
_BUCKET_BIT = bytes([0] + [1 << bucket_index(c) for c in range(1, _BUCKET_BOUNDS[-1] + 1)])
_TOP = len(_BUCKET_BIT) - 1


class CoverageMap:
    """Global bucket-bit accumulator; mutated only through update().

    The bits live in a bytearray, which update() indexes as Python ints.
    """

    def __init__(self):
        self._bits = bytearray(MAP_SIZE)

    @property
    def cells(self) -> np.ndarray:
        """uint8[MAP_SIZE] numpy view of this map's own bits, in a copy too."""
        return np.frombuffer(self._bits, dtype=np.uint8)

    def update(self, trace: Trace) -> bool:
        """Fold one run's hits in; True iff any previously unset bucket bit was set."""
        bits = self._bits
        novel = False
        for cell, count in trace.hits.items():
            bit = _BUCKET_BIT[count if count < _TOP else _TOP]
            seen = bits[cell]
            if bit & ~seen:
                bits[cell] = seen | bit
                novel = True
        return novel
