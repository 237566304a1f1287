"""Coverage-guided mutational fuzzing loop with mid-run reinitialization.

One deterministic mutation pass (bit/byte flips, arithmetic, interesting
values) per queue entry on first selection, havoc-only afterwards; a budget
that ends mid-pass or mid-round leaves it to be resumed by the next call, so
a run split over several calls equals one call on the total budget. Selection
is round-robin so reinitialization strategies compete on equal footing.
All randomness flows from a single seeded generator, and time is virtual
(the execution counter), so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

import numpy as np

from .coverage import CoverageMap
from .errors import UsageError
from .targets import OUTCOME_CRASH, TargetProgram, execute

MAX_INPUT_LEN = 4096

INTERESTING_8 = (0, 1, 16, 32, 64, 100, 127, 128, 255)
INTERESTING_16 = (0, 1, -1, 255, 256, 512, 1000, 32767, 65535)

ARITH_MAX = 35


@dataclass
class QueueEntry:
    id: int
    data: bytes
    discovered_at: int  # virtual time: exec_count at admission
    parent: int | None
    origin: str  # initial | mutation | synthetic:gan | synthetic:lstm | synthetic:rand
    trace_length: int
    novel: bool = True
    outcome: str = "ok"
    det_done: bool = field(default=False, repr=False)


@dataclass
class FuzzConfig:
    rng_seed: int = 0
    max_len: int = MAX_INPUT_LEN
    havoc_per_round: int = 64
    havoc_stack_max: int = 8
    edge_budget: int = 1_000_000
    det_max_bytes: int = 512  # deterministic stage covers at most this prefix


class FuzzerState:
    def __init__(self, config: FuzzConfig):
        self.config = config
        self.queue: list[QueueEntry] = []
        self.coverage = CoverageMap()
        self.rng = np.random.Generator(np.random.PCG64(config.rng_seed))
        self.exec_count = 0
        self.crashes: list[QueueEntry] = []
        self.log: list[str] = []
        self._cursor = 0
        # The entry whose deterministic pass or havoc round a budget cut short,
        # and how many of its candidates ran; the next fuzz_loop call resumes it.
        self._round: tuple[QueueEntry, int] | None = None

    @classmethod
    def from_seeds(cls, seeds: list[bytes], target: TargetProgram, config: FuzzConfig) -> "FuzzerState":
        """Build a state by executing and admitting the initial seed set."""
        state = cls(config)
        if not seeds:
            seeds = [b"0"]  # minimal default seed
        for data in seeds:
            state._run_and_admit(target, data, origin="initial", parent=None, force=True)
        return state

    def _run_and_admit(self, target: TargetProgram, data: bytes, origin: str,
                       parent: int | None, force: bool) -> QueueEntry | None:
        result = execute(target, data, self.config.edge_budget)
        self.exec_count += 1
        novel = self.coverage.update(result.trace)
        crashed = result.trace.outcome == OUTCOME_CRASH
        if not (novel or crashed or force):
            return None
        entry = QueueEntry(
            id=len(self.queue),
            data=data,
            discovered_at=self.exec_count,
            parent=parent,
            origin=origin,
            trace_length=result.trace_length,
            novel=novel,
            outcome=result.trace.outcome,
        )
        self.queue.append(entry)
        if crashed:
            self.crashes.append(entry)
        self.log.append(
            f"{self.exec_count}\t{entry.id}\t{origin}\t{entry.trace_length}\t{int(novel)}"
        )
        return entry


# ---------------------------------------------------------------------------
# Mutations


def _flip_bit(buf: bytearray, bit: int) -> None:
    # MSB-first bit order within each byte.
    buf[bit >> 3] ^= 0x80 >> (bit & 7)


def deterministic_mutations(data: bytes, max_bytes: int) -> Iterator[bytes]:
    """AFL-style deterministic pass: bit/byte flips, arith, interesting values."""
    n = min(len(data), max_bytes)
    nbits = n * 8
    for width in (1, 2, 4):  # walking bit flips
        for start in range(nbits - width + 1):
            buf = bytearray(data)
            for b in range(start, start + width):
                _flip_bit(buf, b)
            yield bytes(buf)
    for width in (1, 2, 4):  # walking byte flips
        for start in range(n - width + 1):
            buf = bytearray(data)
            for i in range(start, start + width):
                buf[i] ^= 0xFF
            yield bytes(buf)
    for i in range(n):  # 8-bit arithmetic, wrapping
        for d in range(1, ARITH_MAX + 1):
            for sign in (1, -1):
                buf = bytearray(data)
                buf[i] = (buf[i] + sign * d) & 0xFF
                yield bytes(buf)
    for i in range(n - 1):  # 16-bit little-endian arithmetic, wrapping
        orig = data[i] | (data[i + 1] << 8)
        for d in range(1, ARITH_MAX + 1):
            for sign in (1, -1):
                val = (orig + sign * d) & 0xFFFF
                buf = bytearray(data)
                buf[i] = val & 0xFF
                buf[i + 1] = val >> 8
                yield bytes(buf)
    for i in range(n):  # interesting 8-bit values
        for v in INTERESTING_8:
            if v != data[i]:
                buf = bytearray(data)
                buf[i] = v
                yield bytes(buf)
    for i in range(n - 1):  # interesting 16-bit values, little-endian
        orig = data[i] | (data[i + 1] << 8)
        for v in INTERESTING_16:
            val = v & 0xFFFF
            if val != orig:
                buf = bytearray(data)
                buf[i] = val & 0xFF
                buf[i + 1] = val >> 8
                yield bytes(buf)


def havoc(data: bytes, queue: list[QueueEntry], rng: np.random.Generator,
          config: FuzzConfig) -> bytes:
    """Stack 1..havoc_stack_max random mutations on one input."""
    buf = bytearray(data)
    n_ops = int(rng.integers(1, config.havoc_stack_max + 1))
    for _ in range(n_ops):
        op = int(rng.integers(0, 10))
        n = len(buf)
        if op == 0:  # flip a random bit
            _flip_bit(buf, int(rng.integers(0, n * 8)))
        elif op == 1:  # random byte
            buf[int(rng.integers(0, n))] = int(rng.integers(0, 256))
        elif op == 2:  # interesting 8-bit
            buf[int(rng.integers(0, n))] = INTERESTING_8[int(rng.integers(0, len(INTERESTING_8)))]
        elif op == 3:  # arith8
            i = int(rng.integers(0, n))
            d = int(rng.integers(1, ARITH_MAX + 1)) * (1 if rng.integers(0, 2) else -1)
            buf[i] = (buf[i] + d) & 0xFF
        elif op == 4 and n >= 2:  # arith16 little-endian
            i = int(rng.integers(0, n - 1))
            d = int(rng.integers(1, ARITH_MAX + 1)) * (1 if rng.integers(0, 2) else -1)
            val = ((buf[i] | (buf[i + 1] << 8)) + d) & 0xFFFF
            buf[i] = val & 0xFF
            buf[i + 1] = val >> 8
        elif op == 5 and n >= 2:  # interesting 16-bit
            i = int(rng.integers(0, n - 1))
            val = INTERESTING_16[int(rng.integers(0, len(INTERESTING_16)))] & 0xFFFF
            buf[i] = val & 0xFF
            buf[i + 1] = val >> 8
        elif op == 6 and n >= 2:  # delete block (never below 1 byte)
            ln = int(rng.integers(1, n))
            start = int(rng.integers(0, n - ln + 1))
            del buf[start : start + ln]
        elif op == 7:  # duplicate/insert block from self
            ln = int(rng.integers(1, n + 1))
            src = int(rng.integers(0, n - ln + 1))
            dst = int(rng.integers(0, n + 1))
            buf[dst:dst] = buf[src : src + ln]
        elif op == 8 and n >= 2:  # overwrite block with a constant byte
            ln = int(rng.integers(1, n))
            start = int(rng.integers(0, n - ln + 1))
            fill = int(rng.integers(0, 256))
            buf[start : start + ln] = bytes([fill]) * ln
        elif op == 9 and len(queue) >= 2:  # splice with another queue entry
            other = queue[int(rng.integers(0, len(queue)))].data
            if other:
                cut_a = int(rng.integers(0, n + 1))
                cut_b = int(rng.integers(0, len(other) + 1))
                buf = bytearray(buf[:cut_a] + other[cut_b:])
        if len(buf) > config.max_len:
            del buf[config.max_len :]
        if not buf:
            buf = bytearray(b"\x00")
    return bytes(buf)


def mutate(entry: QueueEntry, queue: list[QueueEntry], rng: np.random.Generator,
           config: FuzzConfig | None = None) -> bytes:
    """One havoc-style mutation of a queue entry."""
    if not entry.data:
        raise UsageError("cannot mutate an empty input")
    return havoc(entry.data, queue, rng, config or FuzzConfig())


# ---------------------------------------------------------------------------
# Main loop


def fuzz_loop(state: FuzzerState, target: TargetProgram, exec_budget: int) -> list[QueueEntry]:
    """Run mutation executions until `exec_budget` is spent; return admissions."""
    if not state.queue:
        raise UsageError("fuzz_loop needs a non-empty queue; use FuzzerState.from_seeds")
    new_entries: list[QueueEntry] = []
    spent = 0
    while spent < exec_budget:
        if state._round is None:
            state._round = (state.queue[state._cursor % len(state.queue)], 0)
            state._cursor += 1
        entry, done = state._round
        if entry.det_done:
            stage = (havoc(entry.data, state.queue, state.rng, state.config)
                     for _ in range(done, state.config.havoc_per_round))
        else:
            stage = islice(deterministic_mutations(entry.data, state.config.det_max_bytes),
                           done, None)
        for candidate in stage:
            admitted = state._run_and_admit(
                target, candidate, origin="mutation", parent=entry.id, force=False
            )
            spent += 1
            done += 1
            if admitted is not None:
                new_entries.append(admitted)
            if spent >= exec_budget:
                # Left for the next call to resume; the check comes after the
                # exec so that no havoc draw is spent on an unrun candidate.
                state._round = (entry, done)
                break
        else:
            entry.det_done = True
            state._round = None
    return new_entries


def reinitialize(state: FuzzerState, batch, target: TargetProgram) -> list[QueueEntry]:
    """Inject a synthetic seed batch: execute each seed and admit unconditionally."""
    if not batch.seeds:
        raise UsageError("cannot reinitialize from an empty batch")
    origin = "synthetic:" + ("rand" if batch.strategy.startswith("rand") else batch.strategy)
    admitted = []
    for data in batch.seeds:
        entry = state._run_and_admit(target, data or b"\x00", origin=origin,
                                     parent=None, force=True)
        admitted.append(entry)
    return admitted


def replay_audit(queue: list[QueueEntry], target: TargetProgram,
                 edge_budget: int = 1_000_000) -> bool:
    """Re-execute the queue in id order against a fresh map and confirm every
    mutation-origin entry was coverage-novel at its admission point."""
    cov = CoverageMap()
    for entry in queue:
        result = execute(target, entry.data, edge_budget)
        novel = cov.update(result.trace)
        if entry.origin == "mutation" and entry.outcome != OUTCOME_CRASH and not novel:
            return False
        if result.trace_length != entry.trace_length:
            return False
    return True


def run_workers(n_workers: int, target: TargetProgram, seeds: list[bytes],
                exec_budget: int, config: FuzzConfig,
                worker_seeds: list[int] | None = None) -> list[FuzzerState]:
    """Run n fully independent fuzzing loops (shared-nothing)."""
    if n_workers < 1:
        raise UsageError("need at least one worker")
    if worker_seeds is None:
        worker_seeds = [config.rng_seed + i for i in range(n_workers)]
    if len(worker_seeds) != n_workers:
        raise UsageError("worker_seeds length must equal n_workers")
    states = []
    for wseed in worker_seeds:
        wconfig = FuzzConfig(**{**config.__dict__, "rng_seed": wseed})
        state = FuzzerState.from_seeds(seeds, target, wconfig)
        fuzz_loop(state, target, exec_budget)
        states.append(state)
    return states
