"""Coverage-guided mutational fuzzing loop with mid-run reinitialization.

One deterministic mutation pass (bit/byte flips, arithmetic, interesting
values) per queue entry on first selection, havoc-only afterwards; a budget
that ends mid-pass or mid-round leaves it to be resumed by the next call, so
a run split over several calls equals one call on the total budget. Selection
is round-robin so reinitialization strategies compete on equal footing.
All randomness flows from a single seeded generator, and time is virtual
(the execution counter), so runs are bit-reproducible.

A deterministic candidate equal to an earlier one of its pass (an arith or
interesting value a bit flip already wrote, say) is charged one exec of
virtual time but not run again, as AFL skips such candidates: it could set
no new coverage bit, so it is admitted only if its first occurrence crashed,
with that occurrence's outcome. Queues and exec counts are those of a loop
that runs every candidate.

`run_workers` runs several fuzzers that differ only in their generator
seed. Only havoc draws from the generator, so their runs agree up to the
first havoc round: that deterministic prefix is fuzzed once and copied, and
each worker's state still equals that of its own run.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterator

import numpy as np

from .coverage import CoverageMap
from .errors import UsageError
from .targets import DEFAULT_EDGE_BUDGET, OUTCOME_CRASH, TargetProgram, execute

MAX_INPUT_LEN = 4096
HAVOC_PER_ROUND = 64  # havoc execs per round on an entry whose pass is done
HAVOC_STACK_MAX = 8  # a havoc candidate stacks 1..HAVOC_STACK_MAX mutations
DET_MAX_BYTES = 512  # the deterministic pass covers at most this prefix

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
    edge_budget: int = DEFAULT_EDGE_BUDGET

    def __post_init__(self):
        if self.edge_budget < 1:
            raise UsageError(f"FuzzConfig.edge_budget must be >= 1, got {self.edge_budget}")


class FuzzerState:
    def __init__(self, config: FuzzConfig):
        self.config = config
        self.queue: list[QueueEntry] = []
        self.coverage = CoverageMap()
        self.rng = np.random.Generator(np.random.PCG64(config.rng_seed))
        self.exec_count = 0
        self.crashes: list[QueueEntry] = []
        self._cursor = 0
        # The entry whose deterministic pass or havoc round a budget cut short,
        # how many of its candidates ran, and the crash entries they admitted
        # by candidate index; the next fuzz_loop call resumes it.
        self._round: tuple[QueueEntry, int, dict[int, QueueEntry]] | None = None

    @classmethod
    def from_seeds(cls, seeds: list[bytes], target: TargetProgram, config: FuzzConfig) -> "FuzzerState":
        """Build a state by executing and admitting the initial seed set."""
        state = cls(config)
        if not seeds:
            seeds = [b"0"]  # minimal default seed
        for index, data in enumerate(seeds):
            if not data:
                raise UsageError(f"seed {index} is empty; havoc cannot mutate an empty input")
            state._run_and_admit(target, data, origin="initial", parent=None, force=True)
        return state

    def _run_and_admit(self, target: TargetProgram, data: bytes, origin: str,
                       parent: int | None, force: bool) -> QueueEntry | None:
        result = execute(target, data, self.config.edge_budget)
        self.exec_count += 1
        novel = self.coverage.update(result.trace)
        outcome = result.trace.outcome
        if not (novel or outcome == OUTCOME_CRASH or force):
            return None
        return self._admit(data, origin, parent, result.trace_length, outcome, novel)

    def _admit(self, data: bytes, origin: str, parent: int | None, trace_length: int,
               outcome: str, novel: bool) -> QueueEntry:
        """Append an entry for the input just charged to exec_count."""
        entry = QueueEntry(
            id=len(self.queue),
            data=data,
            discovered_at=self.exec_count,
            parent=parent,
            origin=origin,
            trace_length=trace_length,
            novel=novel,
            outcome=outcome,
        )
        self.queue.append(entry)
        if outcome == OUTCOME_CRASH:
            self.crashes.append(entry)
        return entry


# ---------------------------------------------------------------------------
# Mutations


def _flip_bit(buf: bytearray, bit: int) -> None:
    # MSB-first bit order within each byte.
    buf[bit >> 3] ^= 0x80 >> (bit & 7)


def deterministic_mutations(data: bytes, max_bytes: int) -> Iterator[bytes | int]:
    """AFL-style deterministic pass: bit/byte flips, arith, interesting values.

    Yields every candidate in pass order. A candidate equal to an earlier one
    of the same pass is yielded as the index (in pass order, from 0) of its
    first occurrence instead of its bytes. The check is exact: every
    candidate but a 4-byte flip changes at most 2 adjacent bytes, so it is
    keyed by where its changed bytes are and their new values, packed into
    one int. No later candidate changes 4 bytes, so 4-byte flips are never
    keyed. The key map lives for one pass: on a 600-byte input (a 512-byte
    prefix, 94,611 candidates, 42,497 of them repeats) it peaks at 6.6 MB
    under tracemalloc.
    """
    first: dict[int, int] = {}  # change key -> pass index of its first candidate
    for index, (pos, new) in enumerate(_det_changes(data, min(len(data), max_bytes))):
        if len(new) == 4:
            yield data[:pos] + new + data[pos + 4 :]
            continue
        if len(new) == 1:
            key = pos << 17 | new[0]
        elif new[0] == data[pos]:  # only byte pos + 1 changes
            key = (pos + 1) << 17 | new[1]
        elif new[1] == data[pos + 1]:  # only byte pos changes
            key = pos << 17 | new[0]
        else:
            key = pos << 17 | 1 << 16 | new[0] << 8 | new[1]
        earlier = first.setdefault(key, index)
        if earlier == index:
            yield data[:pos] + new + data[pos + len(new) :]
        else:
            yield earlier


def _det_changes(data: bytes, n: int) -> Iterator[tuple[int, bytes]]:
    """Each deterministic candidate over data[:n], in pass order, as (pos,
    new): new (1, 2 or 4 bytes) replaces data[pos:pos + len(new)]."""
    for width in (1, 2, 4):  # walking bit flips, MSB first within a byte
        for start in range(n * 8 - width + 1):
            buf = bytearray(data[start >> 3 : (start + width - 1 >> 3) + 1])
            for b in range(start, start + width):
                _flip_bit(buf, b - (start & ~7))
            yield start >> 3, bytes(buf)
    for width in (1, 2, 4):  # walking byte flips
        for start in range(n - width + 1):
            yield start, bytes(b ^ 0xFF for b in data[start : start + width])
    for i in range(n):  # 8-bit arithmetic, wrapping
        for d in range(1, ARITH_MAX + 1):
            yield i, bytes(((data[i] + d) & 0xFF,))
            yield i, bytes(((data[i] - d) & 0xFF,))
    for i in range(n - 1):  # 16-bit little-endian arithmetic, wrapping
        orig = data[i] | (data[i + 1] << 8)
        for d in range(1, ARITH_MAX + 1):
            yield i, ((orig + d) & 0xFFFF).to_bytes(2, "little")
            yield i, ((orig - d) & 0xFFFF).to_bytes(2, "little")
    for i in range(n):  # interesting 8-bit values
        for v in INTERESTING_8:
            if v != data[i]:
                yield i, bytes((v,))
    for i in range(n - 1):  # interesting 16-bit values, little-endian
        orig = data[i] | (data[i + 1] << 8)
        for v in INTERESTING_16:
            val = v & 0xFFFF
            if val != orig:
                yield i, val.to_bytes(2, "little")


def havoc(data: bytes, queue: list[QueueEntry], rng: np.random.Generator) -> bytes:
    """Stack 1..HAVOC_STACK_MAX random mutations on one non-empty input."""
    buf = bytearray(data)
    n_ops = int(rng.integers(1, HAVOC_STACK_MAX + 1))
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
        if len(buf) > MAX_INPUT_LEN:
            del buf[MAX_INPUT_LEN:]
        if not buf:
            buf = bytearray(b"\x00")
    return bytes(buf)


# ---------------------------------------------------------------------------
# Main loop


def fuzz_loop(state: FuzzerState, target: TargetProgram, exec_budget: int) -> list[QueueEntry]:
    """Run mutation executions until `exec_budget` is spent; return the
    entries admitted, in id order: the queue's tail `state.queue[start:]`,
    where `start` is the queue's length on entry.

    A deterministic candidate that repeats an earlier one of its pass is
    charged one exec of virtual time but not run: it would set no new
    coverage bit, so it is admitted only when its first occurrence crashed.
    """
    if exec_budget < 0:
        raise UsageError(f"exec_budget must be >= 0, got {exec_budget}")
    if not state.queue:
        raise UsageError("fuzz_loop needs a non-empty queue; use FuzzerState.from_seeds")
    start = len(state.queue)
    spent = 0
    while spent < exec_budget:
        spent += _fuzz_round(state, target, exec_budget - spent)
    return state.queue[start:]


def _next_round_is_havoc(state: FuzzerState) -> bool:
    if state._round is not None:
        return state._round[0].det_done
    return state.queue[state._cursor % len(state.queue)].det_done


def _fuzz_round(state: FuzzerState, target: TargetProgram, exec_budget: int) -> int:
    """Run the open round, or start the next, for at most `exec_budget` (> 0)
    execs; return the execs spent."""
    if state._round is None:
        state._round = (state.queue[state._cursor % len(state.queue)], 0, {})
        state._cursor += 1
    entry, done, crashes = state._round
    if entry.det_done:
        stage = (havoc(entry.data, state.queue, state.rng)
                 for _ in range(done, HAVOC_PER_ROUND))
    else:
        stage = islice(deterministic_mutations(entry.data, DET_MAX_BYTES), done, None)
    spent = 0
    for candidate in stage:
        if isinstance(candidate, int):  # a repeat of candidate number `candidate`
            state.exec_count += 1
            first = crashes.get(candidate)
            if first is not None:
                state._admit(first.data, "mutation", entry.id, first.trace_length,
                             first.outcome, novel=False)
        else:
            admitted = state._run_and_admit(
                target, candidate, origin="mutation", parent=entry.id, force=False
            )
            if admitted is not None and admitted.outcome == OUTCOME_CRASH:
                crashes[done] = admitted
        spent += 1
        done += 1
        if spent >= exec_budget:
            # Left for the next call to resume; the check comes after the
            # exec so that no havoc draw is spent on an unrun candidate.
            state._round = (entry, done, crashes)
            return spent
    entry.det_done = True
    state._round = None
    return spent


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
                 edge_budget: int = DEFAULT_EDGE_BUDGET) -> bool:
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
                exec_budget: int, config: FuzzConfig) -> list[FuzzerState]:
    """Run n fuzzing loops from the same seeds; worker i draws from rng seed
    config.rng_seed + i, and each returned state equals that of its own
    `from_seeds` + `fuzz_loop` run.

    Only havoc draws from the generator, so every worker's run is worker 0's
    up to its first havoc round. That shared deterministic prefix is fuzzed
    once, and each other worker starts from a copy of it (as AFL runs the
    deterministic stages in one instance of a parallel set).
    """
    if n_workers < 1:
        raise UsageError("need at least one worker")
    first = FuzzerState.from_seeds(seeds, target, config)
    spent = 0
    while spent < exec_budget and not _next_round_is_havoc(first):
        spent += _fuzz_round(first, target, exec_budget - spent)
    prefix = pickle.dumps(first)
    states = [first]
    for i in range(1, n_workers):
        state = pickle.loads(prefix)
        state.config = replace(config, rng_seed=config.rng_seed + i)
        state.rng = np.random.Generator(np.random.PCG64(state.config.rng_seed))
        states.append(state)
    for state in states:
        fuzz_loop(state, target, exec_budget - spent)
    return states
