#!/usr/bin/env python3
"""Fuzz the built-in minikey target from a single 4-byte seed.

Shows the queue growing as the deterministic and havoc stages uncover the
parser's paths, then proves the run is auditable: every mutation-origin
entry re-verifies as coverage-novel at its admission point.
"""

from ganfuzz.fuzzer import FuzzConfig, FuzzerState, fuzz_loop, replay_audit
from ganfuzz.targets import MINIKEY


def main() -> None:
    state = FuzzerState.from_seeds([b"MKEY"], MINIKEY, FuzzConfig(rng_seed=0))
    print(f"initial queue: {len(state.queue)} entry")

    for budget in (10_000, 20_000, 20_000):
        new = fuzz_loop(state, MINIKEY, budget)
        print(f"+{budget:>6} execs -> {len(new):3} new paths, "
              f"queue {len(state.queue)}, crashes {len(state.crashes)}")

    print("\nlast admissions (exec_count, id, origin, trace_length, novel):")
    for e in state.queue[-5:]:
        print(f"  {e.discovered_at}  {e.id}  {e.origin}  {e.trace_length}  {int(e.novel)}")

    longest = max(state.queue, key=lambda e: e.trace_length)
    print(f"\nlongest path: {longest.trace_length} edges from {longest.data[:24]!r}")
    if state.crashes:
        print(f"crash input: {state.crashes[0].data!r}")

    print("replay audit:", "ok" if replay_audit(state.queue, MINIKEY) else "FAILED")


if __name__ == "__main__":
    main()
