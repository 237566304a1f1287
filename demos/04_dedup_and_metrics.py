#!/usr/bin/env python3
"""Two-worker fuzzing, merge, both dedup passes, and the metrics report.

Distinct trace lengths lower-bound distinct code paths: the report's
unique-length count is what the strategy comparisons are built on.
"""

import tempfile
from pathlib import Path

from ganfuzz.corpus import (
    dedup_by_length,
    dedup_content,
    ensure_trace_lengths,
    merge,
    save_corpus,
    seeds_from_state,
)
from ganfuzz.experiment import compute_report, format_reports_text
from ganfuzz.fuzzer import FuzzConfig, run_workers
from ganfuzz.targets import MINIKEY


def main() -> None:
    states = run_workers(2, MINIKEY, [b"MKEY"], 30_000, FuzzConfig(rng_seed=1))
    with tempfile.TemporaryDirectory() as tmp:
        dirs = []
        for i, state in enumerate(states):
            d = Path(tmp) / f"worker-{i:02d}"
            save_corpus(d, seeds_from_state(state, worker=i))
            dirs.append(d)
            print(f"worker {i}: {len(state.queue)} seeds")

        merged = merge(dirs)
        print(f"\nmerged (content dedup): {len(merged)} seeds "
              f"({sum(len(s.queue) for s in states) - len(merged)} cross-worker dups)")

        merged = ensure_trace_lengths(merged, MINIKEY)
        survivors, collisions = dedup_by_length(merged, MINIKEY)
        print(f"length dedup: {len(survivors)} survivors, {collisions} collisions")

        again, dups = dedup_content(merged)
        assert dups == 0, "content dedup must be idempotent"
        assert len(survivors) <= len(again) <= len(merged)

        report = compute_report(merged, training_lengths=set(), strategy="merged")
        print("\n" + format_reports_text({"merged": report}))


if __name__ == "__main__":
    main()
